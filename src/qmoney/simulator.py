"""Monte Carlo execution of the money protocols and attacks against them.

Every attack here is a product over notes, and each note draws its own key
and challenges.  A note therefore passes at p, the mean of its table's
per-row pass probabilities (key-weighted for a weighted ensemble),
independently of every other note and trial, so a trial of n notes succeeds
at p^n and the success count is exactly Binomial(trials, p^n).  A report
makes that one draw (Kachitvichyanukul & Schmeiser, CACM 31, 1988) from an
SFC64 generator seeded with the report's seed: it is a pure function of
(scheme, strategy, trials, seed), on one thread, at a cost that does not
grow with the trial or note count.

The pass probabilities are computed once, by the module that defines the
attack (:func:`cloners.accepted_mass`, :func:`channels.clone_rates`), and
``analytic`` is the p^n that is drawn, so it is the exact rate of the
sample.  A rate of exactly 1 or 0 draws exactly every trial or none.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import channels, cloners, linalg, schemes

MAX_BELL_QUBITS = 20

SchemeLike = Union[schemes.Ensemble, schemes.TicketScheme]
StrategyLike = Union[channels.ChoiOperator, cloners.TicketStrategy]


def worker_count() -> int:
    """Threads a simulation runs on: always 1, since a report is one draw.

    Kept for the benchmark, which records it with every run (``perfbench/run.py``).
    """
    return 1


@dataclass(frozen=True)
class TrialConfig:
    """What to simulate: a scheme, an attack strategy, and sampling controls.

    ``repetitions`` asks for that many independent notes per trial; a trial
    succeeds only if every one of them passes both verifications.
    """

    scheme: SchemeLike
    strategy: StrategyLike
    trials: int
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        check_sampling(self.trials, self.seed)
        if self.repetitions < 1:
            raise ValueError(
                f"repetition count must be at least 1, got {self.repetitions}"
            )


@dataclass(frozen=True)
class TrialReport:
    """Outcome counts of a simulation plus the analytic comparison.

    ``analytic`` is the exact success rate of the sampled process: the mean
    pass probability of the note's table, raised to the number of notes.  The
    empirical rate and the z-score, its gap to the analytic rate in units
    of the binomial standard error, derive from the counts; ``conditional_rate``
    is only set by attacks that verify a second note conditioned on the first.
    A report is one draw on one thread, so ``batches`` and ``workers`` are 1;
    ``seconds`` is the wall time of the draw and depends on the machine, so it
    and ``workers`` take no part in comparing reports.
    """

    successes: int
    trials: int
    analytic: float
    conditional_rate: float | None = None
    batches: int = 1
    workers: int = field(default=1, compare=False)
    seconds: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes must lie in [0, {self.trials}], got {self.successes}")

    @property
    def empirical(self) -> float:
        return self.successes / self.trials

    @property
    def z_score(self) -> float:
        """Infinite when an analytic rate of 0 or 1 is missed."""
        gap, se = self.empirical - self.analytic, self.standard_error
        if se > 0.0:
            return gap / se
        return math.copysign(math.inf, gap) if gap else 0.0

    @property
    def standard_error(self) -> float:
        """Binomial standard error at the analytic rate."""
        return math.sqrt(self.analytic * (1.0 - self.analytic) / self.trials)


def check_sampling(trials: int, seed: int) -> None:
    """Reject a trial count outside [1, 2^63 - 1] or a negative seed, before any
    work is done; numpy draws a binomial count as a 64-bit signed integer."""
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")
    if trials > np.iinfo(np.int64).max:
        raise ValueError(f"trial count must be at most 2^63 - 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _note_attack(trials: int, seed: int, repetitions: int, mass: np.ndarray,
                 row_weights: np.ndarray | None = None) -> TrialReport:
    """Count the trials whose ``repetitions`` notes all pass, ``mass`` holding each
    row's pass probability from the module defining the attack
    (:func:`cloners.accepted_mass`, :func:`channels.clone_rates`) and rows drawn
    uniformly or by ``row_weights``.  A note passes at the (weighted) mean of
    ``mass``, so the count is one binomial draw at that mean raised to
    ``repetitions``, which is also the analytic rate.
    """
    start = time.perf_counter()
    if row_weights is None:
        rate = mass.mean()
    else:
        rate = np.average(mass, weights=np.clip(row_weights, 0.0, None))
    analytic = float(rate) ** repetitions
    successes = int(np.random.Generator(np.random.SFC64(seed)).binomial(trials, analytic))
    return TrialReport(successes, trials, analytic, seconds=time.perf_counter() - start)


def simulate_quantum_attack(cfg: TrialConfig) -> TrialReport:
    """Run a cloning attack: sample a key, clone, verify both clones.

    Per note, the key state is drawn with its ensemble weight and passes at
    its :func:`channels.clone_rates` entry: the probability that both output
    factors of the cloner's channel pass their test against the key-state
    projector.  The analytic rate is their weighted mean (the channel's
    success probability) raised to the number of repetitions.
    """
    ensemble, strategy = cfg.scheme, cfg.strategy
    if not isinstance(ensemble, schemes.Ensemble):
        raise TypeError("quantum attack needs an Ensemble scheme")
    if not isinstance(strategy, channels.ChoiOperator):
        raise TypeError("quantum attack needs a ChoiOperator strategy")
    weights = np.array([w for w, _ in ensemble.items])
    # Equal weights take the plain mean of the rates.
    return _note_attack(
        cfg.trials, cfg.seed, cfg.repetitions, channels.clone_rates(strategy, ensemble),
        None if np.all(weights == weights[0]) else weights,
    )


def simulate_ticket_attack(cfg: TrialConfig) -> TrialReport:
    """Run a measurement attack on a classical-verification scheme.

    Per note: draw a key and two independent uniform challenges (one uniform
    draw of their table row), measure the key state once with the POVM the
    strategy assigns to that challenge pair, and accept when both reported
    answers satisfy the scheme's predicate.  Each row of the tables of
    :func:`cloners.outcome_tables`, built once per call, passes at its
    :func:`cloners.accepted_mass`; the analytic rate is their mean (the exact
    strategy value) raised to the number of repetitions.
    """
    scheme, strategy = cfg.scheme, cfg.strategy
    if not isinstance(scheme, schemes.TicketScheme):
        raise TypeError("ticket attack needs a TicketScheme")
    if not isinstance(strategy, cloners.TicketStrategy):
        raise TypeError("ticket attack needs a TicketStrategy")
    # Row (2*c1 + c2)*2d + key is [challenge pair, key]; a uniform row is a
    # uniform key and two uniform challenges.
    mass = cloners.accepted_mass(*cloners.outcome_tables(strategy, scheme))
    return _note_attack(cfg.trials, cfg.seed, cfg.repetitions, mass)


def simulate_honest_verification(
    scheme: schemes.TicketScheme, trials: int, seed: int = 0
) -> TrialReport:
    """Honest single verification: measure in the challenged basis, answer it.

    The holder measures the key state in whichever basis the single
    challenge names and reports the observed index.  The analytic rate is the
    mean :func:`cloners.accepted_mass` of the sampled tables: 1 unless the
    scheme's predicate rejects some honest answers.
    """
    check_sampling(trials, seed)
    bases = np.stack((scheme.pair.basis0, scheme.pair.basis1))
    # [key, challenge, answer]: Born probabilities in the challenged basis, and
    # acceptance; row 2*key + c of the flat tables is [key, challenge], drawn uniformly.
    prob = np.abs(np.einsum("cit,ki->kct", bases.conj(), scheme.key_states())) ** 2
    accept = scheme.accept_table().transpose(2, 0, 1)
    return _note_attack(trials, seed, 1, cloners.accepted_mass(prob, accept))


@functools.cache
def _bell_probabilities() -> tuple[float, np.ndarray]:
    """Pass probability of a submitted Bell half, and per Wiesner key that of
    the retained half once the submitted one passed.  Neither depends on any
    argument, so they are computed once per process and the per-key array is
    returned read-only.

    The first is <psi|rho|psi> with rho the submitted half's reduced state,
    which is I/2, so it is the same for every key and is taken at the first.
    Each rate is the Born weight of psi over the weights of both outcomes of
    the verifying measurement {psi, psi_perp}, all computed the same way, so a
    rate of exactly 1/2 or 1 comes out so in floating point; dividing by a
    trace or a norm computed otherwise leaves it off by roundoff.
    """
    def rate(rho: np.ndarray, psi: np.ndarray) -> float:
        perp = np.array([-psi[1].conj(), psi[0].conj()])
        passed, failed = (float(np.real(v.conj() @ rho @ v)) for v in (psi, perp))
        return passed / (passed + failed)

    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    submitted = linalg.partial_trace(np.outer(bell, bell.conj()), (2, 2), (0,))
    states = [psi for _, psi in schemes.wiesner_ensemble().items]
    p_second = np.empty(len(states))
    for i, psi in enumerate(states):
        post = np.kron(np.outer(psi, psi.conj()), np.eye(2)) @ bell
        p_second[i] = rate(linalg.partial_trace(np.outer(post, post.conj()), (2, 2), (1,)), psi)
    p_second.flags.writeable = False
    return rate(submitted, states[0]), p_second


def simulate_bell_attack(n: int, trials: int, seed: int = 0) -> TrialReport:
    """Substitute halves of fresh Bell pairs for an n-qubit note.

    Per trial: for each of the n qubits a Bell pair is prepared, one half is
    submitted in place of the note qubit, and the other half is retained.
    The submitted halves are maximally mixed, so each qubit passes the bank's
    verification with probability 1/2 whatever its key, and the note with
    2^-n.  When it does, the projective update collapses each retained half
    onto the conjugate key state, which for these real-amplitude states is
    the key state itself: the retained note then passes a second
    verification with certainty, and the attacker still holds the untouched
    original.  The report's rate covers the first note; ``conditional_rate``
    is the second-note rate among accepting trials.

    Every key passes the first verification at one rate, so the note passes
    at that rate to the n, and the accepted count is one binomial draw.  The
    second verification is keyed: a retained note passes at the mean of the
    per-key rates to the n, drawn for the accepted trials only from the same
    generator.  That mean is exactly 1, which draws every accepted trial.
    """
    if not 1 <= n <= MAX_BELL_QUBITS:
        raise ValueError(f"note length must lie in [1, {MAX_BELL_QUBITS}], got {n}")
    check_sampling(trials, seed)
    start = time.perf_counter()
    p_pass, p_second = _bell_probabilities()
    rng = np.random.Generator(np.random.SFC64(seed))
    rate = p_pass**n
    first = int(rng.binomial(trials, rate))
    second = int(rng.binomial(first, float(p_second.mean()) ** n))
    conditional = second / first if first else None
    return TrialReport(first, trials, rate, conditional, seconds=time.perf_counter() - start)
