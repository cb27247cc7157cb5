"""Monte Carlo execution of the money protocols and attacks against them.

Attacks run as literal sampling processes: keys and challenges are drawn
from their protocol distributions, measurement outcomes are drawn from
exact Born probabilities, and acceptance is decided by the same predicates
the analytic route uses.  Trials are split into fixed-size batches, each
drawing from its own SFC64 stream spawned from the master seed, so a report
is bit-identical for a given seed no matter how many worker threads run.

Within a batch, only what decides its count is drawn.  Trials are
exchangeable, so a batch keeps just the count of trials still alive and
draws note j for them only (:func:`_survivors`): a row of the note's table,
uniformly or by its row weights, then a uniform that passes the note below
the row's pass probability; once no trial is alive, it draws nothing more.
The quantum, ticket and honest attacks hand :func:`_note_attack` only those
pass probabilities, computed once by the module that defines the attack
(:func:`cloners.accepted_mass`, :func:`channels.clone_rates`), and the
analytic rate is the exact rate of the rows sampled.  The Bell attack's
first verification passes every key at one rate, so each qubit's survivor
count is one binomial draw; its keyed second verification runs through the
same survivor loop.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import channels, cloners, linalg, schemes

BATCH_SIZE = 1 << 16
MAX_BELL_QUBITS = 20
DEFAULT_MAX_WORKERS = 8

SchemeLike = Union[schemes.Ensemble, schemes.TicketScheme]
StrategyLike = Union[channels.ChoiOperator, cloners.TicketStrategy]


def worker_count() -> int:
    """Number of simulation worker threads.

    Defaults to the CPU count (at most ``DEFAULT_MAX_WORKERS``); the
    environment variable ``QMONEY_THREADS`` caps it further.  The thread
    count never changes simulation output, only wall-clock time.
    """
    base = min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS)
    try:
        return max(1, min(base, int(os.environ["QMONEY_THREADS"])))
    except (KeyError, ValueError):
        return base


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
    pass probability of the rows sampled, raised to the number of notes.  The
    empirical rate and the z-score, its gap to the analytic rate in units
    of the binomial standard error, derive from the counts; ``conditional_rate``
    is only set by attacks that verify a second note conditioned on the first.
    ``batches`` is the number of sampling batches run, ``workers`` the threads
    that ran them and ``seconds`` the wall time of the sampling; the last two
    depend on the machine, so they take no part in comparing reports.
    """

    successes: int
    trials: int
    analytic: float
    conditional_rate: float | None = None
    batches: int = 0
    workers: int = field(default=0, compare=False)
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
    """Reject a trial count below 1 or a negative seed, before any work is done."""
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _sum_batches(
    trials: int, seed: int, batch_fn: Callable[[np.random.Generator, int], tuple]
) -> tuple[tuple[int, ...], dict]:
    """Split ``trials`` into fixed batches and sum the per-batch counters.

    Each batch draws from an SFC64 stream spawned from the master seed, and
    batch boundaries depend only on the trial count, so the reduction is an
    order-independent integer sum: worker scheduling cannot affect it.  Each
    worker runs one pool task, calling ``batch_fn`` on every workers-th batch.
    Returns the counters and the batches, workers and seconds they took.
    """
    start = time.perf_counter()
    sizes = [min(BATCH_SIZE, trials - first) for first in range(0, trials, BATCH_SIZE)]
    jobs = list(zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes))

    def run(chunk):
        return [batch_fn(np.random.Generator(np.random.SFC64(child)), count)
                for child, count in chunk]

    workers = min(worker_count(), len(jobs))
    if workers == 1:
        results = run(jobs)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(run, [jobs[i::workers] for i in range(workers)])
            results = [r for chunk in chunks for r in chunk]
    counts = tuple(int(sum(column)) for column in zip(*results))
    run = dict(batches=len(sizes), workers=workers, seconds=time.perf_counter() - start)
    return counts, run


def _sample_rows(cdf_row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical index of each draw: the thresholds of ``cdf_row`` at or below ``u[i]``.

    Equivalent to a right-bisection search in the row; zero-probability
    bins are skipped because their thresholds coincide with a neighbor.
    """
    index = np.zeros(len(u), dtype=np.min_scalar_type(len(cdf_row)))
    for threshold in cdf_row[:-1]:
        index += threshold <= u
    return index


def _uniform_rows(rng: np.random.Generator, count: int, rows: int) -> np.ndarray:
    """``count`` table rows, each drawn uniformly from ``range(rows)`` with one draw,
    in the narrowest unsigned dtype that holds ``rows - 1``."""
    return rng.integers(0, rows, size=count, dtype=np.min_scalar_type(rows - 1))


def _survivors(mass: np.ndarray, repetitions: int,
               row_cdf: np.ndarray | None = None) -> Callable[[np.random.Generator, int], int]:
    """A kernel ``survive(rng, alive)``: how many of ``alive`` trials pass ``repetitions`` notes.

    Note j draws, for the trials alive after notes 0..j-1 only, a row of
    ``mass`` (one uniform integer, or one uniform against ``row_cdf``), then a
    uniform that passes the note below the row's mass, and keeps just the
    count that passed: trials are exchangeable, so it has the law of "every note
    passes".  A table whose rows all have mass 1 is not drawn, as no draw fails
    it, and the loop stops once no trial is alive, as an empty draw takes
    nothing from the stream.  Each worker thread reuses its own buffers across
    the batches of one call.
    """
    local = threading.local()
    notes = 0 if mass.min() >= 1.0 else repetitions

    def survive(rng: np.random.Generator, alive: int) -> int:
        if not hasattr(local, "buffers"):
            local.buffers = tuple(np.empty(BATCH_SIZE, t) for t in (float, float, np.intp, bool))
        for _ in range(notes):
            if not alive:
                break
            u, gathered, row, passed = (b[:alive] for b in local.buffers)
            if row_cdf is None:  # rows come as uint8 or uint16; copyto widens them
                np.copyto(row, _uniform_rows(rng, alive, len(mass)))
            else:
                np.copyto(row, _sample_rows(row_cdf, rng.random(out=u)))
            # Rows come from the table, so "clip" never clips; "raise" would copy.
            np.take(mass, row, out=gathered, mode="clip")
            alive = int(np.count_nonzero(np.less(rng.random(out=u), gathered, out=passed)))
        return alive

    return survive


def _note_attack(trials: int, seed: int, repetitions: int, mass: np.ndarray,
                 row_weights: np.ndarray | None = None) -> TrialReport:
    """Count the trials whose ``repetitions`` notes all pass, by the survivor loop
    of :func:`_survivors` on ``mass``, each row's pass probability from the module
    defining the attack (:func:`cloners.accepted_mass`, :func:`channels.clone_rates`),
    rows drawn uniformly or by the CDF of ``row_weights``; a uniform below a row's
    mass is inversion sampling of its outcomes enumerated accepted-first (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. III).  The analytic rate is
    exact for that draw: the (``row_weights``-weighted) mean of ``mass`` raised to ``repetitions``.
    """
    if row_weights is None:
        row_cdf, rate = None, mass.mean()
    else:
        weights = np.clip(row_weights, 0.0, None)
        row_cdf = np.cumsum(weights / weights.sum())
        row_cdf[-1] = 1.0
        rate = np.average(mass, weights=weights)
    survive = _survivors(mass, repetitions, row_cdf)
    (successes,), run = _sum_batches(trials, seed, lambda rng, count: (survive(rng, count),))
    return TrialReport(successes, trials, float(rate) ** repetitions, **run)


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
    # Equal weights make every key a uniform row, drawn with one integer.
    return _note_attack(
        cfg.trials, cfg.seed, cfg.repetitions, channels.clone_rates(strategy, ensemble),
        None if np.all(weights == weights[0]) else weights,
    )


def simulate_ticket_attack(cfg: TrialConfig) -> TrialReport:
    """Run a measurement attack on a classical-verification scheme.

    Per note: draw a key and two independent uniform challenges (one uniform
    draw of their table row), measure the key state once with the POVM the
    strategy assigns to that challenge pair, and accept when both reported
    answers satisfy the scheme's predicate.  Outcomes are sampled from the
    tables of :func:`cloners.outcome_tables`, built once per call, by each
    row's :func:`cloners.accepted_mass`; the analytic rate is their mean (the
    exact strategy value) raised to the number of repetitions.
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


def _bell_probabilities() -> tuple[float, np.ndarray]:
    """Pass probability of a submitted Bell half, and per Wiesner key that of
    the retained half once the submitted one passed.

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

    The bank stops at a trial's first failing qubit.  Trials are exchangeable
    and every key passes at one rate, so a batch draws qubit j's survivor count
    as one binomial variate, its exact law (Kachitvichyanukul & Schmeiser, CACM
    31, 1988).  The keyed second verification runs the survivor loop of
    :func:`_survivors` on the trials that passed; at rate exactly 1 it draws nothing.
    """
    if not 1 <= n <= MAX_BELL_QUBITS:
        raise ValueError(f"note length must lie in [1, {MAX_BELL_QUBITS}], got {n}")
    check_sampling(trials, seed)
    p_pass, p_second = _bell_probabilities()
    second = _survivors(p_second, n)

    def batch(rng: np.random.Generator, alive: int) -> tuple[int, int]:
        for _ in range(n):
            alive = int(rng.binomial(alive, p_pass))
        return alive, second(rng, alive)

    (first_total, second_total), run = _sum_batches(trials, seed, batch)
    conditional = second_total / first_total if first_total else None
    return TrialReport(first_total, trials, 0.5**n, conditional, **run)
