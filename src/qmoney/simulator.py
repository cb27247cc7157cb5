"""Monte Carlo execution of the money protocols and attacks against them.

Attacks run as literal sampling processes: keys and challenges are drawn
from their protocol distributions, measurement outcomes are drawn from
exact Born probabilities, and acceptance is decided by the same predicates
the analytic route uses.  Trials are split into fixed-size batches, each
owning a counter-based generator spawned from the master seed, so a report
is bit-identical for a given seed no matter how many worker threads run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import channels, cloners, linalg, schemes
from .exceptions import DimensionError

BATCH_SIZE = 1 << 16
MAX_BELL_QUBITS = 20
DEFAULT_MAX_WORKERS = 8
DISTRIBUTION_TOL = 1e-9

SchemeLike = Union[schemes.Ensemble, schemes.TicketScheme]
StrategyLike = Union[channels.ChoiOperator, cloners.TicketStrategy]


def worker_count() -> int:
    """Number of simulation worker threads.

    Defaults to the CPU count (at most ``DEFAULT_MAX_WORKERS``); the
    environment variable ``QMONEY_THREADS`` caps it further.  The thread
    count never changes simulation output, only wall-clock time.
    """
    base = min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS)
    raw = os.environ.get("QMONEY_THREADS")
    if raw is None:
        return base
    try:
        cap = int(raw)
    except ValueError:
        return base
    return max(1, min(base, cap))


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
        if self.trials < 1:
            raise ValueError(f"trial count must be at least 1, got {self.trials}")
        if self.repetitions < 1:
            raise ValueError(
                f"repetition count must be at least 1, got {self.repetitions}"
            )


@dataclass(frozen=True)
class TrialReport:
    """Outcome counts of a simulation plus the analytic comparison.

    The z-score measures the gap between the empirical rate and the analytic
    one in units of the binomial standard error; ``conditional_rate`` is only
    set by attacks that verify a second note conditioned on the first.
    """

    successes: int
    trials: int
    empirical: float
    analytic: float | None
    z_score: float | None
    conditional_rate: float | None = None

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError(
                f"successes must lie in [0, {self.trials}], got {self.successes}"
            )

    @property
    def standard_error(self) -> float:
        """Binomial standard error at the analytic rate (empirical fallback)."""
        p = self.analytic if self.analytic is not None else self.empirical
        return math.sqrt(p * (1.0 - p) / self.trials)


def _make_report(
    successes: int,
    trials: int,
    analytic: float | None,
    conditional_rate: float | None = None,
) -> TrialReport:
    empirical = successes / trials
    z = None
    if analytic is not None:
        se = math.sqrt(analytic * (1.0 - analytic) / trials)
        if se > 0.0:
            z = (empirical - analytic) / se
        elif empirical == analytic:
            z = 0.0
        else:
            z = math.inf if empirical > analytic else -math.inf
    return TrialReport(successes, trials, empirical, analytic, z, conditional_rate)


def _sum_batches(
    trials: int, seed: int, batch_fn: Callable[[np.random.Generator, int], tuple]
) -> tuple[int, ...]:
    """Split ``trials`` into fixed batches and sum the per-batch counters.

    Each batch draws from a Philox stream spawned from the master seed, and
    batch boundaries depend only on the trial count, so the reduction is an
    order-independent integer sum: worker scheduling cannot affect it.
    """
    sizes = [BATCH_SIZE] * (trials // BATCH_SIZE)
    if trials % BATCH_SIZE:
        sizes.append(trials % BATCH_SIZE)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    def run(args):
        child, count = args
        return batch_fn(np.random.Generator(np.random.Philox(child)), count)

    workers = min(worker_count(), len(sizes))
    if workers == 1:
        results = [run(args) for args in zip(children, sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, zip(children, sizes)))
    return tuple(int(sum(r[i] for r in results)) for i in range(len(results[0])))


def _cdf_rows(prob: np.ndarray) -> np.ndarray:
    """Row-wise CDFs for categorical sampling, validated and exactly capped."""
    prob = np.asarray(prob, dtype=np.float64)
    if prob.min() < -DISTRIBUTION_TOL:
        raise ValueError(f"negative outcome probability {prob.min():.3e}")
    prob = np.clip(prob, 0.0, None)
    sums = prob.sum(axis=1)
    if np.abs(sums - 1.0).max() > DISTRIBUTION_TOL:
        raise ValueError("outcome probabilities do not sum to one")
    cdf = np.cumsum(prob / sums[:, None], axis=1)
    cdf[:, -1] = 1.0
    return cdf


def _sample_rows(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical index per row: count of CDF thresholds at or below u.

    Equivalent to a right-bisection search in each row; zero-probability
    bins are skipped because their thresholds coincide with a neighbor.
    """
    return (u[:, None] >= cdf_rows[:, :-1]).sum(axis=1)


def simulate_quantum_attack(cfg: TrialConfig) -> TrialReport:
    """Run a cloning attack: sample a key, clone, verify both clones.

    Per note, the key state is drawn from the ensemble, the cloner's channel
    is applied, and both output factors are tested independently against the
    key-state projector; the note passes when both tests do.  The analytic
    rate is the exact channel success probability raised to the number of
    repetitions.
    """
    ensemble = cfg.scheme
    strategy = cfg.strategy
    if not isinstance(ensemble, schemes.Ensemble):
        raise TypeError("quantum attack needs an Ensemble scheme")
    if not isinstance(strategy, channels.ChoiOperator):
        raise TypeError("quantum attack needs a ChoiOperator strategy")
    d = ensemble.dim
    if strategy.in_dim != d or strategy.out_dim != d * d:
        raise DimensionError(
            f"cloner maps {strategy.in_dim} -> {strategy.out_dim}, "
            f"need {d} -> {d * d}"
        )

    weights = np.array([w for w, _ in ensemble.items])
    key_cdf = np.cumsum(weights / weights.sum())
    key_cdf[-1] = 1.0
    eye = np.eye(d)
    rows = []
    for _, psi in ensemble.items:
        proj = np.outer(psi, psi.conj())
        rho = channels.apply_channel(strategy, proj)
        both = float(np.real(np.trace(np.kron(proj, proj) @ rho)))
        first = float(np.real(np.trace(np.kron(proj, eye) @ rho)))
        second = float(np.real(np.trace(np.kron(eye, proj) @ rho)))
        rows.append([both, first - both, second - both, 1.0 - first - second + both])
    out_cdf = _cdf_rows(np.array(rows))

    def batch(rng: np.random.Generator, count: int) -> tuple[int]:
        m = count * cfg.repetitions
        keys = np.searchsorted(key_cdf, rng.random(m), side="right")
        outcome = _sample_rows(out_cdf[keys], rng.random(m))
        ok = (outcome == 0).reshape(count, cfg.repetitions).all(axis=1)
        return (int(np.count_nonzero(ok)),)

    (successes,) = _sum_batches(cfg.trials, cfg.seed, batch)
    analytic = channels.success_probability(strategy, ensemble) ** cfg.repetitions
    return _make_report(successes, cfg.trials, analytic)


def simulate_ticket_attack(cfg: TrialConfig) -> TrialReport:
    """Run a measurement attack on a classical-verification scheme.

    Per note: draw a key and two independent uniform challenges, measure the
    key state once with the POVM the strategy assigns to that challenge
    pair, and accept when both reported answers satisfy the scheme's
    predicate.  Outcomes are sampled from the tables of
    :func:`cloners.outcome_tables`, built once per call, and the analytic
    rate is their :func:`cloners.outcome_value` (the exact strategy value)
    raised to the number of repetitions.
    """
    scheme = cfg.scheme
    strategy = cfg.strategy
    if not isinstance(scheme, schemes.TicketScheme):
        raise TypeError("ticket attack needs a TicketScheme")
    if not isinstance(strategy, cloners.TicketStrategy):
        raise TypeError("ticket attack needs a TicketStrategy")
    prob, accept = cloners.outcome_tables(strategy, scheme)
    cdf = _cdf_rows(prob.reshape(-1, prob.shape[2])).reshape(prob.shape)

    def batch(rng: np.random.Generator, count: int) -> tuple[int]:
        m = count * cfg.repetitions
        key_idx = rng.integers(0, prob.shape[1], size=m)
        c1 = rng.integers(0, 2, size=m)
        c2 = rng.integers(0, 2, size=m)
        ci = 2 * c1 + c2
        outcome = _sample_rows(cdf[ci, key_idx], rng.random(m))
        ok = accept[ci, key_idx, outcome].reshape(count, cfg.repetitions).all(axis=1)
        return (int(np.count_nonzero(ok)),)

    (successes,) = _sum_batches(cfg.trials, cfg.seed, batch)
    analytic = cloners.outcome_value(prob, accept) ** cfg.repetitions
    return _make_report(successes, cfg.trials, analytic)


def simulate_honest_verification(
    scheme: schemes.TicketScheme, trials: int, seed: int = 0
) -> TrialReport:
    """Honest single verification: measure in the challenged basis, answer it.

    The holder measures the key state in whichever basis the single
    challenge names and reports the observed index.  The scheme's predicate
    accepts this with certainty, so the analytic rate is 1.
    """
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")
    bases = np.stack((scheme.pair.basis0, scheme.pair.basis1))
    # [key, challenge, answer]: Born probabilities in the challenged basis, and acceptance.
    prob = np.abs(np.einsum("cit,ki->kct", bases.conj(), scheme.key_states())) ** 2
    accept = scheme.accept_table().transpose(2, 0, 1)
    cdf = _cdf_rows(prob.reshape(-1, scheme.dim)).reshape(prob.shape)

    def batch(rng: np.random.Generator, count: int) -> tuple[int]:
        key_idx = rng.integers(0, len(prob), size=count)
        c = rng.integers(0, 2, size=count)
        answer = _sample_rows(cdf[key_idx, c], rng.random(count))
        return (int(np.count_nonzero(accept[key_idx, c, answer])),)

    (successes,) = _sum_batches(trials, seed, batch)
    return _make_report(successes, trials, 1.0)


def simulate_bell_attack(n: int, trials: int, seed: int = 0) -> TrialReport:
    """Substitute halves of fresh Bell pairs for an n-qubit note.

    Per trial: for each of the n qubits a Bell pair is prepared, one half is
    submitted in place of the note qubit, and the other half is retained.
    The submitted halves are maximally mixed, so the bank's verification
    passes with probability 2^-n.  When it does, the projective update
    collapses each retained half onto the conjugate key state, which for
    these real-amplitude states is the key state itself: the retained note
    then passes a second verification with certainty, and the attacker still
    holds the untouched original.  The report's rate covers the first note;
    ``conditional_rate`` is the second-note rate among accepting trials.
    """
    if not 1 <= n <= MAX_BELL_QUBITS:
        raise ValueError(f"note length must lie in [1, {MAX_BELL_QUBITS}], got {n}")
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")

    ensemble = schemes.wiesner_ensemble()
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    n_states = len(ensemble.items)
    p_first = np.empty(n_states)
    p_second = np.empty(n_states)
    for i, (_, psi) in enumerate(ensemble.items):
        proj = np.outer(psi, psi.conj())
        post = np.kron(proj, np.eye(2)) @ bell
        p = float(np.real(np.vdot(post, post)))
        retained = linalg.partial_trace(np.outer(post, post.conj()) / p, (2, 2), (1,))
        p_first[i] = p
        p_second[i] = float(np.real(psi.conj() @ retained @ psi))

    def batch(rng: np.random.Generator, count: int) -> tuple[int, int]:
        k = rng.integers(0, n_states, size=(count, n))
        first = (rng.random((count, n)) < p_first[k]).all(axis=1)
        second = first & (rng.random((count, n)) < p_second[k]).all(axis=1)
        return int(np.count_nonzero(first)), int(np.count_nonzero(second))

    first_total, second_total = _sum_batches(trials, seed, batch)
    conditional = second_total / first_total if first_total else None
    return _make_report(first_total, trials, 0.5**n, conditional)
