"""Explicit attack strategies with exactly evaluable success probabilities.

Three channel constructions cover the quantum-verification schemes: the
optimal attack on the four-state qubit scheme, the universal symmetric qubit
cloner, and its d-dimensional generalization acting through the symmetric
subspace.  For classical-verification schemes the attacker is a family of
measurements instead of a channel; those are represented measurement-first,
as one POVM per challenge pair of rank-one effects |v><v|, kept as the
vectors v, and the answer pair attached to each outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linalg, schemes
from .channels import ChoiOperator, choi_from_kraus
from .exceptions import ChannelValidationError, DimensionError

CHALLENGE_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Building a strategy's outcome tables and their accepted mass (``simulate --scheme
# ticket:d``) holds this many (4, 2d, d^2) float tables at once: tracemalloc peaks, in
# units of one table, were 3.43, 3.40 and 3.39 for d = 20, 40 and 60.
_PEAK_TABLES = 4


def wiesner_optimal_cloner() -> ChoiOperator:
    """Optimal attack channel against the four-state qubit scheme.

    Two Kraus operators map one qubit to two.  Feeding any of the four scheme
    states and projecting both outputs back onto that state succeeds with
    probability 3/4, which matches the scheme's optimal counterfeiting value.
    """
    a0 = np.array(
        [[3.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.complex128
    ) / math.sqrt(12.0)
    a1 = np.array(
        [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 3.0]], dtype=np.complex128
    ) / math.sqrt(12.0)
    return choi_from_kraus([a0, a1])


def buzek_hillery_cloner() -> ChoiOperator:
    """Universal symmetric qubit cloner.

    Both clones have overlap exactly 2/3 with every pure input state, so this
    single channel is an optimal attack against every qubit scheme whose
    value is 2/3, regardless of which ensemble realizes that value.
    """
    a0 = np.array(
        [[2.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=np.complex128
    ) / math.sqrt(6.0)
    a1 = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0]], dtype=np.complex128
    ) / math.sqrt(6.0)
    return choi_from_kraus([a0, a1])


def werner_cloner(d: int) -> ChoiOperator:
    """Universal symmetric cloner on C^d.

    Acts as rho -> (2/(d+1)) S (rho tensor identity) S with S the projector
    onto the symmetric subspace of two copies.  The joint overlap of the two
    clones with any pure input is 2/(d+1).  The Choi operator is assembled by
    applying the action formula to matrix units, and the constructor's CP/TP
    validation doubles as a correctness check of the assembly.
    """
    if d < 2:
        raise DimensionError(f"need dimension at least 2, got {d}")
    sym = linalg.symmetric_projector(d, 2)
    # Block (i, j) is S (E_ij (x) I) S, summed over the identity's index b.
    choi = (2.0 / (d + 1.0)) * np.einsum(
        "oib,jbp->oipj", sym.reshape(d * d, d, d), sym.reshape(d, d, d * d)
    )
    return ChoiOperator(choi.reshape(d**3, d**3), d, d * d)


def pauli_operators(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The generalized Pauli unitaries (shift, phase) on C^d: shift permutes the basis
    cyclically, phase multiplies basis vector j by omega^j, and shift = F phase F*."""
    if d < 2:
        raise DimensionError(f"need dimension at least 2, got {d}")
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    phase = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    return shift, phase


@dataclass(frozen=True)
class TicketStrategy:
    """Measurement attack on a classical-verification scheme.

    For each challenge pair (c1, c2) the attacker measures the note once with a POVM.
    A plan is two arrays ``(vectors, answers)``: outcome k has the effect |v><v| of the
    row v = vectors[k] of an (m, dim) array and reports answers[k] = (a1, a2), integers
    in [0, dim) for the first and second verifier; lists are stored as arrays.  Any POVM
    refines to this form with the same acceptance: split each effect into sqrt(w) u over
    its eigenpairs (w, u), keeping its answers.  Rank-one effects are positive, so a plan
    is checked only to sum to the identity, once per vectors array (plans may share one).
    """

    dim: int
    plans: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if set(self.plans) != set(CHALLENGE_PAIRS):
            raise DimensionError(
                f"plans must cover exactly the challenge pairs {CHALLENGE_PAIRS}"
            )
        d = self.dim
        checked, plans = [], {}  # summed vectors arrays (plans may share one); converted plans
        for pair, plan in self.plans.items():
            try:  # lists convert; any other layout, such as (effect, answer) pairs, fails here
                vectors, answers = map(np.asarray, plan)
            except (TypeError, ValueError):
                raise DimensionError(f"plan for challenges {pair} is not two arrays") from None
            plans[pair] = vectors, answers
            m = vectors.shape[0] if vectors.ndim else 0
            if vectors.shape != (m, d) or answers.shape != (m, 2):
                raise DimensionError(f"plan for challenges {pair} has shapes {vectors.shape} "
                                     f"and {answers.shape}, want ({m}, {d}) and ({m}, 2)")
            # Bool answers would index as a mask, float ones not at all.
            if not (np.issubdtype(answers.dtype, np.integer) and (0 <= answers).all()
                    and (answers < d).all()):
                raise DimensionError(f"answers to challenges {pair} must be integers in [0, {d})")
            if any(vectors is seen for seen in checked):
                continue
            checked.append(vectors)
            # The effects sum to V^T conj(V); written so that NaN fails the test.
            defect = np.abs(vectors.T @ vectors.conj() - np.eye(d)).max()
            if not defect <= linalg.VALUE_TOL:
                raise ChannelValidationError(
                    f"measurement for challenges {pair} is incomplete: defect {defect:.3e}"
                )
        object.__setattr__(self, "plans", plans)


def _ticket_state(d: int) -> np.ndarray:
    """Normalized sum of the first vectors of the two encoding bases."""
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    uniform = np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
    vec = e0 + uniform
    return vec / math.sqrt(2.0 + 2.0 / math.sqrt(d))


def ticket_cloner(d: int) -> TicketStrategy:
    """Optimal simple counterfeiting strategy for the Fourier ticket scheme.

    Equal challenge pairs are answered by measuring in the challenged basis
    and repeating the outcome: the plan's vectors are the basis vectors.  Mixed
    pairs use the covariant POVM whose d^2 rank-one effects |v><v| have the vectors
    v = shift^s phase^t psi / sqrt(d) for one fixed state psi; outcome (s, t) answers
    s to the challenge-0 verifier and t to the challenge-1 verifier.  The attack
    succeeds with probability 3/4 + 1/(4 sqrt(d)).  Both mixed plans hold the same
    (d^2, d) vectors array, and their answer arrays are each other's columns swapped.
    """
    _, phase = pauli_operators(d)
    psi = _ticket_state(d)
    phases = itertools.accumulate([phase] * (d - 1), np.matmul,
                                  initial=np.eye(d, dtype=np.complex128))
    phased = np.array([p @ psi for p in phases]) / math.sqrt(d)  # row t: phase^t psi / sqrt(d)
    # shift^s rolls a vector by s: row s * d + t is phased row t rolled, cut from two copies.
    twice = np.tile(phased, 2)
    vectors = np.stack([twice[:, d - s:2 * d - s] for s in range(d)]).reshape(d * d, d)
    mixed = np.indices((d, d)).reshape(2, -1).T  # row k = (s, t) of outcome k
    plans = {(0, 1): (vectors, mixed), (1, 0): (vectors, mixed[:, ::-1])}
    bases = schemes.fourier_ticket_scheme(d).pair
    repeat = np.arange(d).repeat(2).reshape(d, 2)
    for c, basis in enumerate((bases.basis0, bases.basis1)):
        plans[(c, c)] = (basis.T, repeat)
    return TicketStrategy(d, plans)


def outcome_tables(
    strategy: TicketStrategy, scheme: schemes.TicketScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Born probabilities and joint acceptance of every measurement outcome.

    Both arrays are indexed [challenge pair, key, outcome], with challenge
    pairs in ``CHALLENGE_PAIRS`` order and keys in ``scheme.keys()`` order.
    Plans shorter than the longest are zero-padded: a padding outcome has
    probability 0 and is not accepted.  Each distinct vectors array V meets the key states
    K in one BLAS product, |conj(K) V^T|^2; a plan holding an earlier plan's array copies
    its rows.  Memory for the tables is asked of :func:`linalg.require_memory` first.
    """
    if strategy.dim != scheme.dim:
        raise DimensionError(
            f"strategy dimension {strategy.dim} does not match scheme dimension {scheme.dim}"
        )
    states = scheme.key_states()
    table = scheme.accept_table()
    plans = [strategy.plans[pair] for pair in CHALLENGE_PAIRS]
    shape = (len(CHALLENGE_PAIRS), len(states), max(len(vectors) for vectors, _ in plans))
    linalg.require_memory(_PEAK_TABLES * 8 * math.prod(shape), f"scoring {shape} outcome tables")
    prob = np.zeros(shape)
    accept = np.zeros(shape, dtype=bool)
    for ci, ((c1, c2), (vectors, answers)) in enumerate(zip(CHALLENGE_PAIRS, plans)):
        m = len(vectors)
        same = next(cj for cj, (earlier, _) in enumerate(plans) if earlier is vectors)
        if same != ci:
            prob[ci] = prob[same]
        else:
            amplitudes = states.conj() @ vectors.T
            prob[ci, :, :m] = amplitudes.real**2 + amplitudes.imag**2
        a1, a2 = answers.T
        accept[ci, :, :m] = (table[c1, a1] & table[c2, a2]).T
    return prob, accept


def accepted_mass(prob: np.ndarray, accept: np.ndarray) -> np.ndarray:
    """Each row's pass probability a/(a + r) in tables like :func:`outcome_tables`'s,
    flattened to one row per leading index: a sums the row's Born probabilities
    over the outcomes ``accept`` (one row for all, or one per row) passes, r over
    the rest.  Entries below -``VALUE_TOL`` or NaN, and rows not summing to one
    within it, are rejected; roundoff-sized negatives count as 0."""
    prob = np.asarray(prob, dtype=np.float64).reshape(-1, np.shape(prob)[-1])
    # Written so that NaN fails both tests.
    if not prob.min() >= -linalg.VALUE_TOL:
        raise ValueError(f"negative or NaN outcome probability {prob.min():.3e}")
    prob = np.clip(prob, 0.0, None)
    if not np.abs(prob.sum(axis=1) - 1.0).max() <= linalg.VALUE_TOL:
        raise ValueError("outcome probabilities do not sum to one")
    accept = accept.reshape(-1, prob.shape[1])
    accepted = np.where(accept, prob, 0.0).sum(axis=1)
    return accepted / (accepted + np.where(accept, 0.0, prob).sum(axis=1))


def outcome_value(prob: np.ndarray, accept: np.ndarray) -> float:
    """Success probability from tables like :func:`outcome_tables`'s: the
    :func:`accepted_mass` of each row, averaged over the equiprobable rows
    (challenge pairs and keys)."""
    return float(accepted_mass(prob, accept).mean())


def evaluate_ticket_strategy(
    strategy: TicketStrategy, scheme: schemes.TicketScheme
) -> float:
    """Exact success probability of a measurement strategy against a scheme.

    Averages over the 2d equiprobable keys and the four equiprobable
    challenge pairs; for each, sums the Born probabilities of the outcomes
    whose answer pair passes both verifications.
    """
    return outcome_value(*outcome_tables(strategy, scheme))
