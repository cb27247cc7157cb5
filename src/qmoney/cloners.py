"""Explicit attack strategies with exactly evaluable success probabilities.

Three channel constructions cover the quantum-verification schemes: the
optimal attack on the four-state qubit scheme, the universal symmetric qubit
cloner, and its d-dimensional generalization acting through the symmetric
subspace.  For classical-verification schemes the attacker is a family of
measurements instead of a channel; those are represented measurement-first,
as one positive operator valued measure per challenge pair together with the
answer pair attached to each outcome.
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

# A plan's effects are checked and contracted in stacks of at most this many bytes:
# one LAPACK or BLAS call per stack, and no copy of a whole plan beside its effects.
STACK_BYTES = 512 * 1024


def _stacks(effects, dim: int):
    """Consecutive (start, stack) pieces of a plan's (dim, dim) effects, each stack a
    fresh complex array of at most ``STACK_BYTES``, or of one effect."""
    step = max(1, STACK_BYTES // (16 * dim * dim))
    for start in range(0, len(effects), step):
        yield start, np.array(effects[start:start + step], dtype=np.complex128)


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

    For each challenge pair (c1, c2) the attacker measures the note once with
    a POVM; each outcome carries the answer pair (a1, a2) it reports, a1 to
    the first verifier and a2 to the second.  Every plan must be a complete
    measurement: positive effects summing to the identity.  Each plan is checked
    in stacks of at most ``STACK_BYTES``: one positivity proof per stack for the
    effects not yet proved (plans may share effect objects), and the completeness
    sum accumulated stack by stack.
    """

    dim: int
    plans: Mapping[tuple[int, int], tuple[tuple[np.ndarray, tuple[int, int]], ...]]

    def __post_init__(self):
        if set(self.plans) != set(CHALLENGE_PAIRS):
            raise DimensionError(
                f"plans must cover exactly the challenge pairs {CHALLENGE_PAIRS}"
            )
        eye = np.eye(self.dim)
        proved = set()  # ids of effects already proved positive: plans may share them
        for pair, plan in self.plans.items():
            for effect, answers in plan:
                if effect.shape != (self.dim, self.dim):
                    raise DimensionError(
                        f"effect for challenges {pair} has shape {effect.shape}"
                    )
                if len(answers) != 2:
                    raise DimensionError(f"outcome must carry an answer pair, got {answers}")
            effects = [effect for effect, _ in plan]
            total = np.zeros((self.dim, self.dim), dtype=np.complex128)
            for start, stack in _stacks(effects, self.dim):
                ids = [id(effect) for effect in effects[start:start + len(stack)]]
                fresh = [k for k, i in enumerate(ids) if i not in proved]
                if fresh and not linalg.positive_semidefinite(linalg.as_hermitian(stack[fresh])):
                    raise ChannelValidationError(
                        f"effect for challenges {pair} is not positive semidefinite"
                    )
                proved.update(ids)
                total += stack.sum(axis=0)
            defect = np.abs(total - eye).max()
            if defect > linalg.VALUE_TOL:
                raise ChannelValidationError(
                    f"measurement for challenges {pair} is incomplete: defect {defect:.3e}"
                )


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
    and repeating the outcome.  Mixed pairs use the covariant POVM whose d^2
    effects are shifted and phased projections of one fixed state; outcome
    (s, t) answers s to the challenge-0 verifier and t to the challenge-1
    verifier.  The attack succeeds with probability 3/4 + 1/(4 sqrt(d)).  Both mixed
    plans share the d^2 effect views of one table, asked of :func:`linalg.zero_operator` first.
    """
    shift, phase = pauli_operators(d)
    table = linalg.zero_operator(d * d).reshape(d * d, d, d)
    psi = _ticket_state(d)
    eye = np.eye(d, dtype=np.complex128)
    shifts = list(itertools.accumulate([shift] * (d - 1), np.matmul, initial=eye))
    phases = list(itertools.accumulate([phase] * (d - 1), np.matmul, initial=eye))
    vecs = np.array([shifts[s] @ phases[t] @ psi for s in range(d) for t in range(d)])
    np.multiply(vecs[:, :, None], vecs.conj()[:, None, :], out=table)
    table /= d
    mixed = tuple((e, (s, t)) for e, (s, t) in zip(table, np.ndindex(d, d)))
    swapped = tuple((e, (t, s)) for e, (s, t) in mixed)  # the same effect objects
    plans: dict[tuple[int, int], tuple] = {(0, 1): mixed, (1, 0): swapped}
    bases = schemes.fourier_ticket_scheme(d).pair
    for c, basis in enumerate((bases.basis0, bases.basis1)):
        plans[(c, c)] = tuple((np.outer(v, v.conj()), (t, t)) for t, v in enumerate(basis.T))
    return TicketStrategy(d, plans)


def outcome_tables(
    strategy: TicketStrategy, scheme: schemes.TicketScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Born probabilities and joint acceptance of every measurement outcome.

    Both arrays are indexed [challenge pair, key, outcome], with challenge
    pairs in ``CHALLENGE_PAIRS`` order and keys in ``scheme.keys()`` order.
    Plans shorter than the longest are zero-padded: a padding outcome has
    probability 0 and is not accepted.  Each plan is contracted with the key
    states in the stacks that :class:`TicketStrategy` checks it in.
    """
    if strategy.dim != scheme.dim:
        raise DimensionError(
            f"strategy dimension {strategy.dim} does not match scheme dimension {scheme.dim}"
        )
    states = scheme.key_states()
    rho = (states.conj()[:, :, None] * states[:, None, :]).reshape(len(states), -1)
    table = scheme.accept_table()
    longest = max(len(plan) for plan in strategy.plans.values())
    prob = np.zeros((len(CHALLENGE_PAIRS), len(states), longest))
    accept = np.zeros(prob.shape, dtype=bool)
    contracted = {}  # effect ids of a plan -> its challenge pair: plans may share them
    for ci, (c1, c2) in enumerate(CHALLENGE_PAIRS):
        effects, answers = zip(*strategy.plans[(c1, c2)])
        answers = np.array(answers)
        if answers.min() < 0 or answers.max() >= scheme.dim:
            raise DimensionError(f"answers to challenges {(c1, c2)} must lie in [0, {scheme.dim})")
        a1, a2 = answers.T
        same = contracted.setdefault(tuple(map(id, effects)), ci)
        if same != ci:  # an earlier plan's effects, in its order
            prob[ci] = prob[same]
        else:
            for start, stack in _stacks(effects, scheme.dim):
                # One BLAS product per stack, not a 3-operand einsum.
                prob[ci, :, start:start + len(stack)] = (rho @ stack.reshape(len(stack), -1).T).real
        accept[ci, :, :len(effects)] = (table[c1, a1] & table[c2, a2]).T
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
