"""Money schemes and the objective operators of their counterfeiting SDPs.

Two families of schemes are covered.

Quantum verification: the bank hands out a pure state drawn from a known
ensemble and later verifies a submitted note by projecting onto the issued
state.  A simple counterfeiting attack is a channel taking one note to two
registers, and its average success probability is linear in the channel's
Choi operator.  The coefficient operator of that linear form, built here, is
the weighted sum of projectors onto (state, state, conjugate state) triples.

Classical verification: a ticket scheme specifies two orthonormal bases of
C^d.  A key is a pair (t, b) naming a basis vector; the bank's challenge is a
basis label, and an answer a is accepted when the challenge does not match
the key basis or when a = t.  The counterfeiter holds the state and two
independent challenges and must answer both.  Because the accept predicate is
diagonal in the answers and challenges, the objective splits into blocks
indexed by the challenge pair and the answer pair, each a d-dimensional
operator; those blocks are built here.  Builders return what they compute,
Hermitian to roundoff for complex states; ``CloningSdp`` symmetrizes on entry.

Scheme description files are JSON with the fields ``dimension`` plus either
``states`` (a list of objects with ``weight`` and ``amplitudes``, amplitudes
as [re, im] pairs) for an ensemble or ``basis0``/``basis1`` (lists of
amplitude vectors) for a ticket scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from ._codec import complex_to_pairs, is_number, pairs_to_vector
from .exceptions import DimensionError, FileFormatError


@dataclass(frozen=True)
class Ensemble:
    """A finite ensemble of pure states: pairs of (probability, unit vector)."""

    dim: int
    items: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be positive, got {self.dim}")
        if not self.items:
            raise DimensionError("ensemble needs at least one state")
        cleaned = []
        total = 0.0
        for weight, vec in self.items:
            w = float(weight)
            v = np.asarray(vec, dtype=np.complex128).ravel()
            if not w >= -linalg.ROUNDOFF_TOL:  # written so that NaN fails too
                raise DimensionError(f"weight {w} is negative or not a number")
            if v.size != self.dim:
                raise DimensionError(f"state has size {v.size}, expected {self.dim}")
            norm = np.linalg.norm(v)
            if not abs(norm - 1.0) <= linalg.ROUNDOFF_TOL:
                raise DimensionError(f"state norm {norm!r} is not 1")
            total += w
            cleaned.append((w, v))
        if abs(total - 1.0) > linalg.ROUNDOFF_TOL * max(1, len(cleaned)):
            raise DimensionError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "items", tuple(cleaned))

    def average_state(self) -> np.ndarray:
        """Probability-weighted mixture of the ensemble projectors, Hermitian to roundoff."""
        acc = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for w, v in self.items:
            acc += w * np.outer(v, v.conj())
        return acc


def wiesner_ensemble() -> Ensemble:
    """The four single-qubit states |0>, |1>, |+>, |->, uniformly weighted."""
    s = 1.0 / math.sqrt(2.0)
    states = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([s, s]),
        np.array([s, -s]),
    ]
    return Ensemble(2, tuple((0.25, v) for v in states))


def six_state_ensemble() -> Ensemble:
    """The six eigenstates of the qubit Pauli operators, uniformly weighted."""
    s = 1.0 / math.sqrt(2.0)
    states = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([s, s]),
        np.array([s, -s]),
        np.array([s, 1j * s]),
        np.array([s, -1j * s]),
    ]
    return Ensemble(2, tuple((1.0 / 6.0, v) for v in states))


def sic_qubit_ensemble() -> Ensemble:
    """A qubit SIC tetrahedron: four states with pairwise squared overlap 1/3."""
    omega = np.exp(2j * np.pi / 3.0)
    states = [np.array([1.0, 0.0], dtype=np.complex128)]
    for j in range(3):
        states.append(np.array([1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0) * omega**j]))
    return Ensemble(2, tuple((0.25, v) for v in states))


def cloning_objective(ensemble: Ensemble) -> np.ndarray:
    """Objective operator of the two-clone counterfeiting SDP for an ensemble.

    The weighted sum of projectors onto (psi, psi, conj(psi)) product vectors,
    acting on clone1 (x) clone2 (x) input with the input factor last.  Pairing
    this operator with a Choi operator of matching shape gives the attack's
    average success probability.  Hermitian to roundoff: ``CloningSdp`` symmetrizes it.
    """
    acc = linalg.zero_operator(ensemble.dim**3)
    for w, psi in ensemble.items:
        v = np.kron(np.kron(psi, psi), psi.conj())
        acc += w * np.outer(v, v.conj())
    return acc


def symmetric_cloning_objective(d: int) -> np.ndarray:
    """Objective operator for the continuous uniform ensemble on C^d.

    Equals the three-fold symmetric projector, partially transposed on the
    input factor and normalized by the projector's rank.  Built directly, with
    no finite ensemble involved; real symmetric, so exactly Hermitian.
    """
    proj = linalg.symmetric_projector(d, 3)
    rank = math.comb(d + 2, 3)
    return linalg.partial_transpose(proj, (d, d, d), [2]) / rank


@dataclass(frozen=True)
class BasisPair:
    """Two orthonormal bases of C^d, stored with basis vectors as columns."""

    dim: int
    basis0: np.ndarray
    basis1: np.ndarray

    def __post_init__(self):
        for name in ("basis0", "basis1"):
            b = np.asarray(getattr(self, name), dtype=np.complex128)
            if b.shape != (self.dim, self.dim):
                raise DimensionError(f"{name} has shape {b.shape}, expected square of {self.dim}")
            gram = b.conj().T @ b
            if not np.abs(gram - np.eye(self.dim)).max() <= linalg.ROUNDOFF_TOL:
                raise DimensionError(f"{name} is not orthonormal")
            object.__setattr__(self, name, b)

    def vector(self, t: int, b: int) -> np.ndarray:
        """Basis vector t of basis b."""
        return (self.basis0 if b == 0 else self.basis1)[:, t]


def effective_overlap(pair: BasisPair) -> float:
    """Largest squared overlap between a basis-0 and a basis-1 vector."""
    cross = np.abs(pair.basis0.conj().T @ pair.basis1) ** 2
    return float(cross.max())


def default_accept(answer: int, challenge: int, key: tuple[int, int]) -> bool:
    """Accept when the challenge misses the key basis or the answer names the key vector."""
    t, b = key
    return challenge != b or answer == t


@dataclass(frozen=True)
class TicketScheme:
    """A classical-verification scheme: a basis pair plus an accept predicate.

    Keys are pairs (t, b) with t a basis-vector index and b a basis label,
    uniformly distributed over all 2d of them.  Challenges are basis labels.
    The accept predicate may be replaced wholesale for variant schemes.
    """

    pair: BasisPair
    accept: Callable[[int, int, tuple[int, int]], bool] = field(default=default_accept)

    @property
    def dim(self) -> int:
        return self.pair.dim

    def keys(self) -> list[tuple[int, int]]:
        return [(t, b) for b in (0, 1) for t in range(self.dim)]

    def key_state(self, key: tuple[int, int]) -> np.ndarray:
        return self.pair.vector(*key)

    def key_states(self) -> np.ndarray:
        """Row k is the state of key k, in ``keys()`` order."""
        return np.concatenate((self.pair.basis0.T, self.pair.basis1.T))

    def accept_table(self) -> np.ndarray:
        """Bool array [challenge, answer, key], keys in ``keys()`` order.

        The only place the ``accept`` predicate is called.
        """
        keys = self.keys()
        return np.array(
            [[[self.accept(a, c, k) for k in keys] for a in range(self.dim)] for c in (0, 1)],
            dtype=bool,
        )

    def ensemble(self) -> Ensemble:
        """The uniform ensemble over all 2d key states."""
        p = 1.0 / (2 * self.dim)
        return Ensemble(self.dim, tuple((p, self.key_state(k)) for k in self.keys()))


def fourier_ticket_scheme(d: int) -> TicketScheme:
    """Ticket scheme whose bases are the computational and Fourier bases of C^d."""
    if d < 2:
        raise DimensionError(f"need dimension at least 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    # Powers past d - 1 would compound omega's roundoff: orthonormality fails from d = 200.
    fourier = np.array([[omega ** (i * j % d) for j in range(d)] for i in range(d)]) / math.sqrt(d)
    return TicketScheme(BasisPair(d, np.eye(d, dtype=np.complex128), fourier))


def classical_objective_blocks(
    scheme: TicketScheme,
) -> tuple[dict[tuple[int, int, int, int], np.ndarray], dict[tuple[int, int], float]]:
    """Per-(challenge pair, answer pair) objective blocks and challenge-pair weights.

    blocks[(c1, c2, a1, a2)] sums, over all keys accepting both answers, the
    key probability times the key-state projector.  weights[(c1, c2)] is the
    probability 1/4 of that challenge pair.  The attack value is the weighted
    sum over challenge pairs of the block SDP values.  Blocks are views of one
    array, asked of :func:`linalg.zero_operator` before anything is computed.
    """
    d = scheme.dim
    stack = linalg.zero_operator(2 * d * d).reshape(2, 2, d, d, d, d)
    accept = scheme.accept_table()
    states = scheme.key_states()
    # [c1, c2, a1, a2, i, j]: the projectors of the keys accepting both answers, summed.
    np.einsum("xak,ybk,ki,kj->xyabij", accept, accept, states, states.conj(), out=stack)
    stack /= 2 * d
    blocks = {i: stack[i] for i in np.ndindex(stack.shape[:4])}
    return blocks, {pair: 0.25 for pair in np.ndindex(2, 2)}


def assemble_challenge_block(
    blocks: dict[tuple[int, int, int, int], np.ndarray], d: int, c1: int, c2: int
) -> np.ndarray:
    """Stack the (a1, a2) blocks of one challenge pair into a d^3 objective.

    The result acts on answer1 (x) answer2 (x) input and is block diagonal in
    the answer factors: the direct sum over the answer pair, with no output factor.
    """
    stack = [blocks[(c1, c2) + pair] for pair in np.ndindex(d, d)]
    return linalg.direct_sum(stack, 1, d)


def classical_primal_witness(scheme: TicketScheme) -> dict[tuple[int, int], np.ndarray]:
    """Closed-form optimal primal points for the four challenge blocks, d = 2 only.

    Equal-challenge blocks take the measure-and-repeat point: each answer
    pair (t, t) carries the top eigenvector of its own block, worth exactly 1.
    Mixed-challenge blocks assign the top eigenvector of the best answer
    couple's block to that couple and the orthogonal vector to the
    complementary couple; the two blocks sum to half the identity, so the
    point is trace preserving and achieves (1 + sqrt(c))/2 with c the
    effective overlap.  The complementation step is what restricts this
    construction to dimension 2.  Hermitian to roundoff: the certifier symmetrizes.
    """
    d = scheme.dim
    if d != 2:
        raise DimensionError(f"closed-form primal witness needs dimension 2, got {d}")
    blocks, _ = classical_objective_blocks(scheme)
    witnesses: dict[tuple[int, int], np.ndarray] = {}
    for c1 in (0, 1):
        for c2 in (0, 1):
            x = np.zeros((d, d, d, d, d, d), dtype=np.complex128)
            if c1 == c2:
                for t in range(d):
                    _, vecs = linalg.hermitian_eig(blocks[(c1, c2, t, t)])
                    top = vecs[:, -1]
                    x[t, t, :, t, t, :] = np.outer(top, top.conj())
            else:
                best = max(
                    ((a1, a2) for a1 in range(d) for a2 in range(d)),
                    key=lambda pair: linalg.eigenvalues(blocks[(c1, c2) + pair])[-1],
                )
                _, vecs = linalg.hermitian_eig(blocks[(c1, c2) + best])
                comp = (1 - best[0], 1 - best[1])
                x[best[0], best[1], :, best[0], best[1], :] = np.outer(
                    vecs[:, -1], vecs[:, -1].conj()
                )
                x[comp[0], comp[1], :, comp[0], comp[1], :] = np.outer(
                    vecs[:, 0], vecs[:, 0].conj()
                )
            witnesses[(c1, c2)] = x.reshape(d**3, d**3)
    return witnesses


def load_scheme(path: str):
    """Load an ensemble or ticket scheme from a JSON description file.

    Returns an :class:`Ensemble` when the file carries ``states`` and a
    :class:`TicketScheme` when it carries ``basis0`` and ``basis1``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read scheme file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError("scheme file must hold a JSON object")
    if "dimension" not in data:
        raise FileFormatError("scheme file is missing the 'dimension' field")
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"'dimension' must be a positive integer, got {dim!r}")
    has_states = "states" in data
    has_bases = "basis0" in data or "basis1" in data
    if has_states == has_bases:
        raise FileFormatError(
            "scheme file must carry either 'states' or both 'basis0' and 'basis1'"
        )
    try:
        if has_states:
            return _ensemble_from_fields(dim, data["states"])
        if "basis0" not in data or "basis1" not in data:
            raise FileFormatError("ticket scheme files need both 'basis0' and 'basis1'")
        return _ticket_from_fields(dim, data["basis0"], data["basis1"])
    except DimensionError as exc:
        raise FileFormatError(f"invalid scheme data: {exc}") from exc


def _ensemble_from_fields(dim: int, states) -> Ensemble:
    if not isinstance(states, list) or not states:
        raise FileFormatError("'states' must be a non-empty list")
    items = []
    for i, entry in enumerate(states):
        if not isinstance(entry, dict) or "weight" not in entry or "amplitudes" not in entry:
            raise FileFormatError(f"state {i} needs 'weight' and 'amplitudes' fields")
        weight = entry["weight"]
        if not is_number(weight):
            raise FileFormatError(f"state {i}: weight must be a finite number, got {weight!r}")
        vec = pairs_to_vector(entry["amplitudes"], where=f"state {i} amplitudes")
        items.append((float(weight), vec))
    return Ensemble(dim, tuple(items))


def _ticket_from_fields(dim: int, basis0, basis1) -> TicketScheme:
    def decode(name, rows):
        if not isinstance(rows, list) or len(rows) != dim:
            raise FileFormatError(f"'{name}' must list exactly {dim} vectors")
        cols = [pairs_to_vector(row, where=f"{name}[{i}]") for i, row in enumerate(rows)]
        return np.column_stack(cols)

    return TicketScheme(BasisPair(dim, decode("basis0", basis0), decode("basis1", basis1)))


def save_scheme(path: str, scheme) -> None:
    """Write an ensemble or ticket scheme as a JSON description file."""
    if isinstance(scheme, Ensemble):
        payload = {
            "dimension": scheme.dim,
            "states": [
                {"weight": w, "amplitudes": complex_to_pairs(v)} for w, v in scheme.items
            ],
        }
    elif isinstance(scheme, TicketScheme):
        payload = {
            "dimension": scheme.dim,
            "basis0": [complex_to_pairs(scheme.pair.basis0[:, t]) for t in range(scheme.dim)],
            "basis1": [complex_to_pairs(scheme.pair.basis1[:, t]) for t in range(scheme.dim)],
        }
    else:
        raise FileFormatError(f"cannot serialize {type(scheme).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
