"""Quantum channels as Choi operators, and attack success probabilities.

A channel from a d-dimensional input space to an m-dimensional output space
is stored by its Choi operator, the m*d dimensional positive operator built by
applying the channel to one half of an unnormalized maximally entangled state.
Factor order is output first, input last, so for a counterfeiting channel with
two clone registers the factors read (clone 1, clone 2, input copy).

Two facts carry the whole package:

- complete positivity of the channel is positive semidefiniteness of the Choi
  operator, and trace preservation is the statement that tracing out the
  output factor leaves the identity on the input factor;
- the overlap of a channel output with a pure target state is a quadratic
  form in the Choi operator, with the input state entering entrywise
  conjugated in the standard basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ChannelValidationError, DimensionError


@dataclass(frozen=True)
class ChoiOperator:
    """Choi operator of a completely positive trace-preserving map.

    Attributes
    ----------
    matrix : ndarray
        Hermitian PSD matrix of size (out_dim * in_dim) squared, output
        factor first, input factor last.
    in_dim, out_dim : int
        Input and output space dimensions.
    """

    matrix: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self):
        mat = linalg.as_hermitian(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if self.in_dim < 1 or self.out_dim < 1:
            raise DimensionError(f"dimensions must be positive, got {self.in_dim}, {self.out_dim}")
        n = self.in_dim * self.out_dim
        if mat.shape != (n, n):
            raise DimensionError(
                f"Choi matrix has shape {mat.shape}, expected {(n, n)} "
                f"for out_dim {self.out_dim} and in_dim {self.in_dim}"
            )
        if not linalg.positive_semidefinite(mat):
            raise ChannelValidationError(
                "channel is not completely positive: minimum Choi eigenvalue "
                f"{linalg.min_eigenvalue(mat):.3e}"
            )
        reduced = linalg.partial_trace(mat, (self.out_dim, self.in_dim), [1])
        defect = np.abs(reduced - np.eye(self.in_dim)).max()
        if defect > linalg.VALUE_TOL:
            raise ChannelValidationError(
                f"channel is not trace preserving: partial trace defect {defect:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.in_dim * self.out_dim


def validate_kraus(kraus: list[np.ndarray]) -> list[np.ndarray]:
    """Check a Kraus family for shape consistency and the completeness sum."""
    if not kraus:
        raise ChannelValidationError("empty Kraus family")
    mats = [np.asarray(a, dtype=np.complex128) for a in kraus]
    shape = mats[0].shape
    if len(shape) != 2:
        raise DimensionError(f"Kraus operators must be matrices, got shape {shape}")
    if any(a.shape != shape for a in mats):
        raise DimensionError("Kraus operators must share one shape")
    total = sum(a.conj().T @ a for a in mats)
    defect = np.abs(total - np.eye(shape[1])).max()
    if defect > linalg.VALUE_TOL:
        raise ChannelValidationError(
            f"Kraus completeness sum deviates from the identity by {defect:.3e}"
        )
    return mats


def choi_from_kraus(kraus: list[np.ndarray]) -> ChoiOperator:
    """Assemble the Choi operator of the channel with the given Kraus family.

    Each Kraus operator A contributes the rank-one term vec(A) vec(A)*, where
    vec stacks rows, which places the output factor first and the input factor
    last as required.
    """
    mats = validate_kraus(kraus)
    out_dim, in_dim = mats[0].shape
    acc = np.zeros((out_dim * in_dim,) * 2, dtype=np.complex128)
    for a in mats:
        v = a.reshape(-1)
        acc += np.outer(v, v.conj())
    return ChoiOperator(matrix=acc, in_dim=in_dim, out_dim=out_dim)


def apply_channel(choi: ChoiOperator, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to an input operator, or to each of a stack of them of
    shape (..., d, d).

    The action is recovered from the Choi operator by pairing the input factor
    with the transpose of rho and tracing it out.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d = choi.in_dim
    if rho.shape[-2:] != (d, d):
        raise DimensionError(f"input has shape {rho.shape}, channel expects {(d, d)}")
    j = choi.matrix.reshape(choi.out_dim, d, choi.out_dim, d)
    return np.einsum("aibj,...ij->...ab", j, rho)


def _conjugate_pairing(choi: ChoiOperator, targets: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Row k: <t_k (x) conj(s_k)| J |t_k (x) conj(s_k)> for the rows t_k of ``targets``
    and s_k of ``states``, which equals <t_k| Phi(|s_k><s_k|) |t_k> for the channel
    Phi with Choi operator J."""
    vecs = (targets[:, :, None] * states.conj()[:, None, :]).reshape(len(targets), -1)
    return np.einsum("ki,ki->k", vecs.conj() @ choi.matrix, vecs).real


def pair_with_conjugate(choi: ChoiOperator, target: np.ndarray, state: np.ndarray) -> float:
    """Overlap of the channel output on |state> with the pure |target>: the Choi
    quadratic form of :func:`clone_rates` for one state."""
    target = np.asarray(target, dtype=np.complex128).ravel()
    state = np.asarray(state, dtype=np.complex128).ravel()
    if target.size != choi.out_dim or state.size != choi.in_dim:
        raise DimensionError(
            f"target/state sizes {target.size}/{state.size} do not match "
            f"channel dims {choi.out_dim}/{choi.in_dim}"
        )
    return float(_conjugate_pairing(choi, target[None], state[None])[0])


def clone_rates(choi: ChoiOperator, ensemble) -> np.ndarray:
    """Per ensemble state, the probability that both clones pass verification.

    The counterfeiter feeds the state to the channel and the issuer projects
    both output registers onto it.  Each rate is computed along two independent
    routes, by applying the channel and taking the expectation directly, and
    through the Choi quadratic form with the conjugated input; each route takes
    all the states at once as a stack.  The two must agree entrywise to
    ``linalg.ROUNDOFF_TOL``, and the second, clipped to [0, 1], is returned once
    it lies there within ``linalg.VALUE_TOL``.
    """
    d = ensemble.dim
    if choi.in_dim != d or choi.out_dim != d * d:
        raise DimensionError(
            f"channel dims ({choi.out_dim}, {choi.in_dim}) do not match a "
            f"two-clone attack on dimension {d}"
        )
    states = np.array([psi for _, psi in ensemble.items], dtype=np.complex128)
    targets = (states[:, :, None] * states[:, None, :]).reshape(len(states), -1)
    out = apply_channel(choi, states[:, :, None] * states.conj()[:, None, :])
    direct = np.einsum("ka,kab,kb->k", targets.conj(), out, targets).real
    rates = _conjugate_pairing(choi, targets, states)
    agree = np.abs(direct - rates) <= linalg.ROUNDOFF_TOL
    if not agree.all():  # NaN fails too
        i = int(np.argmin(agree))
        raise ChannelValidationError(
            f"clone rate routes disagree: {float(direct[i])!r} vs {float(rates[i])!r}"
        )
    if not np.all(np.abs(rates - 0.5) <= 0.5 + linalg.VALUE_TOL):  # NaN fails too
        raise ChannelValidationError(f"clone rates {rates!r} outside [0, 1]")
    return np.clip(rates, 0.0, 1.0)


def success_probability(choi: ChoiOperator, ensemble) -> float:
    """Probability that both clones pass verification, averaged over the
    ensemble: the weighted sum of the :func:`clone_rates`."""
    return float(np.array([w for w, _ in ensemble.items]) @ clone_rates(choi, ensemble))
