"""Dense linear algebra kernels for operators on tensor-product spaces.

Conventions used across the package:

- Vectors and matrices are numpy arrays with complex128 entries.  A ket is a
  one-dimensional array; an operator on a space of dimension n is an (n, n)
  array with row-major index order.
- A tensor-product space is described by its factored dimensions, a tuple of
  positive integers whose product is the total dimension.  Composite indices
  are row-major: factor 0 is the most significant.
- A Hermitian operator is symmetrized only where it enters a problem, a channel or a
  certificate (by :func:`as_hermitian`) and where it comes out of a matrix product.
  Round-to-nearest is symmetric under negation, so sums, real multiples, Kronecker
  products, factor permutations and direct sums of exactly Hermitian operators stay so.
- Every check in the package decides with one of three tolerances, each
  multiplied by max(1, scale) for the scale of what it judges:

  * ``ROUNDOFF_TOL``, identities that hold to roundoff: Hermiticity (scale:
    the largest entry), unit norms, orthonormality, unitarity, the two-route
    cross-check (scale 1) and ensemble weight sums (scale: the number of
    weights);
  * ``PSD_TOL``, positive semidefiniteness verdicts by
    :func:`positive_semidefinite` (scale: the trace, which for a positive
    semidefinite matrix bounds its norm);
  * ``VALUE_TOL``, comparisons of values: trace preservation, completeness
    sums, average states, probabilities and block weights (scale 1), and
    weak duality (scale: the larger objective value).

  The floor at 1 keeps the absolute tolerance for scales up to 1, so no
  verdict there moves and a tiny or zero matrix is not held to a vanishing
  tolerance.  Above 1 the tolerance grows with the scale as roundoff does, so
  an objective scaled by c > 1 is judged as it is at scale 1.  The solver's
  support rank cut is a plain fraction of the largest eigenvalue, with no
  floor.  A caller's own tolerance (the solver's and the certifier's ``tol``)
  is absolute and outside this policy.
- :func:`as_hermitian`, :func:`bounded_below` and :func:`positive_semidefinite`
  also take a stack of shape (..., n, n), so many small matrices cost one
  LAPACK call rather than one Python round trip each.  A stack is judged as
  its matrices are one by one: every scale, bound and Cholesky shift is taken
  per matrix, and the stack passes only if each of them does.

Everything here is dense.  The problem sizes in this package top out around a
few hundred dimensions, where dense LAPACK kernels are both faster and more
trustworthy than sparse alternatives.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import Iterable, Sequence

import numpy as np

from .exceptions import DimensionError, EigendecompositionError, HermiticityError

ROUNDOFF_TOL = 1e-12
PSD_TOL = 1e-9
VALUE_TOL = 1e-9


def _square(m, copy: bool = False, stack: bool = False) -> np.ndarray:
    """``m`` as a complex matrix, a fresh copy if ``copy``; DimensionError unless square,
    or with ``stack``, unless a stack of square matrices of shape (..., n, n)."""
    m = (np.array if copy else np.asarray)(m, dtype=np.complex128)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_hermitian(mat: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2 of a nearly Hermitian matrix, or of each
    matrix of a stack of shape (..., n, n).

    Entrywise defects up to ``ROUNDOFF_TOL`` times max(1, largest entry), both taken
    per matrix, are treated as roundoff and silently repaired.  A larger defect is a
    logic error somewhere upstream, so it raises instead of being averaged away.  The
    sum is formed in tiles against their mirrors, with no full-size temporary, and the
    defect is computed only for a tile unequal to its mirror's conjugate transpose.
    """
    m = _square(mat, stack=True)
    if not np.all(np.isfinite(m)):
        raise HermiticityError("matrix has non-finite entries")
    n, t = m.shape[-1], 128  # t: tile rows
    out, defect = np.empty_like(m), np.zeros(m.shape[:-2])
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper = m[..., i:i + t, j:j + t]
            mirror = m[..., j:j + t, i:i + t].conj().swapaxes(-1, -2)
            if not (upper == mirror).all():
                defect = np.maximum(defect, np.abs(upper - mirror).max(axis=(-2, -1)))
            np.add(upper, mirror, out=out[..., i:i + t, j:j + t])
            if j > i:
                np.add(m[..., j:j + t, i:i + t], upper.conj().swapaxes(-1, -2),
                       out=out[..., j:j + t, i:i + t])
    if defect.max(initial=0.0) > ROUNDOFF_TOL:  # within it the verdict holds at any scale
        scale = np.abs(m).max(axis=(-2, -1))
        bad = np.argwhere(defect > ROUNDOFF_TOL * np.maximum(1.0, scale))
        if len(bad):
            k = tuple(bad[0].tolist())
            what = f"matrix {', '.join(map(str, k))} of the stack" if k else "matrix"
            raise HermiticityError(
                f"{what} is not Hermitian: defect {defect[k]:.3e} exceeds "
                f"{ROUNDOFF_TOL:.1e} * {scale[k]:.3e}"
            )
    return np.divide(out, 2, out=out)


def check_factored_dims(dims: Sequence[int], total: int | None = None) -> tuple[int, ...]:
    """Validate a tuple of factor dimensions, optionally against a total dimension."""
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise DimensionError(f"factored dimensions must be positive, got {dims}")
    if total is not None and math.prod(out) != total:
        raise DimensionError(
            f"factored dimensions {out} have product {math.prod(out)}, expected {total}"
        )
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    Parameters
    ----------
    m : ndarray
        Operator on the full space, shape (N, N) with N = prod(dims).
    dims : sequence of int
        Dimension of each tensor factor, most significant first.
    keep : iterable of int
        Indices of the factors to retain, in their original order.

    Returns
    -------
    ndarray
        Operator on the retained factors, shape (K, K) with
        K = prod(dims[i] for i in keep).
    """
    m = _square(m)
    dims = check_factored_dims(dims, m.shape[0])
    k = len(dims)
    kept = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= k for i in kept):
        raise DimensionError(f"keep indices {kept} out of range for {k} factors")
    tensor = m.reshape(dims + dims)
    row = list(range(k))
    col = [i + k if i in kept else i for i in range(k)]
    out = [i for i in kept] + [i + k for i in kept]
    reduced = np.einsum(tensor, row + col, out)
    kept_dim = math.prod(dims[i] for i in kept) if kept else 1
    return np.ascontiguousarray(reduced.reshape(kept_dim, kept_dim))


def partial_transpose(m: np.ndarray, dims: Sequence[int], which: Iterable[int]) -> np.ndarray:
    """Transpose the listed tensor factors in place of the full transpose.

    The transpose is taken entrywise in the standard basis of each listed
    factor, matching the convention used when pairing channel outputs with
    conjugated input states.
    """
    m = _square(m)
    dims = check_factored_dims(dims, m.shape[0])
    k = len(dims)
    chosen = sorted(set(int(i) for i in which))
    if any(i < 0 or i >= k for i in chosen):
        raise DimensionError(f"transpose indices {chosen} out of range for {k} factors")
    tensor = m.reshape(dims + dims)
    axes = list(range(2 * k))
    for i in chosen:
        axes[i], axes[i + k] = axes[i + k], axes[i]
    return np.ascontiguousarray(tensor.transpose(axes).reshape(m.shape))


def regroup(m: np.ndarray, splits: Sequence[tuple[int, int]]) -> np.ndarray:
    """m on (out_1 (x) in_1) (x) ... (x) (out_n (x) in_n), with splits (out_i, in_i), moved to
    (out_1 (x) ... (x) out_n) (x) (in_1 (x) ... (x) in_n) by one transpose: W m W^dagger."""
    n = len(splits)
    axes = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    tensor = np.asarray(m).reshape([d for split in splits for d in split] * 2)
    return tensor.transpose(axes + [a + 2 * n for a in axes]).reshape(m.shape)


def tensor(mats: Sequence[np.ndarray]) -> np.ndarray:  # the Kronecker product, in order
    return functools.reduce(np.kron, mats)


def permutation_operator(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Unitary sending tensor factor j of the input to slot perm[j] of the output.

    With this convention the operators compose covariantly: for equal factor
    dimensions, ``permutation_operator(dims, sigma) @ permutation_operator(dims, tau)``
    equals ``permutation_operator(dims, [sigma[tau[j]] for j in ...])``.
    """
    dims = check_factored_dims(dims)
    k = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(k)):
        raise DimensionError(f"{perm} is not a permutation of 0..{k - 1}")
    total = math.prod(dims)
    tensor = np.eye(total, dtype=np.complex128).reshape(dims + dims)
    row_axes = [0] * k
    for j in range(k):
        row_axes[perm[j]] = j
    tensor = tensor.transpose(row_axes + list(range(k, 2 * k)))
    return np.ascontiguousarray(tensor.reshape(total, total))


# Dense n x n operators live at once when a problem on one is built, solved and
# certified.  tracemalloc peaks of ``analyze``, in units of 16 n^2 bytes, were 5.11, 5.08
# and 5.07 for symmetric:8, 10 and 12 (spectral pair), and 6.68, 6.17 and 6.30 for scheme
# files of 16, 20 and 30 random states in dimension 6, 7 and 8 (interior point).
_PEAK_OPERATORS = 7


def zero_operator(n: int) -> np.ndarray:
    """An n x n complex zero matrix, or MemoryError when building and solving a problem
    on it would pass physical memory, where an overcommitting host would grant the
    memory lazily and kill the process filling it."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf here: no check
        have = math.inf
    need = _PEAK_OPERATORS * 16 * n * n
    if need > have:
        raise MemoryError(f"a problem on a dense {n} x {n} complex operator needs about "
                          f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB "
                          "of physical memory")
    return np.zeros((n, n), dtype=np.complex128)


def symmetric_projector(d: int, k: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of k copies of C^d.

    Computed as the average of all k! permutation operators.  The projector
    has rank C(d + k - 1, k).
    """
    if d < 1 or k < 1:
        raise DimensionError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    dims = (d,) * k
    acc = zero_operator(d**k)
    for perm in itertools.permutations(range(k)):
        acc += permutation_operator(dims, perm)
    acc /= math.factorial(k)  # real symmetric: the permutations are closed under inverses
    return acc


def direct_sum(mats: list[np.ndarray], d_out: int, d_in: int) -> np.ndarray:
    """Block-diagonal operator on output (x) block index (x) input whose block i,
    an operator on output (x) input, is mats[i]."""
    k = len(mats)
    big = zero_operator(d_out * k * d_in).reshape(d_out, k, d_in, d_out, k, d_in)
    i = np.arange(k)
    big[:, i, :, :, i, :] = np.reshape(mats, (k, d_out, d_in, d_out, d_in))
    return big.reshape(d_out * k * d_in, d_out * k * d_in)


def _spectral(decompose, m: np.ndarray, what: str):
    """Run a LAPACK Hermitian eigensolver on a square matrix, mapping failure to
    EigendecompositionError."""
    m = _square(m)
    try:
        return decompose(m)
    except np.linalg.LinAlgError as exc:
        n = m.shape[0]
        scale = np.abs(m).max() if m.size else 0.0
        raise EigendecompositionError(
            f"{what} failed for a {n}x{n} matrix (max entry {scale:.3e}): {exc}"
        ) from exc


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix.

    Returns
    -------
    (w, V)
        Eigenvalues ``w`` in ascending order and a unitary ``V`` whose columns
        are the matching eigenvectors, so that (V * w) @ V.conj().T
        reconstructs the input.

    Raises
    ------
    EigendecompositionError
        If the underlying factorization fails to converge.  The message
        carries the matrix size and norm for diagnosis.
    """
    return _spectral(np.linalg.eigh, m, "eigendecomposition")


def positive_definite_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_eig` of a positive definite matrix, whose singular values
    and left singular vectors are its eigenpairs.

    The SVD stays on one thread up to a few dozen rows, where the Hermitian
    eigensolver of OpenBLAS 0.3.31 already waits on its thread pool (from 26).
    """
    u, w, _ = _spectral(np.linalg.svd, m, "singular value decomposition")
    return w[::-1], u[:, ::-1]


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, without eigenvectors."""
    return _spectral(np.linalg.eigvalsh, m, "eigenvalue computation")


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigenvalues(m)[0])


def bounded_below(m: np.ndarray, bound: float | np.ndarray) -> bool:
    """Whether a Cholesky factorization proves lambda_min(m) >= bound, or of each
    matrix m_k of a stack of shape (..., n, n) that lambda_min(m_k) >= bound_k.

    ``m`` must be exactly Hermitian (as :func:`as_hermitian` returns it), and
    ``bound`` is one number or one per matrix.  Each matrix is factorized as
    m_k - (bound_k + delta_k) I, where delta_k = 4 (n + 1) u max(0, tr(m_k - bound_k I))
    and u = 2**-53 bounds the backward error of a complex Cholesky factorization
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5; Rump, BIT 46,
    2006).  The shift is per matrix, so a large matrix does not widen a small one's
    margin, and the whole stack goes to LAPACK in one call.  So True is a proof for
    every matrix; False means the bound fails or lies within delta_k of lambda_min
    for at least one.
    """
    m = _square(m, copy=True, stack=True)  # shifted in place
    n = m.shape[-1]
    diagonal = np.einsum("...ii->...i", m)  # a writeable view
    # A negative trace leaves a negative diagonal entry, on which Cholesky fails exactly.
    delta = 4 * (n + 1) * 2.0**-53 * np.maximum(0.0, diagonal.real.sum(axis=-1) - n * bound)
    diagonal -= (bound + delta)[..., None]
    try:  # m^T = conj(m): same spectrum, and numpy copies it to LAPACK's order contiguously
        factor = np.linalg.cholesky(m.swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())  # OpenBLAS factors NaN entries without failing


def positive_semidefinite(m: np.ndarray) -> bool:
    """Whether :func:`bounded_below` proves lambda_min(m) >= -PSD_TOL max(1, tr m),
    or for a stack, that bound for each matrix with its own trace."""
    trace = np.trace(m, axis1=-2, axis2=-1).real
    return bounded_below(m, -PSD_TOL * np.maximum(1.0, trace))


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix (largest absolute eigenvalue)."""
    w = eigenvalues(m)
    return float(max(-w[0], w[-1], 0.0))
