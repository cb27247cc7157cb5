"""Tests for the dense tensor-product linear algebra kernels."""

import itertools
import math

import numpy as np
import pytest

from qmoney import linalg
from qmoney.exceptions import DimensionError, EigendecompositionError, HermiticityError


def kron_oracle(factors):
    """Index-loop Kronecker product used as an independent reference."""
    shapes = [np.asarray(f) for f in factors]
    rows = [f.shape[0] for f in shapes]
    cols = [f.shape[1] for f in shapes]
    out = np.zeros((math.prod(rows), math.prod(cols)), dtype=np.complex128)
    for ridx in itertools.product(*[range(r) for r in rows]):
        for cidx in itertools.product(*[range(c) for c in cols]):
            r = 0
            for i, d in zip(ridx, rows):
                r = r * d + i
            c = 0
            for j, d in zip(cidx, cols):
                c = c * d + j
            val = 1.0 + 0.0j
            for f, i, j in zip(shapes, ridx, cidx):
                val *= f[i, j]
            out[r, c] = val
    return out


def partial_trace_oracle(m, dims, keep):
    """Summation-loop partial trace used as an independent reference."""
    dims = tuple(dims)
    k = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(k) if i not in keep]
    kept_dim = math.prod(dims[i] for i in keep)
    out = np.zeros((kept_dim, kept_dim), dtype=np.complex128)
    for kr in itertools.product(*[range(dims[i]) for i in keep]):
        for kc in itertools.product(*[range(dims[i]) for i in keep]):
            total = 0.0 + 0.0j
            for t in itertools.product(*[range(dims[i]) for i in traced]):
                row = [0] * k
                col = [0] * k
                for pos, i in enumerate(keep):
                    row[i] = kr[pos]
                    col[i] = kc[pos]
                for pos, i in enumerate(traced):
                    row[i] = t[pos]
                    col[i] = t[pos]
                r = 0
                c = 0
                for i in range(k):
                    r = r * dims[i] + row[i]
                    c = c * dims[i] + col[i]
                total += m[r, c]
            r_out = 0
            c_out = 0
            for pos, i in enumerate(keep):
                r_out = r_out * dims[i] + kr[pos]
                c_out = c_out * dims[i] + kc[pos]
            out[r_out, c_out] = total
    return out


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2


def test_kron_plus_state_three_copies():
    """Three kron copies of |+><+| give a trace-1, rank-1 projector."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    proj = np.outer(plus, plus)
    triple = np.kron(np.kron(proj, proj), proj)
    np.testing.assert_allclose(triple, kron_oracle([proj, proj, proj]), atol=1e-14)
    assert triple.shape == (8, 8)
    np.testing.assert_allclose(np.trace(triple), 1.0, atol=1e-13)
    w = linalg.eigenvalues(triple)
    assert np.sum(w > 1e-10) == 1


def test_partial_trace_bell_state():
    """Tracing either qubit of the Bell state leaves the maximally mixed state."""
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    expected = np.array([[0.5, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(linalg.partial_trace(rho, [2, 2], [0]), expected, atol=1e-14)
    np.testing.assert_allclose(linalg.partial_trace(rho, [2, 2], [1]), expected, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims,keep", [((2, 3), (0,)), ((2, 2, 3), (0, 2)), ((2, 2, 2), (1,))])
def test_partial_trace_matches_loop_oracle(seed, dims, keep):
    """partial_trace agrees with the summation-loop reference on random input."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    np.testing.assert_allclose(
        linalg.partial_trace(m, dims, keep), partial_trace_oracle(m, dims, keep), atol=1e-12
    )


def test_partial_trace_all_factors_is_scalar_trace():
    """Tracing every factor reproduces the ordinary trace as a 1x1 matrix."""
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 12)
    out = linalg.partial_trace(m, [2, 2, 3], [])
    assert out.shape == (1, 1)
    np.testing.assert_allclose(out[0, 0], np.trace(m), atol=1e-12)


def test_partial_trace_keep_all_is_identity_map():
    rng = np.random.default_rng(4)
    m = random_hermitian(rng, 6)
    np.testing.assert_allclose(linalg.partial_trace(m, [2, 3], [0, 1]), m, atol=1e-14)


def test_partial_transpose_swap_gives_maximally_entangled():
    """Partial transpose of the qubit swap is twice the maximally entangled projector."""
    swap = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    expected = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            expected[2 * i + i, 2 * j + j] = 1.0
    np.testing.assert_allclose(linalg.partial_transpose(swap, [2, 2], [1]), expected, atol=1e-14)


@pytest.mark.parametrize("which", [(0,), (1,), (2,), (0, 2)])
def test_partial_transpose_is_involution(which):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    twice = linalg.partial_transpose(linalg.partial_transpose(m, [2, 3, 2], which), [2, 3, 2], which)
    np.testing.assert_allclose(twice, m, atol=1e-14)


def test_partial_transpose_all_factors_is_full_transpose():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_allclose(linalg.partial_transpose(m, [2, 3], [0, 1]), m.T, atol=1e-14)


def test_permutation_operator_moves_factors():
    """The operator routes each input factor to its assigned output slot."""
    rng = np.random.default_rng(8)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    op = linalg.permutation_operator([2, 3, 2], [2, 0, 1])
    vec = np.kron(np.kron(u, v), w)
    np.testing.assert_allclose(op @ vec, np.kron(np.kron(v, w), u), atol=1e-13)


def test_permutation_operator_composes():
    """Composition of permutation operators matches composing the permutations."""
    rng = np.random.default_rng(9)
    dims = [2, 2, 2, 2]
    perms = list(itertools.permutations(range(4)))
    for _ in range(6):
        sigma = list(perms[rng.integers(len(perms))])
        tau = list(perms[rng.integers(len(perms))])
        composed = [sigma[tau[j]] for j in range(4)]
        lhs = linalg.permutation_operator(dims, sigma) @ linalg.permutation_operator(dims, tau)
        np.testing.assert_allclose(lhs, linalg.permutation_operator(dims, composed), atol=1e-13)


def test_permutation_operator_is_unitary():
    op = linalg.permutation_operator([2, 3, 4], [1, 2, 0])
    np.testing.assert_allclose(op @ op.conj().T, np.eye(24), atol=1e-13)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 3)])
def test_symmetric_projector_rank(d, k):
    """The symmetric projector has rank C(d + k - 1, k)."""
    proj = linalg.symmetric_projector(d, k)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-11)
    np.testing.assert_allclose(proj, proj.conj().T, atol=1e-13)
    rank = int(round(np.trace(proj).real))
    assert rank == math.comb(d + k - 1, k)
    np.testing.assert_allclose(np.trace(proj).real, rank, atol=1e-10)


def test_zero_operator_checks_physical_memory(monkeypatch):
    """Refused past the memory that ``os.sysconf`` reports; unchecked where it
    cannot report it."""
    # 112 KiB: seven 32 x 32 operators fit, seven 33 x 33 ones not
    sizes = {"SC_PHYS_PAGES": 28, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(linalg.os, "sysconf", sizes.__getitem__)
    assert linalg.zero_operator(32).shape == (32, 32)
    with pytest.raises(MemoryError, match="33 x 33"):
        linalg.symmetric_projector(33, 1)

    def unknown_name(name):
        raise ValueError(name)

    monkeypatch.setattr(linalg.os, "sysconf", unknown_name)
    assert not linalg.zero_operator(33).any()
    monkeypatch.delattr(linalg.os, "sysconf")
    z = linalg.zero_operator(33)
    assert z.shape == (33, 33) and z.dtype == np.complex128 and not z.any()


def test_symmetric_projector_fixes_symmetric_vectors():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vvv = np.kron(np.kron(v, v), v)
    proj = linalg.symmetric_projector(3, 3)
    np.testing.assert_allclose(proj @ vvv, vvv, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
def test_hermitian_eig_reconstruction(seed, n):
    """Eigendecomposition reconstructs the input within 1e-10 of its norm."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    m = random_hermitian(rng, n, scale)
    w, v = linalg.hermitian_eig(m)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(n), atol=1e-12)
    norm = max(np.abs(w).max(), 1e-300)
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10 * norm


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 5, 27, 40])
def test_positive_definite_eig_reconstruction(seed, n):
    """The SVD route gives ascending eigenvalues and a unitary eigenbasis."""
    rng = np.random.default_rng(seed)
    g = random_hermitian(rng, n, 1.0)
    m = g @ g + 1e-3 * np.eye(n)
    w, v = linalg.positive_definite_eig(m)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m), rtol=1e-10, atol=1e-12 * w[-1])
    np.testing.assert_allclose(v @ v.conj().T, np.eye(n), atol=1e-12)
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10 * w[-1]


def test_direct_sum_places_each_block_beside_the_output_factor():
    rng = np.random.default_rng(12)
    d_out, k, d_in = 2, 3, 3
    mats = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(k)]
    big = linalg.direct_sum(mats, d_out, d_in)
    expected = np.zeros((d_out * k * d_in,) * 2, dtype=np.complex128)
    for i, m in enumerate(mats):
        for o, a, p, b in itertools.product(range(d_out), range(d_in), range(d_out), range(d_in)):
            expected[(o * k + i) * d_in + a, (p * k + i) * d_in + b] = m[o * d_in + a, p * d_in + b]
    np.testing.assert_array_equal(big, expected)
    flat = linalg.direct_sum(mats, 1, 6)
    np.testing.assert_array_equal(flat[6:12, 6:12], mats[1])
    assert np.count_nonzero(flat[:6, 6:]) == 0


def test_eigenvalues_of_a_permuted_direct_sum_match_the_dense_computation():
    """Blocks linked only through a chain, interleaved by a permutation, plus a
    zero row."""
    rng = np.random.default_rng(11)
    chain = np.diag(rng.standard_normal(40)) + np.diag(np.full(39, 0.3 + 0.1j), 1)
    chain = chain + np.triu(chain, 1).conj().T
    blocks = [chain, random_hermitian(rng, 12, 2.0), random_hermitian(rng, 12, 0.5),
              np.zeros((1, 1)), random_hermitian(rng, 1, 1.0)]
    total = sum(b.shape[0] for b in blocks)
    m = np.zeros((total, total), dtype=np.complex128)
    start = 0
    for b in blocks:
        size = b.shape[0]
        m[start:start + size, start:start + size] = b
        start += size
    perm = rng.permutation(total)
    m = m[np.ix_(perm, perm)]
    dense = np.linalg.eigvalsh(m)
    np.testing.assert_allclose(linalg.eigenvalues(m), dense, atol=1e-12)
    assert linalg.min_eigenvalue(m) == pytest.approx(dense[0], abs=1e-12)


def test_operator_norm_and_min_eigenvalue():
    m = np.diag([-3.0, 0.5, 2.0]).astype(np.complex128)
    assert linalg.operator_norm(m) == pytest.approx(3.0)
    assert linalg.min_eigenvalue(m) == pytest.approx(-3.0)


@pytest.mark.parametrize("n", [1, 8, 64, 512])
@pytest.mark.parametrize("tol", [1e-9, 1e-7])
@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
def test_bounded_below_agrees_with_the_smallest_eigenvalue(n, tol, factor):
    rng = np.random.default_rng(n)
    bound = -tol
    spectrum = np.concatenate([[bound * factor], rng.uniform(0.0, 1e-6, n - 1)])
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    m = linalg.as_hermitian((u * spectrum) @ u.conj().T)
    verdict = linalg.bounded_below(m, bound)
    assert verdict == (linalg.min_eigenvalue(m) >= bound)
    assert verdict == (factor < 1)


@pytest.mark.parametrize("n", [1, 8, 64, 512])
def test_zero_and_rank_one_objectives_are_bounded_below(n):
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    rank_one = linalg.as_hermitian(np.outer(v, v.conj()))
    assert linalg.bounded_below(np.zeros((n, n)), -linalg.PSD_TOL)
    assert linalg.bounded_below(rank_one, -linalg.PSD_TOL)


def test_bounded_below_leaves_its_argument_alone():
    m = np.diag([2.0, 3.0]).astype(np.complex128)
    assert linalg.bounded_below(m, 1.0) and not linalg.bounded_below(m, 2.5)
    np.testing.assert_array_equal(m, np.diag([2.0, 3.0]))
    # The shift lands on a copy of any memory layout, not on a discarded one.
    assert not linalg.bounded_below(np.asfortranarray(np.diag([2.0, 3.0, 0.5])), 1.0)


def test_bounded_below_decides_a_permuted_direct_sum():
    m = _permuted_direct_sum(np.random.default_rng(3), [12, 40, 1, 12, 1])
    lowest = linalg.min_eigenvalue(m)
    assert linalg.bounded_below(m, lowest - 1e-3)
    assert not linalg.bounded_below(m, lowest + 1e-3)


@pytest.mark.parametrize("where, value", [((1, 1), np.nan), ((2, 1), np.nan), ((2, 1), np.inf)])
def test_bounded_below_proves_nothing_about_non_finite_matrices(where, value):
    m = np.eye(3, dtype=np.complex128)
    m[where] = m[where[::-1]] = value
    assert not linalg.bounded_below(m, -1.0)


def _margin_stack(n, bound):
    """Five Hermitian matrices: lambda_min above ``bound`` by a clear margin, below it,
    above it by less than the Cholesky shift, with a symmetric NaN pair, and with a NaN
    on the diagonal."""
    rng = np.random.default_rng(n)
    stack = []
    for factor in (1 - 1e-3, 1 + 1e-3, 1 - 1e-15):
        spectrum = np.concatenate([[bound * factor], rng.uniform(0.0, 1.0, n - 1)])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        stack.append(linalg.as_hermitian((q * spectrum) @ q.conj().T))
    for where in ((n - 1, 0), (n // 2, n // 2)):
        m = np.eye(n, dtype=np.complex128)
        m[where] = m[where[::-1]] = np.nan
        stack.append(m)
    return np.array(stack)


@pytest.mark.parametrize("n", [1, 3, 8, 64])
@pytest.mark.parametrize("bound", [-1e-7, -1e-3])
@pytest.mark.parametrize("members", [[0], [1], [2], [3], [4], [0, 1], [0, 3], [0, 4], [0, 2, 3]])
def test_bounded_below_verdicts_of_margin_and_nan_stacks(n, bound, members):
    """The factor is taken of m^T = conj(m); taking it of m, as the verdict on conj(m)
    now does, decides the same.  A clear margin is proved, and at one row any margin,
    since the shift there is 8u times the margin itself."""
    stack = _margin_stack(n, bound)[members]
    verdict = linalg.bounded_below(stack, bound)
    assert verdict == linalg.bounded_below(stack.conj(), bound)
    assert verdict == (set(members) <= ({0, 2} if n == 1 else {0}))
    for m in stack:
        assert linalg.bounded_below(m, bound) == linalg.bounded_below(m.conj(), bound)


def test_eigenvalue_failure_is_wrapped_with_the_size(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigendecompositionError, match="3x3"):
        linalg.min_eigenvalue(np.eye(3))
    with pytest.raises(EigendecompositionError, match="70x70"):
        linalg.min_eigenvalue(np.eye(70))


def _permuted_direct_sum(rng, sizes):
    """A Hermitian direct sum of random blocks of the given sizes, rows shuffled."""
    total = sum(sizes)
    m = np.zeros((total, total), dtype=np.complex128)
    start = 0
    for size in sizes:
        m[start:start + size, start:start + size] = random_hermitian(rng, size, 1.0)
        start += size
    perm = rng.permutation(total)
    return m[np.ix_(perm, perm)]


@pytest.mark.parametrize("routine", [
    linalg.eigenvalues, linalg.hermitian_eig, linalg.positive_definite_eig,
])
def test_spectral_routines_reject_a_stack(routine):
    with pytest.raises(DimensionError, match="square matrix"):
        routine(np.stack([np.eye(5)] * 3))


def test_as_hermitian_repairs_roundoff():
    m = np.array([[1.0, 1e-14 + 1j * 1e-14], [0.0, 2.0]])
    out = linalg.as_hermitian(m)
    np.testing.assert_allclose(out, out.conj().T, atol=0)


def test_as_hermitian_rejects_large_defect():
    m = np.array([[1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(HermiticityError):
        linalg.as_hermitian(m)


def _signed_zero_hermitian(n, seed):
    """An exactly Hermitian n x n matrix whose zero parts carry random signs,
    on and off the diagonal, so a sum that drops a zero's sign shows in the bits."""
    rng = np.random.default_rng(seed)
    pick = np.array([0.0, -0.0, 1.0, -0.5, 3.25])
    m = np.empty((n, n), dtype=np.complex128)
    m.real, m.imag = rng.choice(pick, size=(n, n)), rng.choice(pick, size=(n, n))
    lower = np.tril_indices(n, -1)
    m[lower] = m.T[lower].conj()
    for part in (m.real, m.imag):
        zero = part == 0.0
        part[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    m.imag[np.diag_indices(n)] = rng.choice([0.0, -0.0], size=n)
    return m


@pytest.mark.parametrize("n", [1, 5, 128, 300])
def test_as_hermitian_output_is_bit_identical_to_the_formula(n):
    """Exactly Hermitian (up to signed zeros) and roundoff-repaired inputs,
    across tile boundaries, give the bits of (m + m^H) / 2."""
    exact = _signed_zero_hermitian(n, n)
    repaired = exact.copy()
    repaired[0, -1] += 1e-14
    repaired[-1, n // 2] -= 3e-15j
    for m in (exact, repaired):
        out = linalg.as_hermitian(m)
        assert out is not m
        np.testing.assert_array_equal(out.view(np.int64), ((m + m.conj().T) / 2).view(np.int64))
        np.testing.assert_array_equal(out, out.conj().T)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
@pytest.mark.parametrize("symmetric", [False, True])
def test_as_hermitian_rejects_non_finite_entries(bad, symmetric):
    """Also a non-finite entry mirrored by its conjugate, which an equality test would pass."""
    m = _signed_zero_hermitian(200, 3)
    m[150, 7] = bad
    if symmetric:
        m[7, 150] = np.conj(bad)
    with pytest.raises(HermiticityError, match="non-finite"):
        linalg.as_hermitian(m)


def test_as_hermitian_rejects_a_large_defect_in_a_far_tile():
    m = _signed_zero_hermitian(300, 4)
    m[290, 10] += 1e-6
    with pytest.raises(HermiticityError, match="not Hermitian"):
        linalg.as_hermitian(m)


def test_as_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionError):
        linalg.as_hermitian(np.zeros((2, 3)))


def test_check_factored_dims():
    assert linalg.check_factored_dims([2, 3, 4], 24) == (2, 3, 4)
    with pytest.raises(DimensionError):
        linalg.check_factored_dims([2, 3], 7)
    with pytest.raises(DimensionError):
        linalg.check_factored_dims([0, 5])


def _spectral_stack(rng, n, scales, lowest):
    """An exactly Hermitian stack: matrix k is scales[k] U_k diag(lowest[k], uniform
    in [0, 1), ...) U_k^H for a Haar-random unitary U_k."""
    mats = []
    for scale, low in zip(scales, lowest):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        spectrum = scale * np.concatenate([[low], rng.uniform(0.0, 1.0, n - 1)])
        mats.append((u * spectrum) @ u.conj().T)
    return linalg.as_hermitian(np.array(mats))


def _verdict_or_error(check, m):
    try:
        return check(m)
    except HermiticityError:
        return HermiticityError


@pytest.mark.parametrize("seed", range(24))
def test_a_stacks_verdict_is_every_matrix_verdict(seed):
    """For random stacks at scales from 1e-8 to 1e8, with smallest eigenvalues
    above, near and below each bound, a stack passes exactly when each of its
    matrices passes alone, and its Hermitian part is each matrix's."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 6)), int(rng.integers(1, 7))
    scales = 10.0 ** rng.uniform(-8, 8, k)
    # Odd seeds: margins that pass alone, though not under a larger matrix's shift.
    choices = [0.5, 1e-6, 1e-9] if seed % 2 else [0.5, 1e-12, 0.0, -1e-12, -1e-10, -1e-3]
    m = _spectral_stack(rng, n, scales, rng.choice(choices, size=k))
    bounds = -linalg.PSD_TOL * rng.uniform(0.0, 2.0, k)
    for check in (lambda x: linalg.bounded_below(x, 0.0), linalg.positive_semidefinite):
        assert check(m) == all(check(x) for x in m)
    assert linalg.bounded_below(m, bounds) == all(map(linalg.bounded_below, m, bounds))
    skewed = m.copy()
    for i in range(k):  # odd seeds: defects within the tolerance; even: on both sides of it
        skewed[i, 0, -1] += 10.0 ** rng.uniform(-16, -13 if seed % 2 else -11) * scales[i]
    alone = [_verdict_or_error(linalg.as_hermitian, x) for x in skewed]
    if any(v is HermiticityError for v in alone):
        with pytest.raises(HermiticityError, match="of the stack is not Hermitian"):
            linalg.as_hermitian(skewed)
    else:
        np.testing.assert_array_equal(linalg.as_hermitian(skewed), np.array(alone))


def test_a_small_indefinite_matrix_is_not_hidden_by_a_large_one():
    """Tolerance and shift are per matrix: a 1e-8-scale matrix with smallest
    eigenvalue -1e-8 fails beside a 1e8-scale positive one, whose trace would
    allow it, and a 1e-8-scale positive one whose smallest eigenvalue is far
    below the large matrix's shift passes beside it."""
    rng = np.random.default_rng(5)
    big = _spectral_stack(rng, 4, [1e8], [0.5])
    indefinite = _spectral_stack(rng, 4, [1e-8], [-1.0])
    assert linalg.positive_semidefinite(big) and not linalg.positive_semidefinite(indefinite)
    assert linalg.bounded_below(indefinite, -linalg.PSD_TOL * 1e8)
    assert not linalg.positive_semidefinite(np.concatenate([indefinite, big]))
    positive = _spectral_stack(rng, 4, [1e-8], [1e-2])  # smallest eigenvalue 1e-10
    assert not linalg.bounded_below(positive, 4 * 5 * 2.0**-53 * np.trace(big[0]).real)
    assert linalg.bounded_below(np.concatenate([big, positive]), 0.0)


def test_a_small_non_hermitian_matrix_is_not_hidden_by_a_large_one():
    small = np.eye(3, dtype=np.complex128)
    small[0, 2] = 1e-9
    large = 1e8 * np.eye(3, dtype=np.complex128)
    with pytest.raises(HermiticityError, match=r"matrix 0 of the stack .* 1\.000e-09"):
        linalg.as_hermitian(np.stack([small, large]))
    linalg.as_hermitian(large + 1e-9 * np.triu(np.ones((3, 3)), 1))  # within 1e-12 * 1e8


@pytest.mark.parametrize("where", [0, 2])
def test_a_nan_in_one_matrix_of_a_stack_is_refused(where):
    m = np.stack([np.eye(3, dtype=np.complex128)] * 3)
    m[where, 1, 1] = np.nan
    with pytest.raises(HermiticityError, match="non-finite"):
        linalg.as_hermitian(m)
    assert not linalg.bounded_below(m, -1.0)


def test_a_stack_must_hold_square_matrices():
    for bad in (np.zeros((2, 2, 3)), np.zeros(3)):
        with pytest.raises(DimensionError, match="square matrix"):
            linalg.as_hermitian(bad)
        with pytest.raises(DimensionError, match="square matrix"):
            linalg.bounded_below(bad, 0.0)
