"""Interior-point solver for the counterfeiting semidefinite program.

The primal problem maximizes <Q, X> over positive semidefinite X whose
partial trace over the leading (output) tensor factors is the identity on the
trailing (input) factors; feasible X are exactly the Choi operators of
channels from the input space to the output space.  The dual minimizes the
trace of Y over Hermitian Y on the input space with identity (x) Y - Q
positive semidefinite.  Both problems are strictly feasible (take a multiple
of the identity, respectively (||Q|| + 1) times the identity), so strong
duality holds and the optimum is attained on both sides.

The solver is a primal-dual path-following interior-point method working
directly on the complex Hermitian cone:

- iterates (X, Y, S) with X, S Hermitian positive definite;
- Nesterov-Todd scaling W, the unique positive definite matrix with
  W S W = X: Cholesky plus one eigendecomposition per iteration give
  W = G G^H with G^-1 X G^-H = G^H S G = D diagonal (Todd, Toh & Tutuncu);
- Newton directions obtained by eliminating dX and dS, leaving the map
  N(dY) = Tr_out(W (I (x) dY) W) on the input space: its matrix on vec(dY) is
  Hermitian positive definite (<Z, N(Z)> = ||W^1/2 (I (x) Z) W^1/2||^2) and
  commutes with Z -> Z^H, so one LU solve (numpy's LAPACK) gives a dY that is
  Hermitian up to roundoff, and is symmetrized;
- a Mehrotra-style adaptive centering weight from an affine predictor step,
  and fraction-to-boundary step lengths in the NT-scaled space, each from a
  smallest eigenvalue.

Residual terms for infeasible iterates are carried through the Newton system,
so warm starts need not be feasible; the default start is exactly feasible
and keeps both residuals at roundoff level throughout.

Output-support reduction.  A positive semidefinite Q lives on V (x) I, where
V spans the support of Tr_in Q; cloning objectives vanish off the symmetric
clone subspace, so V is often much smaller than the output space (rank 27 of
64 for three Wiesner notes).  In the basis V + complement, the start
X = I / d_out, S = I (x) Y - Q is block diagonal with complement blocks
I_c (x) Z, and every Newton step keeps that form, since all of its terms are
built from the blocks.  So the iteration runs on the output rows of V plus
one row standing for the whole (d_out - r)-dimensional complement:
Q~ = (V (x) I)^H Q (V (x) I) (+) 0, X~ = X_s (+) (d_out - r) Z, S~ = S_s (+) T.
Giving the complement row the barrier weight w = d_out - r (and every other
row weight 1) reproduces the dense quantities exactly: <X~, S~> = <X, S>,
mu = <X, S> / n with n the full dimension, the Schur complement and the
right-hand side of the Newton system (the NT scaling of the complement row is
sqrt(w) times the dense one), the centering term sigma mu Omega S~^-1 with
Omega = diag(w) (x) I, the start diag(w) (x) I / d_out, and every step
length.  The trajectory is therefore the dense one in exact arithmetic, at
(r + 1)^3 / d_out^3 of its cost.  A full-rank objective runs the same code
with all weights 1.  The reduction is taken only when it shrinks the problem
(r + 1 < d_out) and Q's coupling outside V (x) I is checked to be at
roundoff, and the primal is lifted back,
X = (V (x) I) X_s (V (x) I)^H + P_c (x) Z, so the reported values and the
independent certifier both see the full problem.  The solver judges
feasibility only of its own iterates, to decide when to stop; whether a
returned pair is feasible is for :mod:`qmoney.certificates` to say.

Spectral pair.  Before it iterates, the solver takes one eigendecomposition
of the reduced objective, which also gives ||Q||.  Let T hold the k
eigenvectors within tol * ||Q|| of the largest eigenvalue lambda.  Then
X = (d_in / k) T T^H is positive semidefinite, Y = lambda I is dual feasible,
and the two values differ by at most d_in tol ||Q||.  When Tr_out X = I, the
pair is optimal: this is the flat dual of the source paper's (3/4)^n,
2/(d+1) and ticket values, with its matching primal.  The pair is accepted
by the stopping test of the iteration (relative gap and primal residual at
most tol, the residual scaled by 1 + ||Q||) and returned after 0 iterations.
A problem that fails the test goes on to the iteration.

Products.  I (x) Y_i >= Q_i >= 0 gives I (x) (Y_1 (x) ... (x) Y_n) >= Q_1 (x) ... (x) Q_n,
and products of Choi operators are Choi operators, so values multiply (Mittal & Szegedy,
FCT 2007).  A :func:`qmoney.composition.repeated_sdp` problem keeps its ``components``;
the regrouped product of their solutions (iterations summed, no trace) is returned if
it passes the spectral pair's stopping test at scale 1 + ||Q|| = 1 + prod ||Q_i||.
Otherwise, or if a component raises :class:`SolverError`, the dense problem is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import DimensionError, SolverError

DEFAULT_TOL = 1e-8
MIN_TOL = 1e-12
MAX_TOL = 1e-2
MAX_ITERATIONS = 200
STEP_FRACTION = 0.98
CHOLESKY_SHIFTS = (0.0, 1e-14, 1e-12, 1e-10, 1e-8)


@dataclass(frozen=True)
class CloningSdp:
    """Problem data: an objective on output (x) input and the pair of their sizes.

    ``dims`` may be given as any tuple of tensor factor dimensions whose
    product is the objective's size, with the input factor last; all factors
    before it form the output (clone registers), as in (clone 1, clone 2,
    input).  The problem stores only the split, ``dims == (out_dim, in_dim)``,
    so ``dims=(2, 2, 2)`` reads back as ``(4, 2)``.  ``components``: see "Products".
    """

    objective: np.ndarray
    dims: tuple[int, ...]
    components: tuple[CloningSdp, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        obj = linalg.as_hermitian(self.objective)
        if obj.ndim != 2:
            raise DimensionError(f"objective must be a square matrix, got shape {obj.shape}")
        dims = linalg.check_factored_dims(self.dims, obj.shape[0])
        if len(dims) < 2:
            raise DimensionError(f"dims must list output and input factors, got {dims}")
        if not linalg.positive_semidefinite(obj):
            raise DimensionError(
                "objective must be positive semidefinite, minimum eigenvalue "
                f"{linalg.min_eigenvalue(obj):.3e}"
            )
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "dims", (obj.shape[0] // dims[-1], dims[-1]))

    @property
    def dim(self) -> int:
        return self.objective.shape[0]

    @property
    def out_dim(self) -> int:
        return self.dims[0]

    @property
    def in_dim(self) -> int:
        return self.dims[1]

    def trace_out(self, x: np.ndarray) -> np.ndarray:
        """Partial trace over the output factors."""
        return linalg.partial_trace(x, self.dims, [1])

    def lift_dual(self, y: np.ndarray) -> np.ndarray:
        """Embed an input-space operator as identity (x) y on the full space."""
        return _lift_dual(y, self.out_dim)


def _lift_dual(y: np.ndarray, rows: int) -> np.ndarray:
    """identity_rows (x) y, filled into the diagonal blocks of a zero matrix."""
    out = np.zeros((rows, len(y), rows, len(y)), dtype=np.complex128)
    out[np.arange(rows), :, np.arange(rows)] = y
    return out.reshape(rows * len(y), -1)


@dataclass(frozen=True)
class IterateStats:
    """Per-iteration snapshot recorded by the solver."""

    iteration: int
    primal_value: float
    dual_value: float
    gap: float
    mu: float
    primal_infeasibility: float
    dual_infeasibility: float
    step_primal: float
    step_dual: float


@dataclass(frozen=True)
class SdpSolution:
    """One problem's solution: primal/dual pair, values, gap, and run diagnostics.

    The pair lives on that problem's space.  It is not checked for feasibility
    here; :func:`qmoney.certificates.certify` does that.
    """

    primal_x: np.ndarray
    dual_y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    trace: tuple[IterateStats, ...] = ()

    def __post_init__(self):
        scale = max(1.0, abs(self.primal_value), abs(self.dual_value))
        if self.gap < -linalg.VALUE_TOL * scale:
            raise SolverError(
                f"solution violates weak duality: gap {self.gap:.3e}", solution=None
            )


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a b), without forming the product."""
    return float(np.real(np.sum(a * b.T)))


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2."""
    return (m + m.conj().T) / 2


def _shifted_cholesky(m: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of m + shift * mean(diag m) * I at the first of ``CHOLESKY_SHIFTS``
    that works, or None.  Roundoff can leave a positive definite iterate
    marginally indefinite near convergence."""
    n = m.shape[0]
    base = max(float(np.trace(m).real) / n, 1e-300)
    for shift in CHOLESKY_SHIFTS:
        try:
            return np.linalg.cholesky(m + shift * base * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    return None


def _step_length(lam_min: float) -> float:
    """Fraction-to-boundary step, capped at 1, along a direction M from I:
    I + alpha * M stays positive semidefinite up to alpha = -1 / lambda_min(M)."""
    return float(np.minimum(1.0, STEP_FRACTION / -np.minimum(lam_min, -STEP_FRACTION)))


def _schur_complement(w: np.ndarray, rows: int, d_in: int) -> np.ndarray:
    """The matrix of dY -> Tr_out(W (I (x) dY) W) on vec(dY):
    N[(i, j), (k, l)] = sum_{c, a} W[(c, l), (a, j)] W[(a, i), (c, k)], one product."""
    w4 = w.reshape(rows, d_in, rows, d_in)
    left = w4.transpose(1, 3, 0, 2).reshape(d_in**2, rows**2)  # [(l, j), (c, a)]
    right = w4.transpose(2, 0, 1, 3).reshape(rows**2, d_in**2)  # [(c, a), (i, k)]
    m = (left @ right).reshape(d_in, d_in, d_in, d_in)  # [l, j, i, k]
    return m.transpose(2, 1, 3, 0).reshape(d_in**2, d_in**2)


def _schur_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """m^-1 rhs for the Schur complement m, by LU (numpy has no triangular solve to
    reuse a Cholesky factor); where roundoff has left m singular, after a relative
    jitter of its diagonal."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        jitter = 1e-13 * max(1.0, np.trace(m).real / m.shape[0])
        return np.linalg.solve(m + jitter * np.eye(m.shape[0]), rhs)


def _output_support(problem: CloningSdp) -> np.ndarray:
    """Orthonormal basis V (d_out x r) of the support of Tr_in Q: its eigenvectors
    above ``linalg.ROUNDOFF_TOL`` times the largest eigenvalue."""
    w, v = linalg.hermitian_eig(
        linalg.partial_trace(problem.objective, problem.dims, [0])
    )
    return v[:, w > linalg.ROUNDOFF_TOL * w[-1]]


def _reduce(problem: CloningSdp) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The objective on its output support, the barrier weight of each of its output
    rows, and the support basis V (None when the problem is kept whole).

    The cut is taken only if it shrinks the problem (r + 1 < d_out) and Q's coupling
    outside V (x) I is at most ``linalg.ROUNDOFF_TOL`` times Q's largest entry (itself at most
    ||Q||).  That coupling vanishes for an exact cut of a positive semidefinite Q, so
    the check only guards against a cut too coarse.
    """
    obj = problem.objective
    d_out, d_in = problem.out_dim, problem.in_dim
    v = _output_support(problem)
    r = v.shape[1]
    q4 = obj.reshape(d_out, d_in, d_out, d_in)
    outside = np.eye(d_out) - v @ v.conj().T
    if r + 1 >= d_out or (
        np.abs(outside @ obj.reshape(d_out, -1)).max() > linalg.ROUNDOFF_TOL * np.abs(obj).max()
    ):
        return obj, np.ones(d_out), None
    reduced = np.zeros((r + 1, d_in, r + 1, d_in), dtype=np.complex128)
    reduced[:r, :, :r] = np.einsum("ar,ajbl,bs->rjsl", v.conj(), q4, v, optimize=True)
    size = (r + 1) * d_in
    return reduced.reshape(size, size), np.append(np.ones(r), d_out - r), v


def _lift_primal(x: np.ndarray, support: np.ndarray | None, problem: CloningSdp) -> np.ndarray:
    """A reduced primal point on the full space: (V (x) I) X_s (V (x) I)^H plus the
    complement row's block spread evenly over the complement P_c of V."""
    if support is None:
        return x
    d_out, d_in = problem.out_dim, problem.in_dim
    r = support.shape[1]
    x4 = x.reshape(r + 1, d_in, r + 1, d_in)
    inside = np.einsum("ar,rjsl,bs->ajbl", support, x4[:r, :, :r], support.conj(), optimize=True)
    outside = np.eye(d_out) - support @ support.conj().T
    full = inside.reshape(problem.dim, problem.dim) + np.kron(outside, x4[r, :, r] / (d_out - r))
    return (full + full.conj().T) / 2


def _solution_from_iterates(problem, support, x, y, iterations, stats):
    x = _lift_primal(x, support, problem)
    pval = _pair(problem.objective, x)
    dval = float(np.real(np.trace(y)))
    return SdpSolution(x, y, pval, dval, dval - pval, iterations, tuple(stats))


def _stopping_test(gap, pval, dval, pinf, dinf, obj_scale, tol):
    """The relative gap and whether the problem has converged: rel_gap <= tol and both
    residuals at most tol * (1 + ||Q||), the one acceptance policy of the solver."""
    rel_gap = gap / np.maximum(1.0, (np.abs(pval) + np.abs(dval)) / 2.0)
    return rel_gap, (rel_gap <= tol) & (pinf <= tol * obj_scale) & (dinf <= tol * obj_scale)


def _spectral_solution(problem, support, w, v, norm, tol) -> SdpSolution | None:
    """The spectral pair X = (d_in / k) T T^H, Y = lambda_max I from the top cluster T
    (the k eigenvectors of the reduced objective within tol * ||Q|| of lambda_max),
    or None when it fails the stopping test.  Y is feasible by construction, so the
    test decides on X's partial-trace residual and on the gap."""
    d_in = problem.in_dim
    top = w >= w[-1] - tol * norm
    k = int(top.sum())
    t = v[:, top].reshape(-1, d_in, k)
    pinf = np.abs(np.eye(d_in) - (d_in / k) * np.einsum("ajk,alk->jl", t, t.conj())).max()
    pval = d_in / k * float(w[top].sum())
    dval = d_in * float(w[-1])
    _, done = _stopping_test(dval - pval, pval, dval, pinf, 0.0, 1.0 + norm, tol)
    if not done:
        return None
    if support is not None:  # lift T, not X: T vanishes on the complement row, where Q~ is 0
        t = np.einsum("ar,rjk->ajk", support, t[: support.shape[1]])
    t = t.reshape(problem.dim, k)
    x = _hermitian((d_in / k) * (t @ t.conj().T))
    y = float(w[-1]) * np.eye(d_in, dtype=np.complex128)
    return _solution_from_iterates(problem, None, x, y, 0, [])


def _product_solution(problem, tol, max_iterations) -> SdpSolution | None:
    """The product pair of "Products", or None; Y is feasible, so the test reads X and the gap."""
    parts = problem.components
    try:
        solutions = [_solve(p, tol, max_iterations) for p in parts]
        x = linalg.regroup(linalg.tensor([s.primal_x for s in solutions]), [p.dims for p in parts])
        y = linalg.tensor([s.dual_y for s in solutions])
        sol = _solution_from_iterates(problem, None, x, y, sum(s.iterations for s in solutions), [])
    except SolverError:
        return None
    pinf = np.abs(np.eye(problem.in_dim) - problem.trace_out(x)).max()
    scale = 1.0 + float(np.prod([linalg.operator_norm(p.objective) for p in parts]))
    done = _stopping_test(sol.gap, sol.primal_value, sol.dual_value, pinf, 0.0, scale, tol)[1]
    return sol if done else None


def _interior_point(problem, obj, weights, support, norm, tol, max_iterations) -> SdpSolution:
    """The interior-point iteration on a reduced problem: its objective, the barrier
    weight of each of its output rows, its support basis and the objective norm, as
    :func:`solve` finds them."""
    n, d_in, d_out = problem.dim, problem.in_dim, problem.out_dim
    rows = len(weights)
    size = rows * d_in
    stats: list[IterateStats] = []
    best = None  # (score, x, y) of the best iterate

    eye_in = np.eye(d_in, dtype=np.complex128)
    omega = np.repeat(weights, d_in)  # barrier weight of each reduced index
    heavy = np.flatnonzero(omega != 1.0)

    def trace_out(m):
        return m.reshape(rows, d_in, rows, d_in).trace(axis1=0, axis2=2)

    # Strictly feasible start: X the identity / d_out on the full space (weight w on
    # the complement row), Y far enough out that the dual slack is positive definite.
    x = np.diag(omega / d_out).astype(np.complex128)
    y = (norm + 1.0) * eye_in
    s = _hermitian(_lift_dual(y, rows) - obj)
    obj_scale = 1.0 + norm

    def finish(x, y, iterations: int) -> SdpSolution:
        return _solution_from_iterates(problem, support, x, y, iterations, stats)

    def stalled(message: str, iterations: int) -> SolverError:
        _, bx, by = best
        return SolverError(message, solution=finish(bx, by, iterations))

    gap, pval, dval = _pair(x, s), _pair(obj, x), float(np.trace(y).real)
    for iteration in range(1, max_iterations + 1):
        r_primal = eye_in - trace_out(x)
        r_dual = _hermitian(obj + s - _lift_dual(y, rows))
        pinf = float(np.abs(r_primal).max())
        dinf = float(np.abs(r_dual).max())
        rel_gap, done = _stopping_test(gap, pval, dval, pinf, dinf, obj_scale, tol)

        score = rel_gap + pinf + dinf
        if best is None or score < best[0]:
            best = (score, x, y)  # iterates are replaced, never updated in place
        if done:
            return finish(x, y, iteration - 1)
        mu = gap / n

        # NT scaling: X = L L^H and L^H S L = Q diag(lam) Q^H; G = L Q lam^(-1/4) gives
        # G^-1 X G^-H = G^H S G = D = diag(sqrt(lam)) and W = G G^H.  With H = G D^(-1/2),
        # S^-1 = H H^H, W = H D H^H, and H^H dS H = D^(-1/2) G^H dS G D^(-1/2).
        chol = _shifted_cholesky(x)
        if chol is None:
            raise stalled(
                f"primal iterate lost positive definiteness at iteration {iteration}: "
                f"Cholesky failed at every shift {CHOLESKY_SHIFTS} of the mean diagonal; "
                f"smallest diagonal {float(np.diagonal(x).real.min()):.3e}",
                iteration - 1,
            )
        lam, q = linalg.positive_definite_eig(_hermitian(chol.conj().T @ s @ chol))
        if not gap > 0.0:  # tr(L^H S L) = <X, S>; singular values cannot show its sign
            raise stalled(f"dual slack is not positive at iteration {iteration}", iteration - 1)
        # The floor caps the condition number of the scaling when roundoff
        # leaves tiny or zero eigenvalues in nominally positive iterates.
        lam = np.maximum(lam, lam[-1] * 1e-16)
        h = (chol @ q) * lam**-0.5
        # Omega commutes with L and S (block diagonal), so the normalised scaled
        # Omega S^-1 is lam^-1/2 Q^H Omega Q lam^-1/2 = diag(1 / lam) + lam^-1/2 spread
        # lam^-1/2, with spread = Q^H (Omega - I) Q from the complement row's indices.
        q_heavy = q[heavy]
        spread = (q_heavy.conj().T * (omega[heavy] - 1.0)) @ q_heavy
        del chol, q, q_heavy  # dense temporaries freed early keep peak memory flat
        h_h = h.conj().T
        w = _hermitian((h * lam**0.5) @ h_h)

        schur = _schur_complement(w, rows, d_in)
        rhs_dual = trace_out(w @ r_dual @ w) - r_primal

        def newton_direction(r_center):
            """dX, dY, dS and the normalised scaled dS for a centering residual."""
            dy = _schur_solve(schur, (trace_out(r_center) + rhs_dual).reshape(-1))
            dy = _hermitian(dy.reshape(d_in, d_in))
            ds = _lift_dual(dy, rows) - r_dual
            dx = _hermitian(r_center - w @ ds @ w)
            return dx, dy, ds, h_h @ ds @ h

        # In the scaled space dX~ = G^-1 R_c G^-H - dS~ with a diagonal first
        # term, so each step length is one smallest eigenvalue.
        dx_aff, _, ds_aff, t_aff = newton_direction(-x)
        # Normalised scaled dX~ is -I - t_aff here, so one spectrum gives both.
        t = linalg.eigenvalues(t_aff)
        alpha_p_aff = _step_length(-1.0 - t[-1])
        alpha_d_aff = _step_length(t[0])
        mu_aff = _pair(x + alpha_p_aff * dx_aff, s + alpha_d_aff * ds_aff) / n
        del dx_aff, ds_aff, t_aff  # freed before the corrector, as above
        # Python floats: numpy's ** 3 on an array rounds differently from libm's pow.
        sigma = min(1.0, max((mu_aff / mu) ** 3, 0.0)) if mu > 0 else 0.1
        sigma_mu = sigma * mu

        h_omega = np.sqrt(omega)[:, None] * h
        # sigma mu Omega^1/2 S^-1 Omega^1/2 - X, which is sigma mu Omega S^-1 - X.
        r_center = sigma_mu * (h_omega @ h_omega.conj().T) - x
        dx, dy, ds, t_ds = newton_direction(r_center)
        lam_root = lam**-0.5
        t_dx = sigma_mu * lam_root[:, None] * spread * lam_root
        t_dx.reshape(-1)[:: size + 1] += sigma_mu / lam - 1.0
        t_dx -= t_ds
        alpha_p = _step_length(linalg.min_eigenvalue(t_dx))
        alpha_d = _step_length(linalg.min_eigenvalue(t_ds))

        x = x + alpha_p * dx
        y = y + alpha_d * dy
        s = s + alpha_d * ds
        del dx, ds, t_dx, t_ds, r_center, h, h_h, h_omega, w, spread  # freed before the next SVD

        gap, pval, dval = _pair(x, s), _pair(obj, x), float(np.trace(y).real)
        stats.append(IterateStats(iteration, pval, dval, gap, mu, pinf, dinf, alpha_p, alpha_d))

    raise stalled(
        f"no convergence to tol {tol:.1e} within {max_iterations} iterations; "
        f"best relative gap {best[0]:.3e}",
        max_iterations,
    )


def solve(
    problem: CloningSdp,
    tol: float = DEFAULT_TOL,
    *,
    max_iterations: int = MAX_ITERATIONS,
) -> SdpSolution:
    """Solve the counterfeiting SDP to the requested relative accuracy.

    Parameters
    ----------
    problem : CloningSdp
        Objective and factor structure.
    tol : float
        Relative duality-gap and feasibility target, clamped to
        [1e-12, 1e-2].  Default 1e-8.
    max_iterations : int
        Iteration cap, at least 1; exhausting it raises :class:`SolverError`
        carrying the best iterate.  A primal iterate that cannot be factored
        even at the largest Cholesky shift raises the same error at once.

    Returns
    -------
    SdpSolution
        Converged primal/dual pair with per-iteration statistics attached.
        ``iterations == 0`` with an empty ``trace`` means the spectral pair
        met the stopping test and no interior-point iteration ran (a zero
        objective also returns at once).
    """
    if not MIN_TOL <= tol <= MAX_TOL:
        raise ValueError(f"tol must lie in [{MIN_TOL}, {MAX_TOL}], got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    return _solve(problem, tol, max_iterations)


def _solve(problem: CloningSdp, tol: float, max_iterations: int) -> SdpSolution:
    """:func:`solve` after its argument checks, for the components of a product too."""
    if problem.components and (solution := _product_solution(problem, tol, max_iterations)):
        return solution
    obj, weights, support = _reduce(problem)
    w, v = linalg.hermitian_eig(obj)
    norm = float(max(-w[0], w[-1], 0.0))
    if norm == 0.0:
        x = np.eye(problem.dim, dtype=np.complex128) / problem.out_dim
        y = np.zeros((problem.in_dim,) * 2, dtype=np.complex128)
        return _solution_from_iterates(problem, None, x, y, 0, [])
    solution = _spectral_solution(problem, support, w, v, norm, tol)
    if solution is not None:
        return solution
    return _interior_point(problem, obj, weights, support, norm, tol, max_iterations)


def _check_blocks(blocks: list[CloningSdp], weights: list[float]) -> CloningSdp:
    """Validate weighted same-shape blocks; return the first, whose structure they share."""
    if not blocks or len(blocks) != len(weights):
        raise DimensionError("need matching non-empty block and weight lists")
    first = blocks[0]
    if any(b.dims != first.dims for b in blocks):
        raise DimensionError("blocks must share one (out_dim, in_dim) split")
    # Written so that NaN fails both tests.
    if not all(w >= 0 for w in weights) or not abs(sum(weights) - 1.0) <= linalg.VALUE_TOL:
        raise DimensionError("weights must be nonnegative and sum to 1")
    return first


def assemble_block_sdp(blocks: list[CloningSdp], weights: list[float]) -> CloningSdp:
    """Combine weighted same-shape subproblems into one problem.

    The combined space is output (x) (block index (x) input): the block index
    heads the input, so ``dims`` is ``(out_dim, len(blocks) * in_dim)``.  The
    combined objective is the direct sum of the weighted block objectives.
    Feasible points decompose into one feasible point per block, so the
    combined optimal value is the weighted sum of block values.
    """
    first = _check_blocks(blocks, weights)
    objective = linalg.direct_sum(
        [w * b.objective for b, w in zip(blocks, weights)], first.out_dim, first.in_dim
    )
    return CloningSdp(objective, (first.out_dim, len(blocks) * first.in_dim))


def solve_block_diagonal(
    blocks: list[CloningSdp],
    weights: list[float],
    tol: float = DEFAULT_TOL,
) -> tuple[SdpSolution, ...]:
    """Solve weighted same-shape subproblems one by one; one solution per block.

    The weights are checked as :func:`assemble_block_sdp` checks them, and each
    block is solved by :func:`solve`, in input order, on its own space.  The
    weighted direct sum has the value sum_i w_i value_i and the pair made of
    the direct sums of the X_i and of the w_i Y_i, which is not built here.
    A block that exhausts ``MAX_ITERATIONS`` or loses positive definiteness
    raises :class:`SolverError` naming it and carrying its own best iterate, on
    its own space; with several failing blocks, the error names the lowest.
    """
    _check_blocks(blocks, weights)
    solutions = []
    for i, block in enumerate(blocks):
        try:
            solutions.append(solve(block, tol, max_iterations=MAX_ITERATIONS))
        except SolverError as exc:
            raise SolverError(f"block {i}: {exc}", solution=exc.solution) from exc
    return tuple(solutions)
