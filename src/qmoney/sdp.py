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
  commutes with Z -> Z^H, so one complex Cholesky solve gives a Hermitian dY;
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

Stacks.  The iteration runs on a stack of reduced problems of one shape, the
block data of SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999):
every iterate carries a leading stack axis, so the Cholesky factors, the SVDs
of the NT scaling, the Schur complements and the step-length spectra of the
whole stack are one batched LAPACK call each, and the stack pays for one
Python pass per iteration.  LAPACK factors each matrix of a stack as it would
factor it alone, and each problem keeps its own step lengths, stopping test
and best iterate; a problem that meets its stopping test leaves the stack.  So
each problem's trajectory is the one it has when solved alone.  :func:`solve`
is the stack of one; :func:`solve_block_diagonal` reduces its blocks and runs
one stack per reduced shape.

Spectral pair.  Before it iterates, the solver takes one eigendecomposition
of each reduced objective, which also gives ||Q||.  Let T hold the k
eigenvectors within tol * ||Q|| of the largest eigenvalue lambda.  Then
X = (d_in / k) T T^H is positive semidefinite, Y = lambda I is dual feasible,
and the two values differ by at most d_in tol ||Q||.  When Tr_out X = I, the
pair is optimal: this is the flat dual of the source paper's (3/4)^n,
2/(d+1) and ticket values, with its matching primal.  The pair is accepted
by the stopping test of the iteration (relative gap and primal residual at
most tol, the residual scaled by 1 + ||Q||) and returned after 0 iterations.
A problem that fails the test joins its stack unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .exceptions import DimensionError, SolverError

DEFAULT_TOL = 1e-8
MIN_TOL = 1e-12
MAX_TOL = 1e-2
MAX_ITERATIONS = 200
STEP_FRACTION = 0.98
PSD_OBJECTIVE_TOL = 1e-9
CHOLESKY_SHIFTS = (0.0, 1e-14, 1e-12, 1e-10, 1e-8)
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class CloningSdp:
    """Problem data: objective operator and the factor split of its space.

    ``dims`` lists the tensor factor dimensions of the space the objective
    acts on; the first ``n_out`` factors form the output (clone registers),
    the rest form the input.  The default treats all but the last factor as
    output, matching the (clone 1, clone 2, input) layout.
    """

    objective: np.ndarray
    dims: tuple[int, ...]
    n_out: int = -1

    def __post_init__(self):
        obj = linalg.as_hermitian(self.objective)
        dims = linalg.check_factored_dims(self.dims, obj.shape[0])
        n_out = self.n_out if self.n_out >= 0 else len(dims) - 1
        if not 1 <= n_out < len(dims):
            raise DimensionError(
                f"n_out must leave at least one input factor, got {n_out} of {len(dims)}"
            )
        if not linalg.bounded_below(obj, -PSD_OBJECTIVE_TOL):
            raise DimensionError(
                "objective must be positive semidefinite, minimum eigenvalue "
                f"{linalg.min_eigenvalue(obj):.3e}"
            )
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "n_out", n_out)

    @property
    def dim(self) -> int:
        return self.objective.shape[0]

    @property
    def out_dim(self) -> int:
        return math.prod(self.dims[: self.n_out])

    @property
    def in_dim(self) -> int:
        return math.prod(self.dims[self.n_out :])

    def trace_out(self, x: np.ndarray) -> np.ndarray:
        """Partial trace over the output factors."""
        return linalg.partial_trace(
            x, (self.out_dim, self.in_dim), [1]
        )

    def lift_dual(self, y: np.ndarray) -> np.ndarray:
        """Embed an input-space operator as identity (x) y on the full space."""
        return np.kron(np.eye(self.out_dim, dtype=np.complex128), y)


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
    """Solver output: primal/dual pair, values, gap, and run diagnostics.

    The pair is not checked for feasibility here; :func:`qmoney.certificates.certify`
    does that.
    """

    primal_x: np.ndarray
    dual_y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    trace: tuple[IterateStats, ...] = ()
    block_solutions: tuple["SdpSolution", ...] | None = None

    def __post_init__(self):
        if self.gap < -1e-8:
            raise SolverError(
                f"solution violates weak duality: gap {self.gap:.3e}", solution=None
            )


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a b) for each pair of matrices on two stacks, without forming the products."""
    return np.real(np.sum(a * b.swapaxes(-1, -2), axis=(-2, -1)))


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2 for each matrix on a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


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


def _step_length(lam_min: np.ndarray) -> np.ndarray:
    """Fraction-to-boundary steps, capped at 1, along directions M from I:
    I + alpha * M stays positive semidefinite up to alpha = -1 / lambda_min(M)."""
    return np.minimum(1.0, STEP_FRACTION / -np.minimum(lam_min, -STEP_FRACTION))


def _schur_complement(w: np.ndarray, rows: int, d_in: int) -> np.ndarray:
    """For each W on a stack, the matrix of dY -> Tr_out(W (I (x) dY) W) on vec(dY):
    N[(i, j), (k, l)] = sum_{c, a} W[(c, l), (a, j)] W[(a, i), (c, k)], one batched product."""
    k = len(w)
    w5 = w.reshape(k, rows, d_in, rows, d_in)
    left = w5.transpose(0, 2, 4, 1, 3).reshape(k, d_in**2, rows**2)  # [(l, j), (c, a)]
    right = w5.transpose(0, 3, 1, 2, 4).reshape(k, rows**2, d_in**2)  # [(c, a), (i, k)]
    m = (left @ right).reshape(k, d_in, d_in, d_in, d_in)  # [l, j, i, k]
    return m.transpose(0, 3, 2, 4, 1).reshape(k, d_in**2, d_in**2)


def _schur_solvers(m: np.ndarray) -> list:
    """One solver per Schur complement on a stack: its Cholesky factor, or, where
    roundoff has left the complement indefinite, LU after a relative jitter."""
    try:
        # Not scipy's: its complex potrf wakes a second BLAS thread pool (3 notes: 2x slower).
        factors = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if len(m) > 1:  # factor each alone: only an indefinite one is jittered
            return [solver for part in m for solver in _schur_solvers(part[None])]
        jitter = 1e-13 * max(1.0, np.trace(m[0]).real / m.shape[1])
        m_reg = m[0] + jitter * np.eye(m.shape[1])
        return [lambda rhs: np.linalg.solve(m_reg, rhs)]
    return [lambda rhs, c=c: scipy.linalg.lapack.zpotrs(c, rhs, lower=1)[0] for c in factors]


def _output_support(problem: CloningSdp) -> np.ndarray:
    """Orthonormal basis V (d_out x r) of the support of Tr_in Q: its eigenvectors
    above ``SUPPORT_TOL`` times the largest eigenvalue."""
    w, v = linalg.hermitian_eig(
        linalg.partial_trace(problem.objective, (problem.out_dim, problem.in_dim), [0])
    )
    return v[:, w > SUPPORT_TOL * w[-1]]


def _reduce(problem: CloningSdp) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The objective on its output support, the barrier weight of each of its output
    rows, and the support basis V (None when the problem is kept whole).

    The cut is taken only if it shrinks the problem (r + 1 < d_out) and Q's coupling
    outside V (x) I is at most ``SUPPORT_TOL`` times Q's largest entry (itself at most
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
        np.abs(outside @ obj.reshape(d_out, -1)).max() > SUPPORT_TOL * np.abs(obj).max()
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
    pval = float(_pair(problem.objective, x))
    dval = float(np.real(np.trace(y)))
    return SdpSolution(x, y, pval, dval, dval - pval, iterations, tuple(stats))


def _stopping_test(gap, pval, dval, pinf, dinf, obj_scale, tol):
    """The relative gap and whether each problem has converged: rel_gap <= tol and both
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


def _solve_all(problems: list[CloningSdp], tol: float, max_iterations: int) -> list[SdpSolution]:
    """Solve each problem; those of one reduced shape share one stacked iteration.

    The solutions come back in input order.  When there are several problems, a
    :class:`SolverError` names the block it comes from."""
    if not MIN_TOL <= tol <= MAX_TOL:
        raise ValueError(f"tol must lie in [{MIN_TOL}, {MAX_TOL}], got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    solutions: list = [None] * len(problems)
    groups: dict[tuple, list] = {}
    for i, problem in enumerate(problems):
        obj, weights, support = _reduce(problem)
        w, v = linalg.hermitian_eig(obj)
        norm = float(max(-w[0], w[-1], 0.0))
        if norm == 0.0:
            x = np.eye(problem.dim, dtype=np.complex128) / problem.out_dim
            y = np.zeros((problem.in_dim,) * 2, dtype=np.complex128)
            solutions[i] = _solution_from_iterates(problem, None, x, y, 0, [])
            continue
        solutions[i] = _spectral_solution(problem, support, w, v, norm, tol)
        if solutions[i] is not None:
            continue
        label = f"block {i}: " if len(problems) > 1 else ""
        # The problems share dims, so the reduced shape fixes the row weights too.
        groups.setdefault(obj.shape, []).append(
            (i, label, problem, obj, weights, support, norm)
        )
    for entries in groups.values():
        for (i, *_), solution in zip(entries, _solve_stack(entries, tol, max_iterations)):
            solutions[i] = solution
    return solutions


def _solve_stack(entries: list, tol: float, max_iterations: int) -> list[SdpSolution]:
    """The interior-point iteration on a stack of reduced problems of one shape.

    Each entry is (index, label, problem, reduced objective, row weights, support,
    objective norm) as :func:`_solve_all` builds it.  Every problem keeps its own
    step lengths, stopping test and best iterate; one that meets the stopping test
    leaves the stack, so its trajectory is that of solving it alone.
    """
    _, labels, problems, objs, row_weights, supports, norms = zip(*entries)
    first = problems[0]
    n, d_in, d_out = first.dim, first.in_dim, first.out_dim
    weights = row_weights[0]
    rows = len(weights)
    size = rows * d_in
    solutions: list = [None] * len(entries)
    stats: list[list[IterateStats]] = [[] for _ in entries]
    best: list = [None] * len(entries)  # (score, x, y) of each problem's best iterate
    active = np.arange(len(entries))  # problems still on the stack, in stack order
    # One problem is stacked as a view: a copy of a large objective raises peak memory.
    obj = objs[0][None] if len(objs) == 1 else np.stack(objs)
    norms = np.array(norms)

    eye_in = np.eye(d_in, dtype=np.complex128)
    omega = np.repeat(weights, d_in)  # barrier weight of each reduced index
    heavy = np.flatnonzero(omega != 1.0)
    diagonal = np.arange(rows)

    def trace_out(m):
        return m.reshape(-1, rows, d_in, rows, d_in).trace(axis1=1, axis2=3)

    def lift_dual(m):
        out = np.zeros((len(m), rows, d_in, rows, d_in), dtype=np.complex128)
        out[:, diagonal, :, diagonal] = m
        return out.reshape(len(m), size, size)

    # Strictly feasible start: X the identity / d_out on the full space (weight w on
    # the complement row), Y far enough out that the dual slack is positive definite.
    x = np.broadcast_to(np.diag(omega / d_out), obj.shape).astype(np.complex128)
    y = (norms + 1.0)[:, None, None] * eye_in
    s = _hermitian(lift_dual(y) - obj)
    obj_scale = 1.0 + np.abs(norms)

    def finish(i: int, x, y, iterations: int) -> SdpSolution:
        return _solution_from_iterates(problems[i], supports[i], x, y, iterations, stats[i])

    def stalled(i: int, message: str, iterations: int) -> SolverError:
        _, bx, by = best[i]
        return SolverError(labels[i] + message, solution=finish(i, bx, by, iterations))

    gap, pval, dval = _pair(x, s), _pair(obj, x), np.real(np.trace(y, axis1=1, axis2=2))
    for iteration in range(1, max_iterations + 1):
        r_primal = eye_in - trace_out(x)
        r_dual = _hermitian(obj + s - lift_dual(y))
        pinf = np.abs(r_primal).max(axis=(1, 2))
        dinf = np.abs(r_dual).max(axis=(1, 2))
        rel_gap, done = _stopping_test(gap, pval, dval, pinf, dinf, obj_scale, tol)

        score = rel_gap + pinf + dinf
        for j, i in enumerate(active):
            if best[i] is None or score[j] < best[i][0]:
                best[i] = (score[j], x[j], y[j])  # iterates are replaced, never updated in place

        if done.any():
            for j in np.flatnonzero(done):
                solutions[active[j]] = finish(active[j], x[j], y[j], iteration - 1)
            if done.all():
                return solutions
            keep = ~done  # copies only on the iterations where a problem leaves
            active, obj_scale, obj, x, y, s, gap, r_primal, r_dual, pinf, dinf = (
                a[keep]
                for a in (active, obj_scale, obj, x, y, s, gap, r_primal, r_dual, pinf, dinf)
            )
        mu = gap / n

        # NT scaling: X = L L^H and L^H S L = Q diag(lam) Q^H; G = L Q lam^(-1/4) gives
        # G^-1 X G^-H = G^H S G = D = diag(sqrt(lam)) and W = G G^H.  With H = G D^(-1/2),
        # S^-1 = H H^H, W = H D H^H, and H^H dS H = D^(-1/2) G^H dS G D^(-1/2).
        try:
            chol = np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            chol = np.empty_like(x)
            for j, i in enumerate(active):
                factor = _shifted_cholesky(x[j])
                if factor is None:
                    raise stalled(
                        i,
                        f"primal iterate lost positive definiteness at iteration {iteration}: "
                        f"Cholesky failed at every shift {CHOLESKY_SHIFTS} of the mean diagonal; "
                        f"smallest diagonal {float(np.diagonal(x[j]).real.min()):.3e}",
                        iteration - 1,
                    )
                chol[j] = factor
        lam, q = linalg.positive_definite_eig(_hermitian(chol.conj().swapaxes(1, 2) @ s @ chol))
        positive = gap > 0.0  # tr(L^H S L) = <X, S>; singular values cannot show its sign
        if not positive.all():
            raise stalled(
                active[np.argmin(positive)],
                f"dual slack is not positive at iteration {iteration}",
                iteration - 1,
            )
        # The floor caps the condition number of the scaling when roundoff
        # leaves tiny or zero eigenvalues in nominally positive iterates.
        lam = np.maximum(lam, lam[:, -1:] * 1e-16)
        h = (chol @ q) * lam[:, None, :] ** -0.5
        # Omega commutes with L and S (block diagonal), so the normalised scaled
        # Omega S^-1 is lam^-1/2 Q^H Omega Q lam^-1/2 = diag(1 / lam) + lam^-1/2 spread
        # lam^-1/2, with spread = Q^H (Omega - I) Q from the complement row's indices.
        q_heavy = q[:, heavy]
        spread = (q_heavy.conj().swapaxes(1, 2) * (omega[heavy] - 1.0)) @ q_heavy
        del chol, q, q_heavy  # dense temporaries freed early keep peak memory flat
        h_h = h.conj().swapaxes(1, 2)
        w = _hermitian((h * lam[:, None, :] ** 0.5) @ h_h)

        solvers = _schur_solvers(_schur_complement(w, rows, d_in))
        rhs_dual = trace_out(w @ r_dual @ w) - r_primal

        def newton_direction(r_center):
            """dX, dY, dS and the normalised scaled dS for a centering residual."""
            rhs = (trace_out(r_center) + rhs_dual).reshape(len(solvers), -1)
            dy = np.stack([solve_m(b) for solve_m, b in zip(solvers, rhs)])
            dy = _hermitian(dy.reshape(-1, d_in, d_in))
            ds = _hermitian(lift_dual(dy) - r_dual)
            dx = _hermitian(r_center - w @ ds @ w)
            return dx, dy, ds, h_h @ ds @ h

        # In the scaled space dX~ = G^-1 R_c G^-H - dS~ with a diagonal first
        # term, so each step length is one smallest eigenvalue.
        dx_aff, _, ds_aff, t_aff = newton_direction(-x)
        # Normalised scaled dX~ is -I - t_aff here, so one spectrum gives both.
        t = linalg.eigenvalues(t_aff)
        alpha_p_aff = _step_length(-1.0 - t[:, -1])
        alpha_d_aff = _step_length(t[:, 0])
        mu_aff = _pair(
            x + alpha_p_aff[:, None, None] * dx_aff, s + alpha_d_aff[:, None, None] * ds_aff
        ) / n
        del dx_aff, ds_aff, t_aff  # freed before the corrector, as above
        # Python floats: numpy's ** 3 on an array rounds differently from libm's pow.
        sigma = np.array([
            min(1.0, max((m_aff / m) ** 3, 0.0)) if m > 0 else 0.1
            for m_aff, m in zip(mu_aff.tolist(), mu.tolist())
        ])
        sigma_mu = (sigma * mu)[:, None, None]

        h_omega = np.sqrt(omega)[:, None] * h
        # sigma mu Omega^1/2 S^-1 Omega^1/2 - X, which is sigma mu Omega S^-1 - X.
        r_center = sigma_mu * (h_omega @ h_omega.conj().swapaxes(1, 2)) - x
        dx, dy, ds, t_ds = newton_direction(r_center)
        lam_root = lam**-0.5
        t_dx = sigma_mu * lam_root[:, :, None] * spread * lam_root[:, None, :]
        t_dx.reshape(len(t_dx), -1)[:, :: size + 1] += sigma_mu[:, :, 0] / lam - 1.0
        t_dx -= t_ds
        # Both corrector spectra in one call: the primal's first, then the dual's.
        lam_min = linalg.eigenvalues(np.concatenate((t_dx, t_ds)))[:, 0]
        alpha_p, alpha_d = _step_length(lam_min[: len(x)]), _step_length(lam_min[len(x) :])

        x = _hermitian(x + alpha_p[:, None, None] * dx)
        y = _hermitian(y + alpha_d[:, None, None] * dy)
        s = _hermitian(s + alpha_d[:, None, None] * ds)
        del dx, ds, t_dx, t_ds, r_center, h, h_h, h_omega, w, spread  # freed before the next SVD

        gap, pval, dval = _pair(x, s), _pair(obj, x), np.real(np.trace(y, axis1=1, axis2=2))
        columns = (pval, dval, gap, mu, pinf, dinf, alpha_p, alpha_d)  # IterateStats order
        for i, *values in zip(active, *(column.tolist() for column in columns)):
            stats[i].append(IterateStats(iteration, *values))

    i = active[0]
    raise stalled(
        i,
        f"no convergence to tol {tol:.1e} within {max_iterations} iterations; "
        f"best relative gap {best[i][0]:.3e}",
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
    return _solve_all([problem], tol, max_iterations)[0]



def dual_norm_bound(problem: CloningSdp) -> tuple[np.ndarray, float]:
    """The closed-form dual point ||Q|| times the identity and its objective value.

    Feasible by construction since lifting multiplies the identity by the
    output identity, and optimal exactly when the problem admits a flat dual
    optimum.  The value is in_dim * ||Q||.
    """
    norm = linalg.operator_norm(problem.objective)
    y = norm * np.eye(problem.in_dim, dtype=np.complex128)
    return y, float(problem.in_dim * norm)


def _check_blocks(blocks: list[CloningSdp], weights: list[float]) -> CloningSdp:
    """Validate weighted same-shape blocks; return the first, whose structure they share."""
    if not blocks or len(blocks) != len(weights):
        raise DimensionError("need matching non-empty block and weight lists")
    first = blocks[0]
    if any(b.dims != first.dims or b.n_out != first.n_out for b in blocks):
        raise DimensionError("blocks must share one factor structure")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise DimensionError("weights must be nonnegative and sum to 1")
    return first


def assemble_block_sdp(blocks: list[CloningSdp], weights: list[float]) -> CloningSdp:
    """Combine weighted same-shape subproblems into one problem.

    The combined space inserts a block-index factor at the head of the input
    group, and the combined objective is the direct sum of the weighted block
    objectives.  Feasible points decompose into one feasible point per block,
    so the combined optimal value is the weighted sum of block values.
    """
    first = _check_blocks(blocks, weights)
    objective = linalg.direct_sum(
        [w * b.objective for b, w in zip(blocks, weights)], first.out_dim, first.in_dim
    )
    dims = first.dims[: first.n_out] + (len(blocks),) + first.dims[first.n_out :]
    return CloningSdp(objective, dims, n_out=first.n_out)


def solve_block_diagonal(
    blocks: list[CloningSdp],
    weights: list[float],
    tol: float = DEFAULT_TOL,
) -> SdpSolution:
    """Solve weighted same-shape subproblems and assemble one solution.

    Each block is reduced to its output support and first tries the spectral
    pair.  The blocks that fail it and share one reduced shape run one stacked
    iteration together; every block keeps its own step lengths, stopping test
    and best iterate, so its trajectory is that of its separate :func:`solve`.
    The returned primal/dual pair lives on the combined
    space of :func:`assemble_block_sdp`, which is not built here, and its values
    are the weighted sums of the block values.  Per-block solutions are kept on
    ``block_solutions``, in input order.  A block that exhausts ``MAX_ITERATIONS``
    or loses positive definiteness raises :class:`SolverError` naming it and
    carrying its own best iterate, on its own space.  When several blocks would
    fail, the error names the first to fail: stacks run in the order of their
    first block, and within a stack the block failing at the earliest iteration
    is named, which need not be the lowest failing index.
    """
    first = _check_blocks(blocks, weights)
    solutions = _solve_all(blocks, tol, MAX_ITERATIONS)
    x = linalg.direct_sum([s.primal_x for s in solutions], first.out_dim, first.in_dim)
    y = linalg.direct_sum([w * s.dual_y for s, w in zip(solutions, weights)], 1, first.in_dim)
    pval = sum(w * s.primal_value for s, w in zip(solutions, weights))
    dval = sum(w * s.dual_value for s, w in zip(solutions, weights))
    return SdpSolution(
        x, y, pval, dval, dval - pval,
        iterations=max(s.iterations for s in solutions),
        block_solutions=tuple(solutions),
    )
