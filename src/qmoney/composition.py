"""Parallel repetition and threshold composition of cloning problems.

Running n independent verifications multiplies the optimal counterfeiting value
("Products" in :mod:`qmoney.sdp`).  The only bookkeeping is one regrouping,
:func:`qmoney.linalg.regroup`, which needs each repetition's (out_dim, in_dim) split.

Threshold verification accepts when at least t of n repetitions pass.  Under
two conditions on the single-repetition ensemble (uniform average state, flat
optimal dual) the optimal value becomes a binomial tail in the
single-repetition value, and the dual certificate reduces to the norm of an
explicitly assembled success/failure operator sum.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np

from . import certificates, linalg, schemes
from .exceptions import CertificationError, DimensionError
from .sdp import CloningSdp, SdpSolution

DENSE_GUARD = 1024


def repeated_value(alpha: float, n: int) -> float:
    """Optimal value of n-fold parallel repetition: the n-th power."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"base value must lie in [0, 1], got {alpha}")
    if n < 0:
        raise ValueError(f"repetition count must be nonnegative, got {n}")
    return float(alpha**n)


def threshold_value(alpha: float, n: int, t: int) -> float:
    """Optimal counterfeiting value when t of n verifications must pass, correctly rounded.

    The binomial tail is summed at 40 digits, where no term overflows or underflows;
    term j + 1 is term j times (n - j)/(j + 1) * alpha/(1 - alpha), so the cost is
    linear in n.  With u = 5e-40, (1 - alpha)^n carries (n + 1)u and each step 3u plus
    the rounded ratio's 2u, so term j carries (n + 1 + 5j)u; n additions of positive
    terms add nu.  The relative error (7n + 1)u < 4(n + 1)e-39 leaves room for
    second-order terms and for rounding the bracket's ends.  If both ends round to one
    float, so does the tail (Ziv's test); otherwise the tail, an integer over den^n for
    alpha = num/den in binary64, is summed exactly and int division rounds it.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"base value must lie in [0, 1], got {alpha}")
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if alpha == 1.0:
        return 1.0  # decimal rejects the ratio's division by 0
    context = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        a = decimal.Decimal(alpha)
        ratio, term, total = a / (1 - a), (1 - a) ** n, 0
        for j in range(n + 1):
            if j >= t:
                total += term
            term = term * (n - j) * ratio / (j + 1)
        bound = total * 4 * (n + 1) * decimal.Decimal("1e-39")
        if float(total - bound) == float(total + bound):
            return float(total)
    num, den = alpha.as_integer_ratio()
    term, exact = math.comb(n, t) * num**t * (den - num) ** (n - t), 0
    for j in range(t, n + 1):
        exact, term = exact + term, term * (n - j) * num // ((j + 1) * (den - num))
    return exact / den**n


def repeated_sdp(problems: list[CloningSdp]) -> CloningSdp:
    """The composed problem whose attacks clone every repetition at once.

    The objective is the tensor product of the component objectives with
    factors regrouped by :func:`qmoney.linalg.regroup` so all clone factors precede all
    input factors; its ``dims`` is (product of the out_dim, product of the in_dim).
    Its ``components`` are ``problems``, from which :func:`qmoney.sdp.solve` solves it.
    """
    if not problems:
        raise DimensionError("need at least one component problem")
    if len(problems) == 1:
        return problems[0]
    splits = [p.dims for p in problems]
    objective = linalg.regroup(linalg.tensor([p.objective for p in problems]), splits)
    out_dim, in_dim = (math.prod(side) for side in zip(*splits))
    product = CloningSdp(objective, (out_dim, in_dim))
    object.__setattr__(product, "components", tuple(problems))
    return product


def tensor_certificates(
    x_list: list[np.ndarray], y_list: list[np.ndarray], problems: list[CloningSdp]
) -> tuple[np.ndarray, np.ndarray]:
    """Feasible pair for the composed problem from per-component pairs.

    Each component pair is feasibility-checked first; the products then
    inherit feasibility (positivity survives tensoring on both sides, and the
    lifted dual products dominate the objective products).  The primal factor
    is regrouped as the composed objective is.
    """
    if not x_list or len(x_list) != len(y_list) or len(x_list) != len(problems):
        raise DimensionError("need matching non-empty primal, dual, and problem lists")
    for i, (x, y, p) in enumerate(zip(x_list, y_list, problems)):
        primal = certificates.check_primal(x, p)
        if not primal.feasible:
            raise CertificationError(
                f"component {i} primal point is infeasible: minimum eigenvalue "
                f"{primal.min_eigenvalue:.3e}, trace defect {primal.trace_defect:.3e}"
            )
        dual = certificates.check_dual(y, p)
        if not dual.feasible:
            raise CertificationError(
                f"component {i} dual point is infeasible: slack eigenvalue "
                f"{dual.min_eigenvalue:.3e}"
            )
    return linalg.regroup(linalg.tensor(x_list), [p.dims for p in problems]), linalg.tensor(y_list)


@dataclass(frozen=True)
class ThresholdOperators:
    """Success and failure operators of one verification round."""

    success: np.ndarray
    failure: np.ndarray


def build_threshold_operators(ensemble: schemes.Ensemble) -> ThresholdOperators:
    """Per-round success and failure operators for threshold composition.

    The success operator is the cloning objective.  The failure operator
    replaces the two-clone projector by its complement, so the two sum to
    identity (x) conj(average state), which for ensembles with uniform average
    state is the identity over the round's space divided by the dimension.
    """
    d = ensemble.dim
    success = schemes.cloning_objective(ensemble)
    failure = np.kron(np.eye(d * d), ensemble.average_state().conj()) - success
    return ThresholdOperators(success=success, failure=failure)


def threshold_conditions_hold(ensemble: schemes.Ensemble, solution: SdpSolution) -> bool:
    """Whether the binomial-tail threshold analysis applies to this ensemble.

    Requires the ensemble average to be the maximally mixed state and
    ``solution``, the solved cloning problem of the ensemble, to be the
    solver's spectral pair (``iterations == 0``): the flat dual point ||Q|| I
    with a primal of the same value, so the flat dual is optimal for the
    single round.
    """
    d = ensemble.dim
    average = ensemble.average_state()
    return solution.iterations == 0 and np.abs(average - np.eye(d) / d).max() <= linalg.VALUE_TOL


def _threshold_operator(ensemble: schemes.Ensemble, n: int,
                        t: int) -> tuple[ThresholdOperators, np.ndarray]:
    """The per-round operators and R: over outcome patterns with at least t
    successes, the sum of the tensor products of per-round success/failure
    operators.  Dense assembly is guarded by the d^(3n) size cap."""
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    d = ensemble.dim
    if d ** (3 * n) > DENSE_GUARD:
        raise DimensionError(
            f"dense threshold assembly needs dimension^(3n) <= {DENSE_GUARD}, "
            f"got {d ** (3 * n)}"
        )
    ops = build_threshold_operators(ensemble)
    size = ops.success.shape[0] ** n
    r = np.zeros((size, size), dtype=np.complex128)
    for pattern in range(2**n):
        bits = [(pattern >> i) & 1 for i in range(n)]
        if sum(bits) >= t:
            r += linalg.tensor([ops.success if b else ops.failure for b in bits])
    return ops, r


def verify_r_norm(ensemble: schemes.Ensemble, n: int, t: int) -> tuple[float, float]:
    """Norm of the assembled threshold operator next to its closed form.

    Assembles R by :func:`_threshold_operator` and returns its operator norm
    together with the binomial-tail formula evaluated at the base value
    implied by the objective norm.
    """
    ops, r = _threshold_operator(ensemble, n, t)
    d = ensemble.dim
    alpha = d * linalg.operator_norm(ops.success)
    lhs = linalg.operator_norm(r)
    rhs = threshold_value(min(1.0, alpha), n, t) / d**n
    return lhs, rhs


def threshold_sdp(ensemble: schemes.Ensemble, n: int, t: int) -> CloningSdp:
    """The composed problem for at-least-t-of-n verification, ready to solve.

    The objective is R of :func:`_threshold_operator` regrouped so clone
    factors precede input factors, matching the layout of :func:`repeated_sdp`:
    each round is split (d^2, d), and ``dims`` is (d^(2n), d^n).
    """
    _, r = _threshold_operator(ensemble, n, t)
    d = ensemble.dim
    return CloningSdp(linalg.regroup(r, [(d * d, d)] * n), (d ** (2 * n), d**n))
