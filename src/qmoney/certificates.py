"""Independent verification of claimed primal/dual pairs for cloning problems.

The checks here recompute everything from the handed-in matrices; nothing is
trusted from whatever produced them.  Each positivity verdict is a verified
Cholesky factorization (:func:`qmoney.linalg.bounded_below`): it proves that
the smallest eigenvalue of X, respectively of the slack I (x) Y - Q, is at
least -tol.  The eigenvalues themselves are computed only when a report's
``min_eigenvalue`` is read.  These checks are the only feasibility check of a
solved pair in the package: the solver reports values and a gap, never
whether its pair is feasible.  A pair whose sides are both feasible and whose
values agree within tolerance certifies the optimal value, since any feasible
dual point upper-bounds every feasible primal value.

A serialization format is provided so certificates can be stored, shipped,
and re-checked later: a JSON object with the five fields :func:`certify`
reads: the objective ``q``, ``primal_x`` and ``dual_y`` as nested [re, im]
arrays, the ``tolerance`` and the claimed ``value``.  Other keys are ignored.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import _codec, linalg
from .exceptions import DimensionError, FileFormatError
from .sdp import CloningSdp

DEFAULT_CERTIFICATE_TOL = 1e-7


@dataclass(frozen=True)
class PrimalCheck:
    """Feasibility verdict and residuals for a claimed primal point.

    ``min_eigenvalue`` is computed when first read, from the checked matrix
    ``x`` as the caller handed it in.
    """

    feasible: bool
    value: float
    trace_defect: float
    x: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def min_eigenvalue(self) -> float:
        return linalg.min_eigenvalue(linalg.as_hermitian(self.x))


@dataclass(frozen=True)
class DualCheck:
    """Feasibility verdict for a claimed dual point.

    ``min_eigenvalue``, that of the slack I (x) y - Q, is computed when first
    read, from the checked ``y`` as the caller handed it in and its problem.
    """

    feasible: bool
    value: float
    y: np.ndarray = field(repr=False, compare=False)
    problem: CloningSdp = field(repr=False, compare=False)

    @functools.cached_property
    def min_eigenvalue(self) -> float:
        return linalg.min_eigenvalue(_slack(self.y, self.problem))


@dataclass(frozen=True)
class CertificateReport:
    """Joint verdict on a primal/dual pair.

    ``gap`` and ``certified`` derive from the two checks, so the verdict
    cannot disagree with the numbers: certified means both sides feasible
    and the two objective values within ``tolerance`` of each other.
    """

    primal: PrimalCheck
    dual: DualCheck
    tolerance: float

    @property
    def gap(self) -> float:
        return self.dual.value - self.primal.value

    @property
    def certified(self) -> bool:
        return self.primal.feasible and self.dual.feasible and abs(self.gap) <= self.tolerance

    @property
    def primal_value(self) -> float:
        return self.primal.value

    @property
    def dual_value(self) -> float:
        return self.dual.value


def _slack(y: np.ndarray, problem: CloningSdp) -> np.ndarray:
    slack = problem.lift_dual(linalg.as_hermitian(y))  # I (x) y - Q, in place
    return np.subtract(slack, problem.objective, out=slack)


def check_primal(
    x: np.ndarray, problem: CloningSdp, tol: float = DEFAULT_CERTIFICATE_TOL
) -> PrimalCheck:
    """Check positivity and the partial-trace constraint of a primal point."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (problem.dim, problem.dim):
        raise DimensionError(
            f"primal matrix has shape {x.shape}, expected {(problem.dim, problem.dim)}"
        )
    hermitian = linalg.as_hermitian(x)
    defect = float(np.abs(problem.trace_out(hermitian) - np.eye(problem.in_dim)).max())
    value = float(np.real(np.sum(problem.objective * hermitian.T)))  # tr(QX) without forming QX
    return PrimalCheck(
        feasible=bool(defect <= tol and linalg.bounded_below(hermitian, -tol)),
        value=value,
        trace_defect=defect,
        x=x,
    )


def check_dual(
    y: np.ndarray, problem: CloningSdp, tol: float = DEFAULT_CERTIFICATE_TOL
) -> DualCheck:
    """Check that the lifted dual point dominates the objective."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (problem.in_dim, problem.in_dim):
        raise DimensionError(
            f"dual matrix has shape {y.shape}, expected {(problem.in_dim, problem.in_dim)}"
        )
    return DualCheck(
        feasible=linalg.bounded_below(_slack(y, problem), -tol),
        value=float(np.real(np.trace(y))),
        y=y,
        problem=problem,
    )


def certify(
    x: np.ndarray,
    y: np.ndarray,
    problem: CloningSdp,
    tol: float = DEFAULT_CERTIFICATE_TOL,
) -> CertificateReport:
    """Verify a primal/dual pair and report whether it certifies the value."""
    return CertificateReport(check_primal(x, problem, tol), check_dual(y, problem, tol), tol)


@dataclass(frozen=True)
class CertificateFile:
    """A deserialized certificate: problem, claimed pair, tolerance, value."""

    problem: CloningSdp
    primal_x: np.ndarray
    dual_y: np.ndarray
    tolerance: float
    value: float

    def verify(self) -> CertificateReport:
        return certify(self.primal_x, self.dual_y, self.problem, self.tolerance)


def certificate_payload(
    problem: CloningSdp,
    x: np.ndarray,
    y: np.ndarray,
    tolerance: float,
    value: float,
) -> dict:
    """JSON-ready certificate fields with matrices in nested [re, im] form."""
    return {
        "q": _codec.complex_to_pairs(problem.objective),
        "primal_x": _codec.complex_to_pairs(np.asarray(x, dtype=np.complex128)),
        "dual_y": _codec.complex_to_pairs(np.asarray(y, dtype=np.complex128)),
        "tolerance": float(tolerance),
        "value": float(value),
    }


def save_certificate(
    path: str,
    problem: CloningSdp,
    x: np.ndarray,
    y: np.ndarray,
    tolerance: float,
    value: float,
) -> None:
    """Write a certificate as JSON with matrices in nested [re, im] form."""
    with open(path, "w", encoding="utf-8") as handle:
        # json.dump and indent bypass the C encoder.
        handle.write(json.dumps(certificate_payload(problem, x, y, tolerance, value)))


def load_certificate(path: str) -> CertificateFile:
    """Read a certificate file, rebuilding the problem from the stored objective.

    The five fields of :func:`certificate_payload` are required; other keys are
    ignored.  The dual matrix gives the input dimension and the objective the
    output one, so ``dims`` is ``(out_dim, in_dim)``, all that :func:`certify` reads.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse certificate file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FileFormatError("certificate file must hold a JSON object")
    for field in ("q", "primal_x", "dual_y", "tolerance", "value"):
        if field not in payload:
            raise FileFormatError(f"certificate file is missing the {field} field")
    q = _codec.pairs_to_matrix(payload["q"], "q")
    x = _codec.pairs_to_matrix(payload["primal_x"], "primal_x")
    y = _codec.pairs_to_matrix(payload["dual_y"], "dual_y")
    tolerance = payload["tolerance"]
    value = payload["value"]
    if not _codec.is_number(tolerance) or not 0 < tolerance <= 1:
        raise FileFormatError(f"tolerance must be a number in (0, 1], got {tolerance!r}")
    if not _codec.is_number(value):
        raise FileFormatError(f"value must be a finite number, got {value!r}")
    if y.shape[0] != y.shape[1]:
        raise FileFormatError(f"dual_y must be a square matrix, got shape {y.shape}")
    in_dim = y.shape[0]
    if q.shape[0] % in_dim != 0:
        raise FileFormatError(
            f"objective size {q.shape[0]} is not a multiple of the dual size {in_dim}"
        )
    out_dim = q.shape[0] // in_dim
    try:
        problem = CloningSdp(q, dims=(out_dim, in_dim))
    except (DimensionError, ValueError) as exc:
        raise FileFormatError(f"stored objective is not a valid problem: {exc}") from exc
    if x.shape != q.shape:
        raise FileFormatError(
            f"primal matrix shape {x.shape} does not match the objective {q.shape}"
        )
    return CertificateFile(
        problem=problem, primal_x=x, dual_y=y, tolerance=float(tolerance), value=float(value)
    )
