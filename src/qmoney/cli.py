"""Command-line front end: analyze, certify, simulate, threshold.

Exit codes: 0 on success (certified, conditions hold), 1 on numeric failure
(solver breakdown, certification or conditions failure) or out of memory, 2 on
usage, parse or output-file errors.  Floating-point values print with 10
significant digits; files written through ``--output`` keep full binary64 precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import certificates, channels, cloners, composition, linalg, schemes, sdp, simulator
from .exceptions import CertificationError, FileFormatError, QuantumMoneyError, SolverError

BUILTIN_SCHEMES = ("wiesner", "six-state", "sic", "symmetric:d", "ticket:d")

# Exit code of each error kind; the first matching entry wins.
EXIT_CODES = (
    (FileFormatError, 2),
    ((SolverError, CertificationError), 1),
    (ValueError, 2),
    (QuantumMoneyError, 1),
    (MemoryError, 1),
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _emit(record: dict) -> None:
    for key, value in record.items():
        print(key, _fmt(value))


def _write_output(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))  # json.dump and indent bypass the C encoder
    except OSError as exc:
        raise FileFormatError(f"cannot write output file {path}: {exc.strerror}") from exc


@dataclass(frozen=True)
class ResolvedScheme:
    """A named scheme resolved to its library object.

    ``scheme`` is an :class:`~qmoney.schemes.Ensemble` (quantum verification)
    or a :class:`~qmoney.schemes.TicketScheme` (classical verification, solved
    through its challenge blocks).  ``haar_objective`` is set for
    ``symmetric:d`` only and builds the objective of the uniform average over
    all pure states.  No finite ensemble realises that objective, so
    ``scheme`` (the Fourier key states) then only stands in for simulation.
    """

    ident: str
    scheme: Union[schemes.Ensemble, schemes.TicketScheme]
    strategy_factory: Optional[Callable] = None
    haar_objective: Optional[Callable[[], np.ndarray]] = None

    def ensemble(self) -> schemes.Ensemble:
        """The states to clone: the ensemble, or a ticket scheme's key states."""
        if isinstance(self.scheme, schemes.TicketScheme):
            return self.scheme.ensemble()
        return self.scheme

    def cloning_problem(self) -> sdp.CloningSdp:
        """The two-clone problem of those states, or the Haar one; built per call."""
        ensemble = self.ensemble()
        if self.haar_objective is None:
            objective = schemes.cloning_objective(ensemble)
        else:
            objective = self.haar_objective()
        d = ensemble.dim
        return sdp.CloningSdp(objective, dims=(d, d, d))


def resolve_scheme(spec: str) -> ResolvedScheme:
    """Map a scheme name, name:d pair, or file path to its library object."""
    if spec == "wiesner":
        return ResolvedScheme(spec, schemes.wiesner_ensemble(), cloners.wiesner_optimal_cloner)
    if spec == "six-state":
        return ResolvedScheme(spec, schemes.six_state_ensemble(), cloners.buzek_hillery_cloner)
    if spec == "sic":
        return ResolvedScheme(spec, schemes.sic_qubit_ensemble(), cloners.buzek_hillery_cloner)
    name, _, tail = spec.partition(":")
    if name in ("symmetric", "ticket") and tail:
        try:
            d = int(tail)
        except ValueError:
            raise ValueError(f"scheme {spec!r} needs an integer dimension") from None
        if d < 2:
            raise ValueError(f"scheme {spec!r} needs dimension at least 2")
        if name == "symmetric":
            return ResolvedScheme(
                spec,
                schemes.fourier_ticket_scheme(d).ensemble(),
                lambda: cloners.werner_cloner(d),
                haar_objective=lambda: schemes.symmetric_cloning_objective(d),
            )
        return ResolvedScheme(
            spec, schemes.fourier_ticket_scheme(d), lambda: cloners.ticket_cloner(d)
        )
    if os.path.exists(spec):
        return ResolvedScheme(spec, schemes.load_scheme(spec))
    raise ValueError(
        f"unknown scheme {spec!r}: expected one of {', '.join(BUILTIN_SCHEMES)} "
        "or a scheme file path"
    )


def _challenge_problems(ticket: schemes.TicketScheme):
    """The four challenge-pair problems of a ticket scheme and their weights."""
    blocks, weights = schemes.classical_objective_blocks(ticket)
    d = ticket.dim
    problems = [
        sdp.CloningSdp(schemes.assemble_challenge_block(blocks, d, *pair), dims=(d, d, d))
        for pair in cloners.CHALLENGE_PAIRS
    ]
    return problems, [weights[pair] for pair in cloners.CHALLENGE_PAIRS]


def _check_tol(tol: float) -> float:
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"tolerance must lie in (0, 1], got {tol}")
    return tol


def cmd_analyze(args) -> int:
    entry = resolve_scheme(args.scheme)
    if args.n < 1:
        raise ValueError(f"repetition count must be at least 1, got {args.n}")
    cert_tol = min(1.0, 10.0 * args.tol)  # sdp.solve checks the solver tolerance's range
    ticket = isinstance(entry.scheme, schemes.TicketScheme)
    if ticket:
        blocks, weights = _challenge_problems(entry.scheme)
        solutions = sdp.solve_block_diagonal(blocks, weights, tol=args.tol)
    else:
        blocks, weights = [entry.cloning_problem()], [1.0]
        solutions = (sdp.solve(blocks[0], tol=args.tol),)
    # A ticket problem is the direct sum of its weighted blocks, and a pair certified in
    # every block is certified in the sum, so each block is checked on its own space.
    reports = [
        certificates.certify(s.primal_x, s.dual_y, block, tol=cert_tol)
        for s, block in zip(solutions, blocks)
    ]
    gap = sum(w * r.gap for w, r in zip(weights, reports))
    certified = all(r.certified for r in reports)
    single = min(1.0, max(0.0, sum(w * s.primal_value for s, w in zip(solutions, weights))))
    value = composition.repeated_value(single, args.n)
    iterations = max(s.iterations for s in solutions)
    record = {
        "scheme": entry.ident,
        "n": args.n,
        "single_value": single,
        "value": value,
        "iterations": iterations,
        "gap": gap,
        "certified": certified,
    }
    _emit(record)
    if args.output is not None:
        problem, x, y = blocks[0], solutions[0].primal_x, solutions[0].dual_y
        if ticket:  # the pair on the combined space, laid out as its objective
            problem = sdp.assemble_block_sdp(blocks, weights)
            d_out, d_in = blocks[0].out_dim, blocks[0].in_dim
            x = linalg.direct_sum([s.primal_x for s in solutions], d_out, d_in)
            y = linalg.direct_sum([w * s.dual_y for s, w in zip(solutions, weights)], 1, d_in)
        payload = certificates.certificate_payload(problem, x, y, cert_tol, single)
        payload.update(
            scheme=entry.ident,
            n=args.n,
            repeated_value=value,
            iterations=iterations,
            certified=certified,
        )
        _write_output(args.output, payload)
    return 0 if certified else 1


def cmd_certify(args) -> int:
    loaded = certificates.load_certificate(args.certificate)
    tol = loaded.tolerance if args.tol is None else _check_tol(args.tol)
    report = certificates.certify(
        loaded.primal_x, loaded.dual_y, loaded.problem, tol=tol
    )
    record = {
        "certificate": args.certificate,
        "tolerance": tol,
        "claimed_value": loaded.value,
        "primal_feasible": report.primal.feasible,
        "dual_feasible": report.dual.feasible,
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "primal_min_eigenvalue": report.primal.min_eigenvalue,
        "dual_min_eigenvalue": report.dual.min_eigenvalue,
        "gap": report.gap,
        "certified": report.certified,
    }
    _emit(record)
    _write_output(args.output, record)
    return 0 if report.certified else 1


def _report_record(report: simulator.TrialReport) -> dict:
    record = {
        "successes": report.successes,
        "trials": report.trials,
        "empirical": report.empirical,
        "analytic": report.analytic,
        "z": report.z_score,
    }
    if report.conditional_rate is not None:
        record["conditional"] = report.conditional_rate
    return record


def cmd_simulate(args) -> int:
    simulator.check_sampling(args.trials, args.seed)
    if args.attack == "bell":
        if args.scheme is not None:
            raise ValueError("choose either --attack bell or --scheme, not both")
        if args.strategy is not None:
            raise ValueError("--attack bell takes no --strategy")
        report = simulator.simulate_bell_attack(args.n, args.trials, seed=args.seed)
        record = {"attack": "bell", "n": args.n, "trials": args.trials, "seed": args.seed}
    else:
        if args.scheme is None:
            raise ValueError("simulate needs --scheme NAME or --attack bell")
        entry = resolve_scheme(args.scheme)
        if args.n < 1:
            raise ValueError(f"repetition count must be at least 1, got {args.n}")
        args.strategy = args.strategy or "optimal"
        if isinstance(entry.scheme, schemes.TicketScheme):
            report = _simulate_ticket(entry, args)
        else:
            report = _simulate_quantum(entry, args)
        record = {
            "scheme": entry.ident,
            "strategy": args.strategy,
            "trials": args.trials,
            "seed": args.seed,
            "n": args.n,
        }
    record.update(_report_record(report))
    _emit(record)
    _write_output(
        args.output,
        {**record, "batches": report.batches, "workers": report.workers, "seconds": report.seconds},
    )
    return 0


def _simulate_quantum(entry: ResolvedScheme, args) -> simulator.TrialReport:
    if args.strategy != "optimal":
        raise ValueError(
            f"unknown strategy {args.strategy!r} for scheme {entry.ident!r}; "
            "quantum schemes support 'optimal'"
        )
    if entry.strategy_factory is not None:
        strategy = entry.strategy_factory()
    else:
        problem = entry.cloning_problem()
        solution = sdp.solve(problem)
        strategy = channels.ChoiOperator(
            solution.primal_x, problem.in_dim, problem.out_dim
        )
    cfg = simulator.TrialConfig(
        entry.scheme, strategy, args.trials, seed=args.seed, repetitions=args.n
    )
    return simulator.simulate_quantum_attack(cfg)


def _simulate_ticket(entry: ResolvedScheme, args) -> simulator.TrialReport:
    if args.strategy == "honest":
        if args.n != 1:
            raise ValueError("honest verification simulates a single note")
        return simulator.simulate_honest_verification(
            entry.scheme, args.trials, seed=args.seed
        )
    if args.strategy in ("optimal", "ticket-cloner"):
        if entry.strategy_factory is None:
            raise ValueError(
                f"scheme {entry.ident!r} has no built-in optimal strategy; "
                "use --strategy honest"
            )
        cfg = simulator.TrialConfig(
            entry.scheme,
            entry.strategy_factory(),
            args.trials,
            seed=args.seed,
            repetitions=args.n,
        )
        return simulator.simulate_ticket_attack(cfg)
    raise ValueError(
        f"unknown strategy {args.strategy!r} for scheme {entry.ident!r}; "
        "ticket schemes support 'optimal', 'ticket-cloner', 'honest'"
    )


def cmd_threshold(args) -> int:
    entry = resolve_scheme(args.scheme)
    if isinstance(entry.scheme, schemes.TicketScheme):
        raise ValueError(
            f"scheme {entry.ident!r} is verified classically, and the classical threshold "
            "is not implemented"
        )
    if args.n < 1:
        raise ValueError(f"repetition count must be at least 1, got {args.n}")
    if not 1 <= args.t <= args.n:
        raise ValueError(f"threshold must lie in [1, {args.n}], got {args.t}")
    solution = sdp.solve(entry.cloning_problem(), tol=args.tol)
    # The binomial tail is certified only for an ensemble that realises the problem.
    conditions = entry.haar_objective is None and composition.threshold_conditions_hold(
        entry.ensemble(), solution
    )
    # Roundoff can put the flat dual value d_in * ||Q|| just above a value of 1.
    alpha = min(1.0, solution.dual_value if conditions else max(0.0, solution.primal_value))
    value = composition.threshold_value(alpha, args.n, args.t)
    record = {
        "scheme": entry.ident,
        "n": args.n,
        "t": args.t,
        "alpha": alpha,
        "value": value,
        "conditions": "certified" if conditions else "not-certified",
    }
    _emit(record)
    _write_output(args.output, record)
    return 0 if conditions else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``main`` dispatches each
    command to this module's ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="qmoney",
        description=(
            "Optimal counterfeiting analysis: solve cloning problems, verify "
            "certificates, simulate attacks, and bound threshold verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver_tol = f"solver tolerance, in [{sdp.MIN_TOL:g}, {sdp.MAX_TOL:g}]"

    analyze = sub.add_parser(
        "analyze", help="solve a scheme's counterfeiting problem and certify it"
    )
    analyze.add_argument(
        "--scheme",
        required=True,
        help=f"built-in name ({', '.join(BUILTIN_SCHEMES)}) or scheme file path",
    )
    analyze.add_argument("--n", type=int, default=1, help="independent notes per trial")
    analyze.add_argument("--tol", type=float, default=sdp.DEFAULT_TOL, help=solver_tol)
    analyze.add_argument("--output", help="write the record with an embedded certificate")

    certify = sub.add_parser("certify", help="verify a stored certificate file")
    certify.add_argument("certificate", help="certificate file path")
    certify.add_argument(
        "--tol", type=float, default=None, help="override the stored tolerance, in (0, 1]"
    )
    certify.add_argument("--output", help="write the verification report")

    simulate = sub.add_parser("simulate", help="Monte Carlo attack simulation")
    simulate.add_argument("--scheme", default=None, help="scheme name or file path")
    simulate.add_argument(
        "--strategy",
        default=None,
        help="attack strategy for --scheme: optimal (default), ticket-cloner, honest",
    )
    simulate.add_argument(
        "--attack", choices=("bell",), default=None, help="run a named attack instead"
    )
    simulate.add_argument("--trials", type=int, default=1_000_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--n",
        type=int,
        default=1,
        help="notes per trial (qubits per note for --attack bell)",
    )
    simulate.add_argument("--output", help="write the trial report")

    threshold = sub.add_parser(
        "threshold", help="tail bound for accepting t of n verifications"
    )
    threshold.add_argument("--scheme", required=True, help="scheme name or file path")
    threshold.add_argument("--n", type=int, required=True, help="number of verifications")
    threshold.add_argument("--t", type=int, required=True, help="acceptance threshold")
    threshold.add_argument("--tol", type=float, default=sdp.DEFAULT_TOL, help=solver_tol)
    threshold.add_argument("--output", help="write the threshold record")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (QuantumMoneyError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    raise SystemExit(main())
