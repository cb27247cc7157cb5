"""The three benchmark workloads: seeded inputs, operations and their oracles.

Every workload is a fixed cycle of operations.  An operation returns an
:class:`Outcome` whose ``ok`` flag comes from comparing the program's output
with the paper's closed forms (Molina, Vidick & Watrous, arXiv 1202.4010),
never with the program's own analytic numbers.  Inputs come only from the
workload seed: for each cycle a Haar-random unitary rotates the scheme files
and the Wiesner note (every value checked here is invariant under it), and the
cycle's simulation seeds are derived from the same seed.  So no two cycles
share an input, apart from the built-in schemes that ``cli-small`` names.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qmoney.cli
from qmoney import certificates, cloners, composition, schemes, sdp, simulator

VALUE_TOL = 1e-6
Z_LIMIT = 5.0

WIESNER = 3 / 4
SIX_STATE = 2 / 3
SIC = 2 / 3


def symmetric_value(d: int) -> float:
    return 2 / (d + 1)


def ticket_value(d: int) -> float:
    return 3 / 4 + 1 / (4 * math.sqrt(d))


@dataclass(frozen=True)
class Outcome:
    ok: bool
    detail: str = ""
    trials: int = 0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Outcome]


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with fixed phases."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def rotate_ensemble(ensemble: schemes.Ensemble, u: np.ndarray) -> schemes.Ensemble:
    return schemes.Ensemble(ensemble.dim, tuple((w, u @ v) for w, v in ensemble.items))


def rotate_ticket(scheme: schemes.TicketScheme, u: np.ndarray) -> schemes.TicketScheme:
    pair = scheme.pair
    return schemes.TicketScheme(schemes.BasisPair(pair.dim, u @ pair.basis0, u @ pair.basis1))


def cycle_rng(seed: int, cycle: int) -> np.random.Generator:
    """The generator of one cycle's rotations: the same for the same cycle."""
    return np.random.default_rng([seed, cycle])


def sim_seed(seed: int, config: int, cycle: int) -> int:
    return int(np.random.SeedSequence([seed, config, cycle]).generate_state(1)[0])


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= VALUE_TOL


def z_score(successes: int, trials: int, p: float) -> float:
    return (successes / trials - p) / math.sqrt(p * (1 - p) / trials)


class Workload:
    """A named cycle of operations built from seeded inputs.

    ``cycle(k)`` makes cycle k's inputs, outside the timed operations, and
    returns the same inputs whenever it is called with the same k.
    """

    name = ""
    # The first cycle runs twice, untimed, before timing: lazy set-up in the
    # program is not timed, and every simulation's seed is checked to repeat.
    WARMUP = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.counts: dict[tuple[str, int], int] = {}

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check_simulation(self, config: str, seed: int, successes: int, trials: int,
                         p: float) -> list[str]:
        """What is wrong with a simulated count: |z| against the closed form p
        above the limit, or a (config, seed) that does not repeat its count."""
        problems = []
        seen = self.counts.setdefault((config, seed), successes)
        if seen != successes:
            problems.append(f"seed {seed} gave {successes} successes, earlier {seen}")
        z = z_score(successes, trials, p)
        if abs(z) > Z_LIMIT:
            problems.append(f"z {z:.3f} against {p!r}")
        return problems


def _parse(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def _run_cli(argv: list[str]) -> tuple[int, dict[str, str], str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmoney.cli.main(argv)
    return code, _parse(out.getvalue()), err.getvalue().strip()


class CliSmall(Workload):
    """Per-call overhead: in-process ``qmoney`` commands on small cases."""

    name = "cli-small"
    SIM_TRIALS = 20_000

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.wiesner_file = os.path.join(workdir, "wiesner.json")
        self.ticket_file = os.path.join(workdir, "ticket3.json")
        self.cert_file = os.path.join(workdir, "wiesner-cert.json")

    def _analyze(self, argv: list[str], expected: float) -> Callable[[], Outcome]:
        def run() -> Outcome:
            code, out, err = _run_cli(["analyze", *argv])
            value = float(out.get("single_value", "nan"))
            ok = code == 0 and out.get("certified") == "true" and close(value, expected)
            return Outcome(ok, f"exit {code}, value {value!r}, expected {expected!r}, "
                           f"certified {out.get('certified')} {err}")
        return run

    def _certify(self) -> Outcome:
        code, out, err = _run_cli(["certify", self.cert_file])
        ok = code == 0 and out.get("certified") == "true"
        return Outcome(ok, f"exit {code}, certified {out.get('certified')} {err}")

    def _threshold(self) -> Outcome:
        code, out, err = _run_cli(["threshold", "--scheme", self.wiesner_file, "--n", "3", "--t", "2"])
        value = float(out.get("value", "nan"))
        ok = code == 0 and out.get("conditions") == "certified" and close(value, 27 / 32)
        return Outcome(ok, f"exit {code}, value {value!r}, conditions {out.get('conditions')} {err}")

    def _simulate(self, argv: list[str], config: int, k: int, p: float, bell: bool):
        seed = sim_seed(self.seed, config, k)

        def run() -> Outcome:
            code, out, err = _run_cli(
                ["simulate", *argv, "--trials", str(self.SIM_TRIALS), "--seed", str(seed)]
            )
            if code != 0:
                return Outcome(False, f"exit {code} {err}", self.SIM_TRIALS)
            problems = self.check_simulation(
                " ".join(argv), seed, int(out["successes"]), self.SIM_TRIALS, p
            )
            if bell and float(out.get("conditional", "nan")) != 1.0:
                problems.append(f"conditional {out.get('conditional')}")
            return _outcome(problems, self.SIM_TRIALS)
        return run

    def cycle(self, k: int) -> list[Op]:
        rng = cycle_rng(self.seed, k)
        schemes.save_scheme(
            self.wiesner_file, rotate_ensemble(schemes.wiesner_ensemble(), haar_unitary(rng, 2))
        )
        schemes.save_scheme(
            self.ticket_file,
            rotate_ticket(schemes.fourier_ticket_scheme(3), haar_unitary(rng, 3)),
        )
        return [
            Op("analyze-wiesner-file-output",
               self._analyze(["--scheme", self.wiesner_file, "--output", self.cert_file], WIESNER)),
            Op("certify-wiesner", self._certify),
            Op("analyze-ticket3-file", self._analyze(["--scheme", self.ticket_file], ticket_value(3))),
            Op("analyze-six-state", self._analyze(["--scheme", "six-state"], SIX_STATE)),
            Op("analyze-sic", self._analyze(["--scheme", "sic"], SIC)),
            Op("analyze-symmetric3", self._analyze(["--scheme", "symmetric:3"], symmetric_value(3))),
            Op("threshold-wiesner-3-2", self._threshold),
            Op("simulate-ticket2",
               self._simulate(["--scheme", "ticket:2", "--strategy", "ticket-cloner"], 0, k,
                              ticket_value(2), bell=False)),
            Op("simulate-bell2",
               self._simulate(["--attack", "bell", "--n", "2"], 1, k, 0.25, bell=True)),
        ]


class ManyNotes(Workload):
    """The paper's 3-note Wiesner problem at full size: 512 x 512, d_in = 8."""

    name = "many-notes"
    NOTES = 3
    # One op takes about 12 s; a warm-up op would double the run for little.
    WARMUP = False

    def _op(self, note: schemes.Ensemble) -> Outcome:
        expected = WIESNER**self.NOTES
        single = sdp.CloningSdp(schemes.cloning_objective(note), dims=(2, 2, 2))
        single_solution = sdp.solve(single, tol=1e-8)
        problems = [single] * self.NOTES
        product = composition.repeated_sdp(problems)
        solution = sdp.solve(product, tol=1e-8)
        solved = certificates.certify(solution.primal_x, solution.dual_y, product)
        x, y = composition.tensor_certificates(
            [single_solution.primal_x] * self.NOTES, [single_solution.dual_y] * self.NOTES, problems
        )
        tensored = certificates.certify(x, y, product)
        ok = (
            close(solution.primal_value, expected)
            and close(tensored.primal.value, expected)
            and solved.certified
            and tensored.certified
        )
        return Outcome(ok, f"solved {solution.primal_value!r} certified {solved.certified}, "
                       f"tensored {tensored.primal.value!r} certified {tensored.certified}, "
                       f"expected {expected!r}")

    def cycle(self, k: int) -> list[Op]:
        note = rotate_ensemble(schemes.wiesner_ensemble(), haar_unitary(cycle_rng(self.seed, k), 2))
        return [Op("wiesner-3-notes", lambda: self._op(note))]


class MonteCarlo(Workload):
    """Simulator throughput: three attacks at 2e6 trials each, no SDP."""

    name = "monte-carlo"
    TRIALS = 2_000_000
    REPETITIONS = 3
    TICKET_DIM = 3
    BELL_QUBITS = 10

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.ticket = schemes.fourier_ticket_scheme(self.TICKET_DIM)

    def _cloner(self, six_state: schemes.Ensemble, k: int) -> Outcome:
        seed = sim_seed(self.seed, 0, k)
        cfg = simulator.TrialConfig(
            six_state, cloners.buzek_hillery_cloner(), self.TRIALS,
            seed=seed, repetitions=self.REPETITIONS,
        )
        report = simulator.simulate_quantum_attack(cfg)
        p = SIX_STATE**self.REPETITIONS
        return _outcome(self.check_simulation("six-state", seed, report.successes, report.trials, p),
                        report.trials)

    def _ticket(self, k: int) -> Outcome:
        seed = sim_seed(self.seed, 1, k)
        cfg = simulator.TrialConfig(
            self.ticket, cloners.ticket_cloner(self.TICKET_DIM), self.TRIALS, seed=seed
        )
        report = simulator.simulate_ticket_attack(cfg)
        p = ticket_value(self.TICKET_DIM)
        return _outcome(self.check_simulation("ticket", seed, report.successes, report.trials, p),
                        report.trials)

    def _bell(self, k: int) -> Outcome:
        seed = sim_seed(self.seed, 2, k)
        report = simulator.simulate_bell_attack(self.BELL_QUBITS, self.TRIALS, seed=seed)
        p = 0.5**self.BELL_QUBITS
        problems = self.check_simulation("bell", seed, report.successes, report.trials, p)
        if report.conditional_rate != 1.0:
            problems.append(f"conditional {report.conditional_rate!r}")
        return _outcome(problems, report.trials)

    def cycle(self, k: int) -> list[Op]:
        six_state = rotate_ensemble(
            schemes.six_state_ensemble(), haar_unitary(cycle_rng(self.seed, k), 2)
        )
        return [
            Op("six-state-cloner-x3", lambda: self._cloner(six_state, k)),
            Op("ticket3-cloner", lambda: self._ticket(k)),
            Op("bell-10", lambda: self._bell(k)),
        ]


def _outcome(problems: list[str], trials: int) -> Outcome:
    return Outcome(not problems, "; ".join(problems), trials)


WORKLOADS = {w.name: w for w in (CliSmall, ManyNotes, MonteCarlo)}
