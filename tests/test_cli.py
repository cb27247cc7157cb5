"""CLI tests: subcommand output, exit codes, file round-trips."""

import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from qmoney import certificates, cli, linalg, schemes, sdp
from qmoney.exceptions import (
    CertificationError,
    DimensionError,
    EigendecompositionError,
    FileFormatError,
    HermiticityError,
    SolverError,
)


def run_cli(argv, capsys):
    """Invoke the CLI and parse its key-value stdout lines."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    record = {}
    for line in captured.out.strip().splitlines():
        key, _, value = line.partition(" ")
        record[key] = value
    return code, record


def is_quantum(entry):
    return isinstance(entry.scheme, schemes.Ensemble)


def is_ticket(entry):
    return isinstance(entry.scheme, schemes.TicketScheme)


class TestResolveScheme:
    def test_builtin_kinds(self):
        assert is_quantum(cli.resolve_scheme("wiesner"))
        assert is_quantum(cli.resolve_scheme("six-state"))
        assert is_quantum(cli.resolve_scheme("sic"))
        assert cli.resolve_scheme("symmetric:3").haar_objective is not None
        assert is_ticket(cli.resolve_scheme("ticket:2"))

    def test_rejects_unknown_names_and_bad_dimensions(self):
        for spec in ("nonsense", "ticket:x", "ticket:1", "symmetric:0"):
            with pytest.raises(ValueError):
                cli.resolve_scheme(spec)

    def test_loads_scheme_files(self, tmp_path):
        quantum = tmp_path / "ens.json"
        ticket = tmp_path / "ticket.json"
        schemes.save_scheme(str(quantum), schemes.wiesner_ensemble())
        schemes.save_scheme(str(ticket), schemes.fourier_ticket_scheme(2))
        assert is_quantum(cli.resolve_scheme(str(quantum)))
        assert is_ticket(cli.resolve_scheme(str(ticket)))


class TestAnalyze:
    def test_wiesner_single(self, capsys):
        code, rec = run_cli(["analyze", "--scheme", "wiesner"], capsys)
        assert code == 0
        assert abs(float(rec["single_value"]) - 0.75) < 1e-6
        assert rec["certified"] == "true"

    def test_wiesner_ten_notes(self, capsys):
        code, rec = run_cli(["analyze", "--scheme", "wiesner", "--n", "10"], capsys)
        assert code == 0
        assert abs(float(rec["value"]) - 0.75**10) < 1e-6

    def test_ticket_value(self, capsys):
        code, rec = run_cli(["analyze", "--scheme", "ticket:2"], capsys)
        assert code == 0
        assert abs(float(rec["value"]) - (0.75 + 2.0**0.5 / 8.0)) < 1e-6

    def test_symmetric_value(self, capsys):
        code, rec = run_cli(["analyze", "--scheme", "symmetric:4"], capsys)
        assert code == 0
        assert abs(float(rec["value"]) - 0.4) < 1e-6

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        code, _ = run_cli(["analyze", "--scheme", "nonsense"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "scheme, n, value",
        [("wiesner", 3, 0.75**3), ("ticket:3", 1, 0.75 + 0.25 / 3**0.5)],
        ids=["wiesner", "ticket:3"],
    )
    def test_output_embeds_a_recertifiable_certificate(self, tmp_path, capsys, scheme, n, value):
        out = tmp_path / "record.json"
        code, _ = run_cli(
            ["analyze", "--scheme", scheme, "--n", str(n), "--output", str(out)], capsys
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["scheme"] == scheme
        assert abs(payload["repeated_value"] - value) < 1e-6
        code, rec = run_cli(["certify", str(out)], capsys)
        assert code == 0
        assert rec["certified"] == "true"


class TestTicketBlocks:
    """A ticket scheme is certified challenge block by challenge block."""

    def test_one_infeasible_block_fails_the_scheme(self, monkeypatch, capsys):
        solve_block_diagonal = sdp.solve_block_diagonal

        def shrink_one_dual(blocks, weights, tol):
            parts = list(solve_block_diagonal(blocks, weights, tol=tol))
            parts[1] = dataclasses.replace(parts[1], dual_y=0.9 * parts[1].dual_y)
            return tuple(parts)

        monkeypatch.setattr(sdp, "solve_block_diagonal", shrink_one_dual)
        code, rec = run_cli(["analyze", "--scheme", "ticket:2"], capsys)
        assert code == 1
        assert rec["certified"] == "false"

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gap_is_the_weighted_sum_of_block_gaps(self, capsys, d):
        code, rec = run_cli(["analyze", "--scheme", f"ticket:{d}"], capsys)
        assert code == 0 and rec["certified"] == "true"
        blocks, weights = cli._challenge_problems(schemes.fourier_ticket_scheme(d))
        solutions = sdp.solve_block_diagonal(blocks, weights)
        tol = 10 * sdp.DEFAULT_TOL
        gaps = [
            certificates.certify(s.primal_x, s.dual_y, block, tol=tol).gap
            for s, block in zip(solutions, blocks)
        ]
        assert rec["gap"] == cli._fmt(sum(w * g for w, g in zip(weights, gaps)))
        # The per-block verdict is at least as strict as the dense one, on the pair
        # that analyze --output writes.
        dense = sdp.assemble_block_sdp(blocks, weights)
        d_out, d_in = blocks[0].out_dim, blocks[0].in_dim
        x = linalg.direct_sum([s.primal_x for s in solutions], d_out, d_in)
        y = linalg.direct_sum([w * s.dual_y for s, w in zip(solutions, weights)], 1, d_in)
        assert certificates.certify(x, y, dense, tol=tol).certified

    def test_no_factorization_sees_more_than_one_block(self, monkeypatch, capsys):
        rows = []
        for name in ("cholesky", "eigh", "eigvalsh", "svd"):
            routine = getattr(np.linalg, name)

            def recording(a, *args, routine=routine, **kwargs):
                rows.append(np.shape(a)[-1])
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        code, rec = run_cli(["analyze", "--scheme", "ticket:3"], capsys)
        assert code == 0 and rec["certified"] == "true"
        assert rows and max(rows) == 27  # 3 x 3 clones (x) 3 inputs; the sum has 108 rows


class TestCertify:
    @pytest.fixture()
    def certificate(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code, _ = run_cli(["analyze", "--scheme", "wiesner", "--output", str(path)], capsys)
        assert code == 0
        return path

    def test_corrupted_dual_fails_with_reported_residual(self, certificate, capsys):
        payload = json.loads(certificate.read_text())
        eye = np.eye(2)
        payload["dual_y"] = [[[0.3 * eye[i, j], 0.0] for j in range(2)] for i in range(2)]
        bad = certificate.parent / "bad.json"
        bad.write_text(json.dumps(payload))
        code, rec = run_cli(["certify", str(bad)], capsys)
        assert code == 1
        assert rec["certified"] == "false"
        assert abs(float(rec["dual_min_eigenvalue"]) + 0.075) < 1e-9

    def test_empty_file_is_a_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, _ = run_cli(["certify", str(empty)], capsys)
        assert code == 2

    @pytest.fixture()
    def widened_certificate(self, certificate):
        """The certificate with its dual scaled by 1 + 1e-9: still feasible, with a
        gap of about 7.5e-10 where the spectral pair's own gap is at roundoff."""
        payload = json.loads(certificate.read_text())
        payload["dual_y"] = [
            [[(1 + 1e-9) * re, (1 + 1e-9) * im] for re, im in row] for row in payload["dual_y"]
        ]
        certificate.write_text(json.dumps(payload))
        return certificate

    def test_tolerance_override_can_reject(self, widened_certificate, capsys):
        code, rec = run_cli(["certify", str(widened_certificate), "--tol", "1e-12"], capsys)
        assert code == 1
        assert rec["certified"] == "false"

    def test_widened_certificate_passes_at_its_stored_tolerance(self, widened_certificate, capsys):
        code, rec = run_cli(["certify", str(widened_certificate)], capsys)
        assert code == 0
        assert rec["certified"] == "true"
        assert rec["tolerance"] == "1e-07"
        assert 7e-10 < float(rec["gap"]) < 8e-10

    @pytest.mark.parametrize(
        "update",
        [
            {"tolerance": True},
            {"value": float("nan")},
            {"value": float("inf")},
        ],
    )
    def test_booleans_and_non_finite_numbers_are_parse_errors(self, certificate, capsys, update):
        payload = json.loads(certificate.read_text())
        payload.update(update)
        certificate.write_text(json.dumps(payload))
        assert cli.main(["certify", str(certificate)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {next(iter(update))} must be")

class TestSimulate:
    def test_wiesner_optimal(self, capsys):
        argv = [
            "simulate", "--scheme", "wiesner", "--strategy", "optimal",
            "--trials", "50000", "--seed", "7",
        ]
        code, rec = run_cli(argv, capsys)
        assert code == 0
        assert abs(float(rec["analytic"]) - 0.75) < 1e-6
        assert abs(float(rec["z"])) <= 5.0

    def test_fixed_seed_reproduces_stdout(self, capsys):
        argv = ["simulate", "--scheme", "ticket:2", "--trials", "20000", "--seed", "5"]
        code_a, rec_a = run_cli(argv, capsys)
        code_b, rec_b = run_cli(argv, capsys)
        assert code_a == code_b == 0
        assert rec_a == rec_b

    def test_bell_attack(self, capsys):
        argv = ["simulate", "--attack", "bell", "--n", "2", "--trials", "50000"]
        code, rec = run_cli(argv, capsys)
        assert code == 0
        assert float(rec["analytic"]) == 0.25
        assert abs(float(rec["z"])) <= 5.0
        assert float(rec["conditional"]) == 1.0

    def test_honest_ticket_verification(self, capsys):
        argv = [
            "simulate", "--scheme", "ticket:2", "--strategy", "honest",
            "--trials", "20000",
        ]
        code, rec = run_cli(argv, capsys)
        assert code == 0
        assert rec["successes"] == rec["trials"]

    def test_loaded_quantum_scheme_uses_solver_strategy(self, tmp_path, capsys):
        path = tmp_path / "ens.json"
        schemes.save_scheme(str(path), schemes.wiesner_ensemble())
        argv = ["simulate", "--scheme", str(path), "--trials", "20000", "--seed", "3"]
        code, rec = run_cli(argv, capsys)
        assert code == 0
        assert abs(float(rec["analytic"]) - 0.75) < 1e-6
        assert abs(float(rec["z"])) <= 5.0

    def test_usage_errors(self, capsys):
        bad = [
            ["simulate", "--trials", "10"],
            ["simulate", "--scheme", "wiesner", "--attack", "bell", "--trials", "10"],
            ["simulate", "--scheme", "wiesner", "--strategy", "bogus", "--trials", "10"],
            ["simulate", "--scheme", "wiesner", "--trials", "0"],
            ["simulate", "--scheme", "ticket:2", "--strategy", "honest", "--n", "2",
             "--trials", "10"],
            ["simulate", "--attack", "bell", "--strategy", "honest", "--trials", "10"],
        ]
        for argv in bad:
            code, _ = run_cli(argv, capsys)
            assert code == 2, argv

    @pytest.mark.parametrize("target", [["--scheme", "wiesner"], ["--attack", "bell"]])
    def test_negative_seed_is_a_usage_error(self, capsys, target):
        code = cli.main(["simulate", *target, "--trials", "10", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("target", [["--scheme", "wiesner"], ["--attack", "bell"]])
    def test_trial_count_past_a_64_bit_integer_is_a_usage_error(self, capsys, target):
        code = cli.main(["simulate", *target, "--trials", str(2**63)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: trial count must be at most 2^63 - 1, got {2**63}\n"
        code, rec = run_cli(["simulate", *target, "--trials", str(2**63 - 1)], capsys)
        assert code == 0
        assert int(rec["trials"]) == 2**63 - 1
        assert abs(float(rec["z"])) <= 5.0

    def test_output_file_keeps_report_fields(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = [
            "simulate", "--scheme", "wiesner", "--trials", "10000",
            "--seed", "2", "--output", str(out),
        ]
        code, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == 10000
        assert set(payload) >= {"empirical", "analytic", "z", "successes"}

    def test_output_file_says_what_ran_and_stdout_does_not(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["simulate", "--attack", "bell", "--n", "2", "--trials", "70000", "--output", str(out)]
        code, rec = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["batches"] == 1
        assert payload["workers"] == 1
        assert payload["seconds"] > 0.0
        assert set(payload) == set(rec) | {"batches", "workers", "seconds"}
        assert not {"batches", "workers", "seconds"} & set(rec)


class TestSchemeFiles:
    @pytest.mark.parametrize("field", ["weight", "amplitudes"])
    def test_nan_is_a_parse_error(self, tmp_path, capsys, field):
        path = tmp_path / "ens.json"
        schemes.save_scheme(str(path), schemes.wiesner_ensemble())
        data = json.loads(path.read_text())
        if field == "weight":
            data["states"][0]["weight"] = float("nan")
        else:
            data["states"][0]["amplitudes"][0][1] = float("nan")
        path.write_text(json.dumps(data))
        assert cli.main(["simulate", "--scheme", str(path), "--trials", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: state 0") and field in captured.err


def forbid(monkeypatch, module, name):
    """Make module.name raise if anything calls it."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} was called")

    monkeypatch.setattr(module, name, refuse)


class TestBuildsOnlyWhatIsUsed:
    @pytest.mark.parametrize("scheme", ["wiesner", "symmetric:3", "ticket:2"])
    def test_analyze_without_output_builds_no_certificate_payload(
        self, monkeypatch, capsys, scheme
    ):
        forbid(monkeypatch, certificates, "certificate_payload")
        code, rec = run_cli(["analyze", "--scheme", scheme], capsys)
        assert code == 0
        assert rec["certified"] == "true"

    @pytest.mark.parametrize(
        "output, assembled", [(False, 0), (True, 1)], ids=["no-output", "output"]
    )
    def test_ticket_analyze_assembles_the_combined_problem_only_for_output(
        self, monkeypatch, capsys, tmp_path, output, assembled
    ):
        built = []
        post_init = sdp.CloningSdp.__post_init__

        def counting(problem):
            post_init(problem)
            built.append(problem.dim)

        monkeypatch.setattr(sdp.CloningSdp, "__post_init__", counting)
        argv = ["analyze", "--scheme", "ticket:3"]
        if output:
            argv += ["--output", str(tmp_path / "record.json")]
        code, rec = run_cli(argv, capsys)
        assert code == 0 and rec["certified"] == "true"
        # 3 x 3 clones (x) 4 challenge pairs (x) 3 inputs
        assert built.count(108) == assembled

    @pytest.mark.parametrize("output", [False, True], ids=["no-output", "output"])
    def test_ticket_analyze_builds_direct_sums_past_a_challenge_block_only_for_output(
        self, monkeypatch, capsys, tmp_path, output
    ):
        rows = []
        direct_sum = linalg.direct_sum

        def recording(mats, d_out, d_in):
            result = direct_sum(mats, d_out, d_in)
            rows.append(result.shape[0])
            return result

        monkeypatch.setattr(linalg, "direct_sum", recording)
        argv = ["analyze", "--scheme", "ticket:3"]
        if output:
            argv += ["--output", str(tmp_path / "record.json")]
        code, rec = run_cli(argv, capsys)
        assert code == 0 and rec["certified"] == "true"
        # Four 27-row challenge blocks, each the sum of its nine answer blocks; with
        # --output also the 108-row combined objective and primal and 12-row combined dual.
        added = [12, 108, 108] if output else []
        assert sorted(rows) == sorted([27] * 4 + added)

    def test_ticket_analyze_symmetrizes_only_problems_and_certified_points(
        self, monkeypatch, capsys
    ):
        shapes = []
        as_hermitian = linalg.as_hermitian

        def counting(m):
            shapes.append(np.shape(m))
            return as_hermitian(m)

        monkeypatch.setattr(linalg, "as_hermitian", counting)
        code, rec = run_cli(["analyze", "--scheme", "ticket:3"], capsys)
        assert code == 0 and rec["certified"] == "true"
        # Four challenge problems, each symmetrized on entry and its primal and dual
        # point in the certifier; none of the 36 answer blocks on its own.
        assert sorted(shapes) == [(3, 3)] * 4 + [(27, 27)] * 8

    @pytest.mark.parametrize("scheme", ["wiesner", "symmetric:3"])
    def test_simulate_builds_no_cloning_objective(self, monkeypatch, capsys, scheme):
        forbid(monkeypatch, schemes, "cloning_objective")
        forbid(monkeypatch, schemes, "symmetric_cloning_objective")
        argv = ["simulate", "--scheme", scheme, "--trials", "20000", "--seed", "1"]
        code, rec = run_cli(argv, capsys)
        assert code == 0
        assert abs(float(rec["z"])) <= 5.0


class TestThreshold:
    def test_wiesner_tail(self, capsys):
        code, rec = run_cli(["threshold", "--scheme", "wiesner", "--n", "3", "--t", "2"], capsys)
        assert code == 0
        assert abs(float(rec["value"]) - 27.0 / 32.0) < 1e-9
        assert abs(float(rec["alpha"]) - 0.75) < 1e-9
        assert rec["conditions"] == "certified"

    def test_six_state_tail(self, capsys):
        code, rec = run_cli(
            ["threshold", "--scheme", "six-state", "--n", "2", "--t", "2"], capsys
        )
        assert code == 0
        assert abs(float(rec["value"]) - 4.0 / 9.0) < 1e-9

    def test_symmetric_scheme_is_not_certified(self, capsys):
        code, rec = run_cli(
            ["threshold", "--scheme", "symmetric:3", "--n", "2", "--t", "1"], capsys
        )
        assert code == 1
        assert rec["conditions"] == "not-certified"
        assert abs(float(rec["value"]) - 0.75) < 1e-6

    def test_basis_states_clone_perfectly(self, tmp_path, capsys):
        # Weights of 1/3 written to 16 digits, last one rounded up: d_in * ||Q||
        # comes out as 1.0000000000000002, and alpha is clamped to 1.
        path = tmp_path / "basis3.json"
        states = [
            {"weight": 0.3333333333333334, "amplitudes": [[float(i == j), 0.0] for j in range(3)]}
            for i in range(3)
        ]
        path.write_text(json.dumps({"dimension": 3, "states": states}))
        code, rec = run_cli(
            ["threshold", "--scheme", str(path), "--n", "3", "--t", "2"], capsys
        )
        assert code == 0
        assert rec["alpha"] == "1" and rec["value"] == "1"
        assert rec["conditions"] == "certified"

    def test_tail_past_float_binomials(self, capsys):
        # math.comb(2000, j) exceeds the float range for j near 1000.
        code, rec = run_cli(
            ["threshold", "--scheme", "wiesner", "--n", "2000", "--t", "1400"], capsys
        )
        assert code == 0
        assert abs(float(rec["value"]) - 0.99999982008) < 1e-10

    @pytest.mark.parametrize("from_file", [False, True])
    def test_ticket_scheme_threshold_is_not_implemented(self, from_file, tmp_path, capsys):
        scheme = "ticket:2"
        if from_file:
            scheme = str(tmp_path / "ticket.json")
            schemes.save_scheme(scheme, schemes.fourier_ticket_scheme(2))
        code = cli.main(["threshold", "--scheme", scheme, "--n", "3", "--t", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "classical threshold is not implemented" in captured.err

    def test_threshold_above_n_is_a_usage_error(self, capsys):
        code, _ = run_cli(["threshold", "--scheme", "wiesner", "--n", "2", "--t", "3"], capsys)
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "threshold.json"
        argv = [
            "threshold", "--scheme", "wiesner", "--n", "2", "--t", "1",
            "--output", str(out),
        ]
        code, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - 15.0 / 16.0) < 1e-9
        assert payload["conditions"] == "certified"


class TestExitCodes:
    """Each error kind maps to the documented exit code and one error line."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (FileFormatError("bad file"), 2),
            (SolverError("stalled"), 1),
            (CertificationError("infeasible"), 1),
            (DimensionError("bad shape"), 2),
            (HermiticityError("not hermitian"), 2),
            (ValueError("bad value"), 2),
            (EigendecompositionError("no convergence"), 1),
            (MemoryError("Unable to allocate 61.0 GiB for an array"), 1),
        ],
    )
    def test_error_kind_sets_the_exit_code(self, monkeypatch, capsys, error, code):
        def raise_error(args):
            raise error

        monkeypatch.setattr(cli, "cmd_analyze", raise_error)
        assert cli.main(["analyze", "--scheme", "wiesner"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("from_file", [False, True])
    def test_an_objective_past_physical_memory_is_refused_unallocated(
        self, from_file, tmp_path, capsys
    ):
        """symmetric:200 and a 200-dimensional scheme file each need a dense
        8,000,000-row objective, about 931 TiB: exit 1 with its shape named,
        before numpy is asked for it."""
        scheme = "symmetric:200"
        if from_file:
            path = tmp_path / "dim200.json"
            states = [
                {"weight": 0.5, "amplitudes": [[float(i == j), 0.0] for j in range(200)]}
                for i in range(2)
            ]
            path.write_text(json.dumps({"dimension": 200, "states": states}))
            scheme = str(path)
        tracemalloc.start()
        try:
            code = cli.main(["analyze", "--scheme", scheme])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "8000000 x 8000000" in capsys.readouterr().err
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("operators", [1.5, 4.5])
    def test_memory_for_fewer_operators_than_a_solve_holds_is_refused_unallocated(
        self, operators, monkeypatch, capsys
    ):
        """analyze --scheme symmetric:6 holds about five 216-row operators at its peak,
        so physical memory for fewer is refused before the objective is built."""
        one = 16 * 216**2
        sizes = {"SC_PHYS_PAGES": int(operators * one) // 4096, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(linalg.os, "sysconf", sizes.__getitem__)
        tracemalloc.start()
        try:
            code = cli.main(["analyze", "--scheme", "symmetric:6"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "216 x 216" in capsys.readouterr().err
        assert peak < one

    def test_memory_for_fewer_operators_than_a_challenge_block_holds_is_refused(
        self, monkeypatch, capsys
    ):
        """analyze --scheme ticket:3 builds its 27-row challenge blocks by a direct sum,
        which is refused like any other operator when memory holds fewer than seven.
        Twelve pages (49,152 B) pass the answer stack built first, whose 18 rows need
        7 * 16 * 18**2 = 36,288 B, and refuse a block's 7 * 16 * 27**2 = 81,648 B."""
        sizes = {"SC_PHYS_PAGES": 12, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(linalg.os, "sysconf", sizes.__getitem__)
        code = cli.main(["analyze", "--scheme", "ticket:3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "27 x 27" in captured.err

    def test_answer_stack_past_memory_is_refused_unallocated(self, monkeypatch, capsys):
        """analyze --scheme ticket:12 stacks its 4 * 12**4 answer-block entries as one
        288-row operator, refused at 1 MiB before any of it is allocated."""
        sizes = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(linalg.os, "sysconf", sizes.__getitem__)
        tracemalloc.start()
        try:
            code = cli.main(["analyze", "--scheme", "ticket:12"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "288 x 288" in capsys.readouterr().err
        assert peak < 2**20

    def test_ticket_outcome_tables_past_memory_are_refused(self, monkeypatch, capsys):
        """simulate --scheme ticket:8 scores its 8**2 mixed-challenge outcomes for 16 keys
        in (4, 16, 64) float tables, four of which (128 KiB) 16 pages (64 KiB) refuse."""
        sizes = {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(linalg.os, "sysconf", sizes.__getitem__)
        start = time.perf_counter()
        code = cli.main(["simulate", "--scheme", "ticket:8", "--trials", "10"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "(4, 16, 64) outcome tables" in captured.err
        assert elapsed < 1.0

    def test_large_ticket_dimension_is_refused_at_once(self, monkeypatch, capsys):
        """simulate --scheme ticket:200 asks for (4, 400, 40000) outcome tables, four of
        which (1.9 GiB) 1 GiB of memory refuses before any of them is allocated."""
        sizes = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(linalg.os, "sysconf", sizes.__getitem__)
        start = time.perf_counter()
        code = cli.main(["simulate", "--scheme", "ticket:200", "--trials", "10"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "(4, 400, 40000) outcome tables" in captured.err
        assert elapsed < 1.0

    def test_ticket_dimension_100_is_simulated(self, capsys):
        """simulate --scheme ticket:100 keeps its 10**4 mixed-challenge outcomes as
        vectors, with no 1.6 GB table of their d x d effects."""
        code = cli.main(["simulate", "--scheme", "ticket:100", "--trials", "1000"])
        assert code == 0
        assert "analytic 0.775\n" in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["analyze", "certify", "simulate", "threshold"])
    def test_an_unwritable_output_path_is_a_usage_error(self, command, where, tmp_path, capsys):
        certificate = tmp_path / "cert.json"
        assert cli.main(["analyze", "--scheme", "wiesner", "--output", str(certificate)]) == 0
        capsys.readouterr()
        argv = {
            "analyze": ["analyze", "--scheme", "wiesner"],
            "certify": ["certify", str(certificate)],
            "simulate": ["simulate", "--attack", "bell", "--n", "2", "--trials", "10"],
            "threshold": ["threshold", "--scheme", "wiesner", "--n", "2", "--t", "1"],
        }[command]
        target = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
        assert cli.main(argv + ["--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error: cannot write output file {target}: ")

    @pytest.mark.parametrize("tol", ["0.05", "0", "-1", "2"])
    @pytest.mark.parametrize("command", ["analyze", "threshold"])
    def test_the_solver_alone_checks_the_solver_tolerance(self, command, tol, monkeypatch, capsys):
        forbid(monkeypatch, cli, "_check_tol")
        argv = [command, "--scheme", "wiesner", "--tol", tol]
        if command == "threshold":
            argv += ["--n", "2", "--t", "1"]
        assert cli.main(argv) == 2
        expected = f"tol must lie in [{sdp.MIN_TOL}, {sdp.MAX_TOL}], got {float(tol)}"
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("command", ["analyze", "threshold"])
    def test_the_solver_tolerance_help_gives_its_range(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"solver tolerance, in [{sdp.MIN_TOL:g}, {sdp.MAX_TOL:g}]" in help_text

    @pytest.mark.parametrize("tol", ["0", "-1", "2"])
    def test_a_certifier_tolerance_outside_zero_to_one_is_a_usage_error(
        self, tol, tmp_path, capsys
    ):
        certificate = tmp_path / "cert.json"
        assert cli.main(["analyze", "--scheme", "wiesner", "--output", str(certificate)]) == 0
        capsys.readouterr()
        assert cli.main(["certify", str(certificate), "--tol", tol]) == 2
        assert capsys.readouterr().err == f"error: tolerance must lie in (0, 1], got {float(tol)}\n"


def test_the_parser_is_built_once_and_dispatches_to_the_current_command(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "cmd_threshold", lambda args: 7 if args.t == 2 else 8)
    assert cli.main(["threshold", "--scheme", "wiesner", "--n", "3", "--t", "2"]) == 7
    assert capsys.readouterr().out == ""
