"""Certificate checks: analytic pairs, solver output, file round-trips."""

import json
import math
import sys

import numpy as np
import pytest

from qmoney import _codec, certificates, cli, cloners, composition, linalg, schemes, sdp
from qmoney.channels import ChoiOperator
from qmoney.exceptions import DimensionError, FileFormatError, HermiticityError


def _wiesner_problem():
    return sdp.CloningSdp(
        schemes.cloning_objective(schemes.wiesner_ensemble()), dims=(2, 2, 2)
    )


class TestAnalyticPairs:
    def test_four_state_pair_certifies(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        report = certificates.certify(x, y, problem)
        assert report.certified
        assert abs(report.primal_value - 0.75) < 1e-12
        assert abs(report.dual_value - 0.75) < 1e-12

    @pytest.mark.parametrize(
        "ensemble", [schemes.six_state_ensemble(), schemes.sic_qubit_ensemble()]
    )
    def test_universal_cloner_pair_certifies_at_two_thirds(self, ensemble):
        problem = sdp.CloningSdp(schemes.cloning_objective(ensemble), dims=(2, 2, 2))
        x = cloners.buzek_hillery_cloner().matrix
        y = np.eye(2) / 3.0
        report = certificates.certify(x, y, problem)
        assert report.certified
        assert abs(report.primal_value - 2.0 / 3.0) < 1e-12

    def test_zero_primal_is_infeasible(self):
        problem = _wiesner_problem()
        check = certificates.check_primal(np.zeros((8, 8)), problem)
        assert not check.feasible
        assert check.trace_defect == pytest.approx(1.0)

    def test_zero_dual_is_infeasible(self):
        problem = _wiesner_problem()
        check = certificates.check_dual(np.zeros((2, 2)), problem)
        assert not check.feasible
        assert check.min_eigenvalue < -0.3

    def test_corrupted_dual_is_reported(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        report = certificates.certify(x, 0.3 * np.eye(2), problem)
        assert not report.certified
        assert not report.dual.feasible
        # the largest objective eigenvalue is 3/8, so the slack dips to 0.3 - 0.375
        assert report.dual.min_eigenvalue == pytest.approx(-0.075, abs=1e-9)

    def test_eigenvalues_are_computed_only_when_read(self, monkeypatch):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        bx, by = composition.tensor_certificates([x] * 3, [y] * 3, [problem] * 3)
        product = composition.repeated_sdp([problem] * 3)
        assert product.dim == 512
        calls = []
        eigenvalues = linalg.eigenvalues

        def counting(m):
            calls.append(m.shape)
            return eigenvalues(m)

        monkeypatch.setattr(linalg, "eigenvalues", counting)
        report = certificates.certify(bx, by, product)
        assert report.certified and calls == []
        primal = report.primal.min_eigenvalue
        dual = report.dual.min_eigenvalue
        assert calls == [(512, 512)] * 2
        monkeypatch.undo()
        assert primal == linalg.min_eigenvalue(linalg.as_hermitian(bx))
        slack = product.lift_dual(linalg.as_hermitian(by)) - product.objective
        assert dual == linalg.min_eigenvalue(slack)

    def test_non_finite_entries_never_reach_the_positivity_check(self, monkeypatch):
        bounded_below = linalg.bounded_below

        def finite_only(m, bound):
            assert np.all(np.isfinite(m)), "bounded_below saw a non-finite matrix"
            return bounded_below(m, bound)

        monkeypatch.setattr(linalg, "bounded_below", finite_only)
        bad = np.full((8, 8), np.nan, dtype=np.complex128)
        problem = _wiesner_problem()
        with pytest.raises(HermiticityError):
            sdp.CloningSdp(bad, dims=(2, 2, 2))
        with pytest.raises(HermiticityError):
            ChoiOperator(bad, in_dim=2, out_dim=4)
        with pytest.raises(HermiticityError):
            certificates.check_primal(bad, problem)
        with pytest.raises(HermiticityError):
            certificates.check_dual(np.full((2, 2), np.nan), problem)

    def test_classical_block_dual(self):
        for d in (2, 3, 4, 5):
            scheme = schemes.fourier_ticket_scheme(d)
            blocks, _ = schemes.classical_objective_blocks(scheme)
            q = schemes.assemble_challenge_block(blocks, d, 0, 1)
            problem = sdp.CloningSdp(q, dims=(d, d, d))
            c = schemes.effective_overlap(scheme.pair)
            y = (1.0 + math.sqrt(c)) / (2.0 * d) * np.eye(d)
            check = certificates.check_dual(y, problem)
            assert check.feasible
            assert abs(check.value - (1.0 + math.sqrt(c)) / 2.0) < 1e-12

    def test_mixed_challenge_pair_certifies(self):
        scheme = schemes.fourier_ticket_scheme(2)
        blocks, _ = schemes.classical_objective_blocks(scheme)
        q = schemes.assemble_challenge_block(blocks, 2, 0, 1)
        problem = sdp.CloningSdp(q, dims=(2, 2, 2))
        x = schemes.classical_primal_witness(scheme)[(0, 1)]
        y = (1.0 + math.sqrt(0.5)) / 4.0 * np.eye(2)
        report = certificates.certify(x, y, problem)
        assert report.certified
        assert abs(report.primal_value - (1.0 + math.sqrt(0.5)) / 2.0) < 1e-12


class TestSlack:
    """The dual slack I (x) Y - Q, formed by filling Y into the diagonal blocks."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d_out, d_in", [(1, 3), (4, 2), (9, 3), (6, 5)])
    def test_random_slack_is_bit_identical_to_the_kronecker_form(self, d_out, d_in, seed):
        rng = np.random.default_rng([d_out, d_in, seed])
        n = d_out * d_in
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        problem = sdp.CloningSdp(g @ g.conj().T, dims=(d_out, d_in))
        y = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        y = y + y.conj().T
        reference = np.kron(np.eye(d_out), linalg.as_hermitian(y)) - problem.objective
        slack = certificates._slack(y, problem)
        assert slack.dtype == reference.dtype and slack.shape == reference.shape
        assert slack.tobytes() == reference.tobytes()

    def test_three_note_slack_equals_the_kronecker_form(self):
        product = composition.repeated_sdp([_wiesner_problem()] * 3)
        y = 0.375**3 * np.eye(8)
        reference = np.kron(np.eye(64), y) - product.objective
        assert np.array_equal(certificates._slack(y, product), reference)


class TestSolverIntegration:
    @pytest.mark.parametrize(
        "objective,dims",
        [
            (schemes.cloning_objective(schemes.wiesner_ensemble()), (2, 2, 2)),
            (schemes.cloning_objective(schemes.sic_qubit_ensemble()), (2, 2, 2)),
            (schemes.symmetric_cloning_objective(3), (3, 3, 3)),
        ],
    )
    def test_solver_output_passes_at_ten_times_tolerance(self, objective, dims):
        problem = sdp.CloningSdp(objective, dims=dims)
        sol = sdp.solve(problem, tol=1e-8)
        report = certificates.certify(sol.primal_x, sol.dual_y, problem, tol=1e-7)
        assert report.certified

    def test_verdict_monotone_in_tolerance(self):
        problem = _wiesner_problem()
        sol = sdp.solve(problem, tol=1e-6)
        tols = (1e-5, 1e-4, 1e-3)
        verdicts = [
            certificates.certify(sol.primal_x, sol.dual_y, problem, tol=t).certified
            for t in tols
        ]
        assert verdicts[0]
        assert verdicts == sorted(verdicts)

    def test_never_certified_with_a_wide_gap(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = np.eye(2)  # feasible but far from optimal: value 2
        report = certificates.certify(x, y, problem, tol=1e-3)
        assert report.primal.feasible and report.dual.feasible
        assert not report.certified
        assert report.gap > 1.0

    def test_report_verdict_follows_its_numbers(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        near = certificates.certify(x, 0.376 * np.eye(2), problem)  # feasible, gap 0.002
        assert near.gap == near.dual.value - near.primal.value
        loose = certificates.CertificateReport(near.primal, near.dual, tolerance=1e-2)
        tight = certificates.CertificateReport(near.primal, near.dual, tolerance=1e-3)
        assert near.primal.feasible and near.dual.feasible
        assert loose.certified and not tight.certified

    def test_dimension_mismatches_rejected(self):
        problem = _wiesner_problem()
        with pytest.raises(DimensionError):
            certificates.check_primal(np.eye(4), problem)
        with pytest.raises(DimensionError):
            certificates.check_dual(np.eye(3), problem)


def _built_problem(scheme):
    """The problem ``analyze --scheme scheme --output`` writes: for a ticket scheme,
    its four challenge-pair problems combined into one."""
    if scheme.startswith("ticket:"):
        ticket = schemes.fourier_ticket_scheme(int(scheme.partition(":")[2]))
        return sdp.assemble_block_sdp(*cli._challenge_problems(ticket))
    return cli.resolve_scheme(scheme).cloning_problem()


class TestCertificateFiles:
    def test_pair_encoding_matches_a_per_entry_reference(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(108, 108)) + 1j * rng.normal(size=(108, 108))
        m[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        m[1, 0] = complex(1e-300, -5e-324)

        def reference(row):
            return [[float(z.real), float(z.imag)] for z in row]

        for a in (m, m[:3, :5]):
            encoded = _codec.complex_to_pairs(a)
            texts = zip(map(json.dumps, encoded), map(json.dumps, map(reference, a)))
            assert [i for i, (got, ref) in enumerate(texts) if got != ref] == []
            np.testing.assert_array_equal(_codec.pairs_to_matrix(encoded), a)
        encoded = _codec.complex_to_pairs(m[0])
        assert json.dumps(encoded) == json.dumps(reference(m[0]))
        np.testing.assert_array_equal(_codec.pairs_to_vector(encoded), m[0])
        with pytest.raises(FileFormatError):
            _codec.complex_to_pairs(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda rows: rows[1][2].__setitem__(0, True), "number pair"),
        (lambda rows: rows[1][2].__setitem__(1, "0.5"), "number pair"),
        (lambda rows: rows[2][0].__setitem__(0, None), "number pair"),
        (lambda rows: rows[0][1].append(0.0), "number pair"),
        (lambda rows: rows[2].pop(), "ragged rows"),
        (lambda rows: rows[1][0].__setitem__(1, 10**400), "number pair"),
        (lambda rows: rows[1][0].__setitem__(1, int(sys.float_info.max) + 1), "number pair"),
        (lambda rows: rows[0][0].__setitem__(0, json.loads("-1e400")), "number pair"),
    ], ids=["bool", "string", "null", "three-element pair", "ragged row",
            "int beyond float range", "int just above the largest float", "overflowing float"])
    def test_malformed_matrix_entries_are_rejected(self, corrupt, message):
        rows = _codec.complex_to_pairs(np.arange(9.0).reshape(3, 3) * (1.0 - 0.5j))
        corrupt(rows)
        with pytest.raises(FileFormatError, match=message):
            _codec.pairs_to_matrix(rows, "q")

    def test_integer_pairs_decode_as_their_floats(self):
        rows = [[[1, 0], [0, -2]], [[0, 2], [3, 0.5]]]
        np.testing.assert_array_equal(
            _codec.pairs_to_matrix(rows), np.array([[1, -2j], [2j, 3 + 0.5j]])
        )

    def test_round_trip(self, tmp_path):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        path = tmp_path / "cert.json"
        certificates.save_certificate(str(path), problem, x, y, 1e-7, 0.75)
        loaded = certificates.load_certificate(str(path))
        assert loaded.problem.dims == (4, 2)
        assert abs(loaded.value - 0.75) < 1e-15
        report = loaded.verify()
        assert report.certified
        assert abs(report.primal_value - loaded.value) <= loaded.tolerance

    def test_payload_holds_exactly_the_fields_certify_reads(self):
        payload = certificates.certificate_payload(
            _wiesner_problem(), cloners.wiesner_optimal_cloner().matrix, 0.375 * np.eye(2),
            1e-7, 0.75,
        )
        assert set(payload) == {"q", "primal_x", "dual_y", "tolerance", "value"}

    @pytest.mark.parametrize(
        "scheme, layout",
        [("wiesner", [2, 2, 2]), ("six-state", [2, 2, 2]), ("ticket:3", [3, 3, 4, 3])],
        ids=["wiesner", "six-state", "ticket:3"],
    )
    def test_file_with_a_stored_factor_layout_certifies_unchanged(
        self, scheme, layout, tmp_path, capsys
    ):
        """Files that also carry ``dims`` and ``n_out`` (the fine factor layout
        that older files stored) certify with the same stdout as the five-field
        file, even when the stored layout disagrees with the matrices: it is not read."""
        path = tmp_path / "cert.json"
        assert cli.main(["analyze", "--scheme", scheme, "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        capsys.readouterr()
        stdouts = []
        for stored in (None, (layout, 2), ([5, 5, 5], 1)):
            if stored is not None:
                payload.update(dims=stored[0], n_out=stored[1])
                path.write_text(json.dumps(payload))
            assert cli.main(["certify", str(path)]) == 0
            stdouts.append(capsys.readouterr().out)
        assert stdouts[1] == stdouts[0] and stdouts[2] == stdouts[0]
        assert "certified true" in stdouts[0]
        assert certificates.load_certificate(str(path)).problem.dims == _built_problem(scheme).dims

    @pytest.mark.parametrize("scheme", ["sic", "symmetric:3", "ticket:2"])
    def test_a_built_problem_and_its_loaded_certificate_share_dims(self, scheme, tmp_path):
        path = tmp_path / "cert.json"
        assert cli.main(["analyze", "--scheme", scheme, "--output", str(path)]) == 0
        loaded = certificates.load_certificate(str(path))
        problem = _built_problem(scheme)
        assert loaded.problem.dims == problem.dims == (problem.out_dim, problem.in_dim)
        np.testing.assert_array_equal(loaded.problem.objective, problem.objective)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("q"),
            lambda p: p.pop("primal_x"),
            lambda p: p.pop("dual_y"),
            lambda p: p.pop("tolerance"),
            lambda p: p.pop("value"),
            lambda p: p.update(tolerance=-1.0),
            lambda p: p.update(tolerance="tight"),
            lambda p: p.update(value="best"),
            lambda p: p.update(q=[[1.0, 2.0]]),
        ],
    )
    def test_malformed_payloads_rejected(self, tmp_path, mutate):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        path = tmp_path / "cert.json"
        certificates.save_certificate(str(path), problem, x, y, 1e-7, 0.75)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError):
            certificates.load_certificate(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(FileFormatError):
            certificates.load_certificate(str(path))

    def test_mismatched_primal_shape_rejected(self, tmp_path):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        path = tmp_path / "cert.json"
        certificates.save_certificate(str(path), problem, x, y, 1e-7, 0.75)
        payload = json.loads(path.read_text())
        payload["primal_x"] = payload["dual_y"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError):
            certificates.load_certificate(str(path))

    def test_non_square_dual_rejected(self, tmp_path):
        """A 1 x 2 dual beside a 1 x 1 objective and primal is a file error that names
        the field, before any shape is inferred from it."""
        path = tmp_path / "cert.json"
        payload = {
            "q": [[[0.5, 0.0]]],
            "primal_x": [[[1.0, 0.0]]],
            "dual_y": [[[0.5, 0.0], [0.0, 0.0]]],
            "tolerance": 1e-7,
            "value": 0.5,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="dual_y must be a square matrix"):
            certificates.load_certificate(str(path))
