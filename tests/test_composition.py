"""Composition tests: repetition products, binomial-tail thresholds, R operator."""

import fractions
import math

import numpy as np
import pytest

from qmoney import certificates, cloners, composition, linalg, schemes, sdp
from qmoney.exceptions import CertificationError, DimensionError


def _wiesner_problem():
    return sdp.CloningSdp(
        schemes.cloning_objective(schemes.wiesner_ensemble()), dims=(2, 2, 2)
    )


class TestRepeatedValue:
    def test_known_powers(self):
        assert composition.repeated_value(0.75, 1) == 0.75
        assert composition.repeated_value(0.75, 4) == 0.31640625
        assert composition.repeated_value(0.123, 0) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            composition.repeated_value(1.5, 2)
        with pytest.raises(ValueError):
            composition.repeated_value(0.5, -1)


class TestRepeatedSdp:
    def test_two_fold_problem_solves_to_the_square(self):
        rep = composition.repeated_sdp([_wiesner_problem()] * 2)
        assert rep.dims == (16, 4)
        sol = sdp.solve(rep)
        assert abs(sol.primal_value - 9.0 / 16.0) < 1e-5

    def test_two_fold_objective_norm_is_the_square(self):
        rep = composition.repeated_sdp([_wiesner_problem()] * 2)
        assert abs(linalg.operator_norm(rep.objective) - 0.375**2) < 1e-12

    @pytest.mark.parametrize(
        "ensembles",
        [
            [schemes.wiesner_ensemble()] * 3,
            [schemes.six_state_ensemble(), schemes.sic_qubit_ensemble()],
        ],
    )
    def test_objective_is_exactly_hermitian_and_needs_no_symmetrizing(self, ensembles):
        problems = [
            sdp.CloningSdp(schemes.cloning_objective(e), dims=(2, 2, 2)) for e in ensembles
        ]
        q = composition.repeated_sdp(problems).objective
        assert np.array_equal(q, q.conj().T)
        product = linalg.regroup(
            linalg.tensor([p.objective for p in problems]), [p.dims for p in problems]
        )
        symmetrized = linalg.as_hermitian(linalg.as_hermitian(product))
        assert np.array_equal(q, symmetrized)

    def test_single_component_passthrough(self):
        problem = _wiesner_problem()
        assert composition.repeated_sdp([problem]) is problem

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionError):
            composition.repeated_sdp([])


class TestRegroup:
    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 3), (2, 3), (3, 4)])
    def test_matches_the_dense_permutation_conjugation(self, seed, n):
        # Factor order (out_1, in_1, ..., out_n, in_n): out_k moves to slot k,
        # in_k to slot n + k, so every output precedes every input.
        rng = np.random.default_rng(seed)
        splits = [(int(rng.integers(1, 4)), int(rng.integers(1, 3))) for _ in range(n)]
        dims = [d for split in splits for d in split]
        perm = [k + n * side for k in range(n) for side in (0, 1)]
        size = math.prod(dims)
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        w = linalg.permutation_operator(dims, perm)
        np.testing.assert_allclose(
            linalg.regroup(m, splits), w @ m @ w.conj().T, rtol=0, atol=1e-12
        )


class TestTensorCertificates:
    def test_two_fold_pair_certifies_the_square(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        bx, by = composition.tensor_certificates([x, x], [y, y], [problem, problem])
        rep = composition.repeated_sdp([problem, problem])
        report = certificates.certify(bx, by, rep, tol=1e-6)
        assert report.certified
        assert abs(report.primal_value - 9.0 / 16.0) < 1e-9

    def test_six_state_two_fold_certifies(self):
        problem = sdp.CloningSdp(
            schemes.cloning_objective(schemes.six_state_ensemble()), dims=(2, 2, 2)
        )
        x = cloners.buzek_hillery_cloner().matrix
        y = np.eye(2) / 3.0
        bx, by = composition.tensor_certificates([x, x], [y, y], [problem, problem])
        report = certificates.certify(
            bx, by, composition.repeated_sdp([problem, problem]), tol=1e-6
        )
        assert report.certified
        assert abs(report.primal_value - 4.0 / 9.0) < 1e-9

    def test_single_pair_passthrough(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        y = 0.375 * np.eye(2)
        bx, by = composition.tensor_certificates([x], [y], [problem])
        assert np.abs(bx - x).max() < 1e-15
        assert np.abs(by - y).max() < 1e-15

    def test_infeasible_primal_rejected(self):
        problem = _wiesner_problem()
        y = 0.375 * np.eye(2)
        with pytest.raises(CertificationError):
            composition.tensor_certificates(
                [np.zeros((8, 8))], [y], [problem]
            )

    def test_infeasible_dual_rejected(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        with pytest.raises(CertificationError):
            composition.tensor_certificates([x], [np.zeros((2, 2))], [problem])

    def test_mismatched_lists_rejected(self):
        problem = _wiesner_problem()
        x = cloners.wiesner_optimal_cloner().matrix
        with pytest.raises(DimensionError):
            composition.tensor_certificates([x], [], [problem])


class TestThresholdValue:
    def test_known_tails(self):
        assert composition.threshold_value(0.75, 3, 2) == 27.0 / 32.0
        assert composition.threshold_value(0.75, 2, 1) == 15.0 / 16.0
        assert composition.threshold_value(0.75, 3, 3) == 0.75**3

    def test_tail_past_float_binomials(self):
        # Binomial coefficients overflow a float from n of about 1030 on.
        n, t, alpha = 2000, 1600, 0.75
        a = fractions.Fraction(alpha)
        exact = sum(math.comb(n, j) * a**j * (1 - a) ** (n - j) for j in range(t, n + 1))
        value = composition.threshold_value(alpha, n, t)
        assert abs(value - float(exact)) <= 1e-12 * float(exact)

    def test_tails_are_exact_fractions_rounded_once(self):
        """Every (n, t) with n <= 60, at fixed and sampled base values, equals
        the exact rational tail rounded once to a float."""
        alphas = [0.5, 0.75, 2.0 / 3.0, 0.1, 0.999]
        alphas += np.random.default_rng(9).random(3).tolist()
        for alpha in alphas:
            a = fractions.Fraction(alpha)
            for n in range(1, 61):
                exact = fractions.Fraction(0)
                for t in range(n, 0, -1):
                    exact += math.comb(n, t) * a**t * (1 - a) ** (n - t)
                    value = composition.threshold_value(alpha, n, t)
                    assert value == float(exact), (alpha, n, t)

    def test_large_n(self):
        """n = 100,000, where a binomial coefficient has about 30,000 digits;
        the tail at the mean of a fair coin falls just short of 1/2."""
        assert composition.threshold_value(0.75, 100_000, 50_000) == 1.0
        assert composition.threshold_value(0.5, 100_000, 50_001) < 0.5

    def test_monotone_in_threshold_and_base(self):
        for n in (2, 3, 5):
            values = [composition.threshold_value(0.6, n, t) for t in range(1, n + 1)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        alphas = np.linspace(0.0, 1.0, 11)
        tails = [composition.threshold_value(float(a), 4, 2) for a in alphas]
        assert all(a <= b + 1e-15 for a, b in zip(tails, tails[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            composition.threshold_value(0.75, 2, 3)
        with pytest.raises(ValueError):
            composition.threshold_value(0.75, 2, 0)
        with pytest.raises(ValueError):
            composition.threshold_value(-0.1, 2, 1)
        with pytest.raises(ValueError):
            composition.threshold_value(1.5, 2, 1)


class TestThresholdOperators:
    @pytest.mark.parametrize(
        "ensemble", [schemes.wiesner_ensemble(), schemes.six_state_ensemble()]
    )
    def test_success_and_failure_partition(self, ensemble):
        d = ensemble.dim
        ops = composition.build_threshold_operators(ensemble)
        total = ops.success + ops.failure
        assert np.abs(total - np.eye(d**3) / d).max() < 1e-12
        assert linalg.min_eigenvalue(ops.success) > -1e-12
        assert linalg.min_eigenvalue(ops.failure) > -1e-12

    @pytest.mark.parametrize(
        "ensemble",
        [
            schemes.wiesner_ensemble(),
            schemes.sic_qubit_ensemble(),
            schemes.fourier_ticket_scheme(3).ensemble(),
            schemes.Ensemble(
                2, ((0.3, np.array([1.0, 0.0])), (0.7, np.array([0.6, 0.8j])))
            ),
        ],
    )
    def test_failure_operator_matches_the_per_state_sum(self, ensemble):
        d = ensemble.dim
        reference = np.zeros((d**3, d**3), dtype=complex)
        for w, psi in ensemble.items:
            pair = np.kron(psi, psi)
            clone_part = np.eye(d * d) - np.outer(pair, pair.conj())
            reference += w * np.kron(clone_part, np.outer(psi.conj(), psi))
        failure = composition.build_threshold_operators(ensemble).failure
        assert np.abs(failure - reference).max() <= 1e-14

    def test_operators_commute_when_conditions_hold(self):
        ops = composition.build_threshold_operators(schemes.wiesner_ensemble())
        comm = ops.success @ ops.failure - ops.failure @ ops.success
        assert linalg.operator_norm(comm) <= 1e-10

    def test_conditions_flag(self, request):
        def holds(ensemble):
            problem = sdp.CloningSdp(schemes.cloning_objective(ensemble), dims=(2, 2, 2))
            return composition.threshold_conditions_hold(ensemble, sdp.solve(problem))

        assert holds(schemes.wiesner_ensemble())
        assert holds(schemes.six_state_ensemble())
        point = schemes.Ensemble(2, ((1.0, np.array([1.0, 0.0])),))
        assert not holds(point)
        request.getfixturevalue("interior_point")  # an iterated solution proves no flat dual
        assert not holds(schemes.wiesner_ensemble())


class TestRNorm:
    def test_two_round_norms_match_the_formula(self):
        ens = schemes.wiesner_ensemble()
        lhs, rhs = composition.verify_r_norm(ens, 2, 1)
        assert abs(lhs - rhs) <= 1e-9
        assert abs(lhs - 0.25 * (15.0 / 16.0)) <= 1e-12
        lhs, rhs = composition.verify_r_norm(ens, 2, 2)
        assert abs(lhs - rhs) <= 1e-9
        assert abs(lhs - 0.375**2) <= 1e-12

    def test_single_round_reduces_to_the_objective_norm(self):
        lhs, rhs = composition.verify_r_norm(schemes.wiesner_ensemble(), 1, 1)
        assert abs(lhs - 0.375) <= 1e-12
        assert abs(rhs - 0.375) <= 1e-12

    def test_size_guard(self):
        ens = schemes.Ensemble(3, tuple((1.0 / 3.0, v) for v in np.eye(3)))
        with pytest.raises(DimensionError):
            composition.verify_r_norm(ens, 3, 1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            composition.verify_r_norm(schemes.wiesner_ensemble(), 2, 0)


class TestThresholdSdp:
    def test_direct_solve_matches_the_tail(self):
        problem = composition.threshold_sdp(schemes.wiesner_ensemble(), 2, 1)
        sol = sdp.solve(problem)
        assert abs(sol.primal_value - 15.0 / 16.0) < 1e-5

    def test_threshold_equal_to_n_matches_plain_repetition(self):
        problem = composition.threshold_sdp(schemes.wiesner_ensemble(), 2, 2)
        sol = sdp.solve(problem)
        assert abs(sol.primal_value - 9.0 / 16.0) < 1e-5

    def test_size_guard(self):
        with pytest.raises(DimensionError):
            composition.threshold_sdp(schemes.wiesner_ensemble(), 4, 1)
