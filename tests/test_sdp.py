"""Solver tests: known optimal values, duality, validation, block assembly, the spectral pair."""

import math

import numpy as np
import pytest

from qmoney import certificates, channels, composition, linalg, schemes, sdp
from qmoney.exceptions import DimensionError, SolverError


def _qubit_problem(q):
    return sdp.CloningSdp(q, dims=(2, 2, 2))


def _solved(q, dims, **kwargs):
    return sdp.solve(sdp.CloningSdp(q, dims=dims), **kwargs)


class TestKnownValues:
    def test_wiesner_optimal_value(self):
        problem = _qubit_problem(schemes.cloning_objective(schemes.wiesner_ensemble()))
        sol = sdp.solve(problem)
        assert abs(sol.primal_value - 0.75) < 1e-6
        assert abs(sol.dual_value - 0.75) < 1e-6
        assert -1e-8 <= sol.gap < 1e-6
        primal = certificates.check_primal(sol.primal_x, problem)
        assert primal.trace_defect < 1e-7
        assert primal.min_eigenvalue > -1e-9
        assert certificates.check_dual(sol.dual_y, problem).min_eigenvalue > -1e-9

    def test_six_state_optimal_value(self):
        sol = _solved(schemes.cloning_objective(schemes.six_state_ensemble()), (2, 2, 2))
        assert abs(sol.primal_value - 2.0 / 3.0) < 1e-6

    def test_sic_optimal_value(self):
        # Regression guard: this objective has genuinely complex entries, so
        # it exercises the full complex path of the Schur complement assembly.
        sol = _solved(schemes.cloning_objective(schemes.sic_qubit_ensemble()), (2, 2, 2))
        assert abs(sol.primal_value - 2.0 / 3.0) < 1e-6
        assert sol.iterations < 30

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_symmetric_optimal_values(self, d):
        sol = _solved(schemes.symmetric_cloning_objective(d), (d, d, d))
        assert abs(sol.primal_value - 2.0 / (d + 1)) < 1e-6

    def test_wiesner_dual_matrix_is_flat(self):
        sol = _solved(schemes.cloning_objective(schemes.wiesner_ensemble()), (2, 2, 2))
        assert np.abs(sol.dual_y - 0.375 * np.eye(2)).max() < 1e-5


class TestDuality:
    @pytest.mark.usefixtures("interior_point")
    def test_weak_duality_along_the_whole_trace(self):
        sol = _solved(schemes.cloning_objective(schemes.wiesner_ensemble()), (2, 2, 2))
        assert sol.trace
        for stat in sol.trace:
            assert stat.gap >= -1e-9
            assert stat.dual_value >= stat.primal_value - 1e-7

    def test_dual_point_is_feasible(self):
        q = schemes.cloning_objective(schemes.six_state_ensemble())
        problem = _qubit_problem(q)
        sol = sdp.solve(problem)
        slack = problem.lift_dual(sol.dual_y) - q
        assert np.linalg.eigvalsh(slack)[0] > -1e-7

    def test_objective_scaling(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        sol = _solved(2.5 * q, (2, 2, 2))
        assert abs(sol.primal_value - 2.5 * 0.75) < 1e-5

    def test_flat_dual_bound_matches_solver(self):
        cases = [
            (schemes.cloning_objective(schemes.wiesner_ensemble()), (2, 2, 2)),
            (schemes.cloning_objective(schemes.six_state_ensemble()), (2, 2, 2)),
            (schemes.symmetric_cloning_objective(3), (3, 3, 3)),
        ]
        for q, dims in cases:
            problem = sdp.CloningSdp(q, dims=dims)
            y, bound = sdp.dual_norm_bound(problem)
            sol = sdp.solve(problem)
            assert abs(bound - sol.primal_value) < 1e-6
            slack = problem.lift_dual(y) - q
            assert np.linalg.eigvalsh(slack)[0] > -1e-12


class TestSolutionObjects:
    def test_primal_solution_is_an_attack_channel(self):
        ensemble = schemes.wiesner_ensemble()
        sol = _solved(schemes.cloning_objective(ensemble), (2, 2, 2))
        choi = channels.ChoiOperator(sol.primal_x, 2, 4)
        assert abs(channels.success_probability(choi, ensemble) - sol.primal_value) < 1e-6

    def test_zero_objective_short_circuits(self):
        sol = _solved(np.zeros((8, 8)), (2, 2, 2))
        assert sol.primal_value == 0.0
        assert sol.iterations == 0
        assert np.allclose(sol.primal_x, np.eye(8) / 4.0)

    @pytest.mark.usefixtures("interior_point")
    def test_iteration_cap_raises_with_best_iterate(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        with pytest.raises(SolverError) as excinfo:
            _solved(q, (2, 2, 2), max_iterations=2)
        partial = excinfo.value.solution
        assert partial is not None
        assert 0.0 <= partial.primal_value <= 1.0

    def test_random_complex_ensembles_converge(self):
        rng = np.random.default_rng(20240817)
        for _ in range(4):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(2, 5))
            vecs = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            wts = rng.random(k)
            wts /= wts.sum()
            ens = schemes.Ensemble(
                dim=d, items=tuple((float(w), v) for w, v in zip(wts, vecs))
            )
            problem = sdp.CloningSdp(schemes.cloning_objective(ens), dims=(d, d, d))
            sol = sdp.solve(problem)
            assert 0.0 < sol.primal_value <= 1.0 + 1e-9
            assert sol.gap < 1e-6
            slack = problem.lift_dual(sol.dual_y) - problem.objective
            assert np.linalg.eigvalsh(slack)[0] > -1e-7


class TestValidation:
    def test_rejects_non_hermitian_objective(self):
        q = np.zeros((8, 8), dtype=complex)
        q[0, 1] = 1.0
        with pytest.raises(Exception):
            sdp.CloningSdp(q, dims=(2, 2, 2))

    def test_rejects_indefinite_objective(self):
        q = np.diag([1.0] * 7 + [-0.5])
        with pytest.raises(Exception):
            sdp.CloningSdp(q, dims=(2, 2, 2))

    def test_rejects_dimension_mismatch(self):
        q = np.eye(8) / 8.0
        with pytest.raises(DimensionError):
            sdp.CloningSdp(q, dims=(2, 2, 3))

    @pytest.mark.parametrize("tol", [1e-13, 0.5, 0.0])
    def test_rejects_out_of_range_tolerance(self, tol):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        with pytest.raises(ValueError):
            _solved(q, (2, 2, 2), tol=tol)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_rejects_iteration_cap_below_one(self, max_iterations):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        with pytest.raises(ValueError, match="max_iterations"):
            _solved(q, (2, 2, 2), max_iterations=max_iterations)


class TestBlockProblems:
    def test_identical_blocks_reproduce_the_single_value(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        blocks = [_qubit_problem(q), _qubit_problem(q)]
        sol = sdp.solve_block_diagonal(blocks, [0.3, 0.7])
        assert abs(sol.primal_value - 0.75) < 1e-6
        assert sol.block_solutions is not None and len(sol.block_solutions) == 2

    def test_assembled_solution_is_feasible_for_the_assembled_problem(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        blocks = [_qubit_problem(q), _qubit_problem(q)]
        weights = [0.5, 0.5]
        combined = sdp.assemble_block_sdp(blocks, weights)
        sol = sdp.solve_block_diagonal(blocks, weights)
        assert sol.primal_x.shape == (combined.dim, combined.dim)
        defect = np.abs(combined.trace_out(sol.primal_x) - np.eye(combined.in_dim)).max()
        assert defect < 1e-7
        paired = float(np.real(np.trace(combined.objective @ sol.primal_x)))
        assert abs(paired - sol.primal_value) < 1e-7
        slack = combined.lift_dual(sol.dual_y) - combined.objective
        assert np.linalg.eigvalsh(slack)[0] > -1e-7

    @pytest.mark.parametrize("d", [2, 3])
    def test_classical_fourier_challenge_value(self, d):
        scheme = schemes.fourier_ticket_scheme(d)
        blocks, weights = schemes.classical_objective_blocks(scheme)
        problems, wts = [], []
        equal_values = []
        for (c1, c2), wt in sorted(weights.items()):
            problem = sdp.CloningSdp(
                schemes.assemble_challenge_block(blocks, d, c1, c2), dims=(d, d, d)
            )
            problems.append(problem)
            wts.append(wt)
        sol = sdp.solve_block_diagonal(problems, wts)
        target = 0.75 + math.sqrt(1.0 / d) / 4.0
        assert abs(sol.primal_value - target) < 1e-6
        for (c1, c2), block_sol in zip(sorted(weights), sol.block_solutions):
            if c1 == c2:
                assert abs(block_sol.primal_value - 1.0) < 1e-6
            else:
                half = (1.0 + math.sqrt(1.0 / d)) / 2.0
                assert abs(block_sol.primal_value - half) < 1e-6

    def test_assembly_rejects_mixed_shapes(self):
        q2 = schemes.cloning_objective(schemes.wiesner_ensemble())
        q3 = schemes.symmetric_cloning_objective(3)
        with pytest.raises(DimensionError):
            sdp.assemble_block_sdp(
                [_qubit_problem(q2), sdp.CloningSdp(q3, dims=(3, 3, 3))], [0.5, 0.5]
            )

    def test_assembly_rejects_bad_weights(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        blocks = [_qubit_problem(q), _qubit_problem(q)]
        with pytest.raises(DimensionError):
            sdp.assemble_block_sdp(blocks, [0.6, 0.6])
        with pytest.raises(DimensionError):
            sdp.assemble_block_sdp(blocks, [1.4, -0.4])


def _wiesner_sdp():
    return _qubit_problem(schemes.cloning_objective(schemes.wiesner_ensemble()))


# Iteration counts, values and per-iteration (primal, dual) step lengths of the
# reference trajectories, recorded from the solver that computed the scaling by
# eigendecompositions and each step length from a Cholesky factor of the iterate.
TRAJECTORIES = {
    "wiesner": (
        _wiesner_sdp,
        0.7499999997568831, 0.7500000000025598,
        [(1.0, 0.803829632), (1.0, 0.345578206), (0.981190825, 0.864950207),
         (0.980027102, 0.977850049), (0.980006198, 0.980141351),
         (0.980005583, 0.980187191), (0.980005574, 0.980188313)],
    ),
    "six-state": (
        lambda: _qubit_problem(schemes.cloning_objective(schemes.six_state_ensemble())),
        0.6666666664205175, 0.6666666666692265,
        [(1.0, 0.825391887), (1.0, 0.34592198), (0.981372282, 0.843935856),
         (0.980029802, 0.977415749), (0.98000644, 0.980134941),
         (0.980005825, 0.980189336), (0.980005813, 0.980190295)],
    ),
    "sic": (
        lambda: _qubit_problem(schemes.cloning_objective(schemes.sic_qubit_ensemble())),
        0.666666666422643, 0.6666666666692267,
        [(1.0, 0.826996822), (1.0, 0.349778419), (0.98139086, 0.83271178),
         (0.980029842, 0.977128182), (0.980006353, 0.980127564),
         (0.980005431, 0.980187593), (0.980005413, 0.980188528)],
    ),
    "symmetric:3": (
        lambda: sdp.CloningSdp(schemes.symmetric_cloning_objective(3), dims=(3, 3, 3)),
        0.499999999334564, 0.50000000000384,
        [(1.0, 0.871219264), (1.0, 0.267174791), (0.984399793, 0.525898309),
         (0.980054738, 0.970705127), (0.980008053, 0.979962829),
         (0.9800069, 0.980148065), (0.980006873, 0.980151758)],
    ),
    "symmetric:4": (
        lambda: sdp.CloningSdp(schemes.symmetric_cloning_objective(4), dims=(4, 4, 4)),
        0.3999999991068509, 0.40000000000512004,
        [(1.0, 0.904982286), (1.0, 0.328337577), (0.994019964, 0.277006748),
         (0.980087556, 0.964706189), (0.980008968, 0.979778194),
         (0.980007124, 0.980079814), (0.980007079, 0.980085775)],
    ),
    "wiesner^2": (
        lambda: composition.repeated_sdp([_wiesner_sdp(), _wiesner_sdp()]),
        0.5624999988881687, 0.5625000000051199,
        [(1.0, 0.873903311), (1.0, 0.258080712), (0.987840426, 0.350576382),
         (0.98006407, 0.966987457), (0.980008186, 0.979844411),
         (0.980006546, 0.980101648), (0.980006508, 0.980106819)],
    ),
    "threshold(2,1)": (
        lambda: composition.threshold_sdp(schemes.wiesner_ensemble(), 2, 1),
        0.9374999988111345, 0.93750000000512,
        [(1.0, 0.877712072), (1.0, 0.285887678), (0.986044968, 0.27354545),
         (0.980045492, 0.950276226), (0.98000897, 0.979512946),
         (0.980004853, 0.980102224), (0.980004754, 0.980114034)],
    ),
}


@pytest.mark.usefixtures("interior_point")
class TestTrajectory:
    @pytest.mark.parametrize("name", sorted(TRAJECTORIES))
    def test_matches_reference_trajectory(self, name):
        make, primal, dual, steps = TRAJECTORIES[name]
        sol = sdp.solve(make())
        assert sol.iterations == len(steps) == 7
        assert abs(sol.primal_value - primal) < 1e-9
        assert abs(sol.dual_value - dual) < 1e-9
        # Near convergence the step lengths carry the conditioning of the
        # nearly singular iterates, hence the looser pin.
        got = [(st.step_primal, st.step_dual) for st in sol.trace]
        np.testing.assert_allclose(got, steps, rtol=0, atol=1e-6)


@pytest.mark.usefixtures("interior_point")
class TestStall:
    def test_unfactorable_primal_iterate_stops_at_once(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        problem = _wiesner_sdp()  # built first: the objective check factors too
        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(SolverError, match="smallest diagonal") as excinfo:
            sdp.solve(problem)
        assert str(sdp.CHOLESKY_SHIFTS) in str(excinfo.value)
        partial = excinfo.value.solution
        assert partial is not None
        assert partial.iterations == 0 and partial.trace == ()


def _qubit_stack():
    """Wiesner, six-state, SIC, 2.5 x Wiesner (6 iterations, not 7) and a zero objective."""
    q = schemes.cloning_objective(schemes.wiesner_ensemble())
    objectives = [
        q,
        schemes.cloning_objective(schemes.six_state_ensemble()),
        schemes.cloning_objective(schemes.sic_qubit_ensemble()),
        2.5 * q,
        np.zeros((8, 8)),
    ]
    return [_qubit_problem(o) for o in objectives]


def _assert_same_solution(got, alone):
    assert got.iterations == alone.iterations
    assert abs(got.primal_value - alone.primal_value) <= 1e-12
    assert abs(got.dual_value - alone.dual_value) <= 1e-12
    assert np.abs(got.primal_x - alone.primal_x).max() <= 1e-12
    assert np.abs(got.dual_y - alone.dual_y).max() <= 1e-12
    assert len(got.trace) == len(alone.trace)
    for mine, theirs in zip(got.trace, alone.trace):
        assert mine.iteration == theirs.iteration
        for field in ("primal_value", "dual_value", "gap", "mu", "primal_infeasibility",
                      "dual_infeasibility", "step_primal", "step_dual"):
            assert abs(getattr(mine, field) - getattr(theirs, field)) <= 1e-12, field


def _recording_stacks(monkeypatch):
    """Record the stack size of each stacked iteration that runs."""
    sizes = []
    solve_stack = sdp._solve_stack

    def recording(entries, *args):
        sizes.append(len(entries))
        return solve_stack(entries, *args)

    monkeypatch.setattr(sdp, "_solve_stack", recording)
    return sizes


class TestStacks:
    @pytest.mark.usefixtures("interior_point")
    def test_a_stack_equals_separate_solves(self, monkeypatch):
        problems = _qubit_stack()
        alone = [sdp.solve(p) for p in problems]
        assert len({s.iterations for s in alone}) == 3  # 7, 6 and 0 iterations
        sizes = _recording_stacks(monkeypatch)
        sol = sdp.solve_block_diagonal(problems, [0.2] * 5)
        # The zero objective is answered at once, without iterating.
        assert sizes == [4]
        for got, ref in zip(sol.block_solutions, alone):
            _assert_same_solution(got, ref)

    def test_blocks_of_different_reduced_shapes_run_in_separate_stacks(self, monkeypatch):
        ranks = [2, 1, 3, 2, 1]
        problems = [
            _rank_deficient_problem(np.random.default_rng([7, i]), 6, 3, r)
            for i, r in enumerate(ranks)
        ]
        assert [sdp._reduce(p)[0].shape[0] for p in problems] == [3 * (r + 1) for r in ranks]
        alone = [sdp.solve(p) for p in problems]
        sizes = _recording_stacks(monkeypatch)
        sol = sdp.solve_block_diagonal(problems, [0.2] * 5)
        assert sorted(sizes) == [1, 2, 2]
        for got, ref in zip(sol.block_solutions, alone):
            _assert_same_solution(got, ref)
        assert abs(sol.primal_value - sum(0.2 * s.primal_value for s in alone)) < 1e-12

    @pytest.mark.usefixtures("interior_point")
    def test_a_block_at_the_cap_raises_with_its_own_best_iterate(self):
        notes = (schemes.wiesner_ensemble(), schemes.six_state_ensemble(),
                 schemes.sic_qubit_ensemble())
        blocks = [composition.repeated_sdp([_qubit_problem(schemes.cloning_objective(e))] * 2)
                  for e in notes]
        assert {sdp._reduce(b)[0].shape for b in blocks} == {(40, 40)}
        with pytest.raises(SolverError, match="^block 0: no convergence") as excinfo:
            sdp._solve_all(blocks, sdp.DEFAULT_TOL, 2)
        with pytest.raises(SolverError) as alone:
            sdp.solve(blocks[0], max_iterations=2)
        partial = excinfo.value.solution
        assert partial.primal_x.shape == (64, 64)
        assert partial.iterations == 2 and len(partial.trace) == 2
        _assert_same_solution(partial, alone.value.solution)

    @pytest.mark.usefixtures("interior_point")
    def test_a_block_that_loses_positive_definiteness_stops_the_stack(self, monkeypatch):
        cholesky = np.linalg.cholesky
        calls = []

        def fail_after_the_first_block(a):
            # The stacked call fails, block 0 then factors alone, block 1 never does.
            calls.append(np.ndim(a))
            if np.ndim(a) > 2 or calls.count(2) > 1:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        problems = _qubit_stack()[:3]  # built first: the objective check factors too
        monkeypatch.setattr(np.linalg, "cholesky", fail_after_the_first_block)
        with pytest.raises(SolverError, match="^block 1: .*smallest diagonal") as excinfo:
            sdp.solve_block_diagonal(problems, [0.5, 0.25, 0.25])
        partial = excinfo.value.solution
        assert partial.iterations == 0 and partial.trace == ()
        assert partial.primal_x.shape == (8, 8)
        assert abs(partial.primal_value - float(np.trace(problems[1].objective).real) / 4) < 1e-12


def _support_rank(problem):
    return sdp._output_support(problem).shape[1]


def _haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rank_deficient_problem(rng, d_out, d_in, r):
    """Q = (V x I) C (V x I)^H for a random isometry V and a random PSD core C."""
    v, _ = np.linalg.qr(rng.normal(size=(d_out, r)) + 1j * rng.normal(size=(d_out, r)))
    g = rng.normal(size=(r * d_in, r * d_in)) + 1j * rng.normal(size=(r * d_in, r * d_in))
    lift = np.kron(v, np.eye(d_in))
    q = lift @ (g @ g.conj().T) @ lift.conj().T
    q = (q + q.conj().T) / (2 * np.linalg.norm(q, 2))
    return sdp.CloningSdp(q, dims=(d_out, d_in), n_out=1)


def _whole_solve(problem, monkeypatch):
    """The solve with the output-support cut switched off: every row weight 1."""
    with monkeypatch.context() as patch:
        patch.setattr(sdp, "_reduce", lambda p: (p.objective, np.ones(p.out_dim), None))
        return sdp.solve(problem)


class TestOutputSupport:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wiesner_notes_have_rank_three_to_the_n(self, n):
        problem = composition.repeated_sdp([_wiesner_sdp()] * n)
        assert _support_rank(problem) == 3**n
        obj, weights, support = sdp._reduce(problem)
        if n == 1:  # 3 + 1 rows would not shrink the 4 output rows
            assert support is None and obj is problem.objective
            return
        assert support.shape == (4**n, 3**n)
        np.testing.assert_array_equal(weights, [1.0] * 3**n + [4**n - 3**n])
        assert obj.shape == ((3**n + 1) * 2**n,) * 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_symmetric_cloning_has_the_symmetric_rank(self, d):
        problem = sdp.CloningSdp(schemes.symmetric_cloning_objective(d), dims=(d, d, d))
        assert _support_rank(problem) == d * (d + 1) // 2
        assert sdp._reduce(problem)[1].size == d * (d + 1) // 2 + 1

    def test_threshold_objective_is_not_reduced(self):
        # Only the singlet pair, where every round's success operator vanishes,
        # drops out: 15 of 16 output rows, so the cut would not shrink anything.
        problem = composition.threshold_sdp(schemes.wiesner_ensemble(), 2, 1)
        assert _support_rank(problem) == 15
        obj, weights, support = sdp._reduce(problem)
        assert support is None and obj is problem.objective
        np.testing.assert_array_equal(weights, np.ones(problem.out_dim))

    def test_a_cut_that_drops_a_coupling_is_refused(self):
        # Tr_in Q has eigenvalue 1e-14 on |3>, below the cut, but Q couples
        # |3> (x) |1> to the rest at 1e-7.
        psi = np.zeros(8, dtype=complex)
        psi[0], psi[7] = 1.0, 1e-7
        problem = sdp.CloningSdp(np.outer(psi, psi.conj()), dims=(4, 2), n_out=1)
        assert _support_rank(problem) == 1
        assert sdp._reduce(problem)[2] is None
        sol = sdp.solve(problem)
        assert certificates.certify(sol.primal_x, sol.dual_y, problem).certified

    def test_haar_rotated_three_notes_certify_on_the_full_space(self):
        u = _haar_unitary(np.random.default_rng(404), 2)
        note = schemes.wiesner_ensemble()
        note = schemes.Ensemble(note.dim, tuple((w, u @ psi) for w, psi in note.items))
        problem = composition.repeated_sdp(
            [sdp.CloningSdp(schemes.cloning_objective(note), dims=(2, 2, 2))] * 3
        )
        assert _support_rank(problem) == 27
        sol = sdp.solve(problem)
        assert abs(sol.primal_value - 27 / 64) < 1e-8
        assert sol.primal_x.shape == (512, 512) and sol.dual_y.shape == (8, 8)
        assert certificates.certify(sol.primal_x, sol.dual_y, problem).certified

    @pytest.mark.parametrize(
        "d_out, d_in, r", [(4, 2, 1), (4, 2, 2), (6, 3, 2), (9, 2, 4), (9, 3, 7), (16, 2, 5)]
    )
    def test_random_rank_deficient_objectives(self, d_out, d_in, r, monkeypatch):
        problem = _rank_deficient_problem(np.random.default_rng([d_out, d_in, r]), d_out, d_in, r)
        assert _support_rank(problem) == r
        assert sdp._reduce(problem)[2] is not None
        sol = sdp.solve(problem)
        assert sol.primal_x.shape == (problem.dim, problem.dim)
        assert certificates.certify(sol.primal_x, sol.dual_y, problem).certified
        whole = _whole_solve(problem, monkeypatch)
        assert sol.iterations == whole.iterations
        assert abs(sol.primal_value - whole.primal_value) < 1e-9
        assert abs(sol.dual_value - whole.dual_value) < 1e-9

    def test_solve_leaves_full_space_eigenvalues_to_the_certifier(self, monkeypatch):
        # Wiesner squared iterates at 40 rows; its 64-row X and I (x) Y - Q are
        # judged by certificates, so no spectrum of that size is taken in solve.
        problem = composition.repeated_sdp([_wiesner_sdp(), _wiesner_sdp()])
        sizes = []

        def recording(routine, matrix_arg=0):
            def run(*args):
                sizes.append(np.shape(args[matrix_arg])[-1])
                return routine(*args)
            return run

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        monkeypatch.setattr(linalg, "_spectral", recording(linalg._spectral, 1))
        sol = sdp.solve(problem)
        assert sol.primal_x.shape == (64, 64)
        assert sizes and 64 not in sizes

    @pytest.mark.usefixtures("interior_point")
    def test_stall_carries_a_full_size_best_iterate(self):
        problem = composition.repeated_sdp([_wiesner_sdp(), _wiesner_sdp()])
        assert _support_rank(problem) == 9
        with pytest.raises(SolverError) as excinfo:
            sdp.solve(problem, max_iterations=2)
        partial = excinfo.value.solution
        assert partial.primal_x.shape == (64, 64)
        primal = certificates.check_primal(partial.primal_x, problem)
        assert primal.trace_defect < 1e-12
        assert primal.min_eigenvalue > 0.0
        paired = float(np.real(np.trace(problem.objective @ partial.primal_x)))
        assert abs(paired - partial.primal_value) < 1e-12


def _rotated(q, u):
    """(U (x) U (x) conj U) Q (U (x) U (x) conj U)^H: the objective of the rotated states."""
    big = np.kron(np.kron(u, u), u.conj())
    return big @ q @ big.conj().T


FLAT = {
    "wiesner": (lambda: schemes.cloning_objective(schemes.wiesner_ensemble()), 2, 3 / 4),
    "six-state": (lambda: schemes.cloning_objective(schemes.six_state_ensemble()), 2, 2 / 3),
    "sic": (lambda: schemes.cloning_objective(schemes.sic_qubit_ensemble()), 2, 2 / 3),
    **{
        f"symmetric:{d}": (lambda d=d: schemes.symmetric_cloning_objective(d), d, 2 / (d + 1))
        for d in (2, 3, 4)
    },
}


def _random_four_state_problem(seed):
    rng = np.random.default_rng([4, seed])
    states = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    ensemble = schemes.Ensemble(2, tuple((0.25, psi) for psi in states))
    return _qubit_problem(schemes.cloning_objective(ensemble))


class TestSpectralPair:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(FLAT))
    def test_haar_rotated_flat_problems_take_no_iteration(self, name, seed):
        make, d, value = FLAT[name]
        u = _haar_unitary(np.random.default_rng([d, seed]), d)
        problem = sdp.CloningSdp(_rotated(make(), u), dims=(d, d, d))
        sol = sdp.solve(problem)
        assert sol.iterations == 0 and sol.trace == ()
        assert abs(sol.primal_value - value) <= 1e-12
        assert abs(sol.dual_value - value) <= 1e-12
        report = certificates.certify(sol.primal_x, sol.dual_y, problem)
        assert report.certified and abs(report.gap) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_ticket_challenge_block_takes_no_iteration(self, d):
        blocks, weights = schemes.classical_objective_blocks(schemes.fourier_ticket_scheme(d))
        pairs = sorted(weights)
        problems = [
            sdp.CloningSdp(schemes.assemble_challenge_block(blocks, d, *pair), dims=(d, d, d))
            for pair in pairs
        ]
        sol = sdp.solve_block_diagonal(problems, [weights[pair] for pair in pairs])
        assert sol.iterations == 0
        mixed = (1 + 1 / math.sqrt(d)) / 2
        for (c1, c2), problem, block in zip(pairs, problems, sol.block_solutions):
            assert block.iterations == 0
            assert abs(block.primal_value - (1.0 if c1 == c2 else mixed)) <= 1e-12
            report = certificates.certify(block.primal_x, block.dual_y, problem)
            assert report.certified and abs(report.gap) <= 1e-12
        assert abs(sol.primal_value - (0.75 + 0.25 / math.sqrt(d))) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_four_state_ensembles_fall_back(self, seed, request):
        problem = _random_four_state_problem(seed)
        sol = sdp.solve(problem)
        assert sol.iterations > 0
        request.getfixturevalue("interior_point")
        _assert_same_solution(sol, sdp.solve(problem))

    @pytest.mark.parametrize("tol", [1e-8, 1e-9])
    @pytest.mark.parametrize("split", [10.0, -10.0, 0.1, -0.1])
    def test_a_split_top_eigenvalue_is_never_certified_at_a_wrong_value(
        self, split, tol, request
    ):
        # One top eigenvector of a Haar-rotated Wiesner objective moves by split * tol * ||Q||:
        # a 10 tol split leaves the top cluster, a 0.1 tol split stays in it.
        u = _haar_unitary(np.random.default_rng(99), 2)
        q = _rotated(schemes.cloning_objective(schemes.wiesner_ensemble()), u)
        w, v = np.linalg.eigh(q)
        problem = _qubit_problem(q + split * tol * w[-1] * np.outer(v[:, -1], v[:, -1].conj()))
        sol = sdp.solve(problem, tol=tol)
        if sol.iterations == 0:
            trace_defect = np.abs(problem.trace_out(sol.primal_x) - np.eye(2)).max()
            assert sol.gap <= tol * sol.dual_value and trace_defect <= tol * (1 + w[-1])
        assert (sol.iterations == 0) == (abs(split) < 1)
        request.getfixturevalue("interior_point")
        reference = sdp.solve(problem, tol=tol)
        assert abs(sol.primal_value - reference.primal_value) <= tol
        assert certificates.certify(sol.primal_x, sol.dual_y, problem, tol=10 * tol).certified

    def test_an_objective_that_is_zero_up_to_roundoff_falls_back(self):
        # Q is PSD within PSD_OBJECTIVE_TOL; ||Q|| is its eigenvalue -1e-11, not its top one.
        problem = _qubit_problem(np.diag([1e-12] + [0.0] * 6 + [-1e-11]))
        sol = sdp.solve(problem)
        assert sol.iterations > 0
        assert certificates.certify(sol.primal_x, sol.dual_y, problem).certified

    def test_three_wiesner_notes_never_reach_the_iteration(self, monkeypatch):
        problem = composition.repeated_sdp([_wiesner_sdp()] * 3)
        sizes = _recording_stacks(monkeypatch)
        sol = sdp.solve(problem)
        assert sizes == []
        assert sol.iterations == 0 and abs(sol.primal_value - 27 / 64) <= 1e-12
        assert sol.primal_x.shape == (512, 512)
