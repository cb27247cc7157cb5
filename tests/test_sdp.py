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


def _weighted_value(solutions, weights):
    """The value of a block problem: the weighted sum of its block values."""
    return sum(w * s.primal_value for s, w in zip(solutions, weights))


def _combined_pair(blocks, weights, solutions):
    """The block solutions' pair on the combined space, built as ``analyze --output``
    builds it."""
    d_out, d_in = blocks[0].out_dim, blocks[0].in_dim
    x = linalg.direct_sum([s.primal_x for s in solutions], d_out, d_in)
    y = linalg.direct_sum([w * s.dual_y for s, w in zip(solutions, weights)], 1, d_in)
    return x, y


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
    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverError) as excinfo:
            _solved(q, (2, 2, 2))
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

    def test_rejects_a_single_factor(self):
        with pytest.raises(DimensionError, match="output and input"):
            sdp.CloningSdp(np.eye(8) / 8.0, dims=(8,))

    def test_rejects_a_stack_of_objectives(self):
        """A stack passes the symmetrization, which takes stacks, but is no problem."""
        with pytest.raises(DimensionError, match="square matrix"):
            sdp.CloningSdp(np.stack([np.eye(8) / 8.0] * 8), dims=(2, 2, 2))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 2), (2, 2, 1, 2)])
    def test_dims_reads_back_as_the_output_input_split(self, dims):
        problem = sdp.CloningSdp(np.eye(8) / 8.0, dims=dims)
        assert problem.dims == (4, 2) and (problem.out_dim, problem.in_dim) == (4, 2)

    @pytest.mark.parametrize("tol", [1e-11, 1e-13, 0.5, 0.0])
    def test_rejects_out_of_range_tolerance(self, tol):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        with pytest.raises(ValueError):
            _solved(q, (2, 2, 2), tol=tol)


class TestBlockProblems:
    def test_identical_blocks_reproduce_the_single_value(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        blocks = [_qubit_problem(q), _qubit_problem(q)]
        solutions = sdp.solve_block_diagonal(blocks)
        assert abs(_weighted_value(solutions, [0.3, 0.7]) - 0.75) < 1e-6
        assert solutions is not None and len(solutions) == 2

    def test_assembled_solution_is_feasible_for_the_assembled_problem(self):
        q = schemes.cloning_objective(schemes.wiesner_ensemble())
        blocks = [_qubit_problem(q), _qubit_problem(q)]
        weights = [0.5, 0.5]
        combined = sdp.assemble_block_sdp(blocks, weights)
        assert combined.dims == (4, 2 * 2)  # the block index heads the input
        solutions = sdp.solve_block_diagonal(blocks)
        primal_x, dual_y = _combined_pair(blocks, weights, solutions)
        assert primal_x.shape == (combined.dim, combined.dim)
        defect = np.abs(combined.trace_out(primal_x) - np.eye(combined.in_dim)).max()
        assert defect < 1e-7
        paired = float(np.real(np.trace(combined.objective @ primal_x)))
        assert abs(paired - _weighted_value(solutions, weights)) < 1e-7
        slack = combined.lift_dual(dual_y) - combined.objective
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
        solutions = sdp.solve_block_diagonal(problems)
        target = 0.75 + math.sqrt(1.0 / d) / 4.0
        assert abs(_weighted_value(solutions, wts) - target) < 1e-6
        for (c1, c2), block_sol in zip(sorted(weights), solutions):
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

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan]])
    @pytest.mark.parametrize("combine", [sdp.assemble_block_sdp])
    def test_nan_weights_are_rejected(self, combine, weights):
        blocks = [_wiesner_sdp(), _wiesner_sdp()]
        with pytest.raises(DimensionError, match="weights"):
            combine(blocks, weights)

    def test_blocks_of_different_splits_solve_on_their_own_spaces(self):
        blocks = [_wiesner_sdp(), sdp.CloningSdp(schemes.symmetric_cloning_objective(3), (9, 3))]
        assert [b.dims for b in blocks] == [(4, 2), (9, 3)]
        solutions = sdp.solve_block_diagonal(blocks)
        for got, block in zip(solutions, blocks):
            assert got.primal_x.shape == (block.dim, block.dim)
            _assert_same_solution(got, sdp.solve(block))
        assert [round(s.primal_value, 6) for s in solutions] == [0.75, 0.5]


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


class TestSchurSolve:
    def test_a_positive_definite_complement_is_solved_to_roundoff(self):
        rng = np.random.default_rng(7)
        rows, d_in = 3, 4
        g = rng.normal(size=(rows * d_in,) * 2) + 1j * rng.normal(size=(rows * d_in,) * 2)
        w = g @ g.conj().T / (rows * d_in) + np.eye(rows * d_in)
        m = sdp._schur_complement(w, rows, d_in)
        assert np.linalg.eigvalsh(m)[0] > 0.0
        rhs = rng.normal(size=d_in**2) + 1j * rng.normal(size=d_in**2)
        x = sdp._schur_solve(m, rhs)
        assert np.linalg.norm(m @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_a_singular_complement_takes_the_jitter(self):
        # W = A (x) diag(1, 1, 0): every dY entry in the last row or column maps to
        # exactly zero, so LU meets an exactly zero pivot.
        rng = np.random.default_rng(8)
        rows, d_in = 2, 3
        a = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
        w = np.kron(a @ a.conj().T + np.eye(rows), np.diag([1.0, 1.0, 0.0]))
        m = sdp._schur_complement(w, rows, d_in)
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()
        rhs = m @ (rng.normal(size=d_in**2) + 1j * rng.normal(size=d_in**2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(m, rhs)
        x = sdp._schur_solve(m, rhs)
        assert np.isfinite(x).all()
        assert np.linalg.norm(m @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _random_non_flat_problem(seed, d, count):
    rng = np.random.default_rng([d, count, seed])
    states = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    ensemble = schemes.Ensemble(d, tuple(zip(rng.dirichlet(np.ones(count)), states)))
    return sdp.CloningSdp(schemes.cloning_objective(ensemble), dims=(d, d, d))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d, count", [(2, 4), (3, 5)])
def test_the_tolerance_floor_is_reached(d, count, seed):
    problem = _random_non_flat_problem(seed, d, count)
    sol = sdp.solve(problem, tol=sdp.MIN_TOL)
    assert sol.iterations > 0
    assert abs(sol.dual_value - sol.primal_value) <= 10 * sdp.MIN_TOL
    assert certificates.certify(sol.primal_x, sol.dual_y, problem).certified


EXACTLY_HERMITIAN = {
    "wiesner^2": lambda: composition.repeated_sdp([_wiesner_sdp(), _wiesner_sdp()]),
    "random d=3": lambda: _random_non_flat_problem(0, 3, 5),
}


def _exactly_hermitian(m):
    return np.array_equal(m, m.conj().T)


@pytest.mark.usefixtures("interior_point")
class TestExactHermiticity:
    """The iteration symmetrizes only what comes out of a matrix product.  Every update
    adds an exactly Hermitian step to an exactly Hermitian iterate, so each primal
    iterate and the dual point stay exactly Hermitian, with no symmetrization."""

    @pytest.fixture()
    def primal_iterates(self, monkeypatch):
        seen = []
        shifted_cholesky = sdp._shifted_cholesky

        def recording(x):
            seen.append(_exactly_hermitian(x))
            return shifted_cholesky(x)

        monkeypatch.setattr(sdp, "_shifted_cholesky", recording)
        return seen

    @pytest.mark.parametrize("name", sorted(EXACTLY_HERMITIAN))
    def test_every_iterate_and_the_converged_dual(self, name, primal_iterates):
        problem = EXACTLY_HERMITIAN[name]()
        assert sdp._reduce(problem)[2] is not None  # the reduced iteration runs
        sol = sdp.solve(problem)
        assert sol.iterations > 0 and len(primal_iterates) == sol.iterations
        assert all(primal_iterates)
        assert _exactly_hermitian(sol.dual_y)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(EXACTLY_HERMITIAN))
    def test_the_best_iterate_at_the_cap(self, name, cap, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", cap)
        with pytest.raises(SolverError, match="no convergence") as excinfo:
            sdp.solve(EXACTLY_HERMITIAN[name]())
        assert _exactly_hermitian(excinfo.value.solution.dual_y)


def _qubit_blocks():
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


def _counting_iterations(monkeypatch):
    """Record each problem that reaches the interior-point iteration."""
    reached = []
    interior_point = sdp._interior_point

    def counting(problem, *args):
        reached.append(problem)
        return interior_point(problem, *args)

    monkeypatch.setattr(sdp, "_interior_point", counting)
    return reached


def _cholesky_failing_from_block(monkeypatch, first_failing):
    """Make every Cholesky factorization fail once block ``first_failing`` of a
    :func:`sdp.solve_block_diagonal` call starts."""
    cholesky, solve = np.linalg.cholesky, sdp.solve
    started = []

    def counting_solve(*args, **kwargs):
        started.append(args[0])
        return solve(*args, **kwargs)

    def failing(a):
        if len(started) > first_failing:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(sdp, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "cholesky", failing)


class TestBlocks:
    @pytest.mark.usefixtures("interior_point")
    def test_each_block_equals_its_separate_solve(self, monkeypatch):
        problems = _qubit_blocks()
        alone = [sdp.solve(p) for p in problems]
        assert len({s.iterations for s in alone}) == 3  # 7, 6 and 0 iterations
        reached = _counting_iterations(monkeypatch)
        solutions = sdp.solve_block_diagonal(problems)
        # The zero objective is answered at once, without iterating.
        assert [id(p) for p in reached] == [id(p) for p in problems[:4]]
        for got, ref in zip(solutions, alone):
            _assert_same_solution(got, ref)

    def test_blocks_of_different_reduced_shapes_equal_separate_solves(self):
        ranks = [2, 1, 3, 2, 1]
        problems = [
            _rank_deficient_problem(np.random.default_rng([7, i]), 6, 3, r)
            for i, r in enumerate(ranks)
        ]
        assert [sdp._reduce(p)[0].shape[0] for p in problems] == [3 * (r + 1) for r in ranks]
        alone = [sdp.solve(p) for p in problems]
        solutions = sdp.solve_block_diagonal(problems)
        for got, ref in zip(solutions, alone):
            _assert_same_solution(got, ref)
        value = _weighted_value(solutions, [0.2] * 5)
        assert abs(value - sum(0.2 * s.primal_value for s in alone)) < 1e-12

    @pytest.mark.usefixtures("interior_point")
    def test_a_block_at_the_cap_raises_with_its_own_best_iterate(self, monkeypatch):
        notes = (schemes.wiesner_ensemble(), schemes.six_state_ensemble(),
                 schemes.sic_qubit_ensemble())
        blocks = [composition.repeated_sdp([_qubit_problem(schemes.cloning_objective(e))] * 2)
                  for e in notes]
        assert {sdp._reduce(b)[0].shape for b in blocks} == {(40, 40)}
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverError, match="^block 0: no convergence") as excinfo:
            sdp.solve_block_diagonal(blocks)
        with pytest.raises(SolverError) as alone:
            sdp.solve(blocks[0])
        partial = excinfo.value.solution
        assert partial.primal_x.shape == (64, 64)
        assert partial.iterations == 2 and len(partial.trace) == 2
        _assert_same_solution(partial, alone.value.solution)

    @pytest.mark.usefixtures("interior_point")
    def test_a_block_that_loses_positive_definiteness_is_named(self, monkeypatch):
        problems = _qubit_blocks()[:3]  # built first: the objective check factors too
        _cholesky_failing_from_block(monkeypatch, 1)
        with pytest.raises(SolverError, match="^block 1: .*smallest diagonal") as excinfo:
            sdp.solve_block_diagonal(problems)
        partial = excinfo.value.solution
        assert partial.iterations == 0 and partial.trace == ()
        assert partial.primal_x.shape == (8, 8)
        assert abs(partial.primal_value - float(np.trace(problems[1].objective).real) / 4) < 1e-12

    @pytest.mark.usefixtures("interior_point")
    def test_the_lowest_failing_block_is_named(self, monkeypatch):
        # Block 1 reaches the cap at iteration 2; block 2, which would fail at its
        # first factorization, is never reached.
        problems = [_qubit_problem(np.zeros((8, 8)))] + _qubit_blocks()[1:3]
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        _cholesky_failing_from_block(monkeypatch, 2)
        with pytest.raises(SolverError, match="^block 1: no convergence") as excinfo:
            sdp.solve_block_diagonal(problems)
        partial = excinfo.value.solution
        assert partial.iterations == 2 and len(partial.trace) == 2


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
    return sdp.CloningSdp(q, dims=(d_out, d_in))


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
        problem = sdp.CloningSdp(np.outer(psi, psi.conj()), dims=(4, 2))
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
    def test_stall_carries_a_full_size_best_iterate(self, monkeypatch):
        problem = composition.repeated_sdp([_wiesner_sdp(), _wiesner_sdp()])
        assert _support_rank(problem) == 9
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverError) as excinfo:
            sdp.solve(problem)
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
        wts = [weights[pair] for pair in pairs]
        solutions = sdp.solve_block_diagonal(problems)
        assert max(s.iterations for s in solutions) == 0
        mixed = (1 + 1 / math.sqrt(d)) / 2
        for (c1, c2), problem, block in zip(pairs, problems, solutions):
            assert block.iterations == 0
            assert abs(block.primal_value - (1.0 if c1 == c2 else mixed)) <= 1e-12
            report = certificates.certify(block.primal_x, block.dual_y, problem)
            assert report.certified and abs(report.gap) <= 1e-12
        assert abs(_weighted_value(solutions, wts) - (0.75 + 0.25 / math.sqrt(d))) <= 1e-12

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
        # Q is PSD within linalg.PSD_TOL; ||Q|| is its eigenvalue -1e-11, not its top one.
        problem = _qubit_problem(np.diag([1e-12] + [0.0] * 6 + [-1e-11]))
        sol = sdp.solve(problem)
        assert sol.iterations > 0
        assert certificates.certify(sol.primal_x, sol.dual_y, problem).certified

    def test_three_wiesner_notes_never_reach_the_iteration(self, monkeypatch):
        problem = composition.repeated_sdp([_wiesner_sdp()] * 3)
        reached = _counting_iterations(monkeypatch)
        sol = sdp.solve(problem)
        assert reached == []
        assert sol.iterations == 0 and abs(sol.primal_value - 27 / 64) <= 1e-12
        assert sol.primal_x.shape == (512, 512)


def _haar_wiesner_sdp(seed):
    u = _haar_unitary(np.random.default_rng(seed), 2)
    return _qubit_problem(_rotated(schemes.cloning_objective(schemes.wiesner_ensemble()), u))


FLAT_PRODUCTS = {
    "wiesner^2": lambda: [_wiesner_sdp()] * 2,
    "wiesner^3": lambda: [_wiesner_sdp()] * 3,
    "six-state x sic": lambda: [_qubit_problem(FLAT["six-state"][0]()),
                                _qubit_problem(FLAT["sic"][0]())],
    "haar wiesner^3": lambda: [_haar_wiesner_sdp(31)] * 3,
    "(wiesner^2) x wiesner": lambda: [composition.repeated_sdp([_wiesner_sdp()] * 2),
                                      _wiesner_sdp()],
}


def _dense(product):
    """The same problem with no components: the dense path alone solves it."""
    return sdp.CloningSdp(product.objective, product.dims)


class TestProducts:
    """A problem built by ``repeated_sdp`` is solved through its components, and
    falls back to the dense path whenever that product pair fails."""

    def test_repeated_sdp_records_its_components_and_nothing_else_does(self):
        parts = [_wiesner_sdp(), _haar_wiesner_sdp(5)]
        product = composition.repeated_sdp(parts)
        assert len(product.components) == 2
        assert all(mine is theirs for mine, theirs in zip(product.components, parts))
        assert _dense(product).components == () and parts[0].components == ()
        assert composition.repeated_sdp(parts[:1]) is parts[0]
        with pytest.raises(TypeError):
            sdp.CloningSdp(product.objective, product.dims, components=tuple(parts))

    @pytest.mark.parametrize("name", sorted(FLAT_PRODUCTS))
    def test_flat_products_agree_with_the_dense_solve(self, name):
        product = composition.repeated_sdp(FLAT_PRODUCTS[name]())
        sol, dense = sdp.solve(product), sdp.solve(_dense(product))
        assert sol.iterations == dense.iterations == 0 and sol.trace == ()
        assert abs(sol.primal_value - dense.primal_value) <= 1e-12
        assert abs(sol.dual_value - dense.dual_value) <= 1e-12
        for pair in (sol, dense):
            assert certificates.certify(pair.primal_x, pair.dual_y, product).certified

    def test_a_non_flat_component_multiplies_its_iterated_value(self):
        parts = [_wiesner_sdp(), _random_non_flat_problem(0, 2, 4)]
        product = composition.repeated_sdp(parts)
        alone = [sdp.solve(p) for p in parts]
        sol, dense = sdp.solve(product), sdp.solve(_dense(product))
        assert sol.iterations == sum(s.iterations for s in alone) > 0 and sol.trace == ()
        assert abs(sol.primal_value - math.prod(s.primal_value for s in alone)) <= 1e-12
        assert abs(sol.dual_value - math.prod(s.dual_value for s in alone)) <= 1e-12
        # Each side is only tol-optimal, so the two agree to the solver's tolerance.
        assert abs(sol.primal_value - dense.primal_value) <= 2 * sdp.DEFAULT_TOL
        assert abs(sol.dual_value - dense.dual_value) <= 2 * sdp.DEFAULT_TOL
        for pair in (sol, dense):
            assert certificates.certify(pair.primal_x, pair.dual_y, product).certified

    def test_a_failing_component_falls_back_to_the_dense_path(self, monkeypatch):
        product = composition.repeated_sdp([_wiesner_sdp(), _random_non_flat_problem(1, 2, 4)])
        dense = sdp.solve(_dense(product))
        solve_one = sdp._solve

        def failing_components(problem, *args):
            if problem.components:
                return solve_one(problem, *args)
            raise SolverError("forced", solution=None)

        monkeypatch.setattr(sdp, "_solve", failing_components)
        got = sdp.solve(product)
        assert got.iterations == dense.iterations > 0
        _assert_same_solution(got, dense)
        assert np.array_equal(got.primal_x, dense.primal_x)

    def test_a_product_pair_failing_the_stopping_test_falls_back(self, monkeypatch):
        product = composition.repeated_sdp([_wiesner_sdp()] * 2)
        dense = sdp.solve(_dense(product))
        regroup = linalg.regroup
        # X / 1.01 lowers the value, so weak duality holds and only the stopping test fails.
        monkeypatch.setattr(linalg, "regroup", lambda m, splits: regroup(m, splits) / 1.01)
        assert sdp._product_solution(product, sdp.DEFAULT_TOL) is None
        got = sdp.solve(product)
        _assert_same_solution(got, dense)
        assert np.array_equal(got.primal_x, dense.primal_x)

    def test_three_wiesner_notes_take_no_eigendecomposition_above_eight_rows(
        self, monkeypatch
    ):
        product = composition.repeated_sdp([_wiesner_sdp()] * 3)
        sizes = []
        spectral = linalg._spectral

        def recording(decompose, m, what):
            sizes.append(np.shape(m)[-1])
            return spectral(decompose, m, what)

        monkeypatch.setattr(linalg, "_spectral", recording)
        sol = sdp.solve(product)
        assert sol.primal_x.shape == (512, 512) and abs(sol.primal_value - 27 / 64) <= 1e-12
        assert sizes and max(sizes) <= 8

    def test_components_are_not_solved_through_the_public_name(self, monkeypatch):
        product = composition.repeated_sdp([_wiesner_sdp()] * 3)
        calls = []
        solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda *args, **kw: calls.append(1) or solve(*args, **kw))
        sdp.solve(product)
        assert calls == [1]

    def test_lift_dual_equals_the_kronecker_product(self):
        rng = np.random.default_rng(8)
        problem = _rank_deficient_problem(rng, 6, 3, 2)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(problem.lift_dual(y), np.kron(np.eye(6), y))
