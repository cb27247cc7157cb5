"""Attack-construction tests: channel values, Pauli algebra, ticket measurements."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qmoney import channels, cloners, schemes
from qmoney.exceptions import ChannelValidationError, DimensionError


def _random_pure_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


class TestQubitCloners:
    def test_wiesner_cloner_value(self):
        choi = cloners.wiesner_optimal_cloner()
        value = channels.success_probability(choi, schemes.wiesner_ensemble())
        assert abs(value - 0.75) < 1e-12

    def test_wiesner_cloner_on_the_zero_state(self):
        # By hand: the first Kraus operator sends |0> to (3|00> + |01> + |10>)/sqrt(12)
        # and the second to (|01> + |10>)/sqrt(12) + |11>/sqrt(12) terms with no |00>
        # component, so <00|Phi(|0><0|)|00> = 9/12 = 3/4.
        choi = cloners.wiesner_optimal_cloner()
        zero = np.array([1.0, 0.0])
        assert abs(channels.pair_with_conjugate(choi, np.kron(zero, zero), zero) - 0.75) < 1e-12

    def test_wiesner_kraus_completeness(self):
        a0 = np.array([[3.0, 0], [0, 1], [0, 1], [1, 0]]) / math.sqrt(12.0)
        a1 = np.array([[0, 1.0], [1, 0], [1, 0], [0, 3]]) / math.sqrt(12.0)
        total = a0.conj().T @ a0 + a1.conj().T @ a1
        assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_universal_cloner_on_both_qubit_ensembles(self):
        choi = cloners.buzek_hillery_cloner()
        for ensemble in (schemes.six_state_ensemble(), schemes.sic_qubit_ensemble()):
            assert abs(channels.success_probability(choi, ensemble) - 2.0 / 3.0) < 1e-12

    def test_universal_cloner_per_state(self):
        choi = cloners.buzek_hillery_cloner()
        for _, psi in schemes.six_state_ensemble().items:
            fid = channels.pair_with_conjugate(choi, np.kron(psi, psi), psi)
            assert abs(fid - 2.0 / 3.0) < 1e-12

    def test_universal_cloner_state_independence(self):
        choi = cloners.buzek_hillery_cloner()
        for psi in _random_pure_states(2, 100, seed=424242):
            fid = channels.pair_with_conjugate(choi, np.kron(psi, psi), psi)
            assert abs(fid - 2.0 / 3.0) <= 1e-10


class TestWernerCloner:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_fidelity_matches_closed_form(self, d):
        choi = cloners.werner_cloner(d)
        for psi in _random_pure_states(d, 50, seed=1000 + d):
            fid = channels.pair_with_conjugate(choi, np.kron(psi, psi), psi)
            assert abs(fid - 2.0 / (d + 1)) <= 1e-9

    def test_dimension_two_reduces_to_the_qubit_cloner(self):
        assert np.abs(
            cloners.werner_cloner(2).matrix - cloners.buzek_hillery_cloner().matrix
        ).max() < 1e-12

    def test_rejects_trivial_dimension(self):
        with pytest.raises(DimensionError):
            cloners.werner_cloner(1)


def _fourier(d):
    """F with shift = F phase F*; exponents reduced mod d, as the Fourier ticket
    scheme builds its basis, so that omega's roundoff does not compound."""
    omega = np.exp(2j * np.pi / d)
    i, j = np.indices((d, d))
    return omega ** (-(i * j % d)) / math.sqrt(d)


class TestPauliOperators:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 200, 256])
    def test_conjugation_identity(self, d):
        shift, phase = cloners.pauli_operators(d)
        fourier = _fourier(d)
        for u in (shift, phase, fourier):
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12
        defect = np.abs(shift - fourier @ phase @ fourier.conj().T).max()
        assert defect <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_order_d_cyclic_group(self, d):
        shift, phase = cloners.pauli_operators(d)
        assert np.abs(np.linalg.matrix_power(shift, d) - np.eye(d)).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(phase, d) - np.eye(d)).max() < 1e-12

    def test_rejects_trivial_dimension(self):
        with pytest.raises(DimensionError):
            cloners.pauli_operators(1)


class TestTicketCloner:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_value_matches_closed_form(self, d):
        value = cloners.evaluate_ticket_strategy(
            cloners.ticket_cloner(d), schemes.fourier_ticket_scheme(d)
        )
        assert abs(value - (0.75 + 1.0 / (4.0 * math.sqrt(d)))) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mixed_plan_is_a_rank_one_covariant_povm(self, d):
        strategy = cloners.ticket_cloner(d)
        vectors, answers = strategy.plans[(0, 1)]
        assert vectors.shape == (d * d, d) and answers.shape == (d * d, 2)
        assert strategy.plans[(1, 0)][0] is vectors
        # each effect is a rank-1 projector scaled by 1/d
        assert np.abs(np.linalg.norm(vectors, axis=1) ** 2 * d - 1.0).max() < 1e-10
        assert np.abs(vectors.T @ vectors.conj() - np.eye(d)).max() <= 1e-10

    @pytest.mark.parametrize("d", range(2, 9))
    def test_mixed_plans_match_per_outcome_products(self, d):
        """Both mixed plans hold the d^2 vectors v / sqrt(d), bit for bit as matrix
        products build them one at a time, with v = shift^s phase^t psi."""
        shift, phase = cloners.pauli_operators(d)
        psi = cloners._ticket_state(d)
        eye = np.eye(d, dtype=np.complex128)
        shifts = list(itertools.accumulate([shift] * (d - 1), np.matmul, initial=eye))
        phases = list(itertools.accumulate([phase] * (d - 1), np.matmul, initial=eye))
        plans = cloners.ticket_cloner(d).plans
        for k, (s, t) in enumerate(np.ndindex(d, d)):
            reference = shifts[s] @ phases[t] @ psi / math.sqrt(d)
            for pair, answers in (((0, 1), (s, t)), ((1, 0), (t, s))):
                vectors, got = plans[pair]
                assert tuple(got[k]) == answers
                assert vectors[k].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equal_challenge_plans_are_the_basis_vectors(self, d):
        """Each equal-challenge plan holds the challenged basis's vectors, bit for bit,
        and repeats the outcome to both verifiers."""
        pair = schemes.fourier_ticket_scheme(d).pair
        plans = cloners.ticket_cloner(d).plans
        for c in (0, 1):
            vectors, answers = plans[(c, c)]
            np.testing.assert_array_equal(answers, [(t, t) for t in range(d)])
            for t in range(d):
                assert vectors[t].tobytes() == pair.vector(t, c).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_overlap_of_the_seed_state(self, d):
        psi = cloners._ticket_state(d)
        assert abs(abs(psi[0]) ** 2 - 0.5 * (1.0 + 1.0 / math.sqrt(d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_shift_covariance_of_diagonal_weights(self, d):
        shift, phase = cloners.pauli_operators(d)
        psi = cloners._ticket_state(d)
        per_label = []
        for s in range(d):
            acc = 0.0
            for t in range(d):
                vec = (
                    np.linalg.matrix_power(shift, s)
                    @ np.linalg.matrix_power(phase, t)
                    @ psi
                )
                acc += abs(vec[s]) ** 2 / d
            per_label.append(acc)
        assert max(per_label) - min(per_label) <= 1e-12


def _repeat_basis_plan(scheme, basis):
    """Measure in one basis and repeat the outcome: ``(vectors, answers)``."""
    d = scheme.dim
    return (np.array([scheme.pair.vector(t, basis) for t in range(d)]),
            np.array([(t, t) for t in range(d)]))


class TestStrategyEvaluation:
    def test_single_basis_strategy_value(self):
        # Hand enumeration at d=2 for the strategy that always measures basis 0
        # and repeats the outcome: basis-0 keys always pass (the measurement
        # reproduces the key index, and challenges for the other basis accept
        # automatically), while basis-1 keys pass the four challenge pairs with
        # probabilities 1, 1/2, 1/2, 1/2.  Total (1/2)(1) + (1/2)(5/8) = 13/16.
        scheme = schemes.fourier_ticket_scheme(2)
        plan = _repeat_basis_plan(scheme, 0)
        strategy = cloners.TicketStrategy(
            2, {pair: plan for pair in cloners.CHALLENGE_PAIRS}
        )
        assert abs(cloners.evaluate_ticket_strategy(strategy, scheme) - 13.0 / 16.0) < 1e-12

    def test_coinciding_bases_are_cloned_perfectly(self):
        pair = schemes.BasisPair(3, np.eye(3), np.eye(3))
        scheme = schemes.TicketScheme(pair)
        plan = _repeat_basis_plan(scheme, 0)
        strategy = cloners.TicketStrategy(
            3, {p: plan for p in cloners.CHALLENGE_PAIRS}
        )
        assert cloners.evaluate_ticket_strategy(strategy, scheme) == pytest.approx(1.0, abs=1e-12)

    def test_honest_measurement_beats_single_basis_everywhere(self):
        scheme = schemes.fourier_ticket_scheme(2)
        single = cloners.TicketStrategy(
            2, {p: _repeat_basis_plan(scheme, 0) for p in cloners.CHALLENGE_PAIRS}
        )
        optimal = cloners.ticket_cloner(2)
        assert cloners.evaluate_ticket_strategy(
            optimal, scheme
        ) > cloners.evaluate_ticket_strategy(single, scheme)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cloners.evaluate_ticket_strategy(
                cloners.ticket_cloner(2), schemes.fourier_ticket_scheme(3)
            )


def _born_reference(plans, scheme):
    """The tables of :func:`cloners.outcome_tables` from dense effects, as a reference:
    each plan's first array holds effects of shape (m, d, d), or vectors v of shape
    (m, d) formed into the effects vv^H.  Born probabilities by a direct three-operand
    contraction, acceptance by the scheme's predicate, one outcome at a time."""
    states = scheme.key_states()
    longest = max(len(effects) for effects, _ in plans.values())
    prob = np.zeros((len(cloners.CHALLENGE_PAIRS), len(states), longest))
    accept = np.zeros(prob.shape, dtype=bool)
    for ci, (c1, c2) in enumerate(cloners.CHALLENGE_PAIRS):
        effects, answers = plans[(c1, c2)]
        if effects.ndim == 2:
            effects = np.array([np.outer(v, v.conj()) for v in effects])
        prob[ci, :, : len(effects)] = np.einsum(
            "ki,mij,kj->km", states.conj(), effects, states
        ).real
        for ki, key in enumerate(scheme.keys()):
            for k, (a1, a2) in enumerate(answers):
                accept[ci, ki, k] = scheme.accept(a1, c1, key) and scheme.accept(a2, c2, key)
    return prob, accept


class TestOutcomeTables:
    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_probabilities_match_the_direct_contraction(self, d, rotate):
        scheme = schemes.fourier_ticket_scheme(d)
        if rotate:  # a Haar-random unitary applied to both bases
            rng = np.random.default_rng(d)
            u, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            u = u * (np.diagonal(r) / np.abs(np.diagonal(r)))
            scheme = schemes.TicketScheme(
                schemes.BasisPair(d, u @ scheme.pair.basis0, u @ scheme.pair.basis1)
            )
        strategy = cloners.ticket_cloner(d)
        prob, accept = cloners.outcome_tables(strategy, scheme)
        reference_prob, reference_accept = _born_reference(strategy.plans, scheme)
        # Each entry sums d^2 products of magnitude at most 1 in another order.
        np.testing.assert_allclose(
            prob, reference_prob, rtol=0, atol=d * d * np.finfo(float).eps,
        )
        np.testing.assert_array_equal(accept, reference_accept)

    def test_tables_and_their_mass_fit_the_memory_they_ask_for(self):
        """Building the d = 40 strategy, its tables and their accepted mass peaks below
        the ``_PEAK_TABLES`` (4, 2d, d^2) float tables that ``outcome_tables`` asks of
        the memory guard: no plan holds a d x d effect."""
        d = 40
        scheme = schemes.fourier_ticket_scheme(d)
        tracemalloc.start()
        try:
            cloners.accepted_mass(*cloners.outcome_tables(cloners.ticket_cloner(d), scheme))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cloners._PEAK_TABLES * 8 * 4 * 2 * d * d * d


class TestRankOneRefinement:
    @staticmethod
    def _random_povm(rng, d, m):
        """m effects of rank 2 to d, random, summing to the identity."""
        effects = []
        for _ in range(m):
            a = rng.normal(size=(d, rng.integers(2, d + 1)))
            a = a + 1j * rng.normal(size=a.shape)
            effects.append(a @ a.conj().T)
        w, u = np.linalg.eigh(sum(effects))
        root = (u / np.sqrt(w)) @ u.conj().T  # the inverse square root of the sum
        return np.array([root @ e @ root for e in effects])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [3, 4])
    def test_refined_plan_keeps_the_dense_value(self, d, seed):
        """Splitting each effect of a random POVM by its eigenpairs (w, u) into the
        vectors sqrt(w) u, each keeping the effect's answers, leaves the value the
        dense Born rule gives the unrefined effects."""
        rng = np.random.default_rng(seed)
        scheme = schemes.fourier_ticket_scheme(d)
        dense, refined = {}, {}
        for pair in cloners.CHALLENGE_PAIRS:
            m = int(rng.integers(2, 5))
            effects = self._random_povm(rng, d, m)
            assert (np.linalg.matrix_rank(effects, hermitian=True) >= 2).all()
            answers = rng.integers(0, d, size=(m, 2))
            dense[pair] = effects, answers
            w, u = np.linalg.eigh(effects)
            pieces = np.sqrt(np.clip(w, 0.0, None))[:, None, :] * u  # column j: sqrt(w_j) u_j
            refined[pair] = pieces.swapaxes(1, 2).reshape(m * d, d), answers.repeat(d, axis=0)
        value = cloners.evaluate_ticket_strategy(cloners.TicketStrategy(d, refined), scheme)
        assert abs(value - cloners.outcome_value(*_born_reference(dense, scheme))) <= 1e-12


class TestAcceptedMass:
    @pytest.mark.parametrize("prob", [[[math.nan, 1.0]], [[0.5, 0.5], [1.0, math.nan]],
                                      [[math.nan, math.nan]]])
    def test_rejects_nan_probabilities(self, prob):
        prob = np.array(prob)
        with pytest.raises(ValueError, match="NaN"):
            cloners.accepted_mass(prob, np.ones(prob.shape, dtype=bool))

    def test_rejects_negative_and_unnormalized_rows(self):
        accept = np.array([True, False])
        with pytest.raises(ValueError, match="negative"):
            cloners.accepted_mass(np.array([[1.1, -0.1]]), accept)
        with pytest.raises(ValueError, match="sum to one"):
            cloners.accepted_mass(np.array([[0.5, 0.4]]), accept)

    def test_each_row_is_its_accepted_share(self):
        """Rows of a [challenge pair, key, outcome] table flatten in order, one
        accept row serves them all, and roundoff-sized negatives count as 0."""
        prob = np.array([[[0.25, 0.75], [1.0, -1e-12]], [[0.0, 1.0], [0.5, 0.5]]])
        mass = cloners.accepted_mass(prob, np.array([True, False]))
        np.testing.assert_array_equal(mass, [0.25, 1.0, 0.0, 0.5])
        assert cloners.outcome_value(prob, np.array([True, False])) == float(mass.mean())


class TestStrategyValidation:
    def test_missing_challenge_pair_rejected(self):
        scheme = schemes.fourier_ticket_scheme(2)
        plan = _repeat_basis_plan(scheme, 0)
        with pytest.raises(DimensionError):
            cloners.TicketStrategy(2, {(0, 0): plan})

    def test_incomplete_measurement_rejected(self):
        plan = (np.array([[1.0, 0.0]]), np.array([(0, 0)]))
        with pytest.raises(ChannelValidationError):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_non_finite_vectors_rejected(self, entry):
        """An inf or NaN entry makes the completeness defect inf or NaN: both fail."""
        scheme = schemes.fourier_ticket_scheme(2)
        good = _repeat_basis_plan(scheme, 1)
        vectors = good[0].copy()
        vectors[1, 0] = entry
        plans = {(0, 0): good, (0, 1): good, (1, 0): (vectors, good[1]), (1, 1): good}
        with pytest.raises(ChannelValidationError, match=r"\(1, 0\) is incomplete"):
            cloners.TicketStrategy(2, plans)

    def test_bool_answers_rejected(self):
        """Bool answers would index the acceptance table as a mask: the basis-0 repeat
        strategy at d = 2 would score 0.625 instead of 13/16."""
        vectors, answers = _repeat_basis_plan(schemes.fourier_ticket_scheme(2), 0)
        plan = (vectors, answers.astype(bool))
        with pytest.raises(DimensionError, match="integers"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    def test_float_answers_rejected(self):
        vectors, answers = _repeat_basis_plan(schemes.fourier_ticket_scheme(2), 0)
        plan = (vectors, answers.astype(float))
        with pytest.raises(DimensionError, match="integers"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    @pytest.mark.parametrize("outcomes", [1, 2])
    def test_old_tuple_of_pairs_plan_rejected(self, outcomes):
        """The format before plans were arrays: a tuple of (effect, answer pair) pairs."""
        plan = tuple((np.eye(2) / outcomes, (k, k)) for k in range(outcomes))
        with pytest.raises(DimensionError, match=r"challenges \(0, 0\) is not two arrays"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    def test_plan_of_lists_is_stored_as_arrays(self):
        vectors, answers = _repeat_basis_plan(schemes.fourier_ticket_scheme(2), 0)
        plan = (vectors.tolist(), answers.tolist())
        strategy = cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})
        for stored_vectors, stored_answers in strategy.plans.values():
            np.testing.assert_array_equal(stored_vectors, vectors)
            np.testing.assert_array_equal(stored_answers, answers)
            assert np.issubdtype(stored_answers.dtype, np.integer)
        as_arrays = cloners.TicketStrategy(2, {p: (vectors, answers)
                                               for p in cloners.CHALLENGE_PAIRS})
        scheme = schemes.fourier_ticket_scheme(2)
        assert cloners.evaluate_ticket_strategy(strategy, scheme) == \
            cloners.evaluate_ticket_strategy(as_arrays, scheme)

    @pytest.mark.parametrize("vectors_shape, answers_shape", [
        ((2, 2), (3, 2)), ((2, 3), (2, 2)), ((4,), (2, 2)), ((2, 2), (2,)), ((2, 2, 2), (2, 2)),
    ])
    def test_misshapen_plan_rejected(self, vectors_shape, answers_shape):
        plan = (np.zeros(vectors_shape), np.zeros(answers_shape, dtype=int))
        with pytest.raises(DimensionError, match="shapes"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})
