"""Attack-construction tests: channel values, Pauli algebra, ticket measurements."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qmoney import channels, cloners, linalg, schemes
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
        effects, answers = strategy.plans[(0, 1)]
        assert effects.shape == (d * d, d, d) and answers.shape == (d * d, 2)
        scaled = effects * d
        # each scaled effect is a rank-1 projector
        assert np.abs(scaled @ scaled - scaled).max() < 1e-10
        assert np.abs(np.trace(scaled, axis1=1, axis2=2) - 1.0).max() < 1e-10
        assert np.abs(effects.sum(axis=0) - np.eye(d)).max() <= 1e-10

    @pytest.mark.parametrize("d", range(2, 9))
    def test_mixed_plans_match_per_outcome_outer_products(self, d):
        """Both mixed plans hold the d^2 effects |v><v|/d, bit for bit as
        np.outer builds them one at a time, with v = shift^s phase^t psi."""
        shift, phase = cloners.pauli_operators(d)
        psi = cloners._ticket_state(d)
        eye = np.eye(d, dtype=np.complex128)
        shifts = list(itertools.accumulate([shift] * (d - 1), np.matmul, initial=eye))
        phases = list(itertools.accumulate([phase] * (d - 1), np.matmul, initial=eye))
        plans = cloners.ticket_cloner(d).plans
        for k, (s, t) in enumerate(np.ndindex(d, d)):
            v = shifts[s] @ phases[t] @ psi
            reference = np.outer(v, v.conj()) / d
            for pair, answers in (((0, 1), (s, t)), ((1, 0), (t, s))):
                effects, got = plans[pair]
                assert tuple(got[k]) == answers
                assert effects[k].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equal_challenge_plans_match_np_outer(self, d):
        """Each equal-challenge plan holds |v><v| for the challenged basis's vectors v,
        bit for bit as np.outer builds them, and repeats the outcome to both verifiers."""
        pair = schemes.fourier_ticket_scheme(d).pair
        plans = cloners.ticket_cloner(d).plans
        for c in (0, 1):
            effects, answers = plans[(c, c)]
            np.testing.assert_array_equal(answers, [(t, t) for t in range(d)])
            for t in range(d):
                v = pair.vector(t, c)
                assert effects[t].tobytes() == np.outer(v, v.conj()).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_each_effect_is_proved_positive_once(self, d, monkeypatch):
        """The mixed plans share one effects array, so validation proves its d^2
        effects positive once plus the d of each equal-challenge plan, counted as
        matrices over the slices that ``bounded_below`` is handed."""
        proved = []
        bounded_below = linalg.bounded_below
        monkeypatch.setattr(
            linalg, "bounded_below",
            lambda m, bound: proved.append(math.prod(np.shape(m)[:-2])) or bounded_below(m, bound),
        )
        plans = cloners.ticket_cloner(d).plans
        assert plans[(0, 1)][0] is plans[(1, 0)][0]
        assert sum(proved) == d * d + 2 * d

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
    """Measure in one basis and repeat the outcome: ``(effects, answers)``."""
    d = scheme.dim
    vecs = [scheme.pair.vector(t, basis) for t in range(d)]
    return (np.array([np.outer(v, v.conj()) for v in vecs]),
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


def _einsum_outcome_probabilities(strategy, scheme):
    """The Born probabilities of :func:`cloners.outcome_tables` by a direct
    three-operand contraction, as a reference."""
    states = scheme.key_states()
    longest = max(len(effects) for effects, _ in strategy.plans.values())
    prob = np.zeros((len(cloners.CHALLENGE_PAIRS), len(states), longest))
    for ci, pair in enumerate(cloners.CHALLENGE_PAIRS):
        effects, _ = strategy.plans[pair]
        prob[ci, :, : len(effects)] = np.einsum(
            "ki,mij,kj->km", states.conj(), effects, states
        ).real
    return prob


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
        prob, _ = cloners.outcome_tables(strategy, scheme)
        # Each entry sums d^2 products of magnitude at most 1 in another order.
        np.testing.assert_allclose(
            prob, _einsum_outcome_probabilities(strategy, scheme),
            rtol=0, atol=d * d * np.finfo(float).eps,
        )


    def test_a_plan_is_checked_and_contracted_without_a_copy_of_it(self):
        """Building the d = 40 strategy and its tables peaks below 1.5 times the
        16 d^4 bytes of the shared effect table: positivity goes through bounded
        slices, and the products read the table in place, not a second whole-plan
        array."""
        d = 40
        scheme = schemes.fourier_ticket_scheme(d)
        tracemalloc.start()
        try:
            cloners.outcome_tables(cloners.ticket_cloner(d), scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * d**4


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
        vec = np.array([1.0, 0.0])
        plan = (np.outer(vec, vec)[None], np.array([(0, 0)]))
        with pytest.raises(ChannelValidationError):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    def test_non_positive_effect_shared_by_two_plans_rejected(self):
        scheme = schemes.fourier_ticket_scheme(2)
        good = _repeat_basis_plan(scheme, 0)
        bad = (np.array([np.eye(2) * 1.5, np.eye(2) * -0.5]), np.array([(0, 0), (1, 1)]))
        plans = {(0, 0): good, (0, 1): bad, (1, 0): bad, (1, 1): good}
        with pytest.raises(ChannelValidationError, match=r"\(0, 1\).*positive"):
            cloners.TicketStrategy(2, plans)

    @pytest.mark.parametrize("stack_bytes", [1, 16 * 4 * 2, 2**20])
    def test_non_positive_effect_in_any_stack_rejected(self, stack_bytes, monkeypatch):
        """A non-positive effect among positive ones is rejected whichever stack it lands in."""
        monkeypatch.setattr(cloners, "STACK_BYTES", stack_bytes)
        scheme = schemes.fourier_ticket_scheme(2)
        good = _repeat_basis_plan(scheme, 0)
        bad = (np.array([np.eye(2) * w for w in (0.5, 0.5, 0.5, -0.5)]),
               np.zeros((4, 2), dtype=int))
        plans = {(0, 0): good, (0, 1): good, (1, 0): bad, (1, 1): good}
        with pytest.raises(ChannelValidationError, match=r"\(1, 0\).*positive"):
            cloners.TicketStrategy(2, plans)

    def test_non_positive_effect_rejected(self):
        good = np.eye(2) * 1.5
        bad = np.eye(2) * -0.5
        plan = (np.array([good, bad]), np.array([(0, 0), (1, 1)]))
        with pytest.raises(ChannelValidationError):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    def test_bool_answers_rejected(self):
        """Bool answers would index the acceptance table as a mask: the basis-0 repeat
        strategy at d = 2 would score 0.625 instead of 13/16."""
        effects, answers = _repeat_basis_plan(schemes.fourier_ticket_scheme(2), 0)
        plan = (effects, answers.astype(bool))
        with pytest.raises(DimensionError, match="integers"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    def test_float_answers_rejected(self):
        effects, answers = _repeat_basis_plan(schemes.fourier_ticket_scheme(2), 0)
        plan = (effects, answers.astype(float))
        with pytest.raises(DimensionError, match="integers"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    @pytest.mark.parametrize("outcomes", [1, 2])
    def test_old_tuple_of_pairs_plan_rejected(self, outcomes):
        """The format before plans were arrays: a tuple of (effect, answer pair) pairs."""
        plan = tuple((np.eye(2) / outcomes, (k, k)) for k in range(outcomes))
        with pytest.raises(DimensionError, match=r"challenges \(0, 0\) is not two arrays"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})

    def test_plan_of_lists_is_stored_as_arrays(self):
        effects, answers = _repeat_basis_plan(schemes.fourier_ticket_scheme(2), 0)
        plan = (effects.tolist(), answers.tolist())
        strategy = cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})
        for stored_effects, stored_answers in strategy.plans.values():
            np.testing.assert_array_equal(stored_effects, effects)
            np.testing.assert_array_equal(stored_answers, answers)
            assert np.issubdtype(stored_answers.dtype, np.integer)
        as_arrays = cloners.TicketStrategy(2, {p: (effects, answers)
                                               for p in cloners.CHALLENGE_PAIRS})
        scheme = schemes.fourier_ticket_scheme(2)
        assert cloners.evaluate_ticket_strategy(strategy, scheme) == \
            cloners.evaluate_ticket_strategy(as_arrays, scheme)

    @pytest.mark.parametrize("effects_shape, answers_shape", [
        ((2, 2, 2), (3, 2)), ((2, 2, 3), (2, 2)), ((2, 4), (2, 2)), ((2, 2, 2), (2,)),
    ])
    def test_misshapen_plan_rejected(self, effects_shape, answers_shape):
        plan = (np.zeros(effects_shape), np.zeros(answers_shape, dtype=int))
        with pytest.raises(DimensionError, match="shapes"):
            cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})
