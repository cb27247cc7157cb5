"""Simulator tests: exact sampling distributions, determinism, z-score sanity."""

import math

import numpy as np
import pytest

from qmoney import channels, cloners, linalg, schemes, simulator
from qmoney.exceptions import DimensionError


def _wiesner_config(trials=1_000_000, seed=7, repetitions=1):
    return simulator.TrialConfig(
        schemes.wiesner_ensemble(),
        cloners.wiesner_optimal_cloner(),
        trials,
        seed=seed,
        repetitions=repetitions,
    )


def _identity_first_clone():
    """Channel keeping the note on the first factor, |0><0| on the second."""
    kraus = np.zeros((4, 2), dtype=np.complex128)
    kraus[0, 0] = 1.0
    kraus[2, 1] = 1.0
    return channels.choi_from_kraus([kraus])


# The three attacks that draw one count per report, as (trials, seed) -> report.
NOTE_ATTACKS = {
    "quantum six-state x3": lambda trials, seed: simulator.simulate_quantum_attack(
        simulator.TrialConfig(
            schemes.six_state_ensemble(), cloners.buzek_hillery_cloner(),
            trials, seed=seed, repetitions=3,
        )
    ),
    "ticket:3 x2": lambda trials, seed: simulator.simulate_ticket_attack(
        simulator.TrialConfig(
            schemes.fourier_ticket_scheme(3), cloners.ticket_cloner(3),
            trials, seed=seed, repetitions=2,
        )
    ),
    "honest strict:3": lambda trials, seed: simulator.simulate_honest_verification(
        _strict_ticket_scheme(3), trials, seed=seed
    ),
}


class TestConfigAndReport:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            _wiesner_config(trials=0)
        with pytest.raises(ValueError):
            _wiesner_config(repetitions=0)
        with pytest.raises(ValueError, match="at most 2\\^63 - 1"):
            _wiesner_config(trials=2**63)
        with pytest.raises(ValueError):
            simulator.TrialReport(5, 4, None)

    def test_rejects_negative_seeds(self):
        message = "seed must be non-negative, got -1"
        with pytest.raises(ValueError, match=message):
            _wiesner_config(seed=-1)
        with pytest.raises(ValueError, match=message):
            simulator.simulate_honest_verification(
                schemes.fourier_ticket_scheme(2), 10, seed=-1
            )
        with pytest.raises(ValueError, match=message):
            simulator.simulate_bell_attack(2, 10, seed=-1)

    def test_report_says_what_ran(self):
        cfg = _wiesner_config(trials=131_073, seed=3)
        report = simulator.simulate_quantum_attack(cfg)
        assert report.batches == report.workers == simulator.worker_count() == 1
        assert report.seconds > 0.0
        assert report == simulator.simulate_quantum_attack(cfg)
        bell = simulator.simulate_bell_attack(2, 10, seed=1)
        assert (bell.batches, bell.workers) == (1, 1)

    def test_worker_count_ignores_the_environment(self, monkeypatch):
        """The simulator reads no thread setting: a report is the same draw on
        one thread whatever the environment asks for."""
        cfg = _wiesner_config(trials=300_000, seed=12)
        monkeypatch.delenv("QMONEY_THREADS", raising=False)
        plain = simulator.simulate_quantum_attack(cfg)
        monkeypatch.setenv("QMONEY_THREADS", "5")
        assert simulator.worker_count() == 1
        asked = simulator.simulate_quantum_attack(cfg)
        assert asked == plain and asked.workers == 1

    @pytest.mark.parametrize("attack", sorted(NOTE_ATTACKS))
    def test_a_note_attack_draws_once_at_its_analytic_rate(self, attack, monkeypatch):
        draws = _spy_on_draws(monkeypatch)
        report = NOTE_ATTACKS[attack](150_001, 4)
        assert draws == [(150_001, report.analytic)]
        assert abs(report.z_score) <= 5.0

    def test_standard_error_halves_when_trials_quadruple(self):
        a = simulator.TrialReport(300, 400, 0.75)
        b = simulator.TrialReport(1200, 1600, 0.75)
        assert b.standard_error == a.standard_error / 2.0

    def test_rates_derive_from_the_counts(self):
        report = simulator.TrialReport(3, 4, 0.5)
        assert report.empirical == 3 / 4
        assert report.z_score == (3 / 4 - 0.5) / report.standard_error

    def test_z_score_is_infinite_when_a_certain_rate_is_missed(self):
        assert simulator.TrialReport(3, 4, 1.0).z_score == -math.inf
        assert simulator.TrialReport(1, 4, 0.0).z_score == math.inf
        assert simulator.TrialReport(4, 4, 1.0).z_score == 0.0
        assert simulator.TrialReport(0, 4, 0.0).z_score == 0.0

class TestQuantumAttack:
    def test_optimal_cloner_matches_the_optimum(self):
        report = simulator.simulate_quantum_attack(_wiesner_config())
        assert report.analytic == pytest.approx(0.75, abs=1e-9)
        assert abs(report.z_score) <= 4.0

    def test_fixed_seed_is_reproducible(self):
        first = simulator.simulate_quantum_attack(_wiesner_config())
        second = simulator.simulate_quantum_attack(_wiesner_config())
        assert first == second

    def test_identity_first_clone_strategy(self):
        # Both clones pass iff the second verification projects |0><0| onto
        # the key state: probabilities 1, 0, 1/2, 1/2 over the four keys.
        strategy = _identity_first_clone()
        cfg = simulator.TrialConfig(
            schemes.wiesner_ensemble(), strategy, 400_000, seed=21
        )
        report = simulator.simulate_quantum_attack(cfg)
        assert report.analytic == pytest.approx(0.5, abs=1e-12)
        assert abs(report.z_score) <= 4.0

    def test_symmetric_cloner_in_dimension_three(self):
        rng = np.random.default_rng(5)
        vecs = []
        for _ in range(4):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            vecs.append(v / np.linalg.norm(v))
        ens = schemes.Ensemble(3, tuple((0.25, v) for v in vecs))
        cfg = simulator.TrialConfig(ens, cloners.werner_cloner(3), 400_000, seed=11)
        report = simulator.simulate_quantum_attack(cfg)
        assert report.analytic == pytest.approx(0.5, abs=1e-9)
        assert abs(report.z_score) <= 4.0

    def test_repetitions_multiply(self):
        report = simulator.simulate_quantum_attack(
            _wiesner_config(trials=200_000, seed=2, repetitions=2)
        )
        assert report.analytic == pytest.approx(0.5625, abs=1e-9)
        assert abs(report.z_score) <= 4.0
        six_state = simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.six_state_ensemble(), cloners.buzek_hillery_cloner(),
                196_619, seed=5, repetitions=3,
            )
        )
        assert six_state.analytic == pytest.approx((2 / 3) ** 3, abs=1e-12)
        assert abs(six_state.z_score) <= 5.0

    def test_keys_are_drawn_by_their_weights(self):
        """Unequal key weights and a key of weight 0: the count equals one
        binomial draw at the key-weighted mean of the rates found by applying
        the channel to each key."""
        s = 1.0 / math.sqrt(2.0)
        ensemble = schemes.Ensemble(2, (
            (0.6, np.array([1.0, 0.0])), (0.0, np.array([s, -1j * s])),
            (0.3, np.array([s, s])), (0.1, np.array([s, 1j * s])),
        ))
        strategy = cloners.wiesner_optimal_cloner()
        weights = np.array([w for w, _ in ensemble.items])
        rates = []
        for _, psi in ensemble.items:
            pair = np.kron(psi, psi)
            out = channels.apply_channel(strategy, np.outer(psi, psi.conj()))
            rates.append(np.real(pair.conj() @ out @ pair))
        rate = float(np.average(rates, weights=weights))
        trials = 131_077
        expected = np.random.Generator(np.random.SFC64(13)).binomial(trials, rate)
        report = simulator.simulate_quantum_attack(
            simulator.TrialConfig(ensemble, strategy, trials, seed=13)
        )
        assert report.successes == expected
        assert report.analytic == pytest.approx(0.9 * 0.75 + 0.1 / 3.0, abs=1e-12)
        assert abs(report.z_score) <= 5.0

    def test_rejects_mismatched_and_wrong_inputs(self):
        with pytest.raises(DimensionError):
            simulator.simulate_quantum_attack(
                simulator.TrialConfig(
                    schemes.wiesner_ensemble(), cloners.werner_cloner(3), 10
                )
            )
        with pytest.raises(TypeError):
            simulator.simulate_quantum_attack(
                simulator.TrialConfig(
                    schemes.fourier_ticket_scheme(2),
                    cloners.wiesner_optimal_cloner(),
                    10,
                )
            )
        with pytest.raises(TypeError):
            simulator.simulate_quantum_attack(
                simulator.TrialConfig(
                    schemes.wiesner_ensemble(), cloners.ticket_cloner(2), 10
                )
            )


class TestTicketAttack:
    @pytest.mark.parametrize("d", [2, 3])
    def test_optimal_strategy_matches_the_formula(self, d):
        cfg = simulator.TrialConfig(
            schemes.fourier_ticket_scheme(d),
            cloners.ticket_cloner(d),
            400_000,
            seed=3 + d,
        )
        report = simulator.simulate_ticket_attack(cfg)
        assert report.analytic == pytest.approx(
            0.75 + 0.25 / math.sqrt(d), abs=1e-10
        )
        assert abs(report.z_score) <= 4.0

    def test_fixed_seed_is_reproducible(self):
        cfg = simulator.TrialConfig(
            schemes.fourier_ticket_scheme(2), cloners.ticket_cloner(2), 100_000, seed=3
        )
        assert simulator.simulate_ticket_attack(cfg) == simulator.simulate_ticket_attack(cfg)

    def test_honest_verification_always_accepts(self):
        for d in range(2, 7):
            report = simulator.simulate_honest_verification(
                schemes.fourier_ticket_scheme(d), 200_000, seed=1
            )
            assert report.successes == report.trials
            assert report.empirical == 1.0
            assert report.analytic == 1.0
            assert report.z_score == 0.0

    def test_honest_rate_is_read_from_the_acceptance_table(self):
        # The strict predicate accepts only the key's index: certain when the
        # challenge names the key's basis, 1/3 otherwise.
        report = simulator.simulate_honest_verification(
            _strict_ticket_scheme(3), 300_001, seed=1
        )
        assert report.analytic == pytest.approx(2 / 3, abs=1e-12)
        assert abs(report.z_score) <= 5.0

    def test_rejects_mismatched_and_wrong_inputs(self):
        with pytest.raises(DimensionError):
            simulator.simulate_ticket_attack(
                simulator.TrialConfig(
                    schemes.fourier_ticket_scheme(2), cloners.ticket_cloner(3), 10
                )
            )
        with pytest.raises(TypeError):
            simulator.simulate_ticket_attack(
                simulator.TrialConfig(
                    schemes.wiesner_ensemble(), cloners.ticket_cloner(2), 10
                )
            )
        with pytest.raises(TypeError):
            simulator.simulate_ticket_attack(
                simulator.TrialConfig(
                    schemes.fourier_ticket_scheme(2),
                    cloners.wiesner_optimal_cloner(),
                    10,
                )
            )


class TestBellAttack:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, simulator.MAX_BELL_QUBITS])
    def test_first_note_rate_and_certain_second_note(self, n):
        # 2^40 trials leave about a million accepted notes even at 20 qubits.
        report = simulator.simulate_bell_attack(n, 2**40, seed=n)
        assert report.analytic == 0.5**n
        assert abs(report.z_score) <= 5.0
        assert report.conditional_rate == 1.0

    def test_fixed_seed_is_reproducible(self):
        assert simulator.simulate_bell_attack(2, 50_000, seed=4) == (
            simulator.simulate_bell_attack(2, 50_000, seed=4)
        )

    def test_first_verification_rate_is_the_submitted_halfs_overlap(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        submitted = linalg.partial_trace(np.outer(bell, bell), (2, 2), (0,))
        p_pass, p_second = simulator._bell_probabilities()
        for _, psi in schemes.wiesner_ensemble().items:
            # The overlap over both outcomes' weights: |+> has squared norm 1 - 2.2e-16.
            perp = np.array([-psi[1].conj(), psi[0].conj()])
            passed, failed = (np.real(v.conj() @ submitted @ v) for v in (psi, perp))
            assert passed / (passed + failed) == p_pass
        assert p_pass == 0.5
        np.testing.assert_array_equal(p_second, 1.0)

    def test_bell_rates_are_computed_once_and_read_only(self):
        rates = simulator._bell_probabilities()
        assert simulator._bell_probabilities() is rates
        with pytest.raises(ValueError, match="read-only"):
            rates[1][0] = 0.5

    def test_no_uniform_fails_a_retained_half(self):
        """For each of the four Wiesner keys, the retained half's rate lies above
        the largest uniform a 53-bit draw gives, so its verification never fails."""
        _, p_second = simulator._bell_probabilities()
        largest = 1.0 - 2.0**-53
        assert len(p_second) == 4
        assert all(largest < rate for rate in p_second.tolist())

    def test_second_verification_counts_failing_retained_halves(self, monkeypatch):
        """With retained-half rates below 1, the second verification fails some
        accepted trials, and its rate is the mean rate to the n."""
        monkeypatch.setattr(simulator, "_bell_probabilities",
                            lambda: (0.5, np.array([1.0, 0.5, 0.5, 1.0])))
        report = simulator.simulate_bell_attack(2, 400_000, seed=3)
        se = math.sqrt(0.5625 * 0.4375 / report.successes)
        assert abs(report.conditional_rate - 0.5625) <= 5.0 * se
        assert abs(report.z_score) <= 5.0

    def test_second_verification_draws_from_the_accepted_trials(self, monkeypatch):
        """The first draw is over every trial at 2^-n, the second over the
        accepted ones only, at the mean retained-half rate to the n."""
        draws = _spy_on_draws(monkeypatch)
        report = simulator.simulate_bell_attack(3, 300_001, seed=6)
        assert draws == [(300_001, 0.125), (report.successes, 1.0)]

    def test_no_accepted_trial_leaves_no_conditional_rate(self, monkeypatch):
        monkeypatch.setattr(simulator, "_bell_probabilities",
                            lambda: (0.0, np.array([1.0, 0.5, 0.5, 1.0])))
        report = simulator.simulate_bell_attack(2, 400_000, seed=3)
        assert report.successes == 0 and report.analytic == 0.0
        assert report.conditional_rate is None
        assert report.z_score == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulator.simulate_bell_attack(0, 100)
        with pytest.raises(ValueError):
            simulator.simulate_bell_attack(simulator.MAX_BELL_QUBITS + 1, 100)
        with pytest.raises(ValueError):
            simulator.simulate_bell_attack(2, 0)


def _strict_ticket_scheme(d):
    """Fourier ticket scheme accepting only the key's index, whatever the challenge."""
    return schemes.TicketScheme(
        schemes.fourier_ticket_scheme(d).pair, accept=lambda a, c, key: a == key[0]
    )


def _weighted_six_state():
    """The six-state keys with unequal weights, so keys are drawn by their CDF;
    the identity-first channel passes them at rates 1, 0 and 1/2."""
    weights = (0.3, 0.05, 0.2, 0.15, 0.1, 0.2)
    items = schemes.six_state_ensemble().items
    return schemes.Ensemble(2, tuple((w, psi) for w, (_, psi) in zip(weights, items)))


def _six_state_clone_rates():
    """The Buzek-Hillery cloner's pass rates over the six-state keys."""
    return channels.clone_rates(cloners.buzek_hillery_cloner(), schemes.six_state_ensemble())


GOLDEN = {
    "six-state x3": (
        lambda seed: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.six_state_ensemble(), cloners.buzek_hillery_cloner(),
                300_001, seed=seed, repetitions=3,
            )
        ),
        88782, None,
    ),
    "ticket:3 x2": (
        lambda seed: simulator.simulate_ticket_attack(
            simulator.TrialConfig(
                schemes.fourier_ticket_scheme(3), cloners.ticket_cloner(3),
                300_001, seed=seed, repetitions=2,
            )
        ),
        240046, None,
    ),
    "identity-first x2": (
        lambda seed: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.wiesner_ensemble(), _identity_first_clone(), 300_001, seed=seed,
                repetitions=2,
            )
        ),
        74899, None,
    ),
    "werner:3": (
        lambda seed: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.fourier_ticket_scheme(3).ensemble(), cloners.werner_cloner(3),
                200_000, seed=seed,
            )
        ),
        100096, None,
    ),
    "honest strict:3": (
        lambda seed: simulator.simulate_honest_verification(
            _strict_ticket_scheme(3), 300_001, seed=seed
        ),
        200111, None,
    ),
    "weighted six-state identity-first x2": (
        lambda seed: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                _weighted_six_state(), _identity_first_clone(), 300_001, seed=seed, repetitions=2
            )
        ),
        117074, None,
    ),
    # "six-state x3" with its equal key weights passed as row weights: their
    # weighted mean is the plain mean, so the count is the same.
    "six-state x3, equal row weights": (
        lambda seed: simulator._note_attack(
            300_001, seed, 3, _six_state_clone_rates(), np.full(6, 1.0 / 6.0),
        ),
        88782, None,
    ),
    "bell n=3": (lambda seed: simulator.simulate_bell_attack(3, 300_001, seed=seed), 37423, 1.0),
    "bell n=10": (lambda seed: simulator.simulate_bell_attack(10, 2_000_000, seed=seed), 1936, 1.0),
}


class TestGoldenCounts:
    """Success counts pinned to exact values: a report is one binomial draw
    from a generator seeded with its seed, at the analytic rate.  The
    identity-first channel passes each key with a different probability, so
    its counts also pin how the keys are weighted: uniformly for Wiesner, by
    their weights for the weighted six-state ensemble."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_success_count(self, case):
        run, successes, conditional = GOLDEN[case]
        report = run(1)
        assert report.successes == successes
        assert report.conditional_rate == conditional

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_z_spreads_as_a_standard_normal_over_seeds(self, case):
        """Over seeds 1-40, no |z| passes 4.5, the mean z is within four of its
        standard error and the sample variance lies in [0.5, 2]."""
        z = np.array([GOLDEN[case][0](seed).z_score for seed in range(1, 41)])
        assert np.abs(z).max() <= 4.5
        assert abs(z.mean()) * math.sqrt(len(z)) <= 4.0
        assert 0.5 <= z.var(ddof=1) <= 2.0


class TestSampling:
    def test_ticket_attack_past_256_rows(self):
        d = 33
        report = simulator.simulate_ticket_attack(
            simulator.TrialConfig(
                schemes.fourier_ticket_scheme(d), cloners.ticket_cloner(d), 50_000, seed=d
            )
        )
        assert report.analytic == pytest.approx(0.75 + 0.25 / math.sqrt(d), abs=1e-10)
        assert abs(report.z_score) <= 5.0

    @pytest.mark.parametrize("repetitions", [1, 2])
    def test_note_attack_decides_as_the_sampled_outcome(self, repetitions):
        """Drawing each note's row and then its outcome from that row, and
        looking the outcome up in the acceptance table, passes a trial at the
        note attack's analytic rate; on tables with zero bins, constant rows
        and rows whose first outcome is accepted or not."""
        gen = np.random.default_rng(5)
        trials = 200_003
        for n_rows in (7, 300):
            prob = gen.random((n_rows, 5))
            prob[1, 2:4] = 0.0
            prob[2, :2] = 0.0
            prob[3, 3:] = 0.0
            prob /= prob.sum(axis=1, keepdims=True)
            accept = gen.random((n_rows, 5)) < 0.5
            accept[4], accept[5] = True, False
            cdf = np.cumsum(prob, axis=1)
            cdf[:, -1] = 1.0
            row = gen.integers(0, n_rows, size=(trials, repetitions))
            u = gen.random((trials, repetitions))[..., None]
            outcome = np.count_nonzero(cdf[row, :-1] <= u, axis=-1)
            passed = np.count_nonzero(accept[row, outcome].all(axis=1))
            report = simulator._note_attack(trials, 8, repetitions, cloners.accepted_mass(prob, accept))
            sampled = simulator.TrialReport(passed, trials, report.analytic)
            assert abs(sampled.z_score) <= 5.0, n_rows
            assert abs(report.z_score) <= 5.0, n_rows

    def test_certain_rates_draw_every_trial_or_none_at_the_largest_count(self):
        trials = int(np.iinfo(np.int64).max)
        for mass, expected in ((np.ones(4), trials), (np.zeros(4), 0)):
            report = simulator._note_attack(trials, 3, 5, mass)
            assert report.successes == expected
            assert report.z_score == 0.0

    @pytest.mark.parametrize("attack", sorted(NOTE_ATTACKS) + ["bell n=20"])
    def test_largest_trial_count_is_drawn(self, attack):
        trials = int(np.iinfo(np.int64).max)
        if attack == "bell n=20":
            report = simulator.simulate_bell_attack(simulator.MAX_BELL_QUBITS, trials, seed=9)
            assert report.conditional_rate == 1.0
        else:
            report = NOTE_ATTACKS[attack](trials, 9)
        assert report.trials == trials
        assert abs(report.z_score) <= 5.0

    def test_rows_without_rejected_or_accepted_mass_are_decided_by_the_row(self):
        """A row whose rejected outcomes have probability 0 passes every draw,
        and one whose accepted outcomes have probability 0 passes none."""
        prob = np.array([[0.1, 0.2, 0.7, 0.0, 0.0], [0.0, 0.0, 0.1, 0.2, 0.7]])
        accept = np.array([[True, True, True, False, False], [True, True, False, False, False]])
        trials = 1_000_003
        for row, expected in ((0, trials), (1, 0)):
            mass = cloners.accepted_mass(prob[row:row + 1], accept[row])
            report = simulator._note_attack(trials, 2, 1, mass)
            assert report.successes == expected


def _spy_on_draws(monkeypatch):
    """Record the (count, probability) of each binomial draw a report makes."""
    draws, generator = [], np.random.Generator

    class Recorded:
        def __init__(self, bit_generator):
            self._rng = generator(bit_generator)

        def binomial(self, n, p):
            draws.append((n, p))
            return self._rng.binomial(n, p)

    monkeypatch.setattr(np.random, "Generator", Recorded)
    return draws


def _spy_on_masses(monkeypatch):
    """Record the pass probabilities each note attack draws from."""
    seen, note_attack = [], simulator._note_attack

    def spy(trials, seed, repetitions, mass, row_weights=None):
        seen.append(mass)
        return note_attack(trials, seed, repetitions, mass, row_weights)

    monkeypatch.setattr(simulator, "_note_attack", spy)
    return seen


class TestAnalyticRate:
    """The analytic rate is the exact rate of the table sampled: the mean (or
    weighted mean) of the rows' pass probabilities, raised to the number of
    notes, and those probabilities come from the module defining the attack."""

    @pytest.mark.parametrize("ensemble, weighted", [
        (schemes.wiesner_ensemble(), False), (_weighted_six_state(), True),
    ])
    def test_quantum_attack(self, ensemble, weighted, monkeypatch):
        seen = _spy_on_masses(monkeypatch)
        strategy = _identity_first_clone()
        report = simulator.simulate_quantum_attack(
            simulator.TrialConfig(ensemble, strategy, 1000, seed=2, repetitions=3)
        )
        (mass,) = seen
        np.testing.assert_array_equal(mass, channels.clone_rates(strategy, ensemble))
        weights = np.array([w for w, _ in ensemble.items]) if weighted else None
        assert report.analytic == float(np.average(mass, weights=weights)) ** 3

    def test_ticket_attack(self, monkeypatch):
        seen = _spy_on_masses(monkeypatch)
        scheme, strategy = schemes.fourier_ticket_scheme(3), cloners.ticket_cloner(3)
        report = simulator.simulate_ticket_attack(
            simulator.TrialConfig(scheme, strategy, 1000, seed=2, repetitions=2)
        )
        (mass,) = seen
        tables = cloners.outcome_tables(strategy, scheme)
        np.testing.assert_array_equal(mass, cloners.accepted_mass(*tables))
        assert report.analytic == float(mass.mean()) ** 2
        assert report.analytic == cloners.outcome_value(*tables) ** 2

    @pytest.mark.parametrize("scheme", [schemes.fourier_ticket_scheme(3), _strict_ticket_scheme(3)])
    def test_honest_verification(self, scheme, monkeypatch):
        seen = _spy_on_masses(monkeypatch)
        report = simulator.simulate_honest_verification(scheme, 1000, seed=2)
        (mass,) = seen
        assert report.analytic == float(mass.mean())


class TestTicketTables:
    """The outcome tables against direct evaluation, on a scheme with no symmetry."""

    PREDICATES = {
        "strict": lambda a, c, key: a == key[0],
        "default": schemes.default_accept,
    }

    @classmethod
    def _rotated_scheme(cls, d, seed, predicate):
        """Both bases of the Fourier scheme turned by one Haar-random unitary."""
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        haar = q * (np.diag(r) / np.abs(np.diag(r)))
        base = schemes.fourier_ticket_scheme(d).pair
        pair = schemes.BasisPair(d, haar @ base.basis0, haar @ base.basis1)
        return schemes.TicketScheme(pair, accept=cls.PREDICATES[predicate])

    @pytest.mark.parametrize("predicate", sorted(PREDICATES))
    @pytest.mark.parametrize("d", [2, 3])
    def test_simulated_analytic_rate_is_the_strategy_value(self, d, predicate):
        scheme = self._rotated_scheme(d, 11 + d, predicate)
        strategy = cloners.ticket_cloner(d)
        report = simulator.simulate_ticket_attack(
            simulator.TrialConfig(scheme, strategy, 20_000, seed=d)
        )
        value = cloners.evaluate_ticket_strategy(strategy, scheme)
        assert report.analytic == pytest.approx(value, abs=1e-12)
        direct = 0.0
        for (c1, c2), plan in strategy.plans.items():
            for key in scheme.keys():
                psi = scheme.key_state(key)
                for effect, (a1, a2) in zip(*plan):
                    if scheme.accept(a1, c1, key) and scheme.accept(a2, c2, key):
                        direct += np.real(psi.conj() @ effect @ psi) / (8 * d)
        assert value == pytest.approx(direct, abs=1e-12)
        assert abs(report.z_score) <= 5.0

    @pytest.mark.parametrize("predicate", sorted(PREDICATES))
    @pytest.mark.parametrize("d", [2, 3])
    def test_objective_blocks_match_a_per_key_loop(self, d, predicate):
        scheme = self._rotated_scheme(d, 21 + d, predicate)
        blocks, weights = schemes.classical_objective_blocks(scheme)
        assert weights == {(c1, c2): 0.25 for c1 in (0, 1) for c2 in (0, 1)}
        assert len(blocks) == 4 * d * d
        for (c1, c2, a1, a2), block in blocks.items():
            expected = np.zeros((d, d), dtype=np.complex128)
            for key in scheme.keys():
                if scheme.accept(a1, c1, key) and scheme.accept(a2, c2, key):
                    psi = scheme.key_state(key)
                    expected += np.outer(psi, psi.conj()) / (2 * d)
            np.testing.assert_allclose(block, expected, atol=1e-14)

    def test_short_plans_are_zero_padded(self):
        d = 3
        scheme = schemes.fourier_ticket_scheme(d)
        prob, accept = cloners.outcome_tables(cloners.ticket_cloner(d), scheme)
        assert prob.shape == accept.shape == (4, 2 * d, d * d)
        equal = [cloners.CHALLENGE_PAIRS.index((c, c)) for c in (0, 1)]
        assert not prob[equal, :, d:].any() and not accept[equal, :, d:].any()
        np.testing.assert_allclose(prob.sum(axis=2), 1.0, atol=1e-12)

    def test_out_of_range_answers_are_rejected(self):
        for answer in (2, -1):
            plan = (np.eye(2, dtype=np.complex128)[None], np.array([(0, answer)]))
            with pytest.raises(DimensionError, match=r"\[0, 2\)"):
                cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})
