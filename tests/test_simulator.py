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


class TestConfigAndReport:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            _wiesner_config(trials=0)
        with pytest.raises(ValueError):
            _wiesner_config(repetitions=0)
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

    def test_report_says_what_ran(self, monkeypatch):
        cfg = _wiesner_config(trials=2 * simulator.BATCH_SIZE + 1, seed=3)
        monkeypatch.setenv("QMONEY_THREADS", "1")
        serial = simulator.simulate_quantum_attack(cfg)
        monkeypatch.setenv("QMONEY_THREADS", "2")
        threaded = simulator.simulate_quantum_attack(cfg)
        assert serial.batches == threaded.batches == 3
        assert serial.workers == 1
        assert threaded.workers == simulator.worker_count()
        assert serial.seconds > 0.0 and threaded.seconds > 0.0
        assert serial == threaded
        bell = simulator.simulate_bell_attack(2, 10, seed=1)
        assert (bell.batches, bell.workers) == (1, 1)

    def test_one_pool_task_per_worker(self, monkeypatch):
        """The pool gets at most one task per worker; each task runs its share
        of the batches, so the batch function still runs once per batch."""
        monkeypatch.setenv("QMONEY_THREADS", "3")
        tasks, sizes = [], []

        class Counted(simulator.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                tasks.append(1)
                return super().submit(*args, **kwargs)

        def batch(rng, count):
            sizes.append(count)
            return (count, 1)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", Counted)
        trials = 7 * simulator.BATCH_SIZE + 5
        counts, run = simulator._sum_batches(trials, 1, batch)
        assert counts == (trials, 8) and run["batches"] == 8
        assert sorted(sizes) == [5] + [simulator.BATCH_SIZE] * 7
        assert len(tasks) <= simulator.worker_count()

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

    def test_worker_count_respects_cap(self, monkeypatch):
        monkeypatch.delenv("QMONEY_THREADS", raising=False)
        assert simulator.worker_count() >= 1
        monkeypatch.setenv("QMONEY_THREADS", "2")
        assert simulator.worker_count() <= 2
        monkeypatch.setenv("QMONEY_THREADS", "0")
        assert simulator.worker_count() == 1
        monkeypatch.setenv("QMONEY_THREADS", "not-a-number")
        assert simulator.worker_count() >= 1


class TestQuantumAttack:
    def test_optimal_cloner_matches_the_optimum(self):
        report = simulator.simulate_quantum_attack(_wiesner_config())
        assert report.analytic == pytest.approx(0.75, abs=1e-9)
        assert abs(report.z_score) <= 4.0

    def test_fixed_seed_is_reproducible(self):
        first = simulator.simulate_quantum_attack(_wiesner_config())
        second = simulator.simulate_quantum_attack(_wiesner_config())
        assert first == second

    def test_report_is_independent_of_worker_count(self, monkeypatch):
        cfg = _wiesner_config(trials=300_000, seed=12)
        monkeypatch.setenv("QMONEY_THREADS", "1")
        serial = simulator.simulate_quantum_attack(cfg)
        monkeypatch.setenv("QMONEY_THREADS", "5")
        threaded = simulator.simulate_quantum_attack(cfg)
        assert serial == threaded

    def test_multi_note_report_is_independent_of_worker_count(self, monkeypatch):
        cfg = simulator.TrialConfig(
            schemes.six_state_ensemble(), cloners.buzek_hillery_cloner(),
            3 * simulator.BATCH_SIZE + 11, seed=5, repetitions=3,
        )
        reports = []
        for threads in ("1", "3"):
            monkeypatch.setenv("QMONEY_THREADS", threads)
            reports.append(simulator.simulate_quantum_attack(cfg))
        assert reports[0] == reports[1]
        assert reports[0].batches == 4
        assert abs(reports[0].z_score) <= 5.0

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

    def test_batch_remainder_path(self):
        cfg = _wiesner_config(trials=simulator.BATCH_SIZE + 1, seed=9)
        report = simulator.simulate_quantum_attack(cfg)
        assert report.trials == simulator.BATCH_SIZE + 1
        assert abs(report.z_score) <= 4.0

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_keys_are_drawn_by_their_weights(self, threads, monkeypatch):
        """Unequal key weights and a key of weight 0: the count equals a
        reference that draws each key by a right search of the weights' CDF
        and passes it with the rate found by applying the channel."""
        monkeypatch.setenv("QMONEY_THREADS", threads)
        s = 1.0 / math.sqrt(2.0)
        ensemble = schemes.Ensemble(2, (
            (0.6, np.array([1.0, 0.0])), (0.0, np.array([s, -1j * s])),
            (0.3, np.array([s, s])), (0.1, np.array([s, 1j * s])),
        ))
        strategy = cloners.wiesner_optimal_cloner()
        weights = np.array([w for w, _ in ensemble.items])
        key_cdf = np.cumsum(weights / weights.sum())
        rates = []
        for _, psi in ensemble.items:
            pair = np.kron(psi, psi)
            out = channels.apply_channel(strategy, np.outer(psi, psi.conj()))
            rates.append(np.real(pair.conj() @ out @ pair))
        rates = np.array(rates)

        def reference(rng, count):
            key = np.searchsorted(key_cdf[:-1], rng.random(count), side="right")
            return (int(np.count_nonzero(rng.random(count) < rates[key])),)

        trials = 2 * simulator.BATCH_SIZE + 5
        (expected,), _ = simulator._sum_batches(trials, 13, reference)
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
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_first_note_rate_and_certain_second_note(self, n):
        report = simulator.simulate_bell_attack(n, 100_000, seed=n)
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

    def test_no_uniform_fails_a_retained_half(self):
        """For each of the four Wiesner keys, the retained half's rate lies above
        the largest uniform a 53-bit draw gives, so its verification never fails."""
        _, p_second = simulator._bell_probabilities()
        largest = 1.0 - 2.0**-53
        assert len(p_second) == 4
        assert all(largest < rate for rate in p_second.tolist())

    @pytest.mark.parametrize("n", [1, simulator.MAX_BELL_QUBITS])
    def test_report_is_independent_of_worker_count(self, n, monkeypatch):
        trials = 3 * simulator.BATCH_SIZE + 7
        reports = []
        for threads in ("1", "3"):
            monkeypatch.setenv("QMONEY_THREADS", threads)
            reports.append(simulator.simulate_bell_attack(n, trials, seed=11))
        assert reports[0] == reports[1]
        assert abs(reports[0].z_score) <= 5.0

    def test_second_verification_counts_failing_retained_halves(self, monkeypatch):
        """With retained-half rates below 1, the second verification is drawn
        qubit by qubit and its rate is the product of the mean rates."""
        monkeypatch.setattr(simulator, "_bell_probabilities",
                            lambda: (0.5, np.array([1.0, 0.5, 0.5, 1.0])))
        report = simulator.simulate_bell_attack(2, 400_000, seed=3)
        se = math.sqrt(0.5625 * 0.4375 / report.successes)
        assert abs(report.conditional_rate - 0.5625) <= 5.0 * se
        assert abs(report.z_score) <= 5.0

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
        lambda: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.six_state_ensemble(), cloners.buzek_hillery_cloner(),
                300_001, seed=1, repetitions=3,
            )
        ),
        89097, None,
    ),
    "ticket:3 x2": (
        lambda: simulator.simulate_ticket_attack(
            simulator.TrialConfig(
                schemes.fourier_ticket_scheme(3), cloners.ticket_cloner(3),
                300_001, seed=1, repetitions=2,
            )
        ),
        240333, None,
    ),
    "identity-first x2": (
        lambda: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.wiesner_ensemble(), _identity_first_clone(), 300_001, seed=1,
                repetitions=2,
            )
        ),
        75403, None,
    ),
    "werner:3": (
        lambda: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                schemes.fourier_ticket_scheme(3).ensemble(), cloners.werner_cloner(3),
                200_000, seed=1,
            )
        ),
        100516, None,
    ),
    "honest strict:3": (
        lambda: simulator.simulate_honest_verification(
            _strict_ticket_scheme(3), 300_001, seed=1
        ),
        200571, None,
    ),
    "weighted six-state identity-first x2": (
        lambda: simulator.simulate_quantum_attack(
            simulator.TrialConfig(
                _weighted_six_state(), _identity_first_clone(), 300_001, seed=1, repetitions=2
            )
        ),
        117213, None,
    ),
    # "six-state x3" with its equal key weights drawn by their CDF, one
    # uniform per row, instead of one uniform integer.
    "six-state x3, keys by CDF": (
        lambda: simulator._note_attack(
            300_001, 1, 3, _six_state_clone_rates(), np.full(6, 1.0 / 6.0),
        ),
        88779, None,
    ),
    "bell n=3": (lambda: simulator.simulate_bell_attack(3, 300_001, seed=1), 37530, 1.0),
    "bell n=10": (lambda: simulator.simulate_bell_attack(10, 2_000_000, seed=1), 1980, 1.0),
}


class TestGoldenCounts:
    """Success counts pinned to exact values: the sampling kernels may get
    faster, but a trial is decided from the same draws in the same order.
    Trial counts of 300,001 leave a remainder batch; the identity-first
    channel passes each key with a different probability, so its counts also
    pin which key each draw picks: uniformly for Wiesner, by the weights' CDF
    for the weighted six-state ensemble."""

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_success_count(self, case, threads, monkeypatch):
        monkeypatch.setenv("QMONEY_THREADS", threads)
        run, successes, conditional = GOLDEN[case]
        report = run()
        assert report.successes == successes
        assert report.conditional_rate == conditional


class TestSampling:
    def test_uniform_rows_take_a_dtype_that_holds_the_last_row(self):
        # ticket:33's attack table has 4 challenge pairs x 66 keys = 264 rows,
        # more than uint8 holds.
        rows = 4 * len(schemes.fourier_ticket_scheme(33).key_states())
        assert rows == 264
        drawn = simulator._uniform_rows(np.random.default_rng(3), 20_000, rows)
        assert drawn.dtype == np.uint16
        assert drawn.min() == 0 and drawn.max() == rows - 1
        assert simulator._uniform_rows(np.random.default_rng(3), 10, 256).dtype == np.uint8

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
        """The kernel's accepted mass gives the same count as drawing the
        outcome from each row enumerated accepted-first and looking it up, on
        tables with zero bins, constant rows and rows whose first outcome is
        accepted or not.  The 300-row table's rows are drawn as uint16, and
        each must pick its own mass."""
        gen = np.random.default_rng(5)
        trials = simulator.BATCH_SIZE + 999
        for n_rows in (7, 300):
            prob = gen.random((n_rows, 5))
            prob[1, 2:4] = 0.0
            prob[2, :2] = 0.0
            prob[3, 3:] = 0.0
            prob /= prob.sum(axis=1, keepdims=True)
            accept = gen.random((n_rows, 5)) < 0.5
            accept[4], accept[5] = True, False
            order = np.argsort(~accept, axis=1, kind="stable")
            ordered = np.take_along_axis(prob, order, axis=1)
            cdf = np.cumsum(ordered / ordered.sum(axis=1, keepdims=True), axis=1)
            cdf[:, -1] = 1.0
            accept_first = np.take_along_axis(accept, order, axis=1)

            def reference(rng, count):
                alive = count  # note j is drawn for the trials that passed notes 0..j-1
                for _ in range(repetitions):
                    row = simulator._uniform_rows(rng, alive, len(cdf))
                    u = rng.random(alive)[:, None]
                    outcome = np.count_nonzero(cdf[row, :-1] <= u, axis=1)
                    alive = int(np.count_nonzero(accept_first[row, outcome]))
                return (alive,)

            (expected,), _ = simulator._sum_batches(trials, 8, reference)
            mass = cloners.accepted_mass(prob, accept)
            report = simulator._note_attack(trials, 8, repetitions, mass)
            assert report.successes == expected, n_rows

    def test_survivors_draw_nothing_that_cannot_fail(self):
        """A table of mass 1 leaves the stream untouched, as does a batch
        whose trials all failed an earlier note."""
        rng, fresh = (np.random.Generator(np.random.SFC64(3)) for _ in range(2))
        assert simulator._survivors(np.ones(4), 5)(rng, 1000) == 1000
        assert simulator._survivors(np.array([0.5, 1.0]), 3)(rng, 0) == 0
        assert rng.random() == fresh.random()

    def test_survivors_stop_drawing_once_no_trial_is_alive(self):
        """A million notes at pass rate 1/2 fail 1,000 trials within a few dozen
        notes; the kernel then stops, instead of drawing empty notes to the end."""

        class CountingRng:
            def __init__(self):
                self.rng, self.calls = np.random.Generator(np.random.SFC64(5)), 0

            def random(self, *args, **kwargs):
                self.calls += 1
                return self.rng.random(*args, **kwargs)

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        rng = CountingRng()
        assert simulator._survivors(np.array([0.5]), 10**6)(rng, 1000) == 0
        assert 0 < rng.calls <= 200

    def test_rows_without_rejected_or_accepted_mass_are_decided_by_the_row(self):
        """A row whose rejected outcomes have probability 0 passes every draw,
        and one whose accepted outcomes have probability 0 passes none."""
        prob = np.array([[0.1, 0.2, 0.7, 0.0, 0.0], [0.0, 0.0, 0.1, 0.2, 0.7]])
        accept = np.array([[True, True, True, False, False], [True, True, False, False, False]])
        trials = simulator.BATCH_SIZE + 3
        for row, expected in ((0, trials), (1, 0)):
            mass = cloners.accepted_mass(prob[row:row + 1], accept[row])
            report = simulator._note_attack(trials, 2, 1, mass)
            assert report.successes == expected

    def test_one_gather_per_batch_whatever_the_table_width(self, monkeypatch):
        """One batch of the 9-outcome ticket:3 table calls np.take once."""
        scheme, strategy = schemes.fourier_ticket_scheme(3), cloners.ticket_cloner(3)
        assert cloners.outcome_tables(strategy, scheme)[0].shape[-1] == 9
        take, calls = np.take, []

        def counted(*args, **kwargs):
            calls.append(1)
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counted)
        report = simulator.simulate_ticket_attack(
            simulator.TrialConfig(scheme, strategy, simulator.BATCH_SIZE, seed=4)
        )
        assert report.batches == 1
        assert len(calls) == 1

    def test_batch_buffers_serve_one_call_only(self, monkeypatch):
        """Calls that differ in repetitions and trial count, remainder batches
        included, interleaved in one thread: each report equals a fresh call's."""
        monkeypatch.setenv("QMONEY_THREADS", "1")
        shapes = [(123, 3), (simulator.BATCH_SIZE + 77, 3), (5_000, 1),
                  (2 * simulator.BATCH_SIZE, 2), (simulator.BATCH_SIZE - 1, 1)]

        def run(trials, repetitions):
            return simulator.simulate_quantum_attack(
                _wiesner_config(trials=trials, seed=trials, repetitions=repetitions)
            )

        fresh = {shape: run(*shape) for shape in shapes}
        for shape in shapes[::-1] + shapes[1::2] + shapes[::2]:
            assert run(*shape) == fresh[shape]

    def test_sample_rows_matches_a_per_row_bisection(self):
        rng = np.random.default_rng(4)
        prob = rng.random((4, 6))
        prob[1, 2:4] = 0.0  # zero-probability bins inside a row
        prob[2, :2] = 0.0  # leading zero bins
        prob[3, 4:] = 0.0  # trailing zero bins
        cdf = np.cumsum(prob / prob.sum(axis=1, keepdims=True), axis=1)
        cdf[:, -1] = 1.0
        for p, cdf_row in zip(prob, cdf):
            u = rng.random(1000)
            # Draws lying exactly on a threshold, including a zero bin's; a
            # threshold of 1 is never drawn, since draws lie in [0, 1).
            on = cdf_row[rng.integers(0, 5, size=40)]
            u[:40] = np.where(on < 1.0, on, u[:40])
            u[40:45] = 0.0
            got = simulator._sample_rows(cdf_row, u)
            np.testing.assert_array_equal(got, np.searchsorted(cdf_row[:-1], u, side="right"))
            assert np.all(p[got] > 0.0)


def _spy_on_masses(monkeypatch):
    """Record the pass probabilities each survivor kernel is built on."""
    seen, survivors = [], simulator._survivors

    def spy(mass, repetitions, row_cdf=None):
        seen.append(mass)
        return survivors(mass, repetitions, row_cdf)

    monkeypatch.setattr(simulator, "_survivors", spy)
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
                for effect, (a1, a2) in plan:
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
        scheme = schemes.fourier_ticket_scheme(2)
        plan = ((np.eye(2, dtype=np.complex128), (0, 2)),)
        strategy = cloners.TicketStrategy(2, {p: plan for p in cloners.CHALLENGE_PAIRS})
        with pytest.raises(DimensionError):
            cloners.outcome_tables(strategy, scheme)
