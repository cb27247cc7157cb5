"""Standalone property suites.

Five families, each independent of the rest of the test tree: channel
validation (CP and TP recognition), weak duality along every solver
iterate, scale invariance of the solved and certified optimum, the Choi
quadratic-form identity on random channels and states, and honest-user
acceptance.
"""

import math

import numpy as np
import pytest

from qmoney import certificates, channels, cloners, linalg, schemes, sdp, simulator
from qmoney.exceptions import ChannelValidationError


def _random_kraus(rng, in_dim, out_dim, count):
    """A random Kraus family: isometry columns split into blocks."""
    count = max(count, -(-in_dim // out_dim))
    raw = rng.normal(size=(count * out_dim, in_dim)) + 1j * rng.normal(
        size=(count * out_dim, in_dim)
    )
    q, _ = np.linalg.qr(raw)
    return [q[i * out_dim : (i + 1) * out_dim] for i in range(count)]


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestChannelValidation:
    """Completely positive and trace preserving recognition."""

    @pytest.mark.parametrize("case", range(8))
    def test_random_kraus_channels_validate(self, case):
        rng = np.random.default_rng(9100 + case)
        in_dim = int(rng.integers(2, 5))
        out_dim = int(rng.integers(2, 5))
        kraus = _random_kraus(rng, in_dim, out_dim, int(rng.integers(1, 4)))
        choi = channels.choi_from_kraus(kraus)
        assert choi.in_dim == in_dim and choi.out_dim == out_dim
        assert linalg.min_eigenvalue(choi.matrix) > -1e-10
        reduced = linalg.partial_trace(
            choi.matrix, (out_dim, in_dim), (1,)
        )
        assert np.abs(reduced - np.eye(in_dim)).max() < 1e-10

    def test_non_positive_matrix_rejected(self):
        m = np.diag([1.5, -0.5, 1.0, 1.0]).astype(np.complex128)
        with pytest.raises(ChannelValidationError):
            channels.ChoiOperator(m, 2, 2)

    def test_trace_deficient_matrix_rejected(self):
        half = 0.5 * channels.choi_from_kraus([np.eye(2)]).matrix
        with pytest.raises(ChannelValidationError):
            channels.ChoiOperator(half, 2, 2)

    def test_incomplete_kraus_family_rejected(self):
        short = [np.eye(2, dtype=np.complex128) * 0.5]
        with pytest.raises(ChannelValidationError):
            channels.validate_kraus(short)


class TestWeakDuality:
    """Dual value stays above primal value on every recorded iterate."""

    def _problems(self):
        yield sdp.CloningSdp(
            schemes.cloning_objective(schemes.wiesner_ensemble()), dims=(2, 2, 2)
        )
        yield sdp.CloningSdp(
            schemes.cloning_objective(schemes.sic_qubit_ensemble()), dims=(2, 2, 2)
        )
        yield sdp.CloningSdp(schemes.symmetric_cloning_objective(3), dims=(3, 3, 3))
        rng = np.random.default_rng(515)
        items = tuple((0.25, _random_state(rng, 2)) for _ in range(4))
        yield sdp.CloningSdp(
            schemes.cloning_objective(schemes.Ensemble(2, items)), dims=(2, 2, 2)
        )

    @pytest.mark.usefixtures("interior_point")
    def test_every_iterate_keeps_weak_duality(self):
        for problem in self._problems():
            solution = sdp.solve(problem)
            assert solution.trace, "solver recorded no iterates"
            for stats in solution.trace:
                slack = stats.dual_value - stats.primal_value
                assert slack >= -1e-6, (
                    f"iterate {stats.iteration} violates weak duality by {slack:.3e}"
                )

    def test_final_gap_is_nonnegative_within_tolerance(self):
        for problem in self._problems():
            solution = sdp.solve(problem)
            assert solution.gap >= -1e-8


class TestScaleInvariance:
    """Scaling the objective by c scales the optimum by c and moves no verdict."""

    CLOSED_FORMS = {"wiesner": 0.75, "six-state": 2.0 / 3.0, "ticket:2": 0.75 + 0.25 / math.sqrt(2)}

    @staticmethod
    def _solved(name, scale):
        """The scaled problem and its solution; for ticket:2, the problem combining the
        challenge blocks and the blocks' solutions combined as ``analyze --output`` does."""
        if name == "ticket:2":
            blocks, weights = schemes.classical_objective_blocks(schemes.fourier_ticket_scheme(2))
            problems = [
                sdp.CloningSdp(scale * schemes.assemble_challenge_block(blocks, 2, *pair), (2,) * 3)
                for pair in cloners.CHALLENGE_PAIRS
            ]
            weights = [weights[pair] for pair in cloners.CHALLENGE_PAIRS]
            solutions = sdp.solve_block_diagonal(problems)
            pval = sum(w * s.primal_value for s, w in zip(solutions, weights))
            dval = sum(w * s.dual_value for s, w in zip(solutions, weights))
            return sdp.assemble_block_sdp(problems, weights), sdp.SdpSolution(
                linalg.direct_sum([s.primal_x for s in solutions], 4, 2),
                linalg.direct_sum([w * s.dual_y for s, w in zip(solutions, weights)], 1, 2),
                pval, dval, dval - pval, iterations=max(s.iterations for s in solutions),
            )
        ensemble = {"wiesner": schemes.wiesner_ensemble, "six-state": schemes.six_state_ensemble}
        problem = sdp.CloningSdp(scale * schemes.cloning_objective(ensemble[name]()), (2, 2, 2))
        return problem, sdp.solve(problem)

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("name", ["wiesner", "six-state", "ticket:2"])
    def test_scaled_objective_solves_to_the_scaled_closed_form(self, name, scale):
        problem, solution = self._solved(name, scale)
        expected = scale * self.CLOSED_FORMS[name]
        assert solution.iterations == 0
        assert abs(solution.primal_value - expected) <= 1e-9 * expected
        assert abs(solution.dual_value - expected) <= 1e-9 * expected
        if scale <= 1e4:  # the certifier's tolerance is absolute, so larger scales are not asked
            assert certificates.certify(solution.primal_x, solution.dual_y, problem).certified


class TestOutputOverlapIdentity:
    """<phi| Phi(|psi><psi|) |phi> equals the Choi form on phi (x) conj(psi)."""

    @pytest.mark.parametrize("case", range(12))
    def test_identity_on_random_channels_and_states(self, case):
        rng = np.random.default_rng(7300 + case)
        in_dim = int(rng.integers(2, 5))
        out_dim = int(rng.integers(2, 5))
        choi = channels.choi_from_kraus(
            _random_kraus(rng, in_dim, out_dim, int(rng.integers(1, 4)))
        )
        for _ in range(5):
            psi = _random_state(rng, in_dim)
            phi = _random_state(rng, out_dim)
            out = channels.apply_channel(choi, np.outer(psi, psi.conj()))
            direct = float(np.real(phi.conj() @ out @ phi))
            via_choi = channels.pair_with_conjugate(choi, phi, psi)
            assert abs(direct - via_choi) < 1e-12

    def test_identity_channel_gives_squared_overlap(self):
        rng = np.random.default_rng(7400)
        choi = channels.choi_from_kraus([np.eye(3)])
        for _ in range(10):
            psi = _random_state(rng, 3)
            phi = _random_state(rng, 3)
            expected = abs(np.vdot(phi, psi)) ** 2
            assert abs(channels.pair_with_conjugate(choi, phi, psi) - expected) < 1e-12


class TestHonestAcceptance:
    """A legitimate note passes verification with probability exactly 1."""

    @pytest.mark.parametrize(
        "ensemble",
        [schemes.wiesner_ensemble(), schemes.six_state_ensemble(), schemes.sic_qubit_ensemble()],
        ids=["wiesner", "six-state", "sic"],
    )
    def test_untouched_note_always_passes(self, ensemble):
        for _, psi in ensemble.items:
            fidelity = float(np.real(psi.conj() @ np.outer(psi, psi.conj()) @ psi))
            assert abs(fidelity - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_honest_answer_accepted_for_every_key_and_challenge(self, d):
        scheme = schemes.fourier_ticket_scheme(d)
        bases = (scheme.pair.basis0, scheme.pair.basis1)
        for key in scheme.keys():
            state = scheme.key_state(key)
            for challenge in (0, 1):
                amplitudes = np.abs(bases[challenge].conj().T @ state) ** 2
                accepted = sum(
                    p
                    for answer, p in enumerate(amplitudes)
                    if scheme.accept(answer, challenge, key)
                )
                assert abs(accepted - 1.0) < 1e-12

    def test_simulated_honest_verification_never_fails(self):
        report = simulator.simulate_honest_verification(
            schemes.fourier_ticket_scheme(3), 50_000, seed=8
        )
        assert report.successes == report.trials
