"""Tests for Choi operators, Kraus families, and success probabilities."""

import math

import numpy as np
import pytest

from qmoney import channels, linalg, schemes
from qmoney.exceptions import ChannelValidationError, DimensionError


def random_tp_kraus(rng, in_dim, out_dim, count):
    """Random trace-preserving Kraus family via Ginibre blocks and whitening."""
    blocks = [
        rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
        for _ in range(count)
    ]
    gram = sum(b.conj().T @ b for b in blocks)
    w, v = np.linalg.eigh(gram)
    whitener = (v / np.sqrt(w)) @ v.conj().T
    return [b @ whitener for b in blocks]


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_identity_choi():
    """The identity channel's Choi operator is the unnormalized maximally entangled projector."""
    choi = channels.choi_from_kraus([np.eye(2)])
    expected = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            expected[2 * i + i, 2 * j + j] = 1.0
    np.testing.assert_allclose(choi.matrix, expected, atol=1e-14)
    assert choi.in_dim == choi.out_dim == 2


def test_choi_trace_equals_input_dimension():
    rng = np.random.default_rng(0)
    choi = channels.choi_from_kraus(random_tp_kraus(rng, 3, 4, 2))
    np.testing.assert_allclose(np.trace(choi.matrix).real, 3.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_apply_channel_matches_kraus_action(seed):
    """Applying through the Choi operator agrees with direct Kraus conjugation."""
    rng = np.random.default_rng(seed)
    kraus = random_tp_kraus(rng, 3, 2, 3)
    choi = channels.choi_from_kraus(kraus)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    expected = sum(a @ rho @ a.conj().T for a in kraus)
    np.testing.assert_allclose(channels.apply_channel(choi, rho), expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_output_overlap_identity(seed):
    """The Choi quadratic form with conjugated input equals the direct output overlap."""
    rng = np.random.default_rng(100 + seed)
    in_dim, out_dim = 3, 4
    choi = channels.choi_from_kraus(random_tp_kraus(rng, in_dim, out_dim, 2))
    psi = random_state(rng, in_dim)
    phi = random_state(rng, out_dim)
    out = channels.apply_channel(choi, np.outer(psi, psi.conj()))
    direct = float(np.real(phi.conj() @ out @ phi))
    assert channels.pair_with_conjugate(choi, phi, psi) == pytest.approx(direct, abs=1e-12)


def test_apply_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(11)
    choi = channels.choi_from_kraus(random_tp_kraus(rng, 2, 4, 3))
    psi = random_state(rng, 2)
    out = channels.apply_channel(choi, np.outer(psi, psi.conj()))
    np.testing.assert_allclose(np.trace(out).real, 1.0, atol=1e-11)
    assert linalg.min_eigenvalue(linalg.as_hermitian(out)) >= -1e-10


def test_success_probability_identity_times_fixed_second_clone():
    """Copy-nothing attack: keep the note, append |0>.  Wiesner value is 1/2."""
    append_zero = np.array(
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=np.complex128
    )
    choi = channels.choi_from_kraus([append_zero])
    value = channels.success_probability(choi, schemes.wiesner_ensemble())
    # Per state: |<psi|psi>|^2 * |<psi|0>|^2, averaging to (1 + 0 + 1/2 + 1/2)/4.
    assert value == pytest.approx(0.5, abs=1e-12)


def test_success_probability_affine_in_weights():
    """Success probability is affine in the ensemble weights."""
    rng = np.random.default_rng(21)
    kraus = random_tp_kraus(rng, 2, 4, 2)
    choi = channels.choi_from_kraus(kraus)
    states = [random_state(rng, 2) for _ in range(3)]
    singles = [
        channels.success_probability(choi, schemes.Ensemble(2, ((1.0, s),))) for s in states
    ]
    weights = rng.dirichlet(np.ones(3))
    mixed = schemes.Ensemble(2, tuple((float(w), s) for w, s in zip(weights, states)))
    expected = float(np.dot(weights, singles))
    assert channels.success_probability(choi, mixed) == pytest.approx(expected, abs=1e-12)


def test_success_probability_equals_objective_pairing():
    """The success probability is the inner product of the objective with the Choi matrix."""
    rng = np.random.default_rng(22)
    choi = channels.choi_from_kraus(random_tp_kraus(rng, 2, 4, 3))
    ensemble = schemes.six_state_ensemble()
    objective = schemes.cloning_objective(ensemble)
    expected = float(np.real(np.trace(objective @ choi.matrix)))
    assert channels.success_probability(choi, ensemble) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "ensemble", [schemes.wiesner_ensemble(), schemes.six_state_ensemble(),
                 schemes.Ensemble(2, ((0.3, np.array([1.0, 0.0])), (0.7, np.array([0.6, 0.8j]))))],
)
def test_weights_times_clone_rates_are_the_success_probability(ensemble):
    choi = channels.choi_from_kraus(random_tp_kraus(np.random.default_rng(23), 2, 4, 2))
    rates = channels.clone_rates(choi, ensemble)
    weights = np.array([w for w, _ in ensemble.items])
    assert rates.shape == (len(ensemble.items),)
    assert np.all((0.0 <= rates) & (rates <= 1.0))
    assert weights @ rates == channels.success_probability(choi, ensemble)


def test_clone_rates_are_the_per_state_output_overlaps():
    """Each rate is <psi psi| Phi(|psi><psi|) |psi psi>, by applying the channel."""
    rng = np.random.default_rng(24)
    choi = channels.choi_from_kraus(random_tp_kraus(rng, 2, 4, 3))
    ensemble = schemes.six_state_ensemble()
    for rate, (_, psi) in zip(channels.clone_rates(choi, ensemble), ensemble.items):
        target = np.kron(psi, psi)
        out = channels.apply_channel(choi, np.outer(psi, psi.conj()))
        assert rate == pytest.approx(float(np.real(target.conj() @ out @ target)), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_a_stack_of_inputs_is_applied_one_by_one(seed):
    rng = np.random.default_rng(200 + seed)
    choi = channels.choi_from_kraus(random_tp_kraus(rng, 3, 2, 3))
    rhos = np.array([np.outer(psi, psi.conj()) for psi in (random_state(rng, 3) for _ in range(5))])
    stacked = channels.apply_channel(choi, rhos.reshape(5, 1, 3, 3))
    assert stacked.shape == (5, 1, 2, 2)
    for out, rho in zip(stacked[:, 0], rhos):
        np.testing.assert_allclose(out, channels.apply_channel(choi, rho), rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_clone_rates_are_the_one_state_pairings(seed):
    """The stacked quadratic form gives, state by state, what the one-state call gives."""
    rng = np.random.default_rng(300 + seed)
    choi = channels.choi_from_kraus(random_tp_kraus(rng, 2, 4, 2))
    ensemble = schemes.Ensemble(2, tuple((0.2, random_state(rng, 2)) for _ in range(5)))
    for rate, (_, psi) in zip(channels.clone_rates(choi, ensemble), ensemble.items):
        assert rate == pytest.approx(
            channels.pair_with_conjugate(choi, np.kron(psi, psi), psi), abs=1e-15
        )


def test_clone_rates_refuse_routes_that_disagree_at_one_state(monkeypatch):
    """An applied-channel route off at the third state only is refused, naming its rates."""
    choi = channels.choi_from_kraus([np.kron(np.eye(2), [[1.0], [0.0]])])  # append |0>
    apply_channel = channels.apply_channel

    def skewed(c, rho):
        out = apply_channel(c, rho)
        out[2] += 1e-9 * np.eye(4)
        return out

    monkeypatch.setattr(channels, "apply_channel", skewed)
    with pytest.raises(ChannelValidationError, match=r"routes disagree: 0\.500000000999\d* vs 0\.(5|49999)"):
        channels.clone_rates(choi, schemes.wiesner_ensemble())


def test_clone_rates_dimension_check():
    choi = channels.choi_from_kraus([np.eye(2, dtype=np.complex128)])
    with pytest.raises(DimensionError):
        channels.clone_rates(choi, schemes.wiesner_ensemble())


def test_kraus_completeness_rejected():
    with pytest.raises(ChannelValidationError):
        channels.choi_from_kraus([np.eye(2) * 0.5])


def test_kraus_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        channels.choi_from_kraus([np.eye(2), np.zeros((3, 2))])


def test_choi_rejects_non_positive():
    mat = np.diag([1.0, 1.0, 1.0, -0.5]).astype(np.complex128)
    with pytest.raises(ChannelValidationError):
        channels.ChoiOperator(matrix=mat, in_dim=2, out_dim=2)


def test_choi_rejects_non_trace_preserving():
    mat = np.diag([1.0, 0.0, 0.0, 0.5]).astype(np.complex128)
    with pytest.raises(ChannelValidationError):
        channels.ChoiOperator(matrix=mat, in_dim=2, out_dim=2)


def test_choi_accepts_roundoff_sized_defects():
    mat = channels.choi_from_kraus([np.eye(2)]).matrix + np.diag([1e-10, 0, 0, -1e-10])
    channels.ChoiOperator(matrix=mat, in_dim=2, out_dim=2)


def test_apply_channel_dimension_check():
    choi = channels.choi_from_kraus([np.eye(2)])
    with pytest.raises(DimensionError):
        channels.apply_channel(choi, np.eye(3))
