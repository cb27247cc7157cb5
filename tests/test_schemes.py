"""Tests for scheme constructions, objective operators, and scheme files."""

import itertools
import json
import math

import numpy as np
import pytest

from qmoney import linalg, schemes
from qmoney.exceptions import DimensionError, FileFormatError


def random_ensemble(rng, d, count):
    weights = rng.dirichlet(np.ones(count))
    items = []
    for w in weights:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        items.append((float(w), v / np.linalg.norm(v)))
    return schemes.Ensemble(d, tuple(items))


def test_wiesner_ensemble_basics():
    e = schemes.wiesner_ensemble()
    assert e.dim == 2 and len(e.items) == 4
    np.testing.assert_allclose(e.average_state(), np.eye(2) / 2, atol=1e-14)


def test_six_state_ensemble_basics():
    e = schemes.six_state_ensemble()
    assert len(e.items) == 6
    np.testing.assert_allclose(e.average_state(), np.eye(2) / 2, atol=1e-14)


def test_sic_pairwise_overlaps():
    """All pairs of distinct tetrahedron states have squared overlap exactly 1/3."""
    e = schemes.sic_qubit_ensemble()
    vecs = [v for _, v in e.items]
    for i, j in itertools.combinations(range(4), 2):
        overlap = abs(np.vdot(vecs[i], vecs[j])) ** 2
        assert overlap == pytest.approx(1.0 / 3.0, abs=1e-13)
    np.testing.assert_allclose(e.average_state(), np.eye(2) / 2, atol=1e-13)


def test_cloning_objective_shape_and_trace():
    q = schemes.cloning_objective(schemes.wiesner_ensemble())
    assert q.shape == (8, 8)
    np.testing.assert_allclose(np.trace(q).real, 1.0, atol=1e-13)
    assert linalg.min_eigenvalue(q) >= -1e-12


def test_wiesner_objective_norm():
    q = schemes.cloning_objective(schemes.wiesner_ensemble())
    assert linalg.operator_norm(q) == pytest.approx(3.0 / 8.0, abs=1e-12)


def test_six_state_objective_norm():
    q = schemes.cloning_objective(schemes.six_state_ensemble())
    assert linalg.operator_norm(q) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_objective_partial_trace_is_transposed_average(seed):
    """Tracing the clone factors from the objective leaves the transposed average state."""
    rng = np.random.default_rng(seed)
    e = random_ensemble(rng, 3, 5)
    q = schemes.cloning_objective(e)
    reduced = linalg.partial_trace(q, (3, 3, 3), [2])
    np.testing.assert_allclose(reduced, e.average_state().T, atol=1e-12)
    np.testing.assert_allclose(np.trace(q).real, 1.0, atol=1e-12)


def test_symmetric_objective_matches_six_state():
    """For qubits the six-state objective equals the symmetric-subspace objective."""
    direct = schemes.cloning_objective(schemes.six_state_ensemble())
    built = schemes.symmetric_cloning_objective(2)
    np.testing.assert_allclose(direct, built, atol=1e-12)


def test_sic_objective_norm_matches_six_state():
    """The SIC objective has the same norm 1/3, hence the same optimal value."""
    a = schemes.cloning_objective(schemes.sic_qubit_ensemble())
    b = schemes.cloning_objective(schemes.six_state_ensemble())
    assert linalg.operator_norm(a) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert linalg.operator_norm(b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(np.trace(a).real, np.trace(b).real, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_symmetric_objective_norm(d):
    q = schemes.symmetric_cloning_objective(d)
    assert linalg.operator_norm(q) == pytest.approx(2.0 / (d * (d + 1)), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fourier_ticket_scheme_overlap(d):
    """Computational and Fourier bases are unbiased: effective overlap 1/d."""
    scheme = schemes.fourier_ticket_scheme(d)
    assert schemes.effective_overlap(scheme.pair) == pytest.approx(1.0 / d, abs=1e-13)
    cross = np.abs(scheme.pair.basis0.conj().T @ scheme.pair.basis1) ** 2
    np.testing.assert_allclose(cross, np.full((d, d), 1.0 / d), atol=1e-13)


def test_ticket_ensemble_average_state():
    scheme = schemes.fourier_ticket_scheme(3)
    np.testing.assert_allclose(scheme.ensemble().average_state(), np.eye(3) / 3, atol=1e-13)


def overlap_block(scheme, s, t):
    """The rank-two block |e_s^0><e_s^0| + |e_t^1><e_t^1| of the mixed-challenge objective."""
    u = scheme.pair.vector(s, 0)
    v = scheme.pair.vector(t, 1)
    return linalg.as_hermitian(np.outer(u, u.conj()) + np.outer(v, v.conj()))


@pytest.mark.parametrize("d", [2, 3])
def test_overlap_block_eigenvalues(d):
    """Each mixed-challenge block has eigenvalues 1 +- |<e_s^0|e_t^1>|."""
    scheme = schemes.fourier_ticket_scheme(d)
    for s in range(d):
        for t in range(d):
            block = overlap_block(scheme, s, t)
            overlap = abs(np.vdot(scheme.pair.vector(s, 0), scheme.pair.vector(t, 1)))
            w = linalg.eigenvalues(block)
            assert w[-1] == pytest.approx(1.0 + overlap, abs=1e-12)
            nonzero = w[np.abs(w) > 1e-12]
            assert nonzero[0] == pytest.approx(1.0 - overlap, abs=1e-12)


def test_classical_blocks_mixed_challenges_match_overlap_blocks():
    """For challenges (0, 1) the (s, t) block is the overlap block over 2d."""
    scheme = schemes.fourier_ticket_scheme(2)
    blocks, weights = schemes.classical_objective_blocks(scheme)
    d = scheme.dim
    for s in range(d):
        for t in range(d):
            np.testing.assert_allclose(
                blocks[(0, 1, s, t)], overlap_block(scheme, s, t) / (2 * d), atol=1e-13
            )
    assert weights[(0, 1)] == pytest.approx(0.25)
    assert sum(weights.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3])
def test_classical_blocks_weighted_trace(d):
    """The weighted objective trace equals the valid-answer count (1+d)^2/4."""
    scheme = schemes.fourier_ticket_scheme(d)
    blocks, weights = schemes.classical_objective_blocks(scheme)
    total = 0.0
    for (c1, c2, _, _), block in blocks.items():
        total += weights[(c1, c2)] * np.trace(block).real
    # Counting oracle: each key contributes (d if challenge misses its basis
    # else 1) valid answers per challenge, key probability 1/(2d).
    expected = 0.0
    for b in (0, 1):
        for _ in range(d):
            key_total = 0.0
            for c1 in (0, 1):
                for c2 in (0, 1):
                    key_total += 0.25 * (1 if c1 == b else d) * (1 if c2 == b else d)
            expected += key_total / (2 * d)
    assert expected == pytest.approx((1 + d) ** 2 / 4)
    assert total == pytest.approx(expected, abs=1e-12)


def test_assemble_challenge_block_structure():
    scheme = schemes.fourier_ticket_scheme(2)
    blocks, _ = schemes.classical_objective_blocks(scheme)
    big = schemes.assemble_challenge_block(blocks, 2, 0, 1)
    assert big.shape == (8, 8)
    tensor = big.reshape(2, 2, 2, 2, 2, 2)
    for a1, a2, b1, b2 in itertools.product(range(2), repeat=4):
        sub = tensor[a1, a2, :, b1, b2, :]
        if (a1, a2) == (b1, b2):
            np.testing.assert_allclose(sub, blocks[(0, 1, a1, a2)], atol=1e-14)
        else:
            np.testing.assert_allclose(sub, 0, atol=1e-14)


def test_key_states_and_accept_table_follow_key_order():
    base = schemes.fourier_ticket_scheme(3)
    strict = schemes.TicketScheme(base.pair, accept=lambda a, c, key: a == key[0])
    for scheme in (base, strict):
        keys = scheme.keys()
        states = scheme.key_states()
        table = scheme.accept_table()
        assert states.shape == (6, 3) and table.shape == (2, 3, 6) and table.dtype == bool
        for k, key in enumerate(keys):
            np.testing.assert_array_equal(states[k], scheme.key_state(key))
            for c, a in itertools.product((0, 1), range(3)):
                assert table[c, a, k] == scheme.accept(a, c, key)


def test_custom_accept_predicate():
    """A stricter predicate shrinks the objective blocks."""
    base = schemes.fourier_ticket_scheme(2)
    strict = schemes.TicketScheme(base.pair, accept=lambda a, c, key: a == key[0])
    blocks, _ = schemes.classical_objective_blocks(strict)
    loose_blocks, _ = schemes.classical_objective_blocks(base)
    for key in blocks:
        diff = linalg.as_hermitian(loose_blocks[key] - blocks[key])
        assert linalg.min_eigenvalue(diff) >= -1e-12


def test_scheme_file_roundtrip_ensemble(tmp_path):
    path = tmp_path / "scheme.json"
    original = schemes.six_state_ensemble()
    schemes.save_scheme(str(path), original)
    loaded = schemes.load_scheme(str(path))
    assert isinstance(loaded, schemes.Ensemble)
    assert loaded.dim == 2
    np.testing.assert_allclose(
        schemes.cloning_objective(loaded), schemes.cloning_objective(original), atol=1e-15
    )


def test_scheme_file_roundtrip_ticket(tmp_path):
    path = tmp_path / "ticket.json"
    original = schemes.fourier_ticket_scheme(3)
    schemes.save_scheme(str(path), original)
    loaded = schemes.load_scheme(str(path))
    assert isinstance(loaded, schemes.TicketScheme)
    np.testing.assert_allclose(loaded.pair.basis1, original.pair.basis1, atol=1e-15)


def test_scheme_file_field_names(tmp_path):
    """The file uses exactly the documented field names."""
    path = tmp_path / "scheme.json"
    schemes.save_scheme(str(path), schemes.wiesner_ensemble())
    data = json.loads(path.read_text())
    assert set(data) == {"dimension", "states"}
    assert set(data["states"][0]) == {"weight", "amplitudes"}
    assert data["states"][0]["amplitudes"][0] == [1.0, 0.0]


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        '{"states": []}',
        '{"dimension": 2}',
        '{"dimension": -1, "states": [{"weight": 1.0, "amplitudes": [[1,0],[0,0]]}]}',
        '{"dimension": 2, "states": [{"weight": 1.0}]}',
        '{"dimension": 2, "states": [{"weight": 1.0, "amplitudes": [[1,0]]}]}',
        '{"dimension": 2, "states": [{"weight": 0.5, "amplitudes": [[1,0],[0,0]]}]}',
        '{"dimension": 2, "basis0": [[[1,0],[0,0]],[[0,0],[1,0]]]}',
        '{"dimension": 2, "states": [], "basis0": [], "basis1": []}',
        "not json at all",
    ],
)
def test_scheme_file_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(FileFormatError):
        schemes.load_scheme(str(path))


def test_ensemble_validation():
    with pytest.raises(DimensionError):
        schemes.Ensemble(2, ((1.0, np.array([1.0, 1.0])),))  # not normalized
    with pytest.raises(DimensionError):
        schemes.Ensemble(2, ((0.4, np.array([1.0, 0.0])),))  # weights sum below 1
    with pytest.raises(DimensionError):
        schemes.Ensemble(2, ((math.nan, np.array([1.0, 0.0])), (1.0, np.array([0.0, 1.0]))))
    with pytest.raises(DimensionError):
        schemes.Ensemble(2, ((1.0, np.array([math.nan, 0.0])),))
    with pytest.raises(DimensionError):
        schemes.BasisPair(2, np.eye(2), np.array([[math.nan, 0.0], [0.0, 1.0]]))


class TestClassicalPrimalWitness:
    def test_fourier_witness_values(self):
        scheme = schemes.fourier_ticket_scheme(2)
        blocks, weights = schemes.classical_objective_blocks(scheme)
        witnesses = schemes.classical_primal_witness(scheme)
        total = 0.0
        for (c1, c2), x in witnesses.items():
            q = schemes.assemble_challenge_block(blocks, 2, c1, c2)
            value = float(np.real(np.trace(q @ x)))
            expected = 1.0 if c1 == c2 else (1.0 + math.sqrt(0.5)) / 2.0
            assert abs(value - expected) < 1e-12
            total += weights[(c1, c2)] * value
        assert abs(total - (0.75 + math.sqrt(2.0) / 8.0)) < 1e-12

    def test_witness_blocks_are_feasible(self):
        scheme = schemes.fourier_ticket_scheme(2)
        for x in schemes.classical_primal_witness(scheme).values():
            reduced = linalg.partial_trace(x, (2, 2, 2), keep=(2,))
            assert np.abs(reduced - np.eye(2)).max() < 1e-10
            assert linalg.min_eigenvalue(x) > -1e-12

    def test_witness_handles_relabeled_bases(self):
        # A random second basis moves the best answer pair away from (0, 0);
        # the construction must still achieve 3/4 + sqrt(c)/4 overall.
        rng = np.random.default_rng(97)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        unitary, _ = np.linalg.qr(raw)
        scheme = schemes.TicketScheme(schemes.BasisPair(2, np.eye(2), unitary))
        c = schemes.effective_overlap(scheme.pair)
        blocks, weights = schemes.classical_objective_blocks(scheme)
        total = 0.0
        for (c1, c2), x in schemes.classical_primal_witness(scheme).items():
            q = schemes.assemble_challenge_block(blocks, 2, c1, c2)
            total += weights[(c1, c2)] * float(np.real(np.trace(q @ x)))
        assert abs(total - (0.75 + math.sqrt(c) / 4.0)) < 1e-10

    def test_witness_requires_dimension_two(self):
        with pytest.raises(DimensionError):
            schemes.classical_primal_witness(schemes.fourier_ticket_scheme(3))
