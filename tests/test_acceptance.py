"""Acceptance gate: one test per numbered criterion, tolerances pinned inline.

Run with -v to get exactly one PASSED/FAILED line per criterion.  Criterion 3
asserts, among certified pairs that do hold, that the four-state and
six-state objectives coincide entrywise; they do not (the gap is exactly
sqrt(2)/18), so that line stays red by design.  Both ensembles still share
the optimal value 2/3, certified by the same dual, which the criterion's
other clauses verify.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from qmoney import (
    certificates,
    channels,
    cloners,
    composition,
    linalg,
    schemes,
    sdp,
    simulator,
)


def _problem(ensemble):
    d = ensemble.dim
    return sdp.CloningSdp(schemes.cloning_objective(ensemble), dims=(d, d, d))


def _random_states(seed, dim, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append(v / np.linalg.norm(v))
    return out


def _clone_fidelity(choi, psi):
    return channels.pair_with_conjugate(choi, np.kron(psi, psi), psi)


def test_criterion_01_wiesner_solve_value_gap_runtime():
    start = time.perf_counter()
    solution = sdp.solve(_problem(schemes.wiesner_ensemble()))
    elapsed = time.perf_counter() - start
    assert abs(solution.primal_value - 0.75) <= 1e-6
    assert abs(solution.gap) <= 1e-7
    assert elapsed < 1.0


def test_criterion_02_objective_norms():
    wiesner = schemes.cloning_objective(schemes.wiesner_ensemble())
    assert abs(linalg.operator_norm(wiesner) - 3.0 / 8.0) <= 1e-10
    six = schemes.cloning_objective(schemes.six_state_ensemble())
    assert abs(linalg.operator_norm(six) - 1.0 / 3.0) <= 1e-10
    for d in range(2, 6):
        q = schemes.symmetric_cloning_objective(d)
        assert abs(linalg.operator_norm(q) - 2.0 / (d * (d + 1))) <= 1e-10, d


def test_criterion_03_analytic_certificate_suite():
    wiesner_problem = _problem(schemes.wiesner_ensemble())
    x = cloners.wiesner_optimal_cloner().matrix
    report = certificates.certify(x, 0.375 * np.eye(2), wiesner_problem, tol=1e-9)
    assert report.certified and abs(report.primal_value - 0.75) <= 1e-12

    bh = cloners.buzek_hillery_cloner().matrix
    for ensemble in (schemes.six_state_ensemble(), schemes.sic_qubit_ensemble()):
        report = certificates.certify(
            bh, np.eye(2) / 3.0, _problem(ensemble), tol=1e-9
        )
        assert report.certified and abs(report.primal_value - 2.0 / 3.0) <= 1e-12

    six = schemes.cloning_objective(schemes.six_state_ensemble())
    sic = schemes.cloning_objective(schemes.sic_qubit_ensemble())
    difference = np.abs(sic - six).max()
    assert difference <= 1e-12, (
        f"the two objectives share the value 2/3 (certified above) but differ "
        f"entrywise by {difference:.12f} = sqrt(2)/18; exact entrywise equality "
        f"is unattainable"
    )


def test_criterion_04_state_independent_qubit_fidelity():
    bh = cloners.buzek_hillery_cloner()
    deviations = [
        abs(_clone_fidelity(bh, psi) - 2.0 / 3.0)
        for psi in _random_states(424242, 2, 100)
    ]
    assert max(deviations) <= 1e-10


def test_criterion_05_higher_dimensional_cloner():
    for d in range(2, 7):
        cloner = cloners.werner_cloner(d)
        deviations = [
            abs(_clone_fidelity(cloner, psi) - 2.0 / (d + 1))
            for psi in _random_states(1000 + d, d, 50)
        ]
        assert max(deviations) <= 1e-9, d
    for d in (2, 3):
        problem = sdp.CloningSdp(
            schemes.symmetric_cloning_objective(d), dims=(d, d, d)
        )
        solution = sdp.solve(problem)
        assert abs(solution.primal_value - 2.0 / (d + 1)) <= 1e-6, d


def test_criterion_06_two_fold_product():
    single = _problem(schemes.wiesner_ensemble())
    doubled = composition.repeated_sdp([single, single])
    solution = sdp.solve(doubled)
    assert abs(solution.primal_value - 9.0 / 16.0) <= 1e-5

    x = cloners.wiesner_optimal_cloner().matrix
    y = 0.375 * np.eye(2)
    big_x, big_y = composition.tensor_certificates([x, x], [y, y], [single, single])
    report = certificates.certify(big_x, big_y, doubled, tol=1e-6)
    assert report.certified
    assert abs(report.primal_value - 9.0 / 16.0) <= 1e-5


def test_criterion_07_threshold_machinery():
    assert composition.threshold_value(0.75, 3, 2) == 27.0 / 32.0
    ensemble = schemes.wiesner_ensemble()
    for n, t in ((2, 1), (2, 2)):
        lhs, rhs = composition.verify_r_norm(ensemble, n, t)
        assert abs(lhs - rhs) <= 1e-9, (n, t)
    solution = sdp.solve(composition.threshold_sdp(ensemble, 2, 1))
    assert abs(solution.primal_value - 15.0 / 16.0) <= 1e-5


def test_criterion_08_classical_verification():
    scheme = schemes.fourier_ticket_scheme(2)
    blocks, weights = schemes.classical_objective_blocks(scheme)
    problems = []
    wts = []
    for c1, c2 in cloners.CHALLENGE_PAIRS:
        q = schemes.assemble_challenge_block(blocks, 2, c1, c2)
        problems.append(sdp.CloningSdp(q, dims=(2, 2, 2)))
        wts.append(weights[(c1, c2)])
    solutions = sdp.solve_block_diagonal(problems, wts)
    value = sum(w * s.primal_value for s, w in zip(solutions, wts))
    assert abs(value - (0.75 + math.sqrt(2.0) / 8.0)) <= 1e-6

    for d in range(2, 6):
        scheme_d = schemes.fourier_ticket_scheme(d)
        c = schemes.effective_overlap(scheme_d.pair)
        blocks_d, _ = schemes.classical_objective_blocks(scheme_d)
        q = schemes.assemble_challenge_block(blocks_d, d, 0, 1)
        problem = sdp.CloningSdp(q, dims=(d, d, d))
        y = (1.0 + math.sqrt(c)) / (2.0 * d) * np.eye(d)
        check = certificates.check_dual(y, problem)
        assert check.feasible, d
        assert abs(check.value - (1.0 + math.sqrt(c)) / 2.0) <= 1e-12, d

    witnesses = schemes.classical_primal_witness(scheme)
    blocks2, _ = schemes.classical_objective_blocks(scheme)
    q01 = schemes.assemble_challenge_block(blocks2, 2, 0, 1)
    problem01 = sdp.CloningSdp(q01, dims=(2, 2, 2))
    y01 = (1.0 + math.sqrt(0.5)) / 4.0 * np.eye(2)
    report = certificates.certify(witnesses[(0, 1)], y01, problem01, tol=1e-9)
    assert report.certified
    assert abs(report.primal_value - (1.0 + math.sqrt(0.5)) / 2.0) <= 1e-12


def test_criterion_09_ticket_cloner_formula_and_povm():
    for d in range(2, 7):
        strategy = cloners.ticket_cloner(d)
        value = cloners.evaluate_ticket_strategy(
            strategy, schemes.fourier_ticket_scheme(d)
        )
        assert abs(value - (0.75 + 0.25 / math.sqrt(d))) <= 1e-10, d
        eye = np.eye(d)
        for pair, plan in strategy.plans.items():
            vectors, _ = plan
            total = sum(np.outer(v, v.conj()) for v in vectors)
            assert np.abs(total - eye).max() <= 1e-10, (d, pair)


def test_criterion_10_monte_carlo_agreement():
    start = time.perf_counter()
    wiesner_cfg = simulator.TrialConfig(
        schemes.wiesner_ensemble(),
        cloners.wiesner_optimal_cloner(),
        1_000_000,
        seed=7,
    )
    wiesner_report = simulator.simulate_quantum_attack(wiesner_cfg)
    assert abs(wiesner_report.z_score) <= 5.0

    werner_cfg = simulator.TrialConfig(
        schemes.fourier_ticket_scheme(3).ensemble(),
        cloners.werner_cloner(3),
        1_000_000,
        seed=11,
    )
    werner_report = simulator.simulate_quantum_attack(werner_cfg)
    assert abs(werner_report.analytic - 0.5) <= 1e-9
    assert abs(werner_report.z_score) <= 5.0

    ticket_cfg = simulator.TrialConfig(
        schemes.fourier_ticket_scheme(2),
        cloners.ticket_cloner(2),
        1_000_000,
        seed=3,
    )
    ticket_report = simulator.simulate_ticket_attack(ticket_cfg)
    assert abs(ticket_report.analytic - (0.75 + 0.25 / math.sqrt(2.0))) <= 1e-10
    assert abs(ticket_report.z_score) <= 5.0

    assert simulator.simulate_quantum_attack(wiesner_cfg) == wiesner_report
    assert simulator.simulate_ticket_attack(ticket_cfg) == ticket_report
    assert time.perf_counter() - start < 60.0


def test_criterion_11_bell_attack():
    for n in (1, 2, 3, 4):
        report = simulator.simulate_bell_attack(n, 100_000, seed=n)
        assert report.analytic == 0.5**n
        assert abs(report.z_score) <= 5.0, n
        assert report.conditional_rate == 1.0, n


def test_criterion_12_property_suites_standalone():
    suite = Path(__file__).with_name("test_properties.py")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=str(suite.parent.parent),
    )
    assert result.returncode == 0, result.stdout + result.stderr
