"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  All tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from qca1d import (
    RuleTable,
    check_infinite,
    check_periodic,
    deterministic_sector,
    det_factorization_check,
    enumerate_cycles,
    evaluate_condition,
    evolve,
    frame_rule,
    global_matrix,
    inner,
    is_permutation_matrix,
    make_family,
    monomial_of,
    pair_graph,
    parity_transform,
    path_monomials,
    patt_rule,
    probabilities,
    quantize,
    random_params,
    random_state,
    rule_graph,
    state_transpose,
    trace_series,
    transfer_matrix,
    unitarity_defect,
    z_polynomial,
)
from conftest import F21_00_SAMPLE, F21_SAMPLE
from test_transfer import MONOMIALS_K3_N3, MONOMIALS_K3_N4, MONOMIALS_K2_N2, mono


def report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s")


def periodic_samples():
    rng = np.random.default_rng(20240801)
    samples = []
    for family in ("f21", "f31", "f30"):
        for _ in range(100):
            samples.append((family, make_family(family, random_params(family, rng))))
    return samples


def infinite_samples():
    rng = np.random.default_rng(20240802)
    samples = []
    for family, sector in (("f21_00", {(0, 0)}),
                           ("f31_000", {(0, 0, 0)}),
                           ("f31_000_111", {(0, 0, 0), (1, 1, 1)})):
        for _ in range(100):
            samples.append((family, make_family(family, random_params(family, rng, margin=0.1)),
                            sector))
    return samples


def test_criterion_1_constraint_lists():
    started = time.perf_counter()
    rule2 = make_family("f21", F21_SAMPLE)
    rule3 = make_family("f31", {"r1": 1.2, "r2": 0.7, "r6": 1.4})

    g2 = rule_graph(rule2)
    cycles2 = enumerate_cycles(g2)
    assert {monomial_of(g2, c) for c in cycles2} == {mono(0), mono(3), mono(1, 2)}
    assert len(cycles2) == 3

    g3 = rule_graph(rule3)
    cycles3 = enumerate_cycles(g3)
    assert {monomial_of(g3, c) for c in cycles3} == {
        mono(0), mono(7), mono(2, 5), mono(1, 2, 4), mono(3, 6, 5), mono(1, 3, 6, 4)}
    assert len(cycles3) == 6

    assert path_monomials(rule2, 1)[-1] == []
    assert set(path_monomials(rule2, 2)[-1]) == MONOMIALS_K2_N2
    assert len(path_monomials(rule2, 2)[-1]) == 4

    n3 = path_monomials(rule3, 3)[-1]
    n4 = path_monomials(rule3, 4)[-1]
    assert set(n3) == MONOMIALS_K3_N3 and len(n3) == 16
    assert set(n4) == MONOMIALS_K3_N4 and len(n4) == 32
    report(1, "constraint lists", started, 1.0)


def test_criterion_2_generating_functions():
    started = time.perf_counter()
    rule2 = make_family("f21", F21_SAMPLE)
    w = [inner(rule2, c, c).real for c in rule2.configs()]
    z1 = z_polynomial(transfer_matrix(rule_graph(rule2)))
    np.testing.assert_allclose(
        z1, [1.0, -(w[0] + w[3]), w[0] * w[3] - w[1] * w[2]], atol=1e-9)

    rng = np.random.default_rng(24)
    expect = np.array([1, 0, -1, -2, -1], dtype=complex)
    for family in ("f31", "f30"):
        for _ in range(5):
            rule = make_family(family, random_params(family, rng))
            z2 = z_polynomial(transfer_matrix(pair_graph(rule), "simplified"))
            padded = np.zeros(17, dtype=complex)
            padded[: len(z2)] = z2
            np.testing.assert_allclose(padded[:5], expect, atol=1e-9)
            assert np.max(np.abs(padded[5:])) <= 1e-9

    for matrix in (transfer_matrix(rule_graph(rule2)),
                   transfer_matrix(pair_graph(rule2), "simplified"),
                   np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]):
        coeffs = trace_series(matrix, 8)
        power = np.eye(matrix.shape[0], dtype=complex)
        for n in range(1, 9):
            power = power @ matrix
            assert abs(coeffs[n] - np.trace(power)) <= 1e-9 * max(1.0, abs(np.trace(power)))
    report(2, "generating functions", started, 5.0)


def test_criterion_3_family_soundness_periodic():
    started = time.perf_counter()
    for family, rule in periodic_samples():
        assert check_periodic(rule).unitary, family
        sizes = (2, 3, 4) if rule.k == 2 else (3, 4)
        for n in sizes:
            assert unitarity_defect(global_matrix(rule, n)) <= 1e-8, (family, n)
    report(3, "periodic family soundness, 300 draws", started, 60.0)


def test_criterion_4_family_soundness_infinite():
    started = time.perf_counter()
    for family, rule, sector in infinite_samples():
        assert deterministic_sector(rule) == sector, family
        assert check_infinite(rule).unitary, family
    report(4, "infinite family soundness, 300 draws", started, 60.0)


def test_criterion_5_negative_detection():
    started = time.perf_counter()
    base = make_family("f21", F21_SAMPLE)
    for row in range(4):
        for col in range(2):
            amps = base.amplitudes.copy()
            amps[row, col] += 1e-3
            rule = RuleTable(2, 2, amps)
            verdict = check_periodic(rule)
            assert not verdict.unitary and verdict.reports
            assert unitarity_defect(global_matrix(rule, 4)) > 1e-5

    rule = make_family("f21_00", dict(F21_00_SAMPLE, theta=np.pi / 2))
    verdict = check_infinite(rule)
    assert not verdict.unitary
    assert {r.condition for r in verdict.reports} == {"I-v"}
    witness = verdict.reports[0].witness
    assert witness == ("scalar", (1,), (0, 0), (0, 0))
    assert verdict.reports[0].value == pytest.approx(rule.amplitude(0, "10"))
    report(5, "negative detection", started, 30.0)


def test_criterion_6_surjectivity_machinery():
    started = time.perf_counter()
    rng = np.random.default_rng(26)
    for _ in range(20):
        params = random_params("f21_00", rng, margin=0.1)
        rule = make_family("f21_00", params)
        f1 = restricted = np.array(
            [[1.0, 0.0],
             [0.0, np.exp(1j * (params["phi1"] + params["alpha"])) * np.cos(params["theta"])]])
        from qca1d import restricted_evolution

        np.testing.assert_allclose(
            restricted_evolution(rule, "00", "00", "00", 1), f1, atol=1e-9)
        for n in (1, 2, 3):
            assert det_factorization_check(rule, "00", "00", "00", n)
    report(6, "surjectivity machinery", started, 10.0)


def test_criterion_7_frame_condition():
    started = time.perf_counter()
    rng = np.random.default_rng(27)
    q, k = 2, 4
    for draw in range(50):
        j = 1 + draw % 3
        vectors = {}
        for gamma_idx in range(q**j):
            gamma = tuple(int(b) for b in np.binary_repr(gamma_idx, j))
            th, ph = rng.uniform(0, 2 * np.pi, 2)
            b0 = np.array([np.cos(th), np.exp(1j * ph) * np.sin(th)])
            basis = (b0, np.array([-np.conj(b0[1]), b0[0]]))
            for tail_idx in range(q ** (k - j)):
                tail = tuple(int(b) for b in np.binary_repr(tail_idx, k - j))
                cfg = gamma + tail
                scale = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                vec = scale * basis[tail[0]]
                vectors["".join(map(str, cfg))] = [[x.real, x.imag] for x in vec]
        rule = frame_rule(q, k, j, vectors)
        assert evaluate_condition(rule, "P-iii") == [], f"draw {draw} (j={j})"
    report(7, "frame construction satisfies P-iii", started, 30.0)


def test_criterion_8_patt_and_quantization():
    started = time.perf_counter()
    patt = patt_rule()
    for n in (4, 5, 6):
        assert is_permutation_matrix(global_matrix(patt, n))
    rng = np.random.default_rng(28)
    for _ in range(10):
        gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(gauss)
        rotated = quantize(patt, u)
        assert check_periodic(rotated).unitary
        assert unitarity_defect(global_matrix(rotated, 5)) <= 1e-8
    report(8, "reversible rule and quantization", started, 60.0)


def test_criterion_9_symmetry_covariance():
    started = time.perf_counter()
    agree = total = 0
    for family, rule in periodic_samples():
        expected = check_periodic(rule).unitary
        for variant in (parity_transform(rule), state_transpose(rule, (1, 0), "both")):
            total += 1
            agree += check_periodic(variant).unitary == expected
    for family, rule, _ in infinite_samples():
        expected = check_infinite(rule).unitary
        for variant in (parity_transform(rule), state_transpose(rule, (1, 0), "both")):
            total += 1
            agree += check_infinite(variant).unitary == expected
    assert agree == total == 1200
    report(9, "parity and transposition covariance", started, 240.0)


def test_criterion_10_simulation_conservation():
    started = time.perf_counter()
    rng = np.random.default_rng(30)
    for _ in range(3):
        rule = make_family("f21", random_params("f21", rng))
        state = random_state(2, 10, rng)
        out = evolve(rule, 10, state, 100)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-7
        assert abs(probabilities(out, tolerance=1e-7).sum() - 1.0) <= 1e-7
    report(10, "simulation conservation", started, 120.0)
