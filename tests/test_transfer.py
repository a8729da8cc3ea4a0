import numpy as np
import pytest

from qca1d import (
    evaluate_condition,
    inner,
    make_family,
    pair_graph,
    path_monomials,
    rule_graph,
    trace_series,
    transfer_matrix,
    z_polynomial,
)
from qca1d.transfer import Monomial

from conftest import quantized_shift


def mono(*pairs):
    return Monomial(tuple(sorted(tuple(sorted(p)) if not isinstance(p, int) else (p,)
                                 for p in pairs)))


def test_monomial_names_and_square_check():
    # a two-digit index takes a comma, in a pair as on its own
    assert str(mono((1, 2), (3, 12), 4, 11)) == "w_{12}w_{3,12}w_4w_{11}"
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        z_polynomial(np.zeros((2, 3)))


MONOMIALS_K2_N2 = {mono((0, 1), (0, 2)), mono((1, 3), (2, 3)), mono((0, 1), (1, 3)),
          mono((0, 2), (2, 3))}

MONOMIALS_K3_N3 = {
    mono((0, 1), (0, 2), (0, 4)), mono((0, 1), (0, 2), (1, 5)),
    mono((0, 1), (1, 3), (2, 6)), mono((0, 1), (1, 3), (3, 7)),
    mono((0, 2), (0, 4), (4, 5)), mono((0, 2), (1, 5), (4, 5)),
    mono((1, 3), (2, 6), (4, 5)), mono((1, 3), (3, 7), (4, 5)),
    mono((0, 4), (2, 3), (4, 6)), mono((1, 5), (2, 3), (4, 6)),
    mono((2, 3), (2, 6), (5, 7)), mono((2, 3), (3, 7), (5, 7)),
    mono((0, 4), (4, 6), (6, 7)), mono((1, 5), (4, 6), (6, 7)),
    mono((2, 6), (5, 7), (6, 7)), mono((3, 7), (5, 7), (6, 7)),
}

MONOMIALS_K3_N4 = {
    mono((0, 1), (0, 3), (0, 4), (0, 6)), mono((0, 1), (0, 3), (0, 6), (1, 5)),
    mono((0, 1), (0, 4), (1, 2), (2, 4)), mono((0, 1), (1, 2), (1, 5), (2, 4)),
    mono((0, 1), (0, 3), (1, 7), (2, 6)), mono((0, 1), (1, 2), (2, 6), (3, 5)),
    mono((0, 1), (0, 3), (1, 7), (3, 7)), mono((0, 1), (1, 2), (3, 5), (3, 7)),
    mono((0, 3), (0, 4), (0, 6), (4, 5)), mono((0, 3), (0, 6), (1, 5), (4, 5)),
    mono((0, 4), (1, 2), (2, 4), (4, 5)), mono((1, 2), (1, 5), (2, 4), (4, 5)),
    mono((0, 3), (1, 7), (2, 6), (4, 5)), mono((1, 2), (2, 6), (3, 5), (4, 5)),
    mono((0, 3), (1, 7), (3, 7), (4, 5)), mono((1, 2), (3, 5), (3, 7), (4, 5)),
    mono((0, 4), (0, 6), (2, 3), (4, 7)), mono((0, 6), (1, 5), (2, 3), (4, 7)),
    mono((1, 7), (2, 3), (2, 6), (4, 7)), mono((1, 7), (2, 3), (3, 7), (4, 7)),
    mono((0, 4), (2, 3), (2, 4), (5, 6)), mono((1, 5), (2, 3), (2, 4), (5, 6)),
    mono((2, 3), (2, 6), (3, 5), (5, 6)), mono((2, 3), (3, 5), (3, 7), (5, 6)),
    mono((0, 4), (0, 6), (4, 7), (6, 7)), mono((0, 6), (1, 5), (4, 7), (6, 7)),
    mono((1, 7), (2, 6), (4, 7), (6, 7)), mono((1, 7), (3, 7), (4, 7), (6, 7)),
    mono((0, 4), (2, 4), (5, 6), (6, 7)), mono((1, 5), (2, 4), (5, 6), (6, 7)),
    mono((2, 6), (3, 5), (5, 6), (6, 7)), mono((3, 5), (3, 7), (5, 6), (6, 7)),
}


def test_transfer_matrix_g1(f21):
    a = transfer_matrix(rule_graph(f21))
    w = [inner(f21, c, c) for c in f21.configs()]
    np.testing.assert_allclose(a, [[w[0], w[1]], [w[2], w[3]]])


def test_transfer_matrix_simplified_k2(f21):
    a = transfer_matrix(pair_graph(f21), "simplified")
    # diagonal-subgraph bookkeeping: self-loop entries 0, cross entries 1
    assert a[0, 0] == 0 and a[3, 3] == 0
    assert a[0, 3] == 1 and a[3, 0] == 1
    w = lambda x, y: inner(f21, x, y)
    assert a[0, 1] == pytest.approx(w("00", "01"))
    assert a[0, 2] == pytest.approx(w("01", "00"))
    assert a[1, 1] == pytest.approx(w("00", "11"))
    assert a[1, 2] == pytest.approx(w("01", "10"))
    assert a[3, 1] == pytest.approx(w("10", "11"))


def test_simplified_rejected_for_norm_graph(f21):
    with pytest.raises(ValueError):
        transfer_matrix(rule_graph(f21), "simplified")
    with pytest.raises(ValueError):
        transfer_matrix(rule_graph(f21), "fancy")


def test_z_polynomial_zero_matrix():
    np.testing.assert_array_equal(z_polynomial(np.zeros((5, 5))), [1.0])


def test_z_polynomial_g1_k2(f21):
    w = [inner(f21, c, c).real for c in f21.configs()]
    z = z_polynomial(transfer_matrix(rule_graph(f21)))
    expect = [1.0, -(w[0] + w[3]), w[0] * w[3] - w[1] * w[2]]
    np.testing.assert_allclose(z, expect, atol=1e-12)


def test_z_polynomial_matches_direct_determinant():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    z = z_polynomial(a)
    for t in (0.1, -0.3, 0.2 + 0.1j):
        direct = np.linalg.det(np.eye(7) - t * a)
        series = sum(c * t**i for i, c in enumerate(z))
        assert abs(series - direct) <= 1e-8 * abs(direct)


def test_z_polynomial_pair_graph_64x64():
    # the raw pair-graph matrix of a quantized shift(2,4) is 64 x 64; the
    # Faddeev-LeVerrier recurrence read 0.0635 for its t^64 coefficient
    a = transfer_matrix(pair_graph(quantized_shift(2, 4)))
    assert a.shape == (64, 64)
    z = z_polynomial(a)
    for t in (0.5, -0.8, 1.0, 0.6 + 0.6j, 1.5, -2.0):
        direct = np.linalg.det(np.eye(64) - t * a)
        series = sum(c * t**i for i, c in enumerate(z))
        assert abs(series - direct) <= 1e-9 * max(1.0, abs(direct))


def test_trace_series_identity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    coeffs = trace_series(a, 8)
    assert coeffs[0] == 0
    power = np.eye(5, dtype=complex)
    for n in range(1, 9):
        power = power @ a
        assert coeffs[n] == pytest.approx(np.trace(power), abs=1e-9 * np.abs(power).max())


def test_trace_series_g1_k2(f21):
    w = [inner(f21, c, c).real for c in f21.configs()]
    coeffs = trace_series(transfer_matrix(rule_graph(f21)), 2)
    assert coeffs[1] == pytest.approx(w[0] + w[3])
    assert coeffs[2] == pytest.approx(w[0] ** 2 + w[3] ** 2 + 2 * w[1] * w[2])


def test_trace_series_order_validation(f21):
    with pytest.raises(ValueError):
        trace_series(transfer_matrix(rule_graph(f21)), 0)


def test_frame_z_polynomial_k3():
    rng = np.random.default_rng(3)
    expect = np.array([1, 0, -1, -2, -1], dtype=complex)
    for family in ("f31", "f30"):
        rule = make_family(family, {
            "theta": rng.uniform(0, 2 * np.pi), "eta": rng.uniform(0, 2 * np.pi),
            "xi": rng.uniform(0, 2 * np.pi), "r1": 1.3, "r2": 0.7, "r6": 1.4,
            "p1": 0.3, "p2": 0.9, "p3": 1.2, "p4": 2.2, "p5": 0.5, "p6": 1.9})
        z = z_polynomial(transfer_matrix(pair_graph(rule), "simplified"))
        padded = np.zeros(max(len(z), 5), dtype=complex)
        padded[: len(z)] = z
        np.testing.assert_allclose(padded[:5], expect, atol=1e-9)
        assert np.all(np.abs(padded[5:]) <= 1e-9)


def test_path_monomials_k2(f21):
    assert path_monomials(f21, 1)[-1] == []
    assert set(path_monomials(f21, 2)[-1]) == MONOMIALS_K2_N2


def test_path_monomials_k3():
    rule = make_family("f31", {"r1": 0.9, "r2": 1.2, "r6": 0.7})
    assert path_monomials(rule, 1)[-1] == [] and path_monomials(rule, 2)[-1] == []
    assert set(path_monomials(rule, 3)[-1]) == MONOMIALS_K3_N3
    assert set(path_monomials(rule, 4)[-1]) == MONOMIALS_K3_N4


def test_path_monomials_independent_of_amplitudes(f21, f21_00):
    assert path_monomials(f21, 2)[-1] == path_monomials(f21_00, 2)[-1]


def test_monomial_evaluate(f21):
    m = mono((0, 1), (0, 2))
    assert m.evaluate(f21) == pytest.approx(inner(f21, "00", "01") * inner(f21, "00", "10"))
    assert str(m) == "w_{01}w_{02}"
    assert str(mono(0, 3)) == "w_0w_3"


def test_monomial_vanishing_matches_path_condition():
    # weight-zero terminating-path condition holds iff every monomial up to
    # the simple-path bound evaluates to zero
    rng = np.random.default_rng(4)
    passing = make_family("f21", {p: rng.uniform(0, 6.28) for p in
                                  ("alpha", "beta", "theta", "phi1", "phi2")})
    amps = passing.amplitudes.copy()
    amps[1] += 0.05 * amps[0]
    from qca1d import RuleTable

    broken = RuleTable(2, 2, amps)
    for rule in (passing, broken):
        monomial_zero = all(
            abs(m.evaluate(rule)) <= rule.tolerance
            for monomials in path_monomials(rule, 3)
            for m in monomials)
        condition_ok = evaluate_condition(rule, "P-iii") == []
        assert monomial_zero == condition_ok
    rule31 = make_family("f31", {"r1": 1.1, "r2": 0.8, "r6": 1.3})
    assert evaluate_condition(rule31, "P-iii") == []
    assert all(abs(m.evaluate(rule31)) <= 1e-9
               for monomials in path_monomials(rule31, 5) for m in monomials)
