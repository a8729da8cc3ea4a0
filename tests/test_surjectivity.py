import numpy as np
import pytest

from qca1d import (
    RuleTable,
    all_configs,
    border_scalar,
    check_infinite,
    check_periodic,
    check_surjectivity,
    det_factorization_check,
    deterministic_sector,
    extension_matrix,
    make_family,
    parity_transform,
    restricted_evolution,
    reduced_evolution,
    window_amplitude,
)
from qca1d.surjectivity import _oriented_reports, column_factor_product, extension_det_product

from conftest import F21_00_SAMPLE, deterministic_shift, identity_rule, noisy_grid


def test_extension_matrix_identity(ident):
    phi0 = extension_matrix(ident, "0")
    np.testing.assert_allclose(phi0, np.eye(2))
    assert np.linalg.det(phi0) == pytest.approx(1.0)


def test_extension_matrix_f21_00(f21_00):
    p = F21_00_SAMPLE
    det0 = np.linalg.det(extension_matrix(f21_00, "0"))
    assert det0 == pytest.approx(p["rho"] * np.exp(1j * p["phi1"]))
    det1 = np.linalg.det(extension_matrix(f21_00, "1"))
    assert det1 == pytest.approx(np.exp(1j * p["phi3"]) / p["rho"])


def test_extension_matrix_length_check(f21_00):
    with pytest.raises(ValueError):
        extension_matrix(f21_00, "01")


def test_window_amplitude(ident):
    assert window_amplitude(ident, (0, 1), (0, 0, 1)) == pytest.approx(1.0)
    assert window_amplitude(ident, (1, 1), (0, 0, 1)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        window_amplitude(ident, (0,), (0, 0, 1))


def test_restricted_n0_and_n1(f21_00):
    p = F21_00_SAMPLE
    f0 = restricted_evolution(f21_00, "00", "00", "00", 0)
    assert f0.shape == (1, 1) and f0[0, 0] == pytest.approx(1.0)
    f1 = restricted_evolution(f21_00, "00", "00", "00", 1)
    expect = np.array([[1, 0], [0, np.exp(1j * (p["phi1"] + p["alpha"])) * np.cos(p["theta"])]])
    np.testing.assert_allclose(f1, expect, atol=1e-12)


def test_restricted_identity_rule(ident):
    f2 = restricted_evolution(ident, "00", "00", "00", 2)
    np.testing.assert_allclose(f2, np.eye(4))


def restricted_by_loop(rule, left, right, right_out, n):
    """Entry-by-entry restricted evolution: one window amplitude per (output, input) pair."""
    from qca1d import index_config

    q = rule.q
    left, right, right_out = rule.config(left), rule.config(right), rule.config(right_out)
    matrix = np.zeros((q**n, q**n), dtype=complex)
    for col in range(q**n):
        inputs = left[1:] + index_config(col, q, n) + right[:-1]
        for row in range(q**n):
            matrix[row, col] = window_amplitude(
                rule, index_config(row, q, n) + right_out[:-1], inputs)
    return matrix


@pytest.mark.parametrize("n", range(4))
def test_restricted_matches_loop(ident, f21_00, n):
    f31_000 = make_family("f31_000", {"r1": 1.3, "m2": 0.7, "m6": 1.1, "p1": 0.4})
    for rule, border in ((ident, "00"), (f21_00, "00"), (f31_000, "000"),
                         (deterministic_shift(3, 2), "00")):
        # same products in the same order; numpy's complex multiply may round
        # the last bit differently from Python's
        np.testing.assert_allclose(restricted_evolution(rule, border, border, border, n),
                                   restricted_by_loop(rule, border, border, border, n),
                                   rtol=1e-15, atol=1e-16)


def test_restricted_preconditions(f21_00):
    with pytest.raises(ValueError, match="sector"):
        restricted_evolution(f21_00, "01", "00", "00", 1)
    two_ended = make_family("f31_000_111", {"m1": 1.2, "m2": 0.9})
    # both borders are sector configs but 000 does not transition into ...1
    with pytest.raises(ValueError, match="not 1"):
        restricted_evolution(two_ended, "000", "000", "111", 1)
    for evolution in (lambda n: restricted_evolution(f21_00, "00", "00", "00", n),
                      lambda n: reduced_evolution(f21_00, "00", n)):
        with pytest.raises(ValueError, match="^interior length must be nonnegative, got -1$"):
            evolution(-1)


def test_reduced_matches_direct_definition(ident, f21_00):
    from qca1d import index_config

    f31_000 = make_family("f31_000", {"r1": 1.3, "m2": 0.7, "m6": 1.1, "p1": 0.4})
    for rule, left in ((ident, (0, 0)), (f21_00, (0, 0)), (f31_000, (0, 0, 0)),
                       (deterministic_shift(3, 2), (0, 0))):
        q = rule.q
        for n in range(4):
            red = reduced_evolution(rule, left, n)
            direct = np.zeros((q**n, q**n), dtype=complex)
            for col in range(q**n):
                alpha = index_config(col, q, n)
                for row in range(q**n):
                    direct[row, col] = window_amplitude(
                        rule, index_config(row, q, n), left[1:] + alpha)
            np.testing.assert_allclose(red, direct, atol=1e-12)


def test_reduced_f21_00_single_step(f21_00):
    red = reduced_evolution(f21_00, "00", 1)
    np.testing.assert_allclose(red, extension_matrix(f21_00, "0").T, atol=1e-12)


def test_tensor_determinant_recursion(f21_00):
    # det of stage n+1 equals the extension-det product times (det stage n)^q
    for n in range(3):
        lhs = np.linalg.det(reduced_evolution(f21_00, "00", n + 1))
        rhs = (extension_det_product(f21_00, (0, 0), n)
               * np.linalg.det(reduced_evolution(f21_00, "00", n)) ** 2)
        assert lhs == pytest.approx(rhs)


def test_column_factorization(f21_00):
    # every column of the restricted operator carries its border scalar
    n = 2
    full = restricted_evolution(f21_00, "00", "00", "00", n)
    red = reduced_evolution(f21_00, "00", n)
    from qca1d import index_config
    from qca1d.surjectivity import _column_prefix

    for col in range(4):
        alpha = index_config(col, 2, n)
        gamma = _column_prefix(f21_00, (0, 0), alpha, n)
        scalar = border_scalar(f21_00, gamma, (0, 0), (0, 0))
        np.testing.assert_allclose(full[:, col], red[:, col] * scalar, atol=1e-12)


def test_det_factorization_identity(ident):
    assert det_factorization_check(ident, "00", "00", "00", 1)


def test_combined_determinant_product_law(f21_00):
    # |det F_{n+1}| = |d_{n+1}| |det F_n|^q |c_{n+1}| / |c_n|^q
    borders = ((0, 0), (0, 0), (0, 0))
    for n in (0, 1, 2):
        det_n = np.linalg.det(restricted_evolution(f21_00, *borders, n))
        det_n1 = np.linalg.det(restricted_evolution(f21_00, *borders, n + 1))
        c_n = column_factor_product(f21_00, *borders, n)
        c_n1 = column_factor_product(f21_00, *borders, n + 1)
        d_n1 = extension_det_product(f21_00, (0, 0), n)
        assert abs(det_n1) == pytest.approx(
            abs(d_n1) * abs(det_n) ** 2 * abs(c_n1) / abs(c_n) ** 2)


def test_det_factorization_f21_00(f21_00):
    for n in (1, 2, 3):
        assert det_factorization_check(f21_00, "00", "00", "00", n)
    c1 = column_factor_product(f21_00, (0, 0), (0, 0), (0, 0), 1)
    d1 = np.linalg.det(reduced_evolution(f21_00, "00", 1))
    p = F21_00_SAMPLE
    assert c1 * d1 == pytest.approx(
        np.exp(1j * (p["phi1"] + p["alpha"])) * np.cos(p["theta"]))


def test_det_factorization_interior_bound(f21_00):
    with pytest.raises(ValueError):
        det_factorization_check(f21_00, "00", "00", "00", 4)
    assert det_factorization_check(f21_00, "00", "00", "00", 4, max_interior=4)


def test_check_surjectivity_passes(f21_00):
    assert check_surjectivity(f21_00, deterministic_sector(f21_00)) == []


def test_check_surjectivity_cos_zero():
    rule = make_family("f21_00", dict(F21_00_SAMPLE, theta=np.pi / 2))
    reports = check_surjectivity(rule, deterministic_sector(rule))
    assert [r.witness for r in reports] == [("scalar", (1,), (0, 0), (0, 0))]
    assert reports[0].value == pytest.approx(0.0, abs=1e-12)


def test_check_surjectivity_middle_frame_quiescent():
    # quiescent-00 rule framed by the middle cell puts the zero of f(0|010)
    # squarely against the border-scalar requirement, in both orientations
    z = [0.8 * np.exp(0.3j), 1.1 * np.exp(0.1j), 0.9 * np.exp(1.2j),
         1 / (0.8 * 1.1) * np.exp(0.7j), (1 / 1.1) * np.exp(0.2j),
         1.1 * 0.9 / 1.1 * np.exp(0.9j)]
    z[5] = (1 / (abs(z[2]) * abs(z[4]))) * np.exp(0.9j)
    amps = np.zeros((8, 2), dtype=complex)
    amps[0] = (1, 0)
    amps[1] = (z[0], 0)
    amps[4] = (z[3], 0)
    amps[5] = (z[4], 0)
    amps[2] = (0, z[1])
    amps[3] = (0, z[2])
    amps[6] = (0, z[5])
    amps[7] = (0, np.exp(0.4j))  # unit norm but phased, so 111 stays out of the sector
    rule = RuleTable(2, 3, amps)
    sector = deterministic_sector(rule)
    assert sector == {(0, 0, 0)}
    reports = check_surjectivity(rule, sector)
    assert reports
    assert any(r.witness[0] == "scalar" and r.witness[1] == (0, 1) for r in reports)


def test_check_surjectivity_parity_fallback():
    rule = make_family("f31_000", {"r1": 1.2, "m2": 0.8, "m6": 1.1, "theta01": 0.4,
                                   "theta10": 0.9, "theta11": 1.3})
    flipped = parity_transform(rule)
    assert check_surjectivity(flipped, deterministic_sector(flipped)) == []


def test_restricted_nonsingular_for_passing_rules(f21_00):
    for n in range(1, 5):
        det = np.linalg.det(restricted_evolution(f21_00, "00", "00", "00", n))
        assert abs(det) > 1e-9 * 2**n


def test_check_surjectivity_empty_sector(f21_00):
    with pytest.raises(ValueError):
        check_surjectivity(f21_00, frozenset())


def reference_reports(rule, sector):
    """I-v reports of the rightward reading: one ``border_scalar`` per
    coupled sector pair (rho, rho') and prefix gamma, then one determinant
    per prefix, as (witness, value) pairs."""
    tol, q, k = rule.tolerance, rule.q, rule.k
    reports = []
    for rho in sorted(sector):
        for rho_out in sorted(sector):
            if abs(rule.amplitude(rho_out[-1], rho) - 1.0) > tol:
                continue
            for gamma in all_configs(q, k - 1):
                value = border_scalar(rule, gamma, rho, rho_out)
                if abs(value) <= tol:
                    reports.append((("scalar", gamma, rho, rho_out), value))
    for gamma in all_configs(q, k - 1):
        det = complex(np.linalg.det(extension_matrix(rule, gamma)))
        if abs(det) <= tol * q:
            reports.append((("det", gamma), det))
    return reports


def reference_rules():
    for seed in (1, 2, 3):
        for label, rule, infinite in noisy_grid(seed):
            if infinite:
                yield label, rule
    for q, ks in ((2, range(1, 6)), (3, range(1, 5))):
        for k in ks:
            yield f"shift({q},{k})", deterministic_shift(q, k)


def test_oriented_reports_match_border_scalar_reference():
    # the border scalars come from one gather and an array product, which
    # may round the last bits differently from the Python product
    compared = 0
    for label, rule in reference_rules():
        sector = deterministic_sector(rule)
        reports = list(_oriented_reports(rule, sector))
        expected = reference_reports(rule, sector)
        assert [r.witness for r in reports] == [w for w, _ in expected], label
        for report, (_, value) in zip(reports, expected):
            assert abs(report.value - value) <= 1e-14 * abs(value), label
            assert report.margin == abs(report.value)
        compared += len(reports)
    assert compared > 10_000


@pytest.mark.parametrize("rule", [identity_rule()] + [deterministic_shift(2, k) for k in (3, 4, 5)],
                         ids=["ident", "shift(2,3)", "shift(2,4)", "shift(2,5)"])
def test_shifts_are_periodic_unitary_and_not_onto_in_infinite_mode(rule):
    # the couplings f(rho'[-1] | rho) = 1 take in pairs with rho'[:-1] !=
    # rho[:-1], which the shift never produces; their border scalars vanish
    assert check_periodic(rule).unitary
    verdict = check_infinite(rule)
    assert not verdict.unitary
    assert {r.condition for r in verdict.reports} == {"I-v"}


def test_single_cell_rules_in_infinite_mode():
    constant = check_infinite(RuleTable(2, 1, [[1, 0], [1, 0]]))
    assert [(r.condition, r.witness) for r in constant.reports] == [
        ("I-iii", (((0,), (1,)),)), ("I-iii", (((1,), (0,)),)), ("I-v", ("det", ()))]
    assert check_infinite(RuleTable(3, 1, np.eye(3))).unitary
