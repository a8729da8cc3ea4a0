import io
import json

import numpy as np
import pytest

from qca1d import (
    RuleTable,
    check_infinite,
    check_periodic,
    evaluate_condition,
    global_matrix,
    make_family,
    unitarity_defect,
    verdict_from_json,
)
from qca1d.rules import config_index, parity_transform
from qca1d.transfer import Monomial
from qca1d.unitarity import NoDeterministicSector

from conftest import F21_00_SAMPLE, reference_to_json, rendering_cases
from references import state_transpose


def witness_monomial(witness):
    factors = []
    for pair in witness:
        a, b = config_index(pair[0], 2), config_index(pair[1], 2)
        factors.append((min(a, b), max(a, b)))
    return Monomial(tuple(sorted(factors)))


def test_identity_rule_unitary(ident):
    verdict = check_periodic(ident)
    assert verdict.unitary and verdict.reports == () and verdict.mode == "periodic"


def test_f21_sample_unitary(f21):
    verdict = check_periodic(f21)
    assert verdict.unitary
    assert unitarity_defect(global_matrix(f21, 4)) <= 1e-12


def test_previous_norm_violation_reported(ident):
    amps = ident.amplitudes.copy()
    amps[0] = [0.5, 0.0]
    rule = RuleTable(2, 2, amps)
    verdict = check_periodic(rule)
    assert not verdict.unitary
    report = next(r for r in verdict.reports if r.condition == "P-i")
    assert report.witness == ((0, 0),)
    assert report.value == pytest.approx(0.25)
    assert report.margin == pytest.approx(0.75)


def test_evaluate_norm_condition_f31():
    rule = make_family("f31", {"r1": 1.2, "r2": 0.9, "r6": 1.1, "theta": 0.8})
    assert evaluate_condition(rule, "P-i") == []


def test_evaluate_mismatch_cycle_condition_f21(f21):
    assert evaluate_condition(f21, "P-ii") == []


def test_f21_00_fails_periodic(f21_00):
    verdict = check_periodic(f21_00)
    assert not verdict.unitary
    assert {r.condition for r in verdict.reports} == {"P-ii"}


def test_orthogonality_break_reports_terminating_path(f21):
    amps = f21.amplitudes.copy()
    amps[1] += 0.05 * amps[0]
    rule = RuleTable(2, 2, amps)
    reports = evaluate_condition(rule, "P-iii")
    assert reports
    monomials = {witness_monomial(r.witness) for r in reports}
    assert monomials & {Monomial(((0, 1), (0, 2))), Monomial(((0, 1), (1, 3)))}
    for r in reports:
        assert r.margin == pytest.approx(abs(r.value))


def test_check_infinite_f21_00(f21_00):
    verdict = check_infinite(f21_00)
    assert verdict.unitary and verdict.mode == "infinite"


def test_check_infinite_surjectivity_failure():
    params = dict(F21_00_SAMPLE, theta=np.pi / 2)
    rule = make_family("f21_00", params)
    verdict = check_infinite(rule)
    assert not verdict.unitary
    assert [r.condition for r in verdict.reports] == ["I-v"]
    report = verdict.reports[0]
    assert report.witness == ("scalar", (1,), (0, 0), (0, 0))
    assert report.value == pytest.approx(rule.amplitude(0, "10"))


def test_check_infinite_no_sector():
    amps = np.full((4, 2), 1 / np.sqrt(2), dtype=complex)
    rule = RuleTable(2, 2, amps)
    with pytest.raises(NoDeterministicSector):
        check_infinite(rule)


def test_sector_path_condition_f31_000_111():
    rule = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6, "theta01": 0.3, "theta10": 1.1})
    assert evaluate_condition(rule, "I-ii") == []
    # breaking the connecting-path norm product w1 w3 = 1 trips I-ii only
    amps = rule.amplitudes.copy()
    amps[1] *= 1.1
    broken = RuleTable(2, 3, amps)
    bad = evaluate_condition(broken, "I-ii")
    assert bad and all(r.condition == "I-ii" for r in bad)
    assert any({tuple(c) for c in r.witness} == {(0, 0, 1), (0, 1, 1)} for r in bad)


def test_sector_mismatch_cycle_condition():
    rule = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6})
    assert evaluate_condition(rule, "I-iv") == []
    # forcing parallel 000 and 111 vectors creates a nonzero sector mismatch loop
    amps = rule.amplitudes.copy()
    amps[7] = amps[0]
    broken = RuleTable(2, 3, amps)
    bad = evaluate_condition(broken, "I-iv")
    assert bad and all(len(r.witness) == 1 for r in bad)


@pytest.mark.parametrize("max_violations", [-1, 0, 1])
def test_surjectivity_alone_fails_the_infinite_verdict_at_every_cut(max_violations):
    rule = make_family("f21_00", dict(F21_00_SAMPLE, theta=np.pi / 2))
    verdict = check_infinite(rule, max_violations=max_violations)
    assert not verdict.unitary
    assert [(r.condition, r.witness) for r in verdict.reports] == [
        ("I-v", ("scalar", (1,), (0, 0), (0, 0)))]


def test_evaluate_condition_evaluates_surjectivity_and_rejects_unknown_names(f21_00):
    assert evaluate_condition(f21_00, "I-v") == []
    cos_zero = make_family("f21_00", dict(F21_00_SAMPLE, theta=np.pi / 2))
    assert [r.witness for r in evaluate_condition(cos_zero, "I-v")] == [
        ("scalar", (1,), (0, 0), (0, 0))]
    with pytest.raises(NoDeterministicSector):
        evaluate_condition(RuleTable(2, 2, np.full((4, 2), 1 / np.sqrt(2))), "I-v")
    with pytest.raises(ValueError, match="unknown condition 'Q-i'"):
        evaluate_condition(f21_00, "Q-i")


def test_max_violations_truncation(ident):
    rule = RuleTable(2, 2, 0.5 * ident.amplitudes)
    assert len(evaluate_condition(rule, "P-i", max_violations=1)) == 1
    assert len(evaluate_condition(rule, "P-i")) == 3


def test_witness_reevaluates_to_value(ident, f21_00):
    from qca1d import inner

    amps = ident.amplitudes.copy()
    amps[0] = [0.5, 0.0]
    rule = RuleTable(2, 2, amps)
    for report in check_periodic(rule).reports:
        product = 1.0
        for item in report.witness:
            if isinstance(item[0], tuple):
                product *= inner(rule, item[0], item[1])
            else:
                product *= inner(rule, item, item)
        assert product == pytest.approx(report.value)
    for report in check_periodic(f21_00).reports:
        product = 1.0
        for a, b in report.witness:
            product *= inner(f21_00, a, b)
        assert product == pytest.approx(report.value)


def rendered(verdict) -> str:
    out = io.StringIO()
    verdict.write_json(out)
    return out.getvalue()


def test_verdict_json_roundtrip(f21_00):
    for verdict in (check_periodic(f21_00), check_infinite(f21_00),
                    check_infinite(make_family("f21_00", dict(F21_00_SAMPLE, theta=np.pi / 2)))):
        assert verdict_from_json(json.loads(rendered(verdict))) == verdict


def test_parity_and_transpose_covariance(f21, f21_00):
    assert check_periodic(parity_transform(f21)).unitary
    assert check_periodic(state_transpose(f21, (1, 0), "both")).unitary
    assert check_infinite(parity_transform(f21_00)).unitary
    assert check_infinite(state_transpose(f21_00, (1, 0), "both")).unitary


def test_witness_rendering_matches_per_element_reference():
    conditions, kinds = set(), set()
    for mode, rule in rendering_cases():
        verdict = (check_periodic if mode == "periodic" else check_infinite)(rule)
        text = rendered(verdict)
        assert text == json.dumps(reference_to_json(verdict)) + "\n"
        assert verdict_from_json(json.loads(text)) == verdict
        conditions |= {r.condition for r in verdict.reports}
        kinds |= {r.witness[0] for r in verdict.reports if isinstance(r.witness[0], str)}
    assert conditions == {"P-i", "P-ii", "P-iii", "I-i", "I-ii", "I-iii", "I-iv", "I-v"}
    assert kinds == {"scalar", "det"}
