import argparse
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qca1d.cli as cli
from qca1d import (
    RuleTable,
    check_infinite,
    check_periodic,
    config_str,
    evolve,
    index_config,
    make_family,
    verdict_from_json,
)
from qca1d.cli import main
from qca1d.oracle import walk_defect
from qca1d.rules import dump_rule, load_rule, rule_to_dict

from conftest import (
    deterministic_shift,
    quantized_shift,
    reference_to_json,
    rendering_cases,
    with_noise,
)


def write_rule(tmp_path, rule, name="rule.json"):
    path = tmp_path / name
    path.write_text(dump_rule(rule))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_unitary(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, _ = run(capsys, "verify", path, "--mode", "periodic")
    assert code == 0
    assert "verdict: unitary" in out and "P-i: ok" in out


def test_verify_not_unitary(tmp_path, capsys, ident):
    amps = ident.amplitudes.copy()
    amps[0] = [0.5, 0.0]
    from qca1d import RuleTable

    path = write_rule(tmp_path, RuleTable(2, 2, amps))
    code, out, _ = run(capsys, "verify", path, "--mode", "periodic")
    assert code == 1
    assert "P-i: VIOLATED" in out and "verdict: NOT unitary" in out


def test_verify_json_roundtrip(tmp_path, capsys, f21_00):
    path = write_rule(tmp_path, f21_00)
    code, out, _ = run(capsys, "verify", path, "--mode", "infinite", "--json")
    assert code == 0
    data = json.loads(out)
    verdict = verdict_from_json(data)
    assert verdict.unitary and verdict.mode == "infinite"

    code, out, _ = run(capsys, "verify", path, "--mode", "periodic", "--json")
    assert code == 1
    verdict = verdict_from_json(json.loads(out))
    assert not verdict.unitary and verdict.reports[0].condition == "P-ii"


def test_verify_reads_stdin(tmp_path, capsys, monkeypatch, f21):
    monkeypatch.setattr("sys.stdin", io.StringIO(dump_rule(f21)))
    code, out, _ = run(capsys, "verify", "-", "--mode", "periodic")
    assert code == 0


def test_family_verify_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "family", "f21", "--param", "theta=0",
                       "--param", "rho=1")
    assert code == 0
    path = tmp_path / "piped.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "periodic")
    assert code == 0


def test_family_list(capsys):
    code, out, _ = run(capsys, "family", "--list")
    assert code == 0
    assert "f31_000_111" in out and "patt" in out
    # a --param value is a number or a string: the CLI takes a family name or
    # a JSON file path, the objects only from Python
    assert "  base (family name or rule file path; make_family also takes a RuleTable " \
           "or rule dict)\n" in out
    assert "  unitary (JSON file path of a q x q matrix [[..]]; make_family also takes " \
           "the matrix)\n" in out
    assert "  vectors (JSON file path of a config -> [[re,im] x q] mapping; make_family " \
           "also takes the mapping)\n" in out


def test_family_errors(capsys):
    code, _, err = run(capsys, "family", "f21", "--param", "rho=-2")
    assert code == 2 and "rho" in err
    code, _, err = run(capsys, "family")
    assert code == 2


def test_family_tolerance_applies_to_a_file_base(tmp_path, capsys):
    # a base read from a file carried its own tolerance into the output
    code, out, _ = run(capsys, "family", "patt")
    base = tmp_path / "patt.json"
    base.write_text(out)
    unitary = tmp_path / "u.json"
    unitary.write_text("[[0, 1], [1, 0]]")
    outs = []
    for name in (str(base), "patt"):
        code, out, _ = run(capsys, "family", "quantized", "--param", f"base={name}",
                           "--param", f"unitary={unitary}", "--tolerance", "1e-5")
        assert code == 0 and json.loads(out)["tolerance"] == 1e-5
        outs.append(out)
    assert outs[0] == outs[1]
    code, out, _ = run(capsys, "family", "quantized", "--param", f"base={base}",
                       "--param", f"unitary={unitary}")
    assert code == 0 and json.loads(out)["tolerance"] == 1e-9


def test_family_tolerance_reaches_the_rotation_check_of_a_file_base(tmp_path, capsys):
    # a rotation off unitary by 2e-6: within 1e-5, not within patt's own 1e-9
    code, out, _ = run(capsys, "family", "patt")
    base = tmp_path / "patt.json"
    base.write_text(out)
    unitary = tmp_path / "u.json"
    unitary.write_text("[[0, 1.000001], [1, 0]]")
    quantized = ["family", "quantized", "--param", f"unitary={unitary}", "--param"]
    outs = []
    for name in (str(base), "patt"):
        code, out, err = run(capsys, *quantized, f"base={name}", "--tolerance", "1e-5")
        assert code == 0 and err == "" and json.loads(out)["tolerance"] == 1e-5, name
        outs.append(out)
    assert outs[0] == outs[1]
    # without --tolerance the file's own 1e-9 checks the rotation, as the default does
    for name in (str(base), "patt"):
        code, out, err = run(capsys, *quantized, f"base={name}")
        assert (code, out) == (2, "") and "rotation matrix is not unitary (defect 2.000e-06)" in err
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(json.loads(base.read_text()) | {"tolerance": 1e-5}))
    code, out, _ = run(capsys, *quantized, f"base={loose}")
    assert code == 0 and json.loads(out)["tolerance"] == 1e-5


def test_family_refuses_zero_tolerance(capsys):
    # 0 is an explicit tolerance, not "use the default"
    code, out, err = run(capsys, "family", "f21", "--tolerance", "0")
    assert code == 2 and out == "" and "tolerance 0.0 must be positive" in err


def test_infinite_tolerance_is_refused(tmp_path, capsys):
    # an infinite tolerance passes every tolerance test: this noisy shift
    # read "verdict: unitary" and its defect of 3.37 "within tolerance inf"
    noisy = with_noise(quantized_shift(2, 3), 0.5)
    inf_path = tmp_path / "inf.json"
    inf_path.write_text(json.dumps(rule_to_dict(noisy) | {"tolerance": float("inf")}))
    assert "Infinity" in inf_path.read_text()
    path = write_rule(tmp_path, noisy)
    for argv, message in (
            (["verify", str(inf_path), "--mode", "periodic"], "positive number and finite"),
            (["verify", path, "--mode", "periodic", "--tolerance", "inf"], "tolerance inf"),
            (["oracle", path, "--sites", "6", "--tolerance", "inf"], "tolerance inf"),
            (["family", "f21", "--tolerance", "inf"], "tolerance inf")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err and "finite" in err, argv


def test_validation_branches_exit_2_with_their_message(tmp_path, capsys):
    def put(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    rule = rule_to_dict(deterministic_shift(2, 2))
    shift, missing = put("shift.json", rule), str(tmp_path / "missing.json")
    eye2, eye3 = put("eye2.json", np.eye(2).tolist()), put("eye3.json", np.eye(3).tolist())
    vectors = {"00": [[1, 0], [0, 0]], "01": [[0, 0], [1, 0]],
               "10": [[1, 0], [0, 0]], "11": [[0, 0], [1, 0]]}
    three = put("three.json", vectors | {"01": [[0, 0], [1, 0], [0, 0]]})
    frame = ["family", "frame", "--param", "k=2", "--param", "j=1", "--param"]
    quantized = ["family", "quantized", "--param"]
    verify = ["--mode", "periodic"]
    for argv, message in (
            (["family", "f21", "--param", "theta"], "--param expects key=value, got 'theta'"),
            (["family", "f21", "--param", "theta=abc"], "parameter 'theta' must be a real number"),
            (frame + ["q=2", "--param", f"vectors={three}"], "vector for 01 must have 2 components"),
            (frame + [f"vectors={put('vectors.json', vectors)}"], "frame requires parameter 'q'"),
            (frame + ["q=2", "--param", f"vectors={put('list.json', [1, 2])}"],
             "parameter 'vectors' must map config strings to vectors"),
            (quantized + ["base=patt"], "quantized requires parameters 'base' and 'unitary'"),
            (quantized + [f"base={missing}", "--param", f"unitary={eye2}"],
             f"base rule file {missing!r} does not exist"),
            (quantized + ["base=3", "--param", f"unitary={eye2}"],
             "parameter 'base' must be a rule table, rule dict, family name or path"),
            (quantized + [f"base={shift}", "--param", f"unitary={eye3}"],
             "rotation matrix must be 2 x 2, got (3, 3)"),
            (["verify", put("array.json", [rule]), *verify],
             "rule file must hold a JSON object, got list"),
            (["verify", put("q11.json", rule | {"q": 11}), *verify],
             "config strings use single digits; q must be at most 10"),
            (["verify", put("listed.json", rule | {"amplitudes": list(rule["amplitudes"].values())}),
              *verify], "field 'amplitudes' must be an object keyed by config strings")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_zero_norm_row_is_one_p_i_witness(tmp_path, capsys):
    # a zero weight leaves the norm potential no bound, so P-i is listed
    path = write_rule(tmp_path, RuleTable(2, 1, np.diag([0.0, 1.0])))
    code, out, _ = run(capsys, "verify", path, "--mode", "periodic")
    assert code == 1 and out == ("mode: periodic\nP-i: VIOLATED (1 reported)\n"
                                 "  value=0 margin=1.000000e+00 witness: 0\n"
                                 "P-ii: ok\nP-iii: ok\nverdict: NOT unitary\n")


def test_family_refuses_non_integral_frame_sizes(tmp_path, capsys):
    # int() truncated q=2.9 to 2 and j=1.7 to 1, and a complex q escaped as
    # a TypeError with exit 1, which means NOT unitary
    vectors = {"00": [[1, 0], [0, 0]], "01": [[0, 0], [1, 0]],
               "10": [[1, 0], [0, 0]], "11": [[0, 0], [1, 0]]}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(vectors))
    for bad in ("q=2.9", "j=1.7", "q=2+1j"):
        params = {p.partition("=")[0]: p for p in ("q=2", "k=2", "j=1", bad)}
        argv = [arg for p in params.values() for arg in ("--param", p)]
        code, out, err = run(capsys, "family", "frame", *argv, "--param", f"vectors={path}")
        name = bad.partition("=")[0]
        assert code == 2 and out == "" and err.startswith("error:"), (bad, err)
        assert f"parameter '{name}' must be an integer" in err, (bad, err)
    code, out, _ = run(capsys, "family", "frame", "--param", "q=2.0", "--param", "k=2",
                       "--param", "j=1", "--param", f"vectors={path}")
    assert code == 0 and json.loads(out)["q"] == 2


def test_family_refuses_malformed_parameter_files(tmp_path, capsys):
    # exit 1 means NOT unitary; an entry that is no number or [re, im] pair is exit 2
    vectors = {"00": [[1, 0], [0, 0]], "01": [[0, 0], [1, 0]],
               "10": [[1, 0], [0, 0]], "11": [[0, 0], [1, 0]]}
    cases = [("quantized", ["base=patt"], "unitary", value)
             for value in ([[1, None], [0, 1]], [[[1, 0], [0, None]], [0, 1]],
                           [[1, 0], [0, 1, 0]], [[1, 0], [0]], [[1, 0], 5], 5, {"0": 1})]
    cases += [("frame", ["q=2", "k=2", "j=1"], "vectors", vectors | {"01": value})
              for value in (5, None, [[None, None], [1, 0]], [[0, 0], [1, 0, 0]], [0, "x"])]
    for name, params, key, value in cases:
        path = tmp_path / "param.json"
        path.write_text(json.dumps(value))
        argv = [arg for p in params + [f"{key}={path}"] for arg in ("--param", p)]
        code, out, err = run(capsys, "family", name, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), (name, value, err)
    path.write_text(json.dumps(vectors))
    code, out, _ = run(capsys, "family", "frame", "--param", "q=2", "--param", "k=2",
                       "--param", "j=1", "--param", f"vectors={path}")
    assert code == 0


def test_frame_with_missing_vectors_stops_at_the_first(tmp_path, capsys):
    for k in (30, 40):
        path = tmp_path / f"v{k}.json"
        path.write_text(json.dumps({"1" * k: [[1, 0], [0, 0]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "frame", "--param", "q=2", "--param", f"k={k}",
                             "--param", "j=1", "--param", f"vectors={path}")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"missing vectors for {2**k - 1} neighborhoods, e.g. {'0' * k}" in err


def test_malformed_rule_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad), "--mode", "periodic")
    assert code == 2 and "JSON" in err

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"q": 2, "k": 2, "amplitudes": {}}))
    code, _, err = run(capsys, "verify", str(partial), "--mode", "periodic")
    assert code == 2 and "amplitudes" in err

    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"),
                       "--mode", "periodic")
    assert code == 2


def test_rule_file_with_boolean_k_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"q": 2, "k": True, "amplitudes": {"0": [[1, 0], [0, 0]],
                                                                  "1": [[0, 0], [1, 0]]}}))
    code, out, err = run(capsys, "verify", str(path), "--mode", "periodic")
    assert code == 2 and out == "" and "fields 'q' and 'k' must be integers" in err


def test_infinite_mode_refuses_the_I_v_gather_before_allocating(tmp_path, capsys):
    # the (2,8) shift couples 256 x 128 sector pairs, each read at 128 prefixes
    # through 7 windows: 29.4M gather entries, 235 MB of indices alone
    path = write_rule(tmp_path, deterministic_shift(2, 8))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "verify", path, "--mode", "infinite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: the I-v gather has 29360128 window entries, over the cap")
    assert peak < 32 * 2**20


def test_unreadable_rule_path_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path), "--mode", "periodic")
    assert code == 2 and out == "" and err.startswith("error:")


def test_rule_entry_that_is_no_number_exits_2(tmp_path, capsys, f21):
    for bad in (["1.5", 0], [10**400, 0]):  # a string; an int no float can hold
        data = json.loads(dump_rule(f21))
        data["amplitudes"]["01"][1] = bad
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path), "--mode", "periodic")
        assert code == 2 and out == "" and "'01'" in err


def test_two_keys_naming_one_config_exit_2(tmp_path, capsys):
    # "\u0660" is an Arabic-Indic zero, which int() reads as 0, so that the second
    # key would name config 01 again; a config string takes ASCII digits only
    amplitudes = {"00": [[1, 0], [0, 0]], "\u06601": [[0, 0], [1, 0]],
                  "01": [[0, 0], [1, 0]], "11": [[0, 0], [1, 0]]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"q": 2, "k": 2, "amplitudes": amplitudes}, ensure_ascii=False),
                    encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "--mode", "periodic")
    assert code == 2 and out == "" and "'\u06601' has non-digit characters" in err


def test_initial_of_non_ascii_digits_is_no_config_string(tmp_path, capsys, monkeypatch, f21):
    # int() reads the Arabic-Indic "\u0661\u0660" as 10, and str.isdigit() takes the
    # superscript "\u00b2", which int() refuses: both are file names, not configs
    path = write_rule(tmp_path, f21)
    monkeypatch.chdir(tmp_path)
    for initial in ("\u0661\u0660", "\u00b2\u00b2"):
        code, out, err = run(capsys, "simulate", path, "--sites", "2", "--steps", "0",
                             "--initial", initial)
        assert (code, out) == (2, "") and err.startswith(
            f"error: --initial {initial!r} is neither a length-2 config string nor a readable "
            "state file: "), err


def test_state_file_of_bare_numbers_exits_2(tmp_path, capsys, f21):
    # each refusal with its message: a state file is read as one numpy array
    rule_path = write_rule(tmp_path, f21)
    path = tmp_path / "state.json"
    pairs = "error: state file must hold 4 [re, im] pairs\n"
    numbers = f"error: state file {str(path)!r} holds a pair that is not two numbers\n"
    finite = f"error: state file {str(path)!r} holds non-finite amplitudes\n"
    rest = [[0, 0], [0, 0]]
    for state, message in (
            ({"0": [1, 0]}, pairs), (7, pairs), ([1, 0, 0, 0], pairs), ([[1, 0]] + rest, pairs),
            ([[1, 0], [0, 0], [0, 0]] + rest, pairs), ([[1, 0], [0, 0, 0]] + rest, pairs),
            ([[1, 0], [0]] + rest, pairs), ([[1, 0], "00"] + rest, pairs),
            ([[1, 0], ["0", 0]] + rest, numbers), ([[1, 0], [0, None]] + rest, numbers),
            ([[1, 0], [[0], 0]] + rest, numbers), ([[1, 0], [[0, 0], [0, 0]]] + rest, numbers),
            ([[1, 0], [{"re": 0}, 0]] + rest, numbers), ([[1, 0], [10**400, 0]] + rest, numbers),
            ([[1, 0], [float("nan"), 0]] + rest, finite), ([[1, 0], [0, -math.inf]] + rest, finite),
            ([[1, 0], [1e-3, 0]] + rest,
             "error: state is not normalized: |norm^2 - 1| = 1.000e-06\n")):
        path.write_text(json.dumps(state))
        result = run(capsys, "simulate", rule_path, "--sites", "2", "--steps", "1",
                     "--initial", str(path))
        assert result == (2, "", message), state
    # bools, ints and floats are numbers: true, 1 and 1.0 are one amplitude
    expected = run(capsys, "simulate", rule_path, "--sites", "2", "--steps", "1", "--initial", "10")
    for one, zero in ((1, 0), (True, False), (1.0, -0.0)):
        path.write_text(json.dumps([[0, 0], [0.0, zero], [one, zero], [False, 0]]))
        assert run(capsys, "simulate", rule_path, "--sites", "2", "--steps", "1",
                   "--initial", str(path)) == expected


def test_no_sector_exit_code(tmp_path, capsys):
    from qca1d import RuleTable

    amps = np.full((4, 2), 1 / np.sqrt(2), dtype=complex)
    path = write_rule(tmp_path, RuleTable(2, 2, amps))
    code, _, err = run(capsys, "verify", path, "--mode", "infinite")
    assert code == 2 and "deterministic sector" in err


def test_cycle_cap_exit_code(tmp_path, capsys, monkeypatch, f21):
    # a unitary rule is decided without enumeration, so the cap only bounds
    # the witness listing of a rule that fails
    monkeypatch.setenv("QCA_CYCLE_CAP", "1")
    path = write_rule(tmp_path, with_noise(f21, 1e-3))
    code, _, err = run(capsys, "verify", path, "--mode", "periodic")
    assert code == 3 and "P-i: cycle enumeration exceeded the cap of 1 examined edges" in err


def test_verify_json_bytes_match_reference(tmp_path, capsys, monkeypatch, f21):
    from qca1d import RuleTable

    huge = RuleTable(2, 3, np.full((8, 2), 1e100, dtype=complex))  # P-i, P-ii products overflow
    cases = [*rendering_cases(), ("periodic", f21), ("periodic", huge)]
    outs = []
    for i, (mode, rule) in enumerate(cases):
        path = write_rule(tmp_path, rule, f"rule{i}.json")
        verdict = (check_periodic if mode == "periodic" else check_infinite)(load_rule(path))
        code, out, err = run(capsys, "verify", path, "--mode", mode, "--json")
        assert code == (0 if verdict.unitary else 1) and err == ""
        assert out == json.dumps(reference_to_json(verdict)) + "\n"
        outs.append(out)
    assert '"reports": []' in outs[3]
    assert "Infinity" in out and "NaN" not in out
    # a verdict that has to list witnesses fails before anything is written
    monkeypatch.setenv("QCA_CYCLE_CAP", "1")
    assert run(capsys, "verify", path, "--mode", "periodic", "--json") == (
        3, "", "error: P-i: cycle enumeration exceeded the cap of 1 examined edges\n")


def test_overflowing_norm_cycles_read_infinity(tmp_path, capsys):
    # every (2,3) norm weight is 2e200, so every cycle of two or more edges
    # overflows; multiplied as complex numbers, inf * 0j turned a value into
    # nan, and the one whose real part went nan was not reported at all
    from qca1d import RuleTable
    path = write_rule(tmp_path, RuleTable(2, 3, np.full((8, 2), 1e100, dtype=complex)))
    code, out, err = run(capsys, "verify", path, "--mode", "periodic", "--json")
    assert code == 1 and err == ""
    values = [r["value"] for r in json.loads(out)["reports"] if r["condition"] == "P-i"]
    assert values == [[2e200, 0.0]] + [[float("inf"), 0.0]] * 4 + [[2e200, 0.0]]


def test_paths_stops_at_the_work_budget(tmp_path, capsys, monkeypatch):
    # the (2,4) mismatch paths multiply with their length: without a budget,
    # --max-len 14 was still enumerating after 100 s
    monkeypatch.setenv("QCA_CYCLE_CAP", "10000")
    path = write_rule(tmp_path, quantized_shift(2, 4))
    start = time.perf_counter()
    code, out, err = run(capsys, "paths", path, "--max-len", "14")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and err == "error: path enumeration exceeded the cap of 10000 examined edges\n"
    assert out == ""  # the lengths that finished are not printed either


def test_certificate_overflow_leaves_the_decision_to_enumeration(tmp_path, capsys):
    from qca1d import RuleTable

    # norms 1 and 1e-200: the potential bound passes 709.78, where expm1 overflows
    amps = np.zeros((4, 2), dtype=complex)
    amps[0, 0], amps[1:, 1] = 1.0, 1e-100
    path = write_rule(tmp_path, RuleTable(2, 2, amps))
    for mode, condition in (("periodic", "P-i"), ("infinite", "I-i")):
        code, out, err = run(capsys, "verify", path, "--mode", mode)
        assert code == 1 and err == ""
        assert f"{condition}: VIOLATED (2 reported)" in out and "verdict: NOT unitary" in out


def test_paths_output(tmp_path, capsys):
    rule = make_family("f31", {"r1": 1.1, "r2": 0.9, "r6": 1.2})
    path = write_rule(tmp_path, rule)
    code, out, _ = run(capsys, "paths", path, "--max-len", "4")
    assert code == 0
    assert "n = 3: 16 monomials" in out and "n = 4: 32 monomials" in out
    assert "w_{01}w_{02}w_{04}" in out


def test_paths_below_length_1_exits_2(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    for max_len in ("0", "-3"):
        assert run(capsys, "paths", path, "--max-len", max_len) == (
            2, "", f"error: the maximum path length must be at least 1, got {max_len}\n")


def test_paths_builds_one_pair_graph(tmp_path, capsys, monkeypatch):
    # one search lists every length, so the pair graph is built once per run
    import qca1d.transfer as transfer

    calls = []
    monkeypatch.setattr(transfer, "pair_graph",
                        lambda rule, f=transfer.pair_graph: calls.append(1) or f(rule))
    path = write_rule(tmp_path, quantized_shift(2, 3))
    code, out, _ = run(capsys, "paths", path, "--max-len", "6")
    assert code == 0 and "n = 6:" in out and len(calls) == 1


def test_paths_budget_covers_the_whole_run(tmp_path, capsys, monkeypatch):
    # the search of --max-len L examines every edge a shorter bound would, so
    # the run stops where a run of the last length alone would
    monkeypatch.setenv("QCA_CYCLE_CAP", "2000")
    path = write_rule(tmp_path, quantized_shift(2, 3))
    code, out, _ = run(capsys, "paths", path, "--max-len", "5")
    assert code == 0 and "n = 5:" in out
    assert run(capsys, "paths", path, "--max-len", "6") == (
        3, "", "error: path enumeration exceeded the cap of 2000 examined edges\n")


def test_zpoly_output(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, _ = run(capsys, "zpoly", path, "--which", "g1", "--convention", "raw")
    assert code == 0 and out.startswith("t^0: 1")
    code, out, _ = run(capsys, "zpoly", path, "--which", "g2", "--convention", "simplified")
    assert code == 0
    code, _, err = run(capsys, "zpoly", path, "--which", "g1", "--convention", "simplified")
    assert code == 2


def test_graph_output(tmp_path, capsys, f21_00):
    path = write_rule(tmp_path, f21_00)
    code, out, _ = run(capsys, "graph", path, "--which", "g1")
    assert code == 0 and out.startswith("digraph g1")
    code, out, _ = run(capsys, "graph", path, "--which", "d2")
    assert code == 0 and '"0|0"' in out


def test_oracle_output(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, _ = run(capsys, "oracle", path, "--sites", "3")
    assert code == 0 and "unitarity defect" in out and "evidence" in out
    code, out, _ = run(capsys, "oracle", path, "--sites", "3", "--defect-only")
    assert code == 0 and float(out.strip()) <= 1e-12
    code, out, _ = run(capsys, "oracle", path, "--sites", "3", "--json")
    data = json.loads(out)
    assert data["exact"] and data["dimension"] == 8


def test_oracle_estimate_path(tmp_path, capsys):
    # no exact kernel takes a (2, 7) rule on 13 sites: 2^13 configurations
    # are past the orbit rows' cap, and the closed walks would cost 2 * 13 * 2^26
    path = write_rule(tmp_path, quantized_shift(2, 7))
    code, out, _ = run(capsys, "oracle", path, "--sites", "13", "--json",
                       "--samples", "2", "--seed", "7")
    data = json.loads(out)
    assert code == 0 and not data["exact"] and data["defect"] <= 1e-9


def test_oracle_is_exact_past_the_orbit_rows_cap(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, _ = run(capsys, "oracle", path, "--sites", "20", "--json")
    data = json.loads(out)
    assert code == 0 and data["exact"] and data["dimension"] == 2**20 and data["defect"] <= 1e-12
    # the exact defect of a noisy rule, which is over its tolerance
    noisy = with_noise(f21, 1e-3, 5)
    path = write_rule(tmp_path, noisy, "noisy.json")
    code, out, _ = run(capsys, "oracle", path, "--sites", "16")
    assert code == 0 and "(exact)" in out and "within tolerance 1e-09: no" in out
    code, out, _ = run(capsys, "oracle", path, "--sites", "16", "--defect-only")
    assert float(out) == walk_defect(noisy, 16) > 1e-3


def test_simulate_with_config_string(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, _ = run(capsys, "simulate", path, "--sites", "4", "--steps", "3",
                       "--initial", "0010", "--top", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("step")]
    assert len(lines) == 4
    assert all("norm=1.0000" in l for l in lines)


def test_simulate_with_state_file(tmp_path, capsys, f21):
    rule_path = write_rule(tmp_path, f21)
    state = np.zeros(16, dtype=complex)
    state[3] = 1.0
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps([[z.real, z.imag] for z in state]))
    code, out, _ = run(capsys, "simulate", rule_path, "--sites", "4", "--steps", "1",
                       "--initial", str(state_path))
    assert code == 0
    code, _, err = run(capsys, "simulate", rule_path, "--sites", "4", "--steps", "1",
                       "--initial", "00")
    assert code == 2


def test_simulate_top_keeps_the_full_sort_order(tmp_path, capsys, f21):
    # many ties, which a stable argsort of -probs keeps in index order
    rule_path = write_rule(tmp_path, f21)
    rng = np.random.default_rng(9)
    state = rng.choice([0, 0.5, 1, 1j], size=256)
    state = state / np.linalg.norm(state)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps([[z.real, z.imag] for z in state]))
    probs = np.abs(state) ** 2
    for top in (0, 1, 5, 8, 100, 255, 256, 300):
        code, out, _ = run(capsys, "simulate", rule_path, "--sites", "8", "--steps", "0",
                           "--initial", str(state_path), "--top", str(top))
        order = np.argsort(-probs, kind="stable")[:top]
        expected = " ".join(f"{config_str(index_config(int(i), 2, 8))}:{probs[i]:.6f}"
                            for i in order if probs[i] > 0)
        assert code == 0 and out.splitlines()[1].split("top: ")[1] == expected
    # a NaN amplitude or a norm off 1 by more than the tolerance exits 2 at once
    for bad, message in ((np.r_[np.nan, state[1:]], "non-finite"),
                         (state * (1 + 1e-6), "not normalized")):
        state_path.write_text(json.dumps([[z.real, z.imag] for z in bad]))
        code, out, err = run(capsys, "simulate", rule_path, "--sites", "8", "--steps", "0",
                             "--initial", str(state_path))
        assert code == 2 and out == "" and message in err
    code, _, _ = run(capsys, "simulate", rule_path, "--sites", "8", "--steps", "0",
                     "--initial", str(state_path), "--tolerance", "1e-3")
    assert code == 0


def test_simulate_top_ranks_ties_by_config_index(tmp_path, capsys, f21):
    # configs 001, 100, 110 and 111 have probability 1/4: exactly for 001
    # and 110, one rounding step above it for 100 and below it for 111;
    # 000 has less by more than the tolerance
    rule_path = write_rule(tmp_path, f21)
    half = 0.5
    state = np.zeros(8, dtype=complex)
    state[[1, 4, 6, 7]] = half, np.nextafter(half, 1.0), half, np.nextafter(half, 0.0)
    state[0] = 1e-5
    assert len({p for p in np.abs(state[[1, 4, 6, 7]]) ** 2}) == 3
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps([[z.real, z.imag] for z in state]))
    for top, listed in ((1, ["001"]), (3, ["001", "100", "110"]),
                        (5, ["001", "100", "110", "111", "000"])):
        code, out, _ = run(capsys, "simulate", rule_path, "--sites", "3", "--steps", "0",
                           "--initial", str(state_path), "--top", str(top))
        tops = out.splitlines()[1].split("top: ")[1].split()
        assert code == 0 and [entry.split(":")[0] for entry in tops] == listed


@pytest.mark.parametrize("chunk", [3, 4])
def test_simulate_top_ranks_chunk_by_chunk_as_one_stable_sort(tmp_path, capsys, monkeypatch,
                                                              f21, chunk):
    # tie-heavy states, ranked a few amplitudes at a time: the listed configs
    # are those of one stable argsort of the whole rounded rank
    monkeypatch.setattr(cli, "_TOP_CHUNK", chunk)
    rule_path = write_rule(tmp_path, f21)
    state_path = tmp_path / "state.json"
    rng = np.random.default_rng(27 + chunk)
    straddled = set()
    for n in (3, 5, 6):
        dim = 2**n
        state = rng.choice([0, 0.5, 1, 1j, -1, 0.5j], size=dim)
        state /= np.linalg.norm(state)
        state_path.write_text(json.dumps([[z.real, z.imag] for z in state]))
        evolved = evolve(f21, n, state, 1)
        for top in (0, 1, 2, 8, chunk - 1, chunk, dim, dim + 5):
            code, out, _ = run(capsys, "simulate", rule_path, "--sites", str(n), "--steps", "1",
                               "--initial", str(state_path), "--top", str(top))
            assert code == 0
            for line, vec in zip(out.splitlines()[1:], (state, evolved)):
                probs = np.abs(vec) ** 2
                rank = np.rint(probs / f21.tolerance)
                size = chunk if top < chunk else dim  # what _top_indices reads at a time
                if any(rank[low - 1] == rank[low] for low in range(size, dim, size)):
                    straddled.add(top)
                expected = [config_str(index_config(int(i), 2, n))
                            for i in np.argsort(-rank, kind="stable")[:top] if probs[i] > 0]
                assert [entry.split(":")[0] for entry in line.split("top: ")[1].split()] == expected
    assert straddled >= {1, 2}  # ties straddle chunk boundaries at each chunk size
    # NaN, which no state file can hold, ranks last in each chunk and overall
    state = rng.choice([np.nan, 0, 1, 1j], size=17)
    rank = np.rint(np.abs(state) ** 2 / f21.tolerance)
    for top in (0, 1, 5, 12, 17, 20):
        assert np.array_equal(cli._top_indices(state, top, f21.tolerance),
                              np.argsort(-rank, kind="stable")[:top])
    # ranks as whole numbers (tolerance 1): a later chunk that ties the top-th
    # stays out, one a rounding step before it enters, and a NaN top-th lets in
    # any number; the same at each chunk size
    for ranks, top, expected in (([5, 3, 1, 0, 3, 1, 3], 2, [0, 1]),
                                 ([5, 3, 1, 0, 4, 1, 3], 2, [0, 4]),
                                 ([np.nan, 2, np.nan, np.nan, 0, np.nan, 1], 2, [1, 6]),
                                 ([np.nan, 2, np.nan, np.nan, 0, np.nan, 1], 3, [1, 6, 4])):
        state = np.sqrt(np.array(ranks)) + 0j
        assert np.array_equal(np.argsort(-np.rint(np.abs(state) ** 2), kind="stable")[:top],
                              expected)
        assert cli._top_indices(state, top, 1.0).tolist() == expected


def test_simulate_norm_sums_chunk_by_chunk_in_index_order():
    # several states per size, as the square root maps neighbouring sums to one float
    rng = np.random.default_rng(29)
    for dim in (2**13 - 1, 2**13 + 1, 2**16) * 8:
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        total = 0.0
        for low in range(0, dim, 2**13):
            total += float(np.sum(np.square(state[low:low + 2**13].view(float))))
        assert cli._TOP_CHUNK == 2**13 and cli._norm(state) == math.sqrt(total)


def test_simulate_runs_in_four_state_vectors(tmp_path, capsys):
    # the state, the spare vector the next step writes into and the map's two
    # scratch vectors: no step result of its own, and --top ranks in chunks
    path = write_rule(tmp_path, make_family("f21", {"theta": 0.7, "rho": 1.5}))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "simulate", path, "--sites", "18", "--steps", "3",
                           "--initial", "0" * 17 + "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.count("step ") == 4
    assert peak <= 4.25 * 2**18 * 16


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_simulate_norm_is_the_same_for_every_blas_thread_count(tmp_path):
    # np.linalg.norm sums by BLAS dot products, whose split over two threads
    # printed norm=1.000000000001 here at step 1, against 1.000000000000
    path = write_rule(tmp_path, make_family("f21", {"theta": 0.7, "rho": 1.5}))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "qca1d.cli", "simulate", path, "--sites", "20",
                               "--steps", "1", "--initial", "0" * 19 + "1"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1] and "norm=1.000000000000" in outs[0]


def test_simulate_builds_the_evolution_once(tmp_path, capsys, monkeypatch, f21):
    import qca1d.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("simulate built the dense matrix")

    builds = []
    original = oracle._block_kernels
    monkeypatch.setattr(oracle, "global_matrix", refuse)
    monkeypatch.setattr(oracle, "_block_kernels",
                        lambda *a, **kw: builds.append(a[1]) or original(*a, **kw))
    path = write_rule(tmp_path, f21)
    for initial in ("00100110", "0010011000101"):
        oracle.evolution_step(f21, len(initial))
        once = builds.copy()
        builds.clear()
        code, out, _ = run(capsys, "simulate", path, "--sites", str(len(initial)), "--steps", "4",
                           "--initial", initial)
        assert code == 0 and out.count("step ") == 5
        assert once and builds == once
        builds.clear()


def test_huge_k_is_rejected_at_once(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"q": 2, "k": 100_000_000, "amplitudes": {"0": [[1, 0], [0, 0]]}}))
    started = time.perf_counter()
    code, _, err = run(capsys, "verify", str(path), "--mode", "periodic")
    assert code == 2 and "'k'" in err
    assert time.perf_counter() - started < 0.1


def test_pair_graph_commands_exit_3_before_allocating(tmp_path, capsys):
    # q^(2k) = 3^14 pair weights is over MAX_PAIR_ENTRIES; 2^16 are not, but
    # the 2^14-square transfer matrix of zpoly would take 4 GiB
    path = write_rule(tmp_path, quantized_shift(3, 7))
    wide = write_rule(tmp_path, quantized_shift(2, 8), "wide.json")
    for argv in (("paths", path, "--max-len", "2"), ("graph", path, "--which", "g2"),
                 ("zpoly", wide, "--which", "g2")):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and "cap" in err
        assert peak < 16 * 2**20  # the weights alone would take 73 MiB


def test_ring_state_commands_exit_3_before_allocating(tmp_path, capsys, f21):
    # 2^40 and 2^25 amplitudes are over MAX_STATE_DIM; no exact kernel takes
    # a (2, 7) rule on 25 sites, so oracle would estimate on such states
    path = write_rule(tmp_path, f21)
    wide = write_rule(tmp_path, quantized_shift(2, 7), "wide.json")
    for argv in (("oracle", wide, "--sites", "25"),
                 ("simulate", path, "--sites", "40", "--steps", "1", "--initial", "01" * 20),
                 ("simulate", path, "--sites", "40", "--steps", "1", "--initial", "state.json")):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and "cap" in err
        assert peak < 2**20


def test_oracle_takes_every_ring_an_exact_kernel_takes(tmp_path, capsys, f21):
    # the closed walks take these rings past MAX_STATE_DIM, and the
    # dimension is printed as the exact integer q^N
    for i, (rule, sites) in enumerate(((f21, 25), (f21, 40), (quantized_shift(3, 3), 16),
                                       (quantized_shift(3, 3), 20), (quantized_shift(2, 5), 26))):
        path = write_rule(tmp_path, rule, f"rule{i}.json")
        code, out, _ = run(capsys, "oracle", path, "--sites", str(sites), "--json")
        data = json.loads(out)
        assert code == 0 and data["exact"] and data["dimension"] == rule.q**sites, (i, sites)
        assert data["defect"] <= 1e-12
        code, out, _ = run(capsys, "oracle", path, "--sites", str(sites))
        assert code == 0 and f"sites: {sites} (dimension {rule.q**sites})\n" in out
    for sites in ("0", "-3"):  # walk_defect refuses with the message state_dim gave
        code, out, err = run(capsys, "oracle", path, "--sites", sites)
        assert (code, out, err) == (2, "", f"error: need at least one site, got {sites}\n")
    wide = write_rule(tmp_path, quantized_shift(2, 7), "wide.json")
    code, out, err = run(capsys, "oracle", wide, "--sites", "25")
    assert (code, out) == (3, "")
    assert err == "error: ring state dimension 2^25, over the cap of 16777216\n"


def test_oracle_refuses_a_dimension_too_long_to_print(tmp_path, capsys, monkeypatch, f21):
    # Python 3.11+ converts no int of more than 4300 digits to str: 10^4299 has
    # 4300 and prints, 10^4300 and 2^20000 are refused before any kernel runs
    ten = write_rule(tmp_path, RuleTable(10, 1, np.eye(10)), "ten.json")
    code, out, _ = run(capsys, "oracle", ten, "--sites", "4299", "--json")
    assert code == 0 and json.loads(out)["dimension"] == 10**4299

    def refuse(*args):
        raise AssertionError("a kernel was picked")

    monkeypatch.setattr(cli, "exact_defect_kernel", refuse)
    path = write_rule(tmp_path, f21)
    for rule_path, q, sites, digits in ((ten, 10, 4300, 4301), (path, 2, 20000, 6021)):
        for flags in ((), ("--json",), ("--defect-only",)):
            code, out, err = run(capsys, "oracle", rule_path, "--sites", str(sites), *flags)
            assert (code, out) == (3, "") and err == (
                f"error: ring dimension {q}^{sites} has {digits} digits, over the cap of 4300\n")


def test_empty_oracle_sample_and_negative_steps_exit_2(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, err = run(capsys, "oracle", path, "--sites", "13", "--samples", "0")
    assert code == 2 and out == "" and "sample" in err
    code, out, err = run(capsys, "simulate", path, "--sites", "4", "--steps", "-2",
                         "--initial", "0010")
    assert code == 2 and out == "" and "steps" in err


def test_oracle_without_samples_exits_2_on_both_branches(tmp_path, capsys, f21):
    # the exact branch never reads --samples, the estimate does
    path = write_rule(tmp_path, f21)
    wide = write_rule(tmp_path, quantized_shift(2, 7), "wide.json")
    for rule_path, sites in ((path, "4"), (path, "13"), (wide, "13")):
        code, out, err = run(capsys, "oracle", rule_path, "--sites", sites, "--samples", "0")
        assert code == 2 and out == "" and "sample" in err


def test_simulate_negative_top_exits_2(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    code, out, err = run(capsys, "simulate", path, "--sites", "3", "--steps", "1",
                         "--initial", "010", "--top", "-1")
    assert code == 2 and out == "" and "--top" in err
    code, out, _ = run(capsys, "simulate", path, "--sites", "3", "--steps", "1",
                       "--initial", "010", "--top", "0")
    assert code == 0 and [line.split("top: ")[1] for line in out.splitlines()[1:]] == ["", ""]


def test_seeded_output_is_stable(tmp_path, capsys, f21):
    # on the estimate branch, which alone reads the seed
    path = write_rule(tmp_path, with_noise(quantized_shift(2, 7), 1e-3))
    _, out1, _ = run(capsys, "oracle", path, "--sites", "13", "--json",
                     "--samples", "2", "--seed", "3")
    _, out2, _ = run(capsys, "oracle", path, "--sites", "13", "--json",
                     "--samples", "2", "--seed", "3")
    assert out1 == out2 and not json.loads(out1)["exact"]


def test_tolerance_override(tmp_path, capsys, f21):
    path = write_rule(tmp_path, f21)
    # an absurdly tight tolerance flags float roundoff as violations
    code, _, _ = run(capsys, "verify", path, "--mode", "periodic",
                     "--tolerance", "1e-18")
    assert code == 1


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch, f21):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    path = write_rule(tmp_path, f21)
    calls = [[sub, "--help"] for sub in
             ("verify", "oracle", "simulate", "family", "graph", "paths", "zpoly")]
    calls += [["--help"], ["verify", path], ["verify", path, "--mode", "sideways"],
              ["verify", str(tmp_path / "missing.json"), "--mode", "periodic"],
              ["verify", path, "--mode", "periodic"]]
    first = [run(capsys, *argv) for argv in calls]
    again = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert first == again
    assert built == [1]
    assert [code for code, _, _ in first] == [0] * 8 + [2, 2, 2, 0]
    assert "usage: qca1d verify" in first[8][2] and "sideways" in first[9][2]
    # build_parser itself still returns a fresh parser each time
    fresh = original()
    assert fresh is not original() and fresh is not cli._parser()
    assert fresh.format_help() == cli._parser().format_help()


def _reference_main(argv=None):
    """``main`` as the top-level parser alone would run it: one
    ``parse_args`` over the whole argv, the same exit codes."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except cli.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def test_main_parses_once_as_the_top_level_parser_would(tmp_path, capsys, monkeypatch, f21):
    path = write_rule(tmp_path, f21)
    verify = ["verify", path, "--mode", "periodic"]
    argvs = [[], ["--help"], ["-h"], ["bogus"], ["veri", *verify[1:]], ["verify"]]
    argvs += [[sub, "--help"] for sub in
              ("verify", "oracle", "simulate", "family", "graph", "paths", "zpoly")]
    argvs += [
        verify, verify[:3] + ["sideways"], verify + ["--bogus"], verify[:2] + ["--mo", "periodic"],
        ["verify", path, "--mode=periodic", "--tolerance=1e-3"],
        ["verify", "--mode", "periodic", "--", path], ["verify", path, "--", "--mode", "periodic"],
        verify + ["--"], ["--tolerance", "1", *verify], ["oracle", path, "--sites", "x"],
        ["paths", path, "--max-len", "2", "extra"], ["family", "--list", "--", "f21"],
    ]
    for argv in argvs:
        expected = (_reference_main(list(argv)), *capsys.readouterr())
        assert (main(list(argv)), *capsys.readouterr()) == expected, argv
    # argv=None reads sys.argv
    for argv in (verify, ["verify", path], []):
        monkeypatch.setattr(sys, "argv", ["qca1d", *argv])
        expected = (_reference_main(), *capsys.readouterr())
        assert (main(), *capsys.readouterr()) == expected, argv
    # a command's argv is parsed once, by the command's parser
    calls = []
    original = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **kw: calls.append(self.prog) or original(self, *a, **kw))
    assert main(verify) == 0 and calls == ["qca1d verify"]
    assert main(["bogus"]) == 2 and calls[1:] == ["qca1d"]


def _reference_witness_str(witness):
    """The text witness, one config_str per element."""
    if witness[0] == "det":
        return f"det gamma={config_str(witness[1]) or '()'}"
    if witness[0] == "scalar":
        return (f"scalar gamma={config_str(witness[1]) or '()'} rho={config_str(witness[2])}"
                f" rho'={config_str(witness[3])}")
    return " ".join(config_str(item[0]) + "|" + config_str(item[1])
                    if isinstance(item[0], tuple) else config_str(item) for item in witness)


def test_verify_text_witnesses_match_reference(tmp_path, capsys):
    from qca1d import RuleTable

    rule = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6})
    amps = rule.amplitudes.copy()
    amps[7] = amps[0]
    for mode, rule, check in (("periodic", with_noise(quantized_shift(2, 3), 1e-3), check_periodic),
                              ("infinite", RuleTable(2, 3, amps), check_infinite)):
        path = write_rule(tmp_path, rule)
        code, out, _ = run(capsys, "verify", path, "--mode", mode)
        listed = [line.split("witness: ")[1] for line in out.splitlines() if "witness: " in line]
        reports = check(rule).reports
        assert code == 1 and len(listed) == len(reports) > 0
        for text, report in zip(listed, reports):
            assert text == _reference_witness_str(report.witness)
    assert {r.witness[0] for r in reports} >= {"scalar", "det"}


def test_each_command_declares_only_the_options_it_reads():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for name, p in sub.choices.items()}
    assert declared == {
        "verify": {"--mode", "--json", "--tolerance"},
        "oracle": {"--sites", "--defect-only", "--json", "--samples", "--seed", "--tolerance"},
        "simulate": {"--sites", "--steps", "--initial", "--top", "--tolerance"},
        "family": {"--param", "--list", "--tolerance"},
        "graph": {"--which", "--tolerance"},
        "paths": {"--max-len"},
        "zpoly": {"--which", "--convention"},
    }


def test_options_a_command_does_not_read_are_usage_errors(tmp_path, capsys, f21):
    # every command once inherited --tolerance, --seed and --json; these 13 read nothing
    path = write_rule(tmp_path, f21)
    argvs = {"verify": ["verify", path, "--mode", "periodic"],
             "simulate": ["simulate", path, "--sites", "3", "--steps", "1", "--initial", "000"],
             "family": ["family", "f21"], "graph": ["graph", path],
             "paths": ["paths", path, "--max-len", "2"], "zpoly": ["zpoly", path]}
    removed = [(c, ["--json"]) for c in ("simulate", "family", "graph", "paths", "zpoly")]
    removed += [(c, ["--seed", "3"]) for c in argvs]
    removed += [(c, ["--tolerance", "1e-6"]) for c in ("paths", "zpoly")]
    assert len(removed) == 13
    for command, extra in removed:
        assert run(capsys, *argvs[command])[0] == 0
        code, out, err = run(capsys, *argvs[command], *extra)
        assert code == 2 and out == "" and err.startswith("usage: qca1d [-h] {"), (command, extra)
        assert f"unrecognized arguments: {' '.join(extra)}" in err


def test_graph_reads_the_tolerance_through_the_sector(tmp_path, capsys, ident):
    from qca1d import RuleTable

    amps = ident.amplitudes.copy()
    amps[3] = [0, 1 - 1e-6]  # a unit component at tolerance 1e-5, not at the default
    path = write_rule(tmp_path, RuleTable(2, 2, amps))
    code, default, _ = run(capsys, "graph", path, "--which", "d1")
    assert code == 0 and '"1" -> "1"' not in default
    code, loose, _ = run(capsys, "graph", path, "--which", "d1", "--tolerance", "1e-5")
    assert code == 0 and loose == default.replace("}", '  "1" -> "1" [label="1 / 0.999998"];\n}')


def test_amplitudes_whose_squared_norm_overflows_are_refused(tmp_path, capsys):
    # rho = 1e200 squares past float range: verify said unitary after overflow
    # warnings and the oracle read a defect of nan
    code, out, err = run(capsys, "family", "f21", "--param", "rho=1e200")
    assert code == 2 and out == "" and err.startswith("error:") and "overflows" in err
    data = rule_to_dict(make_family("f21", {"rho": 1e150}))
    assert data["amplitudes"]["01"][1] == [1e150, 0.0] and data["amplitudes"]["10"][0] == [1e-150, 0.0]
    data["amplitudes"]["01"][1], data["amplitudes"]["10"][0] = [1e200, 0.0], [1e-200, 0.0]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    for argv in (["verify", str(big), "--mode", "periodic"], ["oracle", str(big), "--sites", "4"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "overflows" in err, argv
    # rho = 1e150 still squares within range, and is unitary on rings
    code, out, _ = run(capsys, "family", "f21", "--param", "rho=1e150")
    assert code == 0
    path = tmp_path / "rule.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "periodic")
    assert code == 0 and "verdict: unitary" in out
    for sites in (4, 9, 16):
        code, out, _ = run(capsys, "oracle", str(path), "--sites", str(sites), "--json")
        result = json.loads(out)
        assert code == 0 and result["exact"] and result["defect"] <= 2.3e-16, sites
