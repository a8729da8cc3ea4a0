import argparse
import io
import json
import time
import tracemalloc

import numpy as np

import qca1d.cli as cli
from qca1d import (
    check_infinite,
    check_periodic,
    config_str,
    dump_rule,
    index_config,
    make_family,
    verdict_from_json,
    walk_defect,
)
from qca1d.cli import main
from qca1d.rules import rule_to_dict

from conftest import deterministic_shift, quantized_shift, with_noise


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


def test_family_errors(capsys):
    code, _, err = run(capsys, "family", "f21", "--param", "rho=-2")
    assert code == 2 and "rho" in err
    code, _, err = run(capsys, "family")
    assert code == 2


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
    # "\u0660" is an Arabic-Indic zero, which int() reads as 0: the second key
    # names config 01 again, and config 10 has no entry
    amplitudes = {"00": [[1, 0], [0, 0]], "\u06601": [[0, 0], [1, 0]],
                  "01": [[0, 0], [1, 0]], "11": [[0, 0], [1, 0]]}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"q": 2, "k": 2, "amplitudes": amplitudes}, ensure_ascii=False),
                    encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "--mode", "periodic")
    assert code == 2 and out == "" and "'01'" in err


def test_state_file_of_bare_numbers_exits_2(tmp_path, capsys, f21):
    rule_path = write_rule(tmp_path, f21)
    state_path = tmp_path / "state.json"
    for state, message in (([1, 0, 0, 0], "[re, im] pairs"),
                           ([[1, 0], ["0", 0], [0, 0], [0, 0]], "not two numbers"),
                           ([[1, 0], [10**400, 0], [0, 0], [0, 0]], "not two numbers")):
        state_path.write_text(json.dumps(state))
        code, out, err = run(capsys, "simulate", rule_path, "--sites", "2",
                             "--steps", "1", "--initial", str(state_path))
        assert code == 2 and out == "" and message in err


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


def test_paths_output(tmp_path, capsys):
    rule = make_family("f31", {"r1": 1.1, "r2": 0.9, "r6": 1.2})
    path = write_rule(tmp_path, rule)
    code, out, _ = run(capsys, "paths", path, "--max-len", "4")
    assert code == 0
    assert "n = 3: 16 monomials" in out and "n = 4: 32 monomials" in out
    assert "w_{01}w_{02}w_{04}" in out


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
    # 2^40 amplitudes is over MAX_STATE_DIM
    path = write_rule(tmp_path, f21)
    for argv in (("oracle", path, "--sites", "40"),
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
        assert code == 2 and out == "" and err.startswith("usage: qca1d"), (command, extra)
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
