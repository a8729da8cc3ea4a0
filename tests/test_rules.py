import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qca1d import (
    RuleTable,
    index_config,
    inner,
    make_family,
)
from qca1d.rules import (RuleFormatError, as_config, config_index, dump_rule, is_deterministic,
                         parity_transform, rule_from_dict, rule_to_dict)

from references import approx_equal, state_transpose, unit_configs


def test_config_encoding_roundtrip():
    assert config_index((1, 0, 1), 2) == 5
    assert index_config(5, 2, 3) == (1, 0, 1)
    for idx in range(27):
        assert config_index(index_config(idx, 3, 3), 3) == idx


def test_inner_identity_rule(ident):
    assert inner(ident, "00", "00") == pytest.approx(1.0)
    assert inner(ident, "00", "01") == pytest.approx(0.0)


def test_inner_f21_quarter_turn():
    rule = make_family("f21", {"theta": np.pi / 4})
    # conj(1/sqrt2)(i/sqrt2) + conj(i/sqrt2)(1/sqrt2) cancels exactly.
    assert inner(rule, "00", "01") == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_inner_hermitian_and_positive(ia, ib, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    rule = RuleTable(2, 2, amps)
    a, b = index_config(ia, 2, 2), index_config(ib, 2, 2)
    assert inner(rule, a, b) == pytest.approx(np.conj(inner(rule, b, a)))
    self_ip = inner(rule, a, a)
    assert self_ip.real >= -1e-9
    assert abs(self_ip.imag) <= 1e-9


def test_parity_is_involution(f21):
    assert approx_equal(parity_transform(parity_transform(f21)), f21)


def test_parity_f21_swaps_middle_rows(f21):
    swapped = parity_transform(f21)
    np.testing.assert_allclose(swapped.amplitudes[0], f21.amplitudes[0])
    np.testing.assert_allclose(swapped.amplitudes[1], f21.amplitudes[2])
    np.testing.assert_allclose(swapped.amplitudes[2], f21.amplitudes[1])
    np.testing.assert_allclose(swapped.amplitudes[3], f21.amplitudes[3])


def test_parity_identity_copies_first_cell(ident):
    flipped = parity_transform(ident)
    for cfg in flipped.configs():
        vec = flipped.vector(cfg)
        assert vec[cfg[0]] == pytest.approx(1.0)


def test_parity_commutes_with_inner(f21):
    flipped = parity_transform(f21)
    for a in f21.configs():
        for b in f21.configs():
            assert inner(flipped, a, b) == pytest.approx(
                inner(f21, tuple(reversed(a)), tuple(reversed(b))))


def test_state_transpose_identity_perm(f21):
    assert approx_equal(state_transpose(f21, (0, 1), "both"), f21)


def test_state_transpose_involution(f21):
    for side in ("input", "output", "both"):
        twice = state_transpose(state_transpose(f21, (1, 0), side), (1, 0), side)
        assert approx_equal(twice, f21)


def test_state_transpose_output_side(ident):
    swapped = state_transpose(ident, (1, 0), "output")
    for cfg in ident.configs():
        # new f(i|cfg) = old f(tau i|cfg), so the unit moves to tau^-1(i2) = 1 - i2
        assert swapped.vector(cfg)[1 - cfg[1]] == pytest.approx(1.0)


def test_state_transpose_rejects_non_bijection(f21):
    with pytest.raises(ValueError):
        state_transpose(f21, (0, 0), "both")
    with pytest.raises(ValueError):
        state_transpose(f21, (0, 1), "sideways")


def test_unit_configs(ident, f21_00):
    assert unit_configs(ident) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert unit_configs(f21_00) == {(0, 0)}
    near_miss = RuleTable(2, 2, np.array([[0.9, 0.1], [1, 0], [1, 0], [1, 0]], dtype=complex))
    assert (0, 0) not in unit_configs(near_miss)


def test_unit_configs_parity_covariant():
    rule = make_family("f31_000_111", {"m1": 1.3, "m2": 0.7, "p1": 0.4, "p6": 1.0,
                                       "theta01": 0.5, "delta01": 0.2, "phi010": 0.1,
                                       "phi011": 0.6, "theta10": 1.2, "delta10": 0.9,
                                       "phi100": 0.3, "phi101": 1.5})
    flipped = parity_transform(rule)
    assert unit_configs(flipped) == {tuple(reversed(c)) for c in unit_configs(rule)}


def test_is_deterministic(ident, f21):
    assert is_deterministic(ident)
    assert not is_deterministic(f21)
    loose = RuleTable(2, 2, np.array([[1, 0.1], [0, 1], [1, 0], [0, 1]], dtype=complex))
    assert not is_deterministic(loose)


def test_json_roundtrip(f21):
    data = json.loads(dump_rule(f21))
    back = rule_from_dict(data)
    assert approx_equal(back, f21) and back.tolerance == f21.tolerance


def test_approx_equal_needs_the_same_shape(ident):
    wider = RuleTable(2, 3, np.repeat(ident.amplitudes, 2, axis=0))
    assert not approx_equal(ident, wider) and not approx_equal(wider, ident)


def test_rule_dict_errors(ident):
    good = rule_to_dict(ident)
    for breakage in (
        lambda d: d.pop("q"),
        lambda d: d["amplitudes"].pop("00"),
        lambda d: d["amplitudes"].__setitem__("00", [[0.0, 0.0]]),
        lambda d: d["amplitudes"].__setitem__("00", [[0.0], [0.0, 0.0]]),
        lambda d: d.__setitem__("tolerance", -1.0),
        lambda d: d.__setitem__("q", "two"),
        lambda d: d["amplitudes"].__setitem__("0x", d["amplitudes"].pop("01")),
    ):
        data = json.loads(json.dumps(good))
        breakage(data)
        with pytest.raises(RuleFormatError):
            rule_from_dict(data)


def test_rule_dict_refuses_json_booleans():
    # a bool is an int: "k": true read as k = True, dumped back as "k": true,
    # and "tolerance": true read as 1.0
    good = rule_to_dict(RuleTable(2, 1, np.eye(2)))
    for field, message in (("q", "'q' and 'k' must be integers"),
                           ("k", "'q' and 'k' must be integers"),
                           ("tolerance", "'tolerance' must be a positive number")):
        for value in (True, False):
            with pytest.raises(RuleFormatError, match=message):
                rule_from_dict(dict(good, **{field: value}))
    assert rule_from_dict(dict(good, k=1, tolerance=1)).tolerance == 1.0


def test_rule_tolerance_must_be_finite():
    good = rule_to_dict(RuleTable(2, 1, np.eye(2)))
    # json reads Infinity as inf; an int past the float range has no float
    for value in (float("inf"), float("nan"), 10**400):
        with pytest.raises(RuleFormatError, match="'tolerance' must be a positive number and finite"):
            rule_from_dict(dict(good, tolerance=value))
    with pytest.raises(RuleFormatError, match="tolerance inf must be positive and finite"):
        RuleTable(2, 1, np.eye(2), float("inf"))


def test_config_strings_take_ascii_digits_only():
    assert as_config("10", 2, 2) == (1, 0) and as_config("", 2, 0) == ()
    # int() reads the Arabic-Indic digits and refuses the superscript two
    for value in ("\u0661\u0660", "\u00b2\u00b2", "1 ", "+1"):
        with pytest.raises(RuleFormatError, match="has non-digit characters"):
            as_config(value, 2, 2)


def test_config_cells_are_integers_not_floats_or_bools(ident):
    assert as_config((0, np.int64(1)), 2, 2) == (0, 1)
    assert as_config(np.array([1, 0], dtype=np.uint8), 2, 2) == (1, 0)
    # int() would read 1.7 and 1.9 as 1 and True as 1
    for value in ((0, 1.7), (0, True), (0, 1.0), (np.float64(0), 1), (0, np.True_)):
        with pytest.raises(RuleFormatError, match="has cells that are not integers"):
            as_config(value, 2, 2)
    with pytest.raises(RuleFormatError, match="has cells that are not integers"):
        ident.vector((0, 1.9))


def test_rule_dict_reads_keys_in_any_order_and_reports_the_first_error():
    rule = RuleTable(3, 2, np.arange(27).reshape(9, 3) * (1 - 0.5j))
    good = rule_to_dict(rule)
    table = good["amplitudes"]
    shuffled = dict(good, amplitudes={key: table[key] for key in reversed(list(table))})
    assert np.array_equal(rule_from_dict(shuffled).amplitudes, rule.amplitudes)
    # a key of non-ASCII digits is refused, though int() reads them, and a
    # config spelt twice is refused: it would leave the row of the config it
    # displaced unset
    arabic = dict(good, amplitudes={key.replace("1", "\u0661"): v for key, v in table.items()})
    with pytest.raises(RuleFormatError, match="'0\u0661' has non-digit characters"):
        rule_from_dict(arabic)
    twice = dict(table)
    twice[(0, 1)] = twice.pop("22")  # read after "01"
    with pytest.raises(RuleFormatError, match="\\(0, 1\\) names config '01' again"):
        rule_from_dict(dict(good, amplitudes=twice))
    for entries, message in (
            ({"0x": [[0, 0]], "22": [[0, 0]] * 3}, "'0x' has non-digit"),
            ({"+1": [[0, 0]] * 3}, "'\\+1' has non-digit"),
            ({"22": [[0, 0]], "0x": [[0, 0]] * 3}, "'22' must list 3"),
            ({"03": [[0, 0]] * 3}, "outside 0..2"),
            ({"012": [[0, 0]] * 3}, "has length 3"),
            ({"12": [[0, 0], [0], [0, 0]]}, "entry 1 for config '12'")):
        rest = [(key, v) for key, v in table.items() if key not in entries]
        data = dict(good, amplitudes={**entries, **dict(rest[:len(table) - len(entries)])})
        with pytest.raises(RuleFormatError, match=message):
            rule_from_dict(data)
    data = json.loads(json.dumps(good))
    data["amplitudes"]["12"] = [["1.5", 0], [0, 0], [0, 0]]
    with pytest.raises(RuleFormatError, match="entry 0 for config '12' is not a pair of numbers"):
        rule_from_dict(data)


def test_rule_dict_table_is_bitwise_the_same_in_any_key_order_and_number_type():
    # keys in config order and shuffled keys are scattered into the same table;
    # int and float entries of the same numbers give the same bits
    rule = RuleTable(3, 2, np.arange(1, 28).reshape(9, 3) * (1 - 2j))
    floats = rule_to_dict(rule)
    ints = dict(floats, amplitudes={key: [[int(re), int(im)] for re, im in entry]
                                    for key, entry in floats["amplitudes"].items()})
    rng = np.random.default_rng(27)
    for data in (floats, ints):
        keys = list(data["amplitudes"])
        shuffled = dict(data, amplitudes={keys[i]: data["amplitudes"][keys[i]]
                                          for i in rng.permutation(len(keys))})
        for case in (data, shuffled):
            assert rule_from_dict(case).amplitudes.tobytes() == rule.amplitudes.tobytes()


def test_rule_dict_rejects_bad_q_and_k_before_sizing(ident):
    good = rule_to_dict(ident)
    for q, k, name in ((2, 0, "'k'"), (2, -3, "'k'"), (1, 2, "'q'"), (2, 10**8, "'k'")):
        data = dict(good, q=q, k=k)
        started = time.perf_counter()
        with pytest.raises(RuleFormatError, match=name):
            rule_from_dict(data)
        # q**k for k = 10**8 took seconds before k was checked
        assert time.perf_counter() - started < 0.1


def test_table_validation():
    with pytest.raises(RuleFormatError):
        RuleTable(1, 2, np.zeros((1, 1)))
    with pytest.raises(RuleFormatError):
        RuleTable(2, 0, np.zeros((1, 2)))
    with pytest.raises(RuleFormatError):
        RuleTable(2, 2, np.zeros((3, 2)))
    bad = np.zeros((4, 2), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(RuleFormatError):
        RuleTable(2, 2, bad)


def test_table_is_frozen(ident):
    with pytest.raises(ValueError):
        ident.amplitudes[0, 0] = 2.0


def test_squared_norm_overflow_boundary():
    # 1.3e154 squares to 1.69e308, within float range; two of them sum past it
    # (sqrt of the float max is 1.34e154), above the bound of the pre-check
    table = np.zeros((4, 2))
    table[1] = [1.3e154, 1.3e154]
    with pytest.raises(RuleFormatError, match="overflows"):
        RuleTable(2, 2, table)
    table[1] = [1.3e154, 0]
    assert RuleTable(2, 2, table).amplitudes[1, 0] == 1.3e154
    # one entry whose real and imaginary parts each square within range
    with pytest.raises(RuleFormatError, match="overflows"):
        RuleTable(2, 2, np.eye(2, dtype=complex)[[0, 1, 1, 0]] * [1, 1e154 + 1e154j])
    # a non-finite entry is reported as such, before the overflow test
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)):
        table = np.zeros((4, 2), dtype=complex)
        table[0] = [1e300, 1e300]
        table[3, 1] = bad
        with pytest.raises(RuleFormatError, match="non-finite"):
            RuleTable(2, 2, table)


@pytest.mark.parametrize("dtype", [complex, float])
def test_table_owns_a_read_only_copy(dtype):
    source = np.eye(2, dtype=dtype)[[0, 1, 1, 0]]
    rule = RuleTable(2, 2, source)
    source[:] = 7
    assert rule.amplitudes.dtype == complex and not rule.amplitudes.flags.writeable
    assert np.array_equal(rule.amplitudes, np.eye(2)[[0, 1, 1, 0]])
    assert rule.amplitudes.flags.c_contiguous
    # a strided view of the caller's array is copied too, C-ordered
    view = np.asfortranarray(np.eye(2, dtype=dtype)[[1, 0, 0, 1]])
    rule = RuleTable(2, 2, view)
    view[0, 0] = 7
    assert rule.amplitudes[0, 0] == 0 and rule.amplitudes.flags.c_contiguous
