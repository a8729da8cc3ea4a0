import hashlib
import time

import numpy as np
import pytest

from qca1d import (
    check_periodic,
    deterministic_sector,
    evaluate_condition,
    frame_rule,
    inner,
    make_family,
    patt_rule,
    quantize,
    random_params,
)
from qca1d.families import FAMILIES, ParameterError, family_names, single_frame
from qca1d.graphs import CapExceeded
from qca1d.oracle import exact_defect_kernel
from qca1d.rules import (DEFAULT_TOLERANCE, all_configs, as_config, config_digits, config_str,
                         dump_rule, is_deterministic, parity_transform)

from conftest import haar_unitary, with_noise
from references import approx_equal


def test_f21_deterministic_limit(ident):
    rule = make_family("f21", {"theta": 0.0, "alpha": 0.0, "phi1": 0.0, "phi2": 0.0, "rho": 1.0})
    assert approx_equal(rule, ident)


def test_f21_frame_relations(f21):
    # single frame: vectors grouped by the last cell, groups orthogonal
    assert abs(inner(f21, "00", "01")) <= 1e-12
    assert abs(inner(f21, "00", "11")) <= 1e-12
    assert abs(inner(f21, "10", "01")) <= 1e-12
    assert abs(inner(f21, "10", "11")) <= 1e-12
    assert abs(inner(f21, "00", "10")) > 0.1
    assert inner(f21, "00", "00") == pytest.approx(1.0)
    assert inner(f21, "11", "11") == pytest.approx(1.0)
    w1 = inner(f21, "01", "01").real
    w2 = inner(f21, "10", "10").real
    assert w1 * w2 == pytest.approx(1.0)


def test_f21_00_table_entries(f21_00):
    np.testing.assert_allclose(f21_00.vector("00"), [1.0, 0.0])
    assert f21_00.amplitude(0, "01") == 0.0
    assert abs(f21_00.amplitude(1, "01")) == pytest.approx(2.0)  # rho
    assert abs(f21_00.amplitude(0, "10")) == pytest.approx(np.cos(np.pi / 3) / 2.0)


def test_parity_variants_match():
    rng = np.random.default_rng(9)
    for base, twin in (("f21", "f2m1"), ("f21_00", "f2m1_00"),
                       ("f31", "f3m1"), ("f31_000", "f3m1_000")):
        params = random_params(base, rng)
        assert approx_equal(make_family(twin, params),
                            parity_transform(make_family(base, params)))


def test_f31_unit_scales_standard_basis():
    rule = make_family("f31", {"z1": 1, "z2": 1, "z3": 1, "z4": 1, "z5": 1, "z6": 1})
    # every vector is a basis vector; classes grouped by the last cell
    for cfg in rule.configs():
        vec = rule.vector(cfg)
        np.testing.assert_allclose(vec, np.eye(2)[cfg[-1]], atol=1e-12)
    assert check_periodic(rule).unitary


def test_f31_norm_constraints():
    rng = np.random.default_rng(4)
    rule = make_family("f31", random_params("f31", rng))
    w = {i: inner(rule, cfg, cfg).real for i, cfg in enumerate(rule.configs())}
    assert w[0] == pytest.approx(1.0) and w[7] == pytest.approx(1.0)
    assert w[2] * w[5] == pytest.approx(1.0)
    assert w[1] * w[2] * w[4] == pytest.approx(1.0)
    assert w[3] * w[6] * w[5] == pytest.approx(1.0)
    assert w[1] * w[3] * w[6] * w[4] == pytest.approx(1.0)


def test_f31_explicit_z_constraint_violation():
    with pytest.raises(ParameterError, match="z2 z5"):
        make_family("f31", {"z1": 1, "z2": 2, "z3": 1, "z4": 0.5, "z5": 1, "z6": 1})
    with pytest.raises(ParameterError, match="all of z1"):
        make_family("f31", {"z1": 1})


def test_parameter_validation():
    with pytest.raises(ParameterError, match="rho"):
        make_family("f21", {"rho": -1.0})
    with pytest.raises(ParameterError, match="unknown parameters"):
        make_family("f21", {"omega": 1.0})
    with pytest.raises(ParameterError, match="unknown family"):
        make_family("f99", {})


def test_f31_000_sector_and_norms():
    rng = np.random.default_rng(11)
    rule = make_family("f31_000", random_params("f31_000", rng))
    assert deterministic_sector(rule) == {(0, 0, 0)}
    w = {i: inner(rule, cfg, cfg).real for i, cfg in enumerate(rule.configs())}
    assert w[7] == pytest.approx(1.0)
    assert w[2] * w[5] == pytest.approx(1.0)
    assert w[1] * w[2] * w[4] == pytest.approx(1.0)
    assert w[3] * w[6] * w[5] == pytest.approx(1.0)


def test_f31_000_111_sector_and_path_norms():
    rng = np.random.default_rng(12)
    rule = make_family("f31_000_111", random_params("f31_000_111", rng))
    assert deterministic_sector(rule) == {(0, 0, 0), (1, 1, 1)}
    w = {i: inner(rule, cfg, cfg).real for i, cfg in enumerate(rule.configs())}
    assert w[1] * w[3] == pytest.approx(1.0)
    assert w[4] * w[6] == pytest.approx(1.0)


def test_patt_rule_table():
    patt = patt_rule()
    assert patt.q == 2 and patt.k == 4 and is_deterministic(patt)
    # second cell flips exactly in the 0?10 context
    assert patt.amplitude(0, "0110") == pytest.approx(1.0)
    assert patt.amplitude(1, "0010") == pytest.approx(1.0)
    assert patt.amplitude(1, "0111") == pytest.approx(1.0)
    assert patt.amplitude(0, "1010") == pytest.approx(1.0)  # i1=1 blocks the flip
    assert patt.amplitude(0, "0000") == pytest.approx(1.0)


def test_frame_rule_validates_orthogonality():
    vectors = {"00": [[1, 0], [0, 0]], "01": [[0, 0], [1, 0]],
               "10": [[1, 0], [0, 0]], "11": [[1, 0], [0, 0]]}
    with pytest.raises(ParameterError, match="not orthogonal"):
        frame_rule(2, 2, 1, vectors)
    vectors["11"] = [[0, 0], [1, 0]]
    rule = frame_rule(2, 2, 1, vectors)
    assert evaluate_condition(rule, "P-iii") == []


def test_frame_rule_rejects_bad_shape():
    with pytest.raises(ParameterError, match="0 < j < k"):
        frame_rule(2, 2, 2, {})
    with pytest.raises(ParameterError, match="missing"):
        frame_rule(2, 2, 1, {"00": [[1, 0], [0, 0]]})


def _frame_check_reference(q, k, j, vectors, tolerance=DEFAULT_TOLERANCE):
    """The frame check as one np.vdot per cross-class pair, classes found by
    scanning every config: None, or the message of the first pair that fails."""
    table = {as_config(key, q, k): np.array(value, dtype=complex)
             for key, value in vectors.items()}
    for gamma in all_configs(q, j):
        members = {i: [c for c in all_configs(q, k) if c[:j] == gamma and c[j] == i]
                   for i in range(q)}
        for i in range(q):
            for ip in range(i + 1, q):
                for ca in members[i]:
                    for cb in members[ip]:
                        ip_val = complex(np.vdot(table[ca], table[cb]))
                        if abs(ip_val) > tolerance:
                            return (f"vectors for {config_str(ca)} and {config_str(cb)} are not "
                                    f"orthogonal (inner product {ip_val!r})")
    return None


def _frame_outcome(q, k, j, vectors, tolerance=DEFAULT_TOLERANCE):
    try:
        frame_rule(q, k, j, vectors, tolerance)
    except ParameterError as exc:
        return str(exc)
    return None


def _frame_table(rng, q, k, j):
    """A valid depth-j frame table: config gamma i t gets column i of a Haar
    unitary of its prefix gamma, times a random complex scale."""
    unitaries = np.array([haar_unitary(rng, q) for _ in range(q**j)])
    gamma, cell = np.arange(q**k) // q ** (k - j), config_digits(q, k)[j]
    scales = rng.uniform(0.5, 1.5, q**k) * np.exp(1j * rng.uniform(0, 2 * np.pi, q**k))
    return unitaries[gamma, :, cell] * scales[:, None]


def _as_vectors(q, k, amps):
    return {config_str(cfg): list(row) for cfg, row in zip(all_configs(q, k), amps)}


def _rounding_tolerances(q, k, j, amps):
    """Tolerances placed exactly on a cross-class |inner product| that a BLAS
    product and np.vdot round to different values, once on each value."""
    cells = config_digits(q, k)
    prefix = np.arange(q**k) // q ** (k - j)
    cross = (prefix[:, None] == prefix[None, :]) & (cells[j][:, None] < cells[j][None, :])
    gram = np.abs(amps.conj() @ amps.T)
    per_pair = np.array([[abs(complex(np.vdot(x, y))) for y in amps] for x in amps])
    differ = np.argwhere((gram != per_pair) & cross)
    return [float(v[a, b]) for a, b in differ[:1] for v in (gram, per_pair)]


FRAME_GRID = [(2, k) for k in range(3, 7)] + [(3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("q, k", FRAME_GRID)
def test_frame_check_matches_the_per_pair_reference(q, k):
    rng = np.random.default_rng(10 * q + k)
    verdicts, on_rounding = set(), 0
    for j in range(1, k):
        frame = _frame_table(rng, q, k, j)
        for eps, rows in ((0.0, 0), (1e-3, 1), (1e-10, q**k), (2e-9, q**k), (1e-3, q**k)):
            amps = frame.copy()
            picked = rng.choice(q**k, size=rows, replace=False)
            amps[picked] += eps * (rng.normal(size=(rows, q)) + 1j * rng.normal(size=(rows, q)))
            vectors = _as_vectors(q, k, amps)
            tolerances = [DEFAULT_TOLERANCE] + _rounding_tolerances(q, k, j, amps)
            on_rounding += len(tolerances) - 1
            for tol in tolerances:
                expected = _frame_check_reference(q, k, j, vectors, tol)
                assert _frame_outcome(q, k, j, vectors, tol) == expected, (j, eps, rows, tol)
                verdicts.add(expected is None)
    assert verdicts == {True, False} and on_rounding > 0


@pytest.mark.parametrize("j", [1, 10])
def test_frame_rule_round_trips_a_2_11_single_frame_table(j):
    rng = np.random.default_rng(j)
    scales = np.exp(rng.uniform(-0.5, 0.5, 2**11) + 1j * rng.uniform(0, 2 * np.pi, 2**11))
    rule = single_frame(2, 11, j, haar_unitary(rng, 2), dict(enumerate(scales)))
    vectors = _as_vectors(2, 11, rule.amplitudes)
    start = time.perf_counter()
    back = frame_rule(2, 11, j, vectors)
    # one np.vdot per cross-class pair took 0.6-1.1 s here
    assert time.perf_counter() - start < 0.5
    assert np.array_equal(back.amplitudes, rule.amplitudes)


def test_frame_rule_keeps_the_later_of_two_keys_for_one_config():
    # the tuple (0, 1) names config 01, as the string "01" does
    vectors = {"00": [1, 0], "01": [0, 1], "10": [1, 0], (0, 1): [0, 2]}
    with pytest.raises(ParameterError, match="missing vectors for 1 neighborhoods, e.g. 11"):
        frame_rule(2, 2, 1, vectors)
    rule = frame_rule(2, 2, 1, vectors | {"11": [0, 1]})
    np.testing.assert_array_equal(rule.amplitudes, [[1, 0], [0, 2], [1, 0], [0, 1]])


def test_frame_rule_refuses_a_check_block_over_the_cap():
    # j = 1 at (2, 14): blocks of 4096 x 4096 inner products, past 2^22
    vectors = {config_str(c): [1, 0] for c in all_configs(2, 14)}
    with pytest.raises(CapExceeded, match="a frame check block has 16777216 inner products"):
        frame_rule(2, 14, 1, vectors)


def test_frame_rule_middle_cell_classes():
    # j=1 frames over k=3: classes keyed by the middle cell
    rng = np.random.default_rng(5)
    basis = {}
    for gamma in ((0,), (1,)):
        th, ph = rng.uniform(0, 2 * np.pi, 2)
        b0 = np.array([np.cos(th), np.exp(1j * ph) * np.sin(th)])
        basis[gamma] = (b0, np.array([-np.conj(b0[1]), b0[0]]))
    vectors = {}
    for cfg in ((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)):
        scale = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        vec = scale * basis[cfg[:1]][cfg[1]]
        vectors["".join(map(str, cfg))] = [[z.real, z.imag] for z in vec]
    rule = frame_rule(2, 3, 1, vectors)
    assert evaluate_condition(rule, "P-iii") == []


@pytest.mark.parametrize("q, k", [(2, k) for k in range(2, 11)] + [(3, 3), (3, 4), (3, 5),
                                                                  (4, 3), (4, 4)])
def test_single_frame_with_coboundary_norms_is_unitary(q, k):
    # frame cell first, middle and last; |scale| = exp((phi(a[1:]) - phi(a[:-1])) / 2)
    rng = np.random.default_rng(100 * q + k)
    index = np.arange(q**k)
    # no exact kernel takes a 7-site (4, 4) ring: 4^7 states and walk_cost are both over their caps
    sites = 6 if (q, k) == (4, 4) else 7
    for j in sorted({0, k // 2, k - 1}):
        phi = rng.uniform(-1.0, 1.0, size=q ** (k - 1))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=q**k)
        scales = np.exp((phi[index % q ** (k - 1)] - phi[index // q]) / 2 + 1j * theta)
        rule = single_frame(q, k, j, haar_unitary(rng, q), dict(enumerate(scales)))
        assert check_periodic(rule).unitary, j
        assert exact_defect_kernel(q, k, sites)(rule, sites) <= 1e-12, j
        assert not check_periodic(with_noise(rule, 1e-6, seed=j), max_violations=1).unitary, j


def test_single_frame_copies_unscaled_rows():
    # times 1+0j, the real part of -0.0-1j would become 0.0 and dump_rule would print it so
    u = np.array([[complex(-0.0, -1.0), 0.0], [0.0, 1.0]])
    rule = single_frame(2, 2, 0, u, {3: 2.0})
    np.testing.assert_array_equal(rule.amplitudes, [[-1j, 0], [-1j, 0], [0, 1], [0, 2]])
    assert np.signbit(rule.amplitudes[:2, 0].real).all()
    assert not np.signbit(((1 + 0j) * rule.amplitudes[:2, 0]).real).any()


def test_quantize_identity_is_noop():
    patt = patt_rule()
    assert approx_equal(quantize(patt, np.eye(2)), patt)


def test_quantize_requires_deterministic_base(f21):
    with pytest.raises(ParameterError, match="deterministic"):
        quantize(f21, np.eye(2))


def test_quantize_requires_unitary_rotation():
    with pytest.raises(ParameterError, match="unitary"):
        quantize(patt_rule(), np.array([[1, 0], [0, 2]], dtype=complex))


def test_quantize_shift_rule_lands_in_single_frame(ident):
    th = 0.6
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
    rotated = quantize(ident, u)
    assert abs(inner(rotated, "00", "01")) <= 1e-12
    assert abs(inner(rotated, "10", "11")) <= 1e-12
    assert abs(abs(inner(rotated, "00", "10")) - 1.0) <= 1e-12
    assert check_periodic(rotated).unitary


def test_frame_family_entry(tmp_path):
    import json

    vectors = {"00": [[1, 0], [0, 0]], "01": [[0, 0], [1, 0]],
               "10": [[2, 0], [0, 0]], "11": [[0, 0], [0, 3]]}
    rule = make_family("frame", {"q": 2, "k": 2, "j": 1, "vectors": vectors})
    assert evaluate_condition(rule, "P-iii") == []
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(vectors))
    from_file = make_family("frame", {"q": 2, "k": 2, "j": 1, "vectors": str(path)})
    assert approx_equal(from_file, rule)


def test_quantized_family_entry(tmp_path):
    th = 0.8
    u = [[[np.cos(th), 0.0], [-np.sin(th), 0.0]], [[np.sin(th), 0.0], [np.cos(th), 0.0]]]
    rule = make_family("quantized", {"base": "patt", "unitary": u})
    assert check_periodic(rule).unitary


def test_random_params_margins():
    rng = np.random.default_rng(6)
    for _ in range(20):
        params = random_params("f21_00", rng, margin=0.1)
        assert abs(np.cos(params["theta"])) >= 0.1
        rule = make_family("f31_000", random_params("f31_000", rng, margin=0.1))
        for cfg, out in (("010", 0), ("100", 0), ("110", 0)):
            assert abs(rule.amplitude(out, cfg)) >= 0.1


def test_family_names_cover_registry():
    names = family_names()
    for expected in ("f21", "f2m1", "f21_00", "f2m1_00", "f31", "f30", "f3m1",
                     "f31_000", "f3m1_000", "f31_000_111", "frame", "patt", "quantized"):
        assert expected in names


# sha256 prefixes of the draws random_params(name, default_rng(s)), s = 0..49,
# each followed by the generator's next uniform, so that both the draws and
# the generator state they leave are pinned; rule files built from seeded
# draws stay byte-identical while these hold
DRAW_DIGESTS = {
    ("f21", "f2m1"): "fb1685391fcf9c8f5c75ab093424e33a",
    ("f21_00", "f2m1_00"): "f54763fba40abf615cafd144e75c0aae",
    ("f31", "f30", "f3m1"): "0d21926818bab9576bda8a246c11b356",
    ("f31_000", "f3m1_000"): "3ce3812df6cd096524c7cd162f71aac8",
    ("f31_000_111",): "fe422a640ba3677bb57136aecbda046b",
    ("patt",): "6bc74d87a58ed179626e878ecfa1284d",
}


def test_random_params_draws_pinned():
    for names, digest in DRAW_DIGESTS.items():
        for name in names:
            h = hashlib.sha256()
            for s in range(50):
                rng = np.random.default_rng(s)
                params = random_params(name, rng)
                h.update(repr((sorted(params.items()), rng.uniform())).encode())
            assert h.hexdigest()[:32] == digest, name
    for name in ("frame", "quantized", "f99"):
        with pytest.raises(ParameterError, match=f"no random draw defined for family '{name}'"):
            random_params(name, np.random.default_rng(0))


def _explicit_z(rng):
    """Chart angles plus six complex scales that meet the three cycle-norm
    constraints, given as z1..z6."""
    r1, r2, r6 = np.exp(rng.uniform(-0.6, 0.6, size=3))
    moduli = [r1, r2, r2 / r6, 1.0 / (r1 * r2), 1.0 / r2, r6]
    z = {f"z{i + 1}": complex(m * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
         for i, m in enumerate(moduli)}
    return dict(zip(("theta", "eta", "xi"), rng.uniform(0.0, 2.0 * np.pi, size=3))) | z


def _tables(name):
    """The rule files of the seeded draws s = 0..49, then the registry
    defaults, then (f31 and f30) 20 explicit-z draws."""
    yield from (make_family(name, random_params(name, np.random.default_rng(s)))
                for s in range(50))
    yield make_family(name)
    if name in ("f31", "f30"):
        rng = np.random.default_rng(7)
        yield from (make_family(name, _explicit_z(rng)) for _ in range(20))


# sha256 prefixes of the dump_rule text of _tables(name): the families build
# these exact bytes, so rule files written from seeded draws do not move
TABLE_DIGESTS = {
    "f21": "faf299ab56eb5277648feff5c19ce0ac",
    "f2m1": "1a4b64f917c6eaa767ab1ab5dc24dd93",
    "f21_00": "49ea12393899e05636f9fdd1683af5a1",
    "f2m1_00": "ebd4ac903c6ac5cb1bb2b07ea63c9370",
    "f31": "2166b32e35af28a7c3abb05bc9ef30b5",
    "f30": "e65f4cd73cdc3ff53bb8bff60df02e2a",
    "f3m1": "cbbdb67237cb37930140f5ef7d731154",
    "f31_000": "ab07b8e086a0b5529a7839c9226f851b",
    "f3m1_000": "e21e92bc4bbd6765d29ad6b5131a388a",
    "f31_000_111": "54e0d483fe0b19c8adefc9266d9196ed",
    "patt": "e52ba50ceb8735748313525793488444",
}


def test_family_tables_pinned():
    assert set(TABLE_DIGESTS) == {n for n in family_names() if FAMILIES[n].sample}
    for name, digest in TABLE_DIGESTS.items():
        h = hashlib.sha256()
        for rule in _tables(name):
            h.update(dump_rule(rule).encode())
        assert h.hexdigest()[:32] == digest, name
