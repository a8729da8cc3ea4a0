"""Parameterized rule families with unitary global evolution.

Periodic families are single-frame rules: ``single_frame`` gives config a
column a_j of a q x q unitary U, j being the frame cell, and scales some of
the rows.  f21 and f31 have the frame cell last, f30 has it in the middle,
and the parity twins f2m1 and f3m1 have it first; each family's parameters
are a chart onto U and the scales.  The infinite-lattice families keep the
quiescent config 00 (f21_00) or the deterministic sector {000} (f31_000)
or {000, 111} (f31_000_111) and give each remaining two-cell prefix an
orthogonal pair of vectors.  Parity transforms carry an m in the name.

Also here: frame-built rules (explicitly supplied mutually-orthogonal
vector classes), the reversible size-4 deterministic rule of Patt, and
quantization of deterministic reversible rules by a rigid rotation of
state space.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .graphs import MAX_PAIR_ENTRIES, check_cap
from .rules import (
    DEFAULT_TOLERANCE,
    RuleTable,
    all_configs,
    as_config,
    config_digits,
    config_index,
    config_str,
    deterministic_outputs,
    index_config,
    is_deterministic,
    parity_transform,
    rule_from_dict,
    vdots,
)


class ParameterError(ValueError):
    """A family parameter is missing, unknown, or violates a constraint."""


def _angle(params, name, default=0.0):
    try:
        return float(params.get(name, default))
    except (TypeError, ValueError):
        raise ParameterError(f"parameter {name!r} must be a real number")


def _positive(params, name, default=1.0):
    value = _angle(params, name, default)
    if not value > 0:
        raise ParameterError(f"parameter {name!r} must be positive, got {value}")
    return value


def _integer(params, name):
    try:
        if params[name] == int(params[name]):  # int() alone truncates 2.9
            return int(params[name])
    except (TypeError, ValueError, OverflowError):  # complex, nan, inf, text
        pass
    raise ParameterError(f"parameter {name!r} must be an integer, got {params[name]!r}")


def _check_known(params, known, name):
    unknown = set(params) - set(known)
    if unknown:
        raise ParameterError(f"unknown parameters for {name}: {', '.join(sorted(unknown))}")


def _prefix_pairs(params, scales):
    """Rows of the configs prefix+0 and prefix+1 for each two-cell prefix
    of ``scales``, in its order: an orthogonal pair from the angles theta,
    delta, phi..0 and phi..1 tagged with the prefix, scaled by the prefix's
    (s0, s1)."""
    rows = []
    for tag, (s0, s1) in scales.items():
        th, delta = _angle(params, f"theta{tag}"), _angle(params, f"delta{tag}")
        phase0, phase1 = _angle(params, f"phi{tag}0"), _angle(params, f"phi{tag}1")
        c, s = math.cos(th), math.sin(th)
        rows.append(s0 * np.exp(1j * phase0) * np.array([c, np.exp(1j * delta) * s]))
        rows.append(s1 * np.exp(1j * phase1) * np.array([-np.exp(-1j * delta) * s, c]))
    return rows


def _entries(values, what):
    """The complex entries of a list parameter, each a number or an [re, im] pair."""
    try:
        return [complex(x[0], x[1]) if isinstance(x, (list, tuple)) and len(x) == 2
                else complex(x) for x in values]
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{what} must list numbers or [re, im] pairs") from None


def single_frame(q: int, k: int, j: int, unitary: np.ndarray, scales: Mapping[int, complex],
                 tolerance: float = DEFAULT_TOLERANCE) -> RuleTable:
    """The rule that gives config a column a_j of the q x q ``unitary``,
    times ``scales[i]`` on the row of config index i where that is given.

    On periodic lattices the rule is unitary when each |scales[i]| is
    exp((phi(a[1:]) - phi(a[:-1])) / 2) for one real potential phi on the
    (k-1)-cell strings: the norms form a coboundary (P-i), and a pair weight
    vanishes unless a_j = b_j (P-ii, P-iii).  Rows without a scale are
    copied, not multiplied by 1, so a zero keeps its sign.
    """
    amps = np.asarray(unitary, dtype=complex).T[config_digits(q, k)[j]]
    for index, scale in scales.items():
        amps[index] = scale * amps[index]
    return RuleTable(q, k, amps, tolerance)


# ---------------------------------------------------------------------------
# k = 2
# ---------------------------------------------------------------------------

_F21_PARAMS = ("alpha", "beta", "theta", "phi1", "phi2", "rho")


def _f21(params, tolerance):
    _check_known(params, _F21_PARAMS, "f21")
    a, b, th, p1, p2 = (_angle(params, p) for p in _F21_PARAMS[:-1])
    rho = _positive(params, "rho")
    c, s = math.cos(th), math.sin(th)
    top = np.array([np.exp(1j * a) * c, np.exp(1j * b) * 1j * s])
    bottom = np.array([np.exp(-1j * b) * 1j * s, np.exp(-1j * a) * c])
    return single_frame(2, 2, 1, np.column_stack((top, bottom)),
                        {1: np.exp(1j * p1) * rho, 2: np.exp(1j * p2) / rho}, tolerance)


_F21_00_PARAMS = ("alpha", "beta", "theta", "phi1", "phi3", "rho")


def _f21_00(params, tolerance):
    _check_known(params, _F21_00_PARAMS, "f21_00")
    a, b, th, p1, p3 = (_angle(params, p) for p in _F21_00_PARAMS[:-1])
    rho = _positive(params, "rho")
    c, s = math.cos(th), math.sin(th)
    return RuleTable(2, 2, np.array([  # rows 00, 01, 10, 11
        [1.0, 0.0],
        [0.0, np.exp(1j * p1) * rho],
        np.array([np.exp(1j * a) * c, np.exp(1j * b) * 1j * s]) / rho,
        np.exp(1j * p3) * np.array([np.exp(-1j * b) * 1j * s, np.exp(-1j * a) * c]),
    ]), tolerance)


# ---------------------------------------------------------------------------
# k = 3
# ---------------------------------------------------------------------------

_F31_CHART_PARAMS = ("theta", "eta", "xi", "r1", "r2", "r6", "p1", "p2", "p3", "p4", "p5", "p6")
_F31_Z_PARAMS = ("z1", "z2", "z3", "z4", "z5", "z6")


def _f31_scales(params, name):
    """The six scale factors z1..z6, from the chart or given explicitly.

    Chart: free moduli |z1|, |z2|, |z6| and all six phases; |z5| = 1/|z2|,
    |z4| = 1/(|z1||z2|) and |z3| = |z2|/|z6| enforce the three cycle-norm
    constraints by construction.  Explicit z values are validated against
    |z2 z5| = 1, |z1 z2 z4| = 1, |z3 z5 z6| = 1.
    """
    explicit = [p for p in _F31_Z_PARAMS if p in params]
    if explicit:
        if len(explicit) != 6:
            raise ParameterError(f"{name} requires all of z1..z6 when any is given")
        z = [complex(params[p]) for p in _F31_Z_PARAMS]
        checks = (
            ("|z2 z5| = 1", abs(z[1] * z[4])),
            ("|z1 z2 z4| = 1", abs(z[0] * z[1] * z[3])),
            ("|z3 z5 z6| = 1", abs(z[2] * z[4] * z[5])),
        )
        for label, value in checks:
            if abs(value - 1.0) > 1e-9:
                raise ParameterError(f"{name} constraint {label} violated: modulus is {value!r}")
        return z
    r1, r2, r6 = (_positive(params, p) for p in ("r1", "r2", "r6"))
    moduli = [r1, r2, r2 / r6, 1.0 / (r1 * r2), 1.0 / r2, r6]
    return [m * np.exp(1j * _angle(params, f"p{i + 1}")) for i, m in enumerate(moduli)]


def _f31(params, tolerance, j=2):
    name = "f31" if j == 2 else "f30"
    _check_known(params, _F31_CHART_PARAMS + _F31_Z_PARAMS, name)
    th, eta, xi = (_angle(params, p) for p in ("theta", "eta", "xi"))
    c, s = math.cos(th), math.sin(th)
    b0 = np.array([c, np.exp(1j * eta) * s])
    b1 = np.exp(1j * xi) * np.array([-np.exp(-1j * eta) * s, c])
    z = _f31_scales(params, name)  # z_i scales config index i
    return single_frame(2, 3, j, np.column_stack((b0, b1)), dict(enumerate(z, 1)), tolerance)


_F31_000_PARAMS = (
    "r1", "p1", "m2", "m6",
    "theta01", "delta01", "phi010", "phi011",
    "theta10", "delta10", "phi100", "phi101",
    "theta11", "delta11", "phi110", "phi111",
)


def _f31_000(params, tolerance):
    _check_known(params, _F31_000_PARAMS, "f31_000")
    r1, m2, m6 = (_positive(params, p) for p in ("r1", "m2", "m6"))
    z1 = r1 * np.exp(1j * _angle(params, "p1"))
    # Cycle-norm constraints fix the remaining vector lengths.
    pairs = _prefix_pairs(params, {"01": (m2, m2 / m6), "10": (1.0 / (r1 * m2), 1.0 / m2),
                                   "11": (m6, 1.0)})
    return RuleTable(2, 3, np.array([[1.0, 0.0], [0.0, z1], *pairs]), tolerance)


_F31_000_111_PARAMS = (
    "m1", "p1", "m2", "p6",
    "theta01", "delta01", "phi010", "phi011",
    "theta10", "delta10", "phi100", "phi101",
)


def _f31_000_111(params, tolerance):
    _check_known(params, _F31_000_111_PARAMS, "f31_000_111")
    m1, m2 = _positive(params, "m1"), _positive(params, "m2")
    z1 = m1 * np.exp(1j * _angle(params, "p1"))
    z6 = m1 * m2 * np.exp(1j * _angle(params, "p6"))
    pairs = _prefix_pairs(params, {"01": (m2, 1.0 / m1), "10": (1.0 / (m1 * m2), 1.0 / m2)})
    return RuleTable(2, 3, np.array([[1.0, 0.0], [0.0, z1], *pairs, [z6, 0.0], [0.0, 1.0]]),
                     tolerance)


# ---------------------------------------------------------------------------
# Reversible deterministic rules and quantization
# ---------------------------------------------------------------------------


def patt_rule(tolerance: float = DEFAULT_TOLERANCE) -> RuleTable:
    """Reversible deterministic size-4 rule: the second cell flips exactly
    when its context reads 0 . 1 0 (first cell 0, third 1, fourth 0)."""
    i1, i2, i3, i4 = config_digits(2, 4)
    flip = (i1 == 0) & (i3 == 1) & (i4 == 0)
    return RuleTable(2, 4, np.eye(2)[i2 ^ flip], tolerance)


def frame_rule(q: int, k: int, j: int, vectors: Mapping,
               tolerance: float = DEFAULT_TOLERANCE) -> RuleTable:
    """Rule from explicitly assigned vectors, validated to be frame-shaped.

    For every length-j prefix gamma, the vectors of neighborhoods starting
    gamma i ... must be orthogonal across different values of i.  Inputs
    that fail this are refused, not re-orthogonalized.  Rules built this
    way satisfy the terminating-mismatch-path condition (P-iii) by
    construction.  Each prefix and class pair i < i' is checked by one
    block of inner products, rounded as ``np.vdot`` rounds; a block of more
    than ``MAX_PAIR_ENTRIES`` raises ``CapExceeded`` before it exists.
    """
    if not 0 < j < k:
        raise ParameterError(f"frame depth j={j} must satisfy 0 < j < k={k}")
    configs, rows = [], []
    for key, value in vectors.items():
        cfg = as_config(key, q, k)
        rows.append(np.array(_entries(value, f"vector for {config_str(cfg)}"), dtype=complex))
        if rows[-1].shape != (q,):
            raise ParameterError(f"vector for {config_str(cfg)} must have {q} components")
        configs.append(cfg)
    present = set(configs)  # two keys may name one config; the later vector is kept
    if len(present) < q**k:
        missing = next(c for c in all_configs(q, k) if c not in present)
        raise ParameterError(f"missing vectors for {q**k - len(present)} neighborhoods, "
                             f"e.g. {config_str(missing)}")
    tail = q ** (k - j - 1)
    check_cap(tail * tail, MAX_PAIR_ENTRIES, "a frame check block has {} inner products")
    amps = np.empty((q**k, q), dtype=complex)
    amps[[config_index(c, q) for c in configs]] = rows
    # classes[gamma, i, t] is row (gamma q + i) tail + t, the config gamma i t
    classes = amps.reshape(q**j, q, tail, q)
    for gamma in range(q**j):
        for i in range(q):
            for ip in range(i + 1, q):
                block = vdots(classes[gamma, i, :, None], classes[gamma, ip, None])
                # np.hypot rounds as abs(complex) does, np.abs does not
                bad = np.flatnonzero(np.hypot(block.real, block.imag) > tolerance)
                if bad.size:
                    a, b = divmod(int(bad[0]), tail)
                    ca = config_str(index_config((gamma * q + i) * tail + a, q, k))
                    cb = config_str(index_config((gamma * q + ip) * tail + b, q, k))
                    raise ParameterError(f"vectors for {ca} and {cb} are not orthogonal "
                                         f"(inner product {complex(block[a, b])!r})")
    return RuleTable(q, k, amps, tolerance)


def quantize(det_rule: RuleTable, unitary: np.ndarray) -> RuleTable:
    """Replace each deterministic output basis vector by a rotated copy.

    The new amplitude vector of a neighborhood is the column of ``unitary``
    selected by the neighborhood's deterministic output state.  The rigid
    rotation preserves the single-frame structure, hence unitarity of the
    global evolution.
    """
    if not is_deterministic(det_rule):
        raise ParameterError("quantize requires a deterministic base rule "
                             "(every amplitude vector a unit basis vector)")
    u = np.asarray(unitary, dtype=complex)
    q = det_rule.q
    if u.shape != (q, q):
        raise ParameterError(f"rotation matrix must be {q} x {q}, got {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(q)))
    if defect > max(det_rule.tolerance, 1e-12):
        raise ParameterError(f"rotation matrix is not unitary (defect {defect:.3e})")
    return RuleTable(det_rule.q, det_rule.k, u.T[deterministic_outputs(det_rule)],
                     det_rule.tolerance)


# ---------------------------------------------------------------------------
# Seeded parameter draws, honoring the excluded-submanifold margins
# ---------------------------------------------------------------------------


def _angles(rng, names):
    return {p: float(rng.uniform(0.0, 2.0 * math.pi)) for p in names}


def _scale(rng):
    return float(np.exp(rng.uniform(-0.6, 0.6)))


def _sampler(names, moduli, build=None, guarded=()):
    """Draw an angle for each of ``names`` not in ``moduli``, then a scale
    for each modulus, until every guarded amplitude f(out | cfg) of the
    built rule is at least the margin."""
    angle_names = [p for p in names if p not in moduli]

    def sample(rng, margin):
        while True:
            params = _angles(rng, angle_names) | {p: _scale(rng) for p in moduli}
            if not guarded:
                return params
            rule = build(params, DEFAULT_TOLERANCE)
            if all(abs(rule.amplitude(out, cfg)) >= margin for cfg, out in guarded):
                return params

    return sample


def _sample_f21_00(rng, margin):
    params = _angles(rng, ("alpha", "beta", "phi1", "phi3")) | {"rho": _scale(rng)}
    while True:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        if abs(math.cos(theta)) >= margin:
            return params | {"theta": theta}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _patt(params, tolerance):
    _check_known(params, (), "patt")
    return patt_rule(tolerance)


def _frame(params, tolerance):
    _check_known(params, ("q", "k", "j", "vectors"), "frame")
    try:
        q, k, j = (_integer(params, name) for name in "qkj")
    except KeyError as exc:
        raise ParameterError(f"frame requires parameter {exc.args[0]!r}")
    vectors = _load_json_param(params.get("vectors"), "vectors")
    if not isinstance(vectors, Mapping):
        raise ParameterError("parameter 'vectors' must map config strings to vectors")
    return frame_rule(q, k, j, vectors, tolerance)


def _quantized(params, tolerance):
    _check_known(params, ("base", "unitary"), "quantized")
    if "base" not in params or "unitary" not in params:
        raise ParameterError("quantized requires parameters 'base' and 'unitary'")
    base = _resolve_base_rule(params["base"], tolerance)
    return quantize(base, _resolve_matrix(params["unitary"]))


class Family(NamedTuple):
    """One registry entry: the doc and parameter schema that ``qca1d family
    --list`` prints, the builder and the seeded sampler (None: no draw)."""

    doc: str
    params: dict[str, str]
    build: Callable[[dict, float], RuleTable]
    sample: Callable[[np.random.Generator, float], dict] | None = None

    def parity(self, name: str, params: dict[str, str] | None = None) -> "Family":
        """The family of the parity transforms of this family's rules."""
        return self._replace(doc=f"parity transform of {name}", params=params or self.params,
                             build=lambda p, tolerance: parity_transform(self.build(p, tolerance)))


_ANGLES = "angles in radians"
_F21 = Family("size-2 periodic family, vectors framed by the last cell",
              dict.fromkeys(_F21_PARAMS[:-1], _ANGLES) | {"rho": "positive scale"},
              _f21, _sampler(_F21_PARAMS, ("rho",)))
_F21_00 = Family("size-2 infinite family with quiescent 00",
                 dict.fromkeys(_F21_00_PARAMS[:-1], _ANGLES) | {"rho": "positive scale"},
                 _f21_00, _sample_f21_00)
_F31 = Family("size-3 periodic family framed by the last cell",
              {"theta": _ANGLES, "eta": _ANGLES, "xi": _ANGLES,
               "r1": "modulus", "r2": "modulus", "r6": "modulus",
               "p1..p6": _ANGLES, "z1..z6": "explicit complex scales (optional)"},
              _f31, _sampler(_F31_CHART_PARAMS, ("r1", "r2", "r6")))
_F31_000 = Family("size-3 infinite family, deterministic sector {000}",
                  dict.fromkeys(_F31_000_PARAMS, ""), _f31_000,
                  _sampler(_F31_000_PARAMS, ("r1", "m2", "m6"), _f31_000,
                           (((0, 1, 0), 0), ((1, 0, 0), 0), ((1, 1, 0), 0))))

FAMILIES: dict[str, Family] = {
    "f21": _F21,
    "f2m1": _F21.parity("f21"),
    "f21_00": _F21_00,
    "f2m1_00": _F21_00.parity("f21_00"),
    "f31": _F31,
    "f30": _F31._replace(doc="size-3 periodic family framed by the middle cell",
                         build=partial(_f31, j=1)),
    "f3m1": _F31.parity("f31", {"same as f31": ""}),
    "f31_000": _F31_000,
    "f3m1_000": _F31_000.parity("f31_000"),
    "f31_000_111": Family(
        "size-3 infinite family, deterministic sector {000, 111}",
        dict.fromkeys(_F31_000_111_PARAMS, ""), _f31_000_111,
        _sampler(_F31_000_111_PARAMS, ("m1", "m2"), _f31_000_111,
                 (((0, 1, 0), 0), ((1, 0, 0), 0), ((0, 1, 1), 1), ((1, 0, 1), 1)))),
    "patt": Family("reversible deterministic size-4 rule", {}, _patt, lambda rng, margin: {}),
    "frame": Family("rule from explicit orthogonal vector classes",
                    {"q": "states", "k": "neighborhood", "j": "frame depth",
                     "vectors": "JSON file path of a config -> [[re,im] x q] mapping; "
                                "make_family also takes the mapping"},
                    _frame),
    "quantized": Family("rigid rotation of a deterministic reversible rule",
                        {"base": "family name or rule file path; "
                                 "make_family also takes a RuleTable or rule dict",
                         "unitary": "JSON file path of a q x q matrix [[..]]; "
                                    "make_family also takes the matrix"},
                        _quantized),
}


def family_names() -> list[str]:
    return list(FAMILIES)


def _load_json_param(value, what):
    if isinstance(value, str):
        if not os.path.exists(value):
            raise ParameterError(f"{what} file {value!r} does not exist")
        with open(value, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return value


def _resolve_base_rule(value, tolerance):
    if isinstance(value, str) and value in FAMILIES:
        return make_family(value, {}, tolerance=tolerance)
    if isinstance(value, (str, dict)):
        value = rule_from_dict(_load_json_param(value, "base rule"))
    if not isinstance(value, RuleTable):
        raise ParameterError("parameter 'base' must be a rule table, rule dict, family name or path")
    return value if tolerance is None else value.with_tolerance(tolerance)


def _resolve_matrix(value):
    data = _load_json_param(value, "matrix")
    if not isinstance(data, (list, tuple, np.ndarray)):
        raise ParameterError("parameter 'unitary' must be a list of rows")
    rows = [_entries(row, "each row of 'unitary'") for row in data]
    if len(set(map(len, rows))) > 1:
        raise ParameterError("rows of parameter 'unitary' differ in length")
    return np.array(rows, dtype=complex)


def make_family(
    name: str,
    params: Mapping | None = None,
    *,
    tolerance: float | None = None,
) -> RuleTable:
    """Build a rule table from a family name and its parameters at
    ``tolerance``; None means DEFAULT_TOLERANCE, or a ``quantized`` base's own."""
    if name not in FAMILIES:
        raise ParameterError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    if tolerance is None and name != "quantized":
        tolerance = DEFAULT_TOLERANCE
    return FAMILIES[name].build(dict(params or {}), tolerance)


def random_params(name: str, rng: np.random.Generator, margin: float = 0.1) -> dict:
    """Draw generic parameters; amplitudes that must stay nonzero for the
    infinite families are kept at least ``margin`` away from zero."""
    if name not in FAMILIES or FAMILIES[name].sample is None:
        raise ParameterError(f"no random draw defined for family {name!r}")
    return FAMILIES[name].sample(rng, margin)
