import numpy as np
import pytest

from qca1d import (
    RuleTable,
    all_configs,
    config_index,
    config_str,
    deterministic_sector,
    make_family,
    patt_rule,
    quantize,
    random_params,
)


def identity_rule(tol=1e-9):
    """q=2, k=2 rule copying the second cell: f(i|i1 i2) = delta(i, i2)."""
    amps = np.zeros((4, 2), dtype=complex)
    for idx, (i1, i2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        amps[idx, i2] = 1.0
    return RuleTable(2, 2, amps, tol)


def with_noise(rule, eps, seed=0, keep=frozenset()):
    """The rule plus seeded complex noise of size eps on every row whose
    config is not in ``keep``."""
    rng = np.random.default_rng(seed)
    rows = [i for i, cfg in enumerate(rule.configs()) if cfg not in keep]
    amps = rule.amplitudes.copy()
    z = rng.normal(size=(len(rows), rule.q)) + 1j * rng.normal(size=(len(rows), rule.q))
    amps[rows] += eps * z / np.sqrt(2.0)
    return RuleTable(rule.q, rule.k, amps, rule.tolerance)


F21_SAMPLE = {"alpha": 0.3, "beta": 1.1, "theta": 0.7, "phi1": 0.2, "phi2": 2.0, "rho": 1.5}
F21_00_SAMPLE = {"alpha": 0.4, "beta": 0.9, "theta": np.pi / 3, "phi1": 0.1, "phi3": 1.7,
                 "rho": 2.0}


@pytest.fixture
def ident():
    return identity_rule()


@pytest.fixture
def f21():
    return make_family("f21", F21_SAMPLE)


@pytest.fixture
def f21_00():
    return make_family("f21_00", F21_00_SAMPLE)


def haar_unitary(rng, q):
    z = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def deterministic_shift(q, k):
    """The left shift f(i | a_1..a_k) = delta(i, a_k)."""
    amps = np.zeros((q**k, q), dtype=complex)
    for cfg in all_configs(q, k):
        amps[config_index(cfg, q), cfg[-1]] = 1.0
    return RuleTable(q, k, amps)


def quantized_shift(q, k, seed=0):
    """The left shift rigidly rotated by a seeded random unitary: unitary on
    every lattice."""
    return quantize(deterministic_shift(q, k), haar_unitary(np.random.default_rng(seed), q))


PERIODIC_FAMILIES = ("f21", "f2m1", "f31", "f30", "f3m1")
INFINITE_FAMILIES = ("f21_00", "f2m1_00", "f31_000", "f3m1_000", "f31_000_111")
GRID_NOISE = (0.0, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-7, 1e-3)


def unitary_grid(seed):
    """(label, rule, infinite) for seeded rules unitary by construction: draws
    of the periodic and infinite families, quantized shifts and quantized
    patt."""
    rng = np.random.default_rng(seed)
    for name in PERIODIC_FAMILIES + INFINITE_FAMILIES:
        yield name, make_family(name, random_params(name, rng)), name in INFINITE_FAMILIES
    for q, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)):
        yield f"shift({q},{k})", quantized_shift(q, k, int(rng.integers(1 << 30))), False
    yield "patt", quantize(patt_rule(), haar_unitary(rng, 2)), False


def noisy_grid(seed):
    """Every rule of ``unitary_grid`` under every noise size of GRID_NOISE;
    rows of the deterministic sector of the infinite families stay exact."""
    for index, (label, rule, infinite) in enumerate(unitary_grid(seed)):
        keep = deterministic_sector(rule) if infinite else frozenset()
        for eps in GRID_NOISE:
            yield f"{label} eps={eps:g}", with_noise(rule, eps, seed + index, keep), infinite


def reference_to_json(verdict) -> dict:
    """A verdict as JSON data, one config_str call per witness element: the
    reference for the bytes of ``verify --json``, which must equal
    ``json.dumps`` of this plus a newline."""
    def witness(w):
        if isinstance(w[0], str):
            return [w[0]] + [config_str(c) for c in w[1:]]
        return [[config_str(x[0]), config_str(x[1])] if isinstance(x[0], tuple) else config_str(x)
                for x in w]

    return {"unitary": verdict.unitary, "mode": verdict.mode,
            "reports": [{"condition": r.condition, "witness": witness(r.witness),
                         "value": [r.value.real, r.value.imag], "margin": r.margin}
                        for r in verdict.reports]}


def rendering_cases():
    """(mode, rule) of three failing verdicts that between them violate
    every condition and list both kinds of surjectivity witness."""
    sector_path = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6, "theta01": 0.3,
                                              "theta10": 1.1}).amplitudes.copy()
    sector_path[1] *= 1.1
    sector_loop = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6}).amplitudes.copy()
    sector_loop[7] = sector_loop[0]
    return [("periodic", with_noise(quantized_shift(2, 3), 1e-3)),  # P-i, P-ii, P-iii
            ("infinite", RuleTable(2, 3, sector_path)),  # I-i, I-ii
            ("infinite", RuleTable(2, 3, sector_loop))]  # I-iii, I-iv, I-v
