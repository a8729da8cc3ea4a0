"""Seeded inputs for the qca1d benchmark.

``generate(workload, seed, out_dir)`` writes one rule file per operation
and returns the operation list.  The same seed gives byte-identical files
and the same operation order.  Every verdict is known by construction:
quantized shifts, quantized ``patt`` and the family draws are unitary;
adding 1e-3 complex noise makes them not unitary.  The program under test
only ever sees the rule files and the command lines.

Each operation belongs to a size class.  The class counts of a workload
are chosen so that the median and the 90th percentile of one pass fall
well inside one class each, never on the edge between two classes whose
latencies differ (``run.quantile_classes`` reports where they fell).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qca1d.families import make_family, patt_rule, quantize, random_params
from qca1d.graphs import deterministic_sector
from qca1d.rules import RuleTable, all_configs, config_index, config_str, dump_rule

NOISE = 1e-3
ORACLE_SAMPLES = 2  # random vectors per matrix-free defect estimate


@dataclass
class Op:
    label: str  # size class
    argv: list[str]
    check: str  # which output check applies, see checks.py
    rule: RuleTable
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Rule builders
# ---------------------------------------------------------------------------


def _haar(rng: np.random.Generator, q: int) -> np.ndarray:
    z = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def _shift(q: int, k: int) -> RuleTable:
    """Deterministic left shift f(i | a_1..a_k) = delta(i, a_k)."""
    amps = np.zeros((q**k, q), dtype=complex)
    for cfg in all_configs(q, k):
        amps[config_index(cfg, q), cfg[-1]] = 1.0
    return RuleTable(q, k, amps)


def quantized_shift(q: int, k: int):
    return lambda rng: quantize(_shift(q, k), _haar(rng, q))


def quantized_patt(rng):
    return quantize(patt_rule(), _haar(rng, 2))


def family(name: str):
    return lambda rng: make_family(name, random_params(name, rng))


def noisy(build, mode: str):
    """The same rule with complex noise of size NOISE on every row; in
    infinite mode rows of the deterministic sector stay exact, so the
    sector survives and the verdict is decided, not refused."""

    def make(rng):
        rule = build(rng)
        keep = deterministic_sector(rule) if mode == "infinite" else frozenset()
        rows = [i for i, cfg in enumerate(rule.configs()) if cfg not in keep]
        amps = rule.amplitudes.copy()
        z = rng.normal(size=(len(rows), rule.q)) + 1j * rng.normal(size=(len(rows), rule.q))
        amps[rows] += NOISE * z / math.sqrt(2.0)
        return RuleTable(rule.q, rule.k, amps, rule.tolerance)

    return make


def pair_zpoly(rule: RuleTable) -> np.ndarray:
    """det(I - tA) of the raw pair-graph transfer matrix, built from the
    Gram matrix of the amplitude rows and expanded by ``np.poly``; index =
    power of t."""
    q, k = rule.q, rule.k
    n = q ** (k - 1)
    gram = rule.amplitudes.conj() @ rule.amplitudes.T
    idx = np.arange(q**k)
    pre, suf = idx // q, idx % n
    a = np.zeros((n * n, n * n), dtype=complex)
    np.add.at(a, (pre[:, None] * n + pre[None, :], suf[:, None] * n + suf[None, :]), gram)
    return np.poly(a)


# ---------------------------------------------------------------------------
# Operation mixes: (size class, count, builder, how to turn a rule into an op)
# ---------------------------------------------------------------------------


def verify(mode: str, expect_unitary: bool):
    def op(label, path, rule, rng):
        argv = ["verify", path, "--mode", mode]
        if expect_unitary:
            return Op(label, argv, "unitary", rule)
        return Op(label, argv + ["--json"], "violations", rule, {"mode": mode})
    return op


def paths(max_len: int):
    def op(label, path, rule, rng):
        return Op(label, ["paths", path, "--max-len", str(max_len)], "paths", rule,
                  {"max_len": max_len})
    return op


def zpoly(label, path, rule, rng):
    coeffs = pair_zpoly(rule)
    return Op(label, ["zpoly", path, "--which", "g2"], "zpoly", rule,
              {"coeffs": [[c.real, c.imag] for c in coeffs]})


def oracle(sites: int):
    def op(label, path, rule, rng):
        argv = ["oracle", path, "--sites", str(sites), "--json",
                "--samples", str(ORACLE_SAMPLES), "--seed", str(int(rng.integers(1 << 30)))]
        return Op(label, argv, "oracle", rule, {"sites": sites})
    return op


def simulate(sites: int, steps: int):
    def op(label, path, rule, rng):
        initial = config_str(rng.integers(0, rule.q, size=sites))
        argv = ["simulate", path, "--sites", str(sites), "--steps", str(steps),
                "--initial", initial]
        return Op(label, argv, "simulate", rule, {"steps": steps})
    return op


P_UNITARY = verify("periodic", True)
I_UNITARY = verify("infinite", True)
P_NOISY = verify("periodic", False)
I_NOISY = verify("infinite", False)

# Latencies in the comments were measured on a 2-core x86-64 machine with
# one BLAS thread; bands are cumulative shares of one pass, sorted by latency.


def _decide_unitary():
    mix = []
    # band 0.00-0.30, 2-3 ms
    for name in ("f21", "f2m1"):
        mix.append((f"verify-P {name}", 12, family(name), P_UNITARY))
    mix.append(("verify-P shift(2,2)", 12, quantized_shift(2, 2), P_UNITARY))
    for name in ("f21_00", "f2m1_00"):
        mix.append((f"verify-I {name}", 12, family(name), I_UNITARY))
    # band 0.30-0.70, 3-4 ms: holds p50
    mix.append(("verify-P shift(2,3)", 10, quantized_shift(2, 3), P_UNITARY))
    mix.append(("verify-P shift(3,2)", 10, quantized_shift(3, 2), P_UNITARY))
    for name in ("f31", "f30", "f3m1"):
        mix.append((f"verify-P {name}", 10, family(name), P_UNITARY))
    for name in ("f31_000", "f3m1_000", "f31_000_111"):
        mix.append((f"verify-I {name}", 10, family(name), I_UNITARY))
    # band 0.70-0.97, 7-8 ms: holds p90
    mix.append(("verify-P shift(4,2)", 18, quantized_shift(4, 2), P_UNITARY))
    mix.append(("verify-P shift(2,4)", 18, quantized_shift(2, 4), P_UNITARY))
    mix.append(("verify-P patt", 18, quantized_patt, P_UNITARY))
    # tail, 20 ms to 1 s, where P-i cycle enumeration dominates
    mix.append(("verify-P shift(3,3)", 2, quantized_shift(3, 3), P_UNITARY))
    mix.append(("verify-P shift(2,5)", 2, quantized_shift(2, 5), P_UNITARY))
    mix.append(("verify-P shift(2,6)", 1, quantized_shift(2, 6), P_UNITARY))
    mix.append(("verify-P shift(4,3)", 1, quantized_shift(4, 3), P_UNITARY))
    return mix


def _list_violations():
    mix = []
    # band 0.00-0.30, 2-5 ms
    for name in ("f21", "f2m1"):
        mix.append((f"verify-P noisy {name}", 6, noisy(family(name), "periodic"), P_NOISY))
    mix.append(("verify-P noisy shift(2,2)", 6, noisy(quantized_shift(2, 2), "periodic"), P_NOISY))
    for name in ("f21_00", "f2m1_00"):
        mix.append((f"verify-I noisy {name}", 6, noisy(family(name), "infinite"), I_NOISY))
    mix.append(("paths f21 n<=6", 4, noisy(family("f21"), "periodic"), paths(6)))
    mix.append(("zpoly-g2 f21", 6, noisy(family("f21"), "periodic"), zpoly))
    mix.append(("zpoly-g2 f31", 6, noisy(family("f31"), "periodic"), zpoly))
    mix.append(("zpoly-g2 shift(3,2)", 6, noisy(quantized_shift(3, 2), "periodic"), zpoly))
    mix.append(("zpoly-g2 shift(2,3)", 6, noisy(quantized_shift(2, 3), "periodic"), zpoly))
    # band 0.30-0.68, 12-15 ms: holds p50
    for name in ("f31_000", "f3m1_000", "f31_000_111"):
        mix.append((f"verify-I noisy {name}", 14, noisy(family(name), "infinite"), I_NOISY))
    mix.append(("paths f31 n<=5", 14, noisy(family("f31"), "periodic"), paths(5)))
    mix.append(("verify-P noisy shift(3,2)", 12, noisy(quantized_shift(3, 2), "periodic"),
                P_NOISY))
    mix.append(("verify-P noisy f30", 8, noisy(family("f30"), "periodic"), P_NOISY))
    # band 0.68-0.96, about 20 ms: holds p90
    for name in ("f31", "f3m1"):
        mix.append((f"verify-P noisy {name}", 19, noisy(family(name), "periodic"), P_NOISY))
    mix.append(("verify-P noisy shift(2,3)", 19, noisy(quantized_shift(2, 3), "periodic"),
                P_NOISY))
    # tail, 25 ms to 0.7 s: witness listing at the larger shapes
    mix.append(("paths shift(3,2) n<=4", 1, noisy(quantized_shift(3, 2), "periodic"), paths(4)))
    for q, k in ((4, 2), (2, 4), (3, 3), (2, 5), (4, 3), (2, 6)):
        mix.append((f"verify-P noisy shift({q},{k})", 1,
                    noisy(quantized_shift(q, k), "periodic"), P_NOISY))
    mix.append(("verify-P noisy patt", 1, noisy(quantized_patt, "periodic"), P_NOISY))
    return mix


def _ring_oracle():
    mix = []
    # band 0.00-0.35, 17-60 ms: matrix-free N = 13, 14 and dense N = 8
    for name in ("f21", "f31"):
        mix.append((f"oracle {name} N=13", 4, family(name), oracle(13)))
        mix.append((f"oracle {name} N=14", 3, family(name), oracle(14)))
        mix.append((f"oracle {name} N=8", 3, family(name), oracle(8)))
    mix.append(("oracle shift(2,4) N=8", 1, quantized_shift(2, 4), oracle(8)))
    # band 0.35-0.70, about 130 ms: dense N = 9, holds p50
    mix.append(("oracle f21 N=9", 21, family("f21"), oracle(9)))
    # band 0.70-1.00, 150-240 ms: holds p90, mostly dense simulate, which
    # rebuilds the matrix on every step
    mix.append(("simulate f21 N=16", 3, family("f21"), simulate(16, 3)))
    mix.append(("oracle f21 N=16", 3, family("f21"), oracle(16)))
    mix.append(("oracle shift(3,2) N=6", 2, quantized_shift(3, 2), oracle(6)))
    mix.append(("simulate f30 N=8", 10, family("f30"), simulate(8, 4)))
    return mix


WORKLOADS = {
    "decide-unitary": {
        "why": ("verify on rules unitary by construction: the decision path with no "
                "witness listing, where P-i cycle enumeration and the pair-graph builds "
                "dominate and the oracle does nothing"),
        "moves": [
            "rules.load_rule_ms -> latency_p50_ms",
            "graphs.rule_graph_ms, graphs.pair_graph_ms, graphs.pair_edges -> latency_p50_ms",
            "graphs.deterministic_sector_ms -> latency_p50_ms (infinite-mode ops)",
            "unitarity.P-i_ms -> ops_per_s, latency_p90_ms",
            "unitarity.P-ii_ms, unitarity.P-iii_ms -> latency_p50_ms",
            "unitarity.I-i_ms .. unitarity.I-iv_ms, surjectivity.check_surjectivity_ms "
            "-> latency_p50_ms",
        ],
        "mix": _decide_unitary,
    },
    "list-violations": {
        "why": ("the same rule shapes with 1e-3 noise through verify --json, plus paths "
                "and zpoly: the graph and unitarity layers enumerate and render up to 100 "
                "witnesses per condition, so a faster decider that slows listing shows"),
        "moves": [
            "graphs.rule_graph_ms, graphs.pair_graph_ms, graphs.pair_edges -> ops_per_s",
            "unitarity.P-ii_ms, unitarity.P-iii_ms -> ops_per_s",
            "unitarity.reports, unitarity.truncated -> ops_per_s, latency_p90_ms",
            "transfer.path_monomials_ms, transfer.z_polynomial_ms -> ops_per_s",
            "cli.render_ms, cli.output_bytes -> ops_per_s",
        ],
        "mix": _list_violations,
    },
    "ring-oracle": {
        "why": ("oracle on dense rings (N 6-9) and matrix-free rings (N 13-16) plus "
                "dense and matrix-free simulate: the oracle does all the work and the "
                "graphs none; the two verify workloads are its no-change control"),
        "moves": [
            "oracle.global_matrix_ms, oracle.global_matrix_calls -> ops_per_s, latency_p90_ms",
            "oracle.unitarity_defect_ms -> ops_per_s, latency_p90_ms",
            "oracle.apply_global_ms, oracle.apply_global_calls -> ops_per_s, latency_p50_ms",
            "oracle.evolve_ms -> latency_p90_ms",
        ],
        "mix": _ring_oracle,
    },
}


def generate(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """Write the rule files of one workload into ``out_dir`` and return the
    operations of one pass, in their seeded order."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    out_dir.mkdir(parents=True)
    ops = []
    for label, count, build, make_op in WORKLOADS[workload]["mix"]():
        for _ in range(count):
            rule = build(rng)
            path = out_dir / f"rule{len(ops):03d}.json"
            path.write_text(dump_rule(rule) + "\n", encoding="utf-8")
            ops.append(make_op(label, str(path), rule, rng))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    manifest = {
        "workload": workload, "seed": seed,
        "why": WORKLOADS[workload]["why"], "moves": WORKLOADS[workload]["moves"],
        "ops": [{"label": op.label, "argv": op.argv, "check": op.check} for op in ops],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                           encoding="utf-8")
    return ops
