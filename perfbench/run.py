#!/usr/bin/env python3
"""Benchmark of the qca1d command line on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-unitary --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each operation is one in-process
call of ``qca1d.cli.main`` on rule files generated beforehand from
``--seed``; the next call starts when the previous one has returned and
its output has been checked.  After a warm-up call of every size class,
the operation list is run in whole passes (at least two) for as long as
the next pass is expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics: setup_s (median of five
imports of ``qca1d`` in a fresh interpreter plus input generation),
ops_per_s (calls per second spent inside ``cli.main``), latency_p50_ms
and latency_p90_ms (over every timed call), peak_rss_mb (this process;
each invocation runs one workload in a fresh process).  Times are
reported at reference speed: each measured time is scaled by the time a
fixed pure-Python loop takes at that moment (``Speed``), which cancels
most of the drift of a shared machine; the times as measured are printed
beside them.  ``--trace 1``
runs every operation untraced and then again with a span around each
public call into the layers (tracing.py), and prints the per-layer
metrics, per pass of the operation list, with the share of op time the
spans cover and the tracing overhead.
Every output is checked (checks.py); the error rate (failed / attempted)
is printed, and any failure makes the exit code 1.  The last line of
standard output is one JSON object with the result.
"""

import os

BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
REF_LOOP_S = 1e-3  # times are reported as if the reference loop took this long
PROBE_EVERY_S = 0.1
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import qca1d.cli; print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "qca1d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "python_threads": threading.active_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Set-up, operations, measurement
# ---------------------------------------------------------------------------


def _reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """The speed of a shared machine drifts by a third and more over
    seconds to minutes.  The reference loop is timed every PROBE_EVERY_S
    between operations; ``factor()`` scales a time measured now to the
    time at reference speed, where the loop takes REF_LOOP_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def factor(self) -> float:
        if time.perf_counter() - self._last > PROBE_EVERY_S:
            self.samples.append(_reference_loop())
            self._last = time.perf_counter()
        return REF_LOOP_S / statistics.median(self.samples[-3:])


def _timed_import() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def _rules_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("rule*.json")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup(workload: str, seed: int, speed: Speed):
    """Import plus input generation, repeated; returns the last op list and
    the median set-up time, measured and at reference speed.  Every repeat
    must write identical inputs; only the last repeat's files, and only this
    seed's, are kept."""
    from workloads import generate

    for stale in WORK.glob(f"{workload}-seed*"):
        shutil.rmtree(stale)
    for stale in WORK.glob(f"trace-{workload}-seed*.json"):
        stale.unlink()
    base = WORK / f"{workload}-seed{seed}"
    times, ref_times, digests = [], [], set()
    for rep in range(SETUP_REPEATS):
        factor = speed.factor()
        import_s = _timed_import()
        start = time.perf_counter()
        ops = generate(workload, seed, base / f"rep{rep}")
        times.append(import_s + time.perf_counter() - start)
        ref_times.append(times[-1] * factor)
        digests.add(_rules_digest(base / f"rep{rep}"))
        if rep:
            shutil.rmtree(base / f"rep{rep - 1}")
    if len(digests) != 1:
        raise RuntimeError(f"seed {seed} generated different inputs on different repeats")
    return ops, statistics.median(times), statistics.median(ref_times)


def run_op(main, argv):
    """One CLI call with its output captured; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed op; keep measuring the rest
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Run:
    """Op outcomes of one benchmark run: attempts, failures, first reasons."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op, reason):
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.argv)}: {reason}")

    def check(self, op, code, out):
        try:
            reason = self.checker.check(op, code, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # unparsable output
            reason = f"output not understood: {exc!r}"
        self.record(op, reason)


def _whole_passes(seconds, at_least=2):
    """Yield once per pass: at least ``at_least`` times (so a run has at
    least ten samples beyond p90), then for as long as the next pass, taken
    as long as the last one, should end within ``seconds``."""
    start = time.perf_counter()
    count, last = 0, start
    while True:
        now = time.perf_counter()
        if count >= at_least and 2 * now - last - start > seconds:
            return
        count, last = count + 1, now
        yield


def timed_passes(ops, main, run, seconds, speed):
    """Whole passes for about ``seconds``; per pass, the measured latency
    of each op and the speed factor in force when it ran."""
    passes, factors = [], []
    for _ in _whole_passes(seconds):
        latencies = []
        for op in ops:
            factors.append(speed.factor())
            code, out, elapsed = run_op(main, op.argv)
            latencies.append(elapsed)
            run.check(op, code, out)
        passes.append(latencies)
    return passes, factors


def quantile_classes(ops, passes):
    """Size class at the p50 and p90 rank of a pass, and how many ranks
    away the nearest op is whose typical latency differs by over 25%."""
    typical = sorted((statistics.median(p[i] for p in passes), ops[i].label)
                     for i in range(len(ops)))
    out = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        rank = min(len(typical) - 1, int(q * len(typical)))
        value, label = typical[rank]
        margin = min((abs(r - rank) for r, (t, _) in enumerate(typical)
                      if not 0.8 * value <= t <= 1.25 * value), default=len(typical))
        out[name] = (f"{label}, {value * 1e3:.3g} ms as measured (rank {rank} of {len(typical)}; "
                     f"nearest op over 25% away: {margin} ranks)")
    return out


def _timings(latencies, setup_s):
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
    }, p90


def end_to_end(ops, passes, factors, setup, speed):
    """Metrics at reference speed, and the same as measured."""
    flat = [t for p in passes for t in p]
    metrics, p90 = _timings([t * f for t, f in zip(flat, factors)], setup[1])
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    measured, _ = _timings(flat, setup[0])
    loop = sorted(speed.samples)
    notes = {
        "timed passes": len(passes),
        "samples": len(flat),
        "samples beyond p90": sum(t * f > p90 for t, f in zip(flat, factors)),
        "as measured": ", ".join(f"{k} {v!r} {u}" for k, (v, u) in measured.items()),
        "reference loop": (f"{len(loop)} samples, median {statistics.median(loop) * 1e3:.4g} ms,"
                           f" range {loop[0] * 1e3:.4g}-{loop[-1] * 1e3:.4g} ms; times above "
                           f"are scaled to a loop of {REF_LOOP_S * 1e3:g} ms"),
    }
    notes.update(quantile_classes(ops, passes))
    return metrics, notes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

TIME_METRICS = (
    "rules.load_rule", "graphs.rule_graph", "graphs.pair_graph",
    "graphs.deterministic_sector",
    "unitarity.P-i", "unitarity.P-ii", "unitarity.P-iii",
    "unitarity.I-i", "unitarity.I-ii", "unitarity.I-iii", "unitarity.I-iv",
    "surjectivity.check_surjectivity",
    "transfer.path_monomials", "transfer.z_polynomial",
    "oracle.global_matrix", "oracle.unitarity_defect", "oracle.apply_global", "oracle.evolve",
)
CONDITION_SPANS = {"unitarity." + c for c in
                   ("P-i", "P-ii", "P-iii", "I-i", "I-ii", "I-iii", "I-iv")}


def traced_passes(ops, main, run, seconds):
    """Each op untraced and traced, the two in alternating order so that
    neither gains from caches the other warmed; the traced run must
    reproduce the untraced output exactly."""
    from qca1d.graphs import pair_graph, rule_graph

    from tracing import Tracer

    tracer = Tracer()

    def traced_call(op_id, argv):
        tracer.install()
        try:
            return run_op(lambda a: tracer.root("cli.main", op_id, main, a), argv)
        finally:
            tracer.uninstall()

    untraced = 0.0
    out_bytes = pair_edges = 0
    passes = 0
    for _ in _whole_passes(seconds):
        for op_id, op in enumerate(ops):
            if op_id % 2:
                traced = traced_call(op_id, op.argv)
            code, out, elapsed = run_op(main, op.argv)
            if not op_id % 2:
                traced = traced_call(op_id, op.argv)
            untraced += elapsed
            out_bytes += len(out.encode())
            run.check(op, code, out)
            run.record(op, None if traced[:2] == (code, out)
                       else "traced run differs from the untraced run")
            if op.check in ("unitary", "violations"):
                def control(rule=op.rule):
                    tracer.span("graphs.rule_graph", rule_graph, rule)
                    return tracer.span("graphs.pair_graph", pair_graph, rule)
                pair_edges += len(tracer.root("control", op_id, control).edges)
        passes += 1
    return tracer, passes, untraced, out_bytes, pair_edges


def per_layer(tracer, passes, untraced, out_bytes, pair_edges):
    from qca1d.unitarity import DEFAULT_MAX_VIOLATIONS

    own = tracer.self_times()
    self_s, calls = defaultdict(float), Counter()
    reports = truncated = 0
    root_total = root_self = 0.0
    for span, t in zip(tracer.spans, own):
        self_s[span.name] += t
        calls[span.name] += 1
        if span.name == "cli.main":
            root_total += span.end - span.start
            root_self += t
        if span.name in CONDITION_SPANS or span.name == "surjectivity.check_surjectivity":
            reports += min(span.result_len or 0, DEFAULT_MAX_VIOLATIONS)
            truncated += (span.result_len or 0) >= DEFAULT_MAX_VIOLATIONS
    metrics = {f"{name}_ms": (self_s[name] * 1e3 / passes, "ms/pass") for name in TIME_METRICS}
    metrics.update({
        "graphs.pair_edges": (pair_edges / passes, "count/pass"),
        "unitarity.reports": (reports / passes, "count/pass"),
        "unitarity.truncated": (truncated / passes, "count/pass"),
        "cli.render_ms": (root_self * 1e3 / passes, "ms/pass"),
        "cli.output_bytes": (out_bytes / passes, "B/pass"),
        "oracle.global_matrix_calls": (calls["oracle.global_matrix"] / passes, "count/pass"),
        "oracle.apply_global_calls": (calls["oracle.apply_global"] / passes, "count/pass"),
        "trace.coverage_pct": (100.0 * (root_total - root_self) / root_total, "%"),
        "trace.overhead_pct": (100.0 * (root_total - untraced) / untraced, "%"),
    })
    table = {name: {"calls_per_pass": calls[name] / passes,
                    "self_ms_per_pass": self_s[name] * 1e3 / passes}
             for name in sorted(calls)}
    return metrics, {"traced passes": passes, "spans": len(tracer.spans)}, table


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qca1d" / "cli.py").is_file():
        print(f"error: no qca1d sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qca1d.cli

    from checks import Checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if Path(qca1d.cli.__file__).resolve().parent != SRC / "qca1d":
        print(f"error: imported qca1d from {qca1d.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    speed = Speed()
    ops, *setup_times = setup(args.workload, args.seed, speed)
    run = Run(Checker())
    main_fn = qca1d.cli.main
    warm = {op.label: op for op in ops}  # one op per size class: lazy imports, allocator
    for op in warm.values():
        code, out, _ = run_op(main_fn, op.argv)
        run.check(op, code, out)

    if args.trace:
        tracer, passes, untraced, out_bytes, pair_edges = traced_passes(
            ops, main_fn, run, args.seconds)
        metrics, notes, table = per_layer(tracer, passes, untraced, out_bytes, pair_edges)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        notes["span file"] = str(trace_file.relative_to(ROOT))
        notes["span table"] = table
        notes["labels"] = ("times are self times per pass of the op list; unitarity.* "
                           "include the graph rebuilds evaluate_condition does internally, "
                           "graphs.rule_graph/pair_graph are separate calls on the same "
                           "rule outside the op: do not subtract one from the other")
    else:
        passes, factors = timed_passes(ops, main_fn, run, args.seconds, speed)
        metrics, notes = end_to_end(ops, passes, factors, setup_times, speed)

    spec = WORKLOADS[args.workload]
    print(f"# qca1d benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; one client, closed loop, "
          f"{len(ops)} ops per pass")
    print("# environment: " + json.dumps(environment()))
    print(f"# why: {spec['why']}")
    print("# left out, and why: see perfbench/NOTES.md")
    for line in spec["moves"]:
        print(f"# moves: {line}")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value) if isinstance(value, dict) else value}")
    print(f"# weight-zero witnesses whose product is within tolerance: "
          f"{run.checker.subtolerance}")
    for reason in run.reasons:
        print(f"# FAILED: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {run.failed / run.attempted!r} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
