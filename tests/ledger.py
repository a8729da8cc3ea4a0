"""The verdict ledger: what every op of the benchmark workloads and of the
tests' noisy grid gives.

``verdict_ledger.jsonl`` holds one line per op of the decide-unitary,
list-violations and ring-oracle workloads at seeds 1 and 4, in
``perfbench/workloads.generate``'s order, then one per ``verify`` of a
``conftest.noisy_grid`` rule at seeds 0-3: every rule in periodic mode, an
infinite family's also in infinite mode, keyed "grid <seed> <label>
<mode>".  Each line has its argv (the rule file by its name), exit code
and number of stdout lines; a ``verify`` op that printed a verdict adds it
and the violated conditions with their report counts, an ``oracle
--json`` op whether its defect is exact.  ``sha256`` is the hash of the
op's stdout, so it records the printed floats too.  Every other field is
float free and reads the same under every Python and numpy the package
supports; ``tests/test_ledger.py`` replays the file and compares those.
To compare every field, the hash included, against a file written on the
same host, without rewriting it, run

    PYTHONPATH=src python tests/ledger.py --check

After a change that is meant to move a verdict, rewrite the file and
print the entries that changed with

    PYTHONPATH=src python tests/ledger.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from qca1d.cli import main
from qca1d.rules import dump_rule

from conftest import noisy_grid

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("verdict_ledger.jsonl")
WORKLOADS = ("decide-unitary", "list-violations", "ring-oracle")
SEEDS = (1, 4)
GRID_SEEDS = range(4)


def _workloads():
    """perfbench's input generator, loaded read-only: no bytecode is written
    next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def entry(op: str, argv: list[str]) -> dict:
    """Run one op through ``cli.main`` in process and record what it gave."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    found = {"op": op, "argv": [Path(a).name if a.endswith(".json") else a for a in argv],
             "exit": code, "lines": len(text.splitlines()),
             "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if not text:  # a cap trip (exit 3) prints nothing
        return found
    if argv[0] == "verify" and "--json" in argv:
        verdict = json.loads(text)
        found["verdict"] = "unitary" if verdict["unitary"] else "NOT unitary"
        found["violated"] = dict(Counter(r["condition"] for r in verdict["reports"]))
    elif argv[0] == "verify":
        found["verdict"] = text.splitlines()[-1].removeprefix("verdict: ")
        found["violated"] = {line.split(":")[0]: int(line.split("(")[1].split()[0])
                             for line in text.splitlines() if ": VIOLATED (" in line}
    elif argv[0] == "oracle" and "--json" in argv:
        found["exact"] = json.loads(text)["exact"]
    return found


def grid_ops(tmp: Path):
    """(op, argv) of every ``verify`` of the noisy grid, its rule files written under tmp."""
    for seed in GRID_SEEDS:
        for i, (label, rule, infinite) in enumerate(noisy_grid(seed)):
            path = tmp / f"grid{seed}-{i:03d}.json"
            path.write_text(dump_rule(rule), encoding="utf-8")
            for mode in ("periodic", "infinite") if infinite else ("periodic",):
                yield f"grid {seed} {label} {mode}", ["verify", str(path), "--mode", mode]


def replay() -> list[dict]:
    """The ledger entries of the ops as the program runs them now."""
    generate = _workloads().generate
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                ops = generate(workload, seed, Path(tmp) / f"{workload}-{seed}")
                entries += [entry(f"{workload} {seed} {i}", op.argv) for i, op in enumerate(ops)]
        entries += [entry(op, argv) for op, argv in grid_ops(Path(tmp))]
    return entries


def read() -> list[dict]:
    return [json.loads(line) for line in LEDGER.read_text(encoding="utf-8").splitlines()]


def float_free(entries: list[dict]) -> list[dict]:
    """The entries without their stdout hash."""
    return [{field: value for field, value in e.items() if field != "sha256"} for e in entries]


def changes(old: list[dict], new: list[dict]) -> list[str]:
    """The entries that differ, removed ones as "- entry", added as "+ entry"."""
    before, after = {e["op"]: e for e in old}, {e["op"]: e for e in new}
    lines = []
    for op in dict.fromkeys([*before, *after]):
        if before.get(op) != after.get(op):
            lines += [f"{sign} {json.dumps(side[op])}"
                      for sign, side in (("-", before), ("+", after)) if op in side]
    return lines


def rewrite() -> None:
    old = read() if LEDGER.exists() else []
    new = replay()
    LEDGER.write_text("".join(json.dumps(e) + "\n" for e in new), encoding="utf-8")
    print("\n".join(changes(old, new)) or "no entry changed")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the verdict ledger, or check it.")
    parser.add_argument("--check", action="store_true",
                        help="list the entries that differ, stdout hash included, and "
                             "exit 1 if any does; the file is left as it is")
    if parser.parse_args().check:
        lines = changes(read(), replay())
        print("\n".join(lines) or "no entry changed")
        sys.exit(bool(lines))
    rewrite()
