"""The verdict ledger: what every op of the benchmark workloads gives.

``verdict_ledger.jsonl`` holds one line per op of the decide-unitary,
list-violations and ring-oracle workloads at seeds 1 and 4, in
``perfbench/workloads.generate``'s order: its argv (the rule file by its
name), exit code and number of stdout lines; a ``verify`` op adds its
verdict and the violated conditions with their report counts, an
``oracle --json`` op whether its defect is exact.  No float is recorded,
so the file reads the same under every Python and numpy the package
supports.  ``tests/test_ledger.py`` replays it.  After a change that is
meant to move a verdict, rewrite the file and print the entries that
changed with

    PYTHONPATH=src python tests/ledger.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from qca1d.cli import main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("verdict_ledger.jsonl")
WORKLOADS = ("decide-unitary", "list-violations", "ring-oracle")
SEEDS = (1, 4)


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
             "exit": code, "lines": len(text.splitlines())}
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


def replay() -> list[dict]:
    """The ledger entries of the ops as the program runs them now."""
    generate = _workloads().generate
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                ops = generate(workload, seed, Path(tmp) / f"{workload}-{seed}")
                entries += [entry(f"{workload} {seed} {i}", op.argv) for i, op in enumerate(ops)]
    return entries


def read() -> list[dict]:
    return [json.loads(line) for line in LEDGER.read_text(encoding="utf-8").splitlines()]


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
    rewrite()
