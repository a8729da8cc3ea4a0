"""The verdict ledger (``tests/ledger.py``) replayed against the program."""

from collections import Counter

import ledger


def test_every_workload_op_keeps_its_ledger_entry():
    expected = ledger.read()
    workload = [e for e in expected if not e["op"].startswith("grid ")]
    grid = [e for e in expected if e["op"].startswith("grid ")]
    assert len(workload) == 918 and Counter(e["exit"] for e in workload) == {0: 606, 1: 312}
    # 544 rules, 160 of them infinite families; no listing trips a cap
    assert len(grid) == 704 and Counter(e["exit"] for e in grid) == {0: 213, 1: 491}
    assert Counter(e["op"].rsplit(" ", 1)[1] for e in grid) == {"periodic": 544, "infinite": 160}
    # the stdout hash holds printed floats, which differ across Pythons and numpys
    assert ledger.changes(ledger.float_free(expected), ledger.float_free(ledger.replay())) == []
