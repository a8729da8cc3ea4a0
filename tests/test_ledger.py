"""The verdict ledger (``tests/ledger.py``) replayed against the program."""

from collections import Counter

import ledger


def test_every_workload_op_keeps_its_ledger_entry():
    expected = ledger.read()
    workload = [e for e in expected if not e["op"].startswith("grid ")]
    grid = [e for e in expected if e["op"].startswith("grid ")]
    assert len(workload) == 918 and Counter(e["exit"] for e in workload) == {0: 606, 1: 312}
    # 544 rules, 160 of them infinite families; exit 3 is a listing cap trip
    assert len(grid) == 704 and Counter(e["exit"] for e in grid) == {0: 213, 1: 486, 3: 5}
    assert Counter(e["op"].rsplit(" ", 1)[1] for e in grid) == {"periodic": 544, "infinite": 160}
    assert ledger.changes(expected, ledger.replay()) == []
