"""The verdict ledger (``tests/ledger.py``) replayed against the program."""

from collections import Counter

import ledger


def test_every_workload_op_keeps_its_ledger_entry():
    expected = ledger.read()
    assert len(expected) == 918 and Counter(e["exit"] for e in expected) == {0: 606, 1: 312}
    assert ledger.changes(expected, ledger.replay()) == []
