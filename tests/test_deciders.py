"""Array decisions of the unitarity conditions against witness enumeration."""

import numpy as np
import pytest

from qca1d import (
    RuleTable,
    check_infinite,
    check_periodic,
    deterministic_sector,
    inner,
    make_family,
    random_params,
)
from qca1d.cli import main
from qca1d.graphs import CapExceeded, iter_cycles, mismatch_support, pair_graph
from qca1d.rules import dump_rule
from qca1d.unitarity import (
    INFINITE_CONDITIONS,
    PERIODIC_CONDITIONS,
    _RuleGraphs,
    _search,
    _violations,
)

from conftest import (deterministic_shift, noisy_grid, quantized_shift, rendering_cases,
                      unitary_grid, with_noise)
from references import walk_defects

CERTIFIED = ("P-i", "I-i", "I-ii")  # False only means "not settled"
LISTING_CAP = 10**5


def _tolerance_on_rounding(rule):
    """Copies of the rule whose tolerance sits exactly on a pair weight that
    the Gram matrix product and the per-edge inner product round to
    different values, once on each of the two values."""
    amps = rule.amplitudes
    gram = np.abs(amps.conj() @ amps.T)
    per_edge = np.array([[abs(complex(np.vdot(x, y))) for y in amps] for x in amps])
    off_diagonal = ~np.eye(len(amps), dtype=bool)
    differ = np.argwhere((gram != per_edge) & (gram > 1e-6) & off_diagonal)
    if len(differ) == 0:
        return []
    a, b = differ[0]
    return [rule.with_tolerance(float(gram[a, b])), rule.with_tolerance(float(per_edge[a, b]))]


def _grid(seed):
    """The noisy grid, plus tolerances on rounding-sensitive pair weights."""
    for label, rule, infinite in noisy_grid(seed):
        yield label, rule, infinite
        if label.endswith("eps=0.001"):
            for tilted in _tolerance_on_rounding(rule):
                yield f"{label} tol={tilted.tolerance!r}", tilted, infinite


def _mismatch_cycle_exists(g2, sector, tol):
    """Plain depth-first cycle search over the mismatch edges of a pair
    graph: the reference when listing the first witness hits the cap."""
    mismatch, diagonal = g2.mismatch, g2.diagonal

    def usable(e, configs):
        return (mismatch[e] and abs(g2.weight[e]) > tol
                and (sector is None or all(c in sector for c in configs))
                and not diagonal[g2.src[e]]
                and not diagonal[g2.dst[e]])

    succ = {}
    for e, configs in enumerate(g2.configs(range(len(g2.edges)))):
        if usable(e, configs):
            succ.setdefault(int(g2.src[e]), []).append(int(g2.dst[e]))
    state = {}  # 1 on the stack, 2 done
    for root in succ:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            vertex, it = stack[-1]
            for t in it:
                if state.get(t) == 1:
                    return True
                if t not in state:
                    state[t] = 1
                    stack.append((t, iter(succ.get(t, ()))))
                    break
            else:
                state[vertex] = 2
                stack.pop()
    return False


def _conditions(rule, infinite):
    yield from ((c, None) for c in PERIODIC_CONDITIONS)
    sector = deterministic_sector(rule) if infinite else None
    if sector:
        yield from (("I-i", None), ("I-ii", sector), ("I-iii", None), ("I-iv", sector))


@pytest.mark.parametrize("seed", [0, 1])
def test_array_decision_matches_enumeration(seed, monkeypatch):
    monkeypatch.setenv("QCA_CYCLE_CAP", str(LISTING_CAP))
    mismatches = []
    settled = {c: 0 for c in CERTIFIED}
    for label, rule, infinite in _grid(seed):
        graphs = _RuleGraphs(rule)
        for condition, sector in _conditions(rule, infinite):
            holds, listing = _search(rule, condition, sector, graphs)
            try:
                violated = bool(_violations(rule, condition, *listing(), 1))
            except CapExceeded:
                assert condition in ("P-ii", "I-iv"), (label, condition)
                violated = _mismatch_cycle_exists(graphs.pair, sector, rule.tolerance)
            if condition in CERTIFIED:
                settled[condition] += holds
                ok = not (holds and violated)
            else:
                ok = holds != violated
            if not ok:
                mismatches.append((label, condition, holds, violated))
    assert mismatches == []
    # the certificates settle at least every rule at noise 0 and 1e-12
    assert settled["P-i"] >= 17 * 2 and settled["I-i"] >= 5 * 2 and settled["I-ii"] >= 5 * 2


@pytest.mark.parametrize("seed", [0, 1])
def test_unitary_rules_build_no_edge_graph(seed, monkeypatch):
    def refuse(rule):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("qca1d.unitarity.rule_graph", refuse)
    monkeypatch.setattr("qca1d.unitarity.pair_graph", refuse)
    for label, rule, infinite in unitary_grid(seed):
        verdict = check_infinite(rule) if infinite else check_periodic(rule)
        assert verdict.unitary, label


def test_listing_builds_each_graph_once(monkeypatch, f21):
    import qca1d.unitarity as unitarity

    calls = []
    for name in ("rule_graph", "pair_graph"):
        original = getattr(unitarity, name)
        monkeypatch.setattr(unitarity, name,
                            lambda rule, f=original, n=name: calls.append(n) or f(rule))
    verdict = check_periodic(with_noise(f21, 1e-3))
    assert {r.condition for r in verdict.reports} == {"P-i", "P-ii", "P-iii"}
    assert sorted(calls) == ["pair_graph", "rule_graph"]


def test_each_cycle_search_runs_once(monkeypatch, f21):
    # the P-ii (periodic) and I-iv (infinite) decisions hand their cycle
    # reach to the witness listing instead of searching the mask again
    import qca1d.unitarity as unitarity

    calls = []
    monkeypatch.setattr(unitarity, "cycle_reach",
                        lambda *a, f=unitarity.cycle_reach: calls.append(1) or f(*a))

    def count(check, rule):
        calls.clear()
        return {r.condition for r in check(rule).reports}, len(calls)

    assert count(check_periodic, with_noise(f21, 1e-3)) == ({"P-i", "P-ii", "P-iii"}, 1)
    f31 = make_family("f31_000", random_params("f31_000", np.random.default_rng(0)))
    noisy = with_noise(f31, 1e-3, keep=deterministic_sector(f31))
    assert count(check_infinite, noisy) == ({"I-i", "I-iii"}, 1)
    # parallel 000 and 111 vectors: a sector mismatch loop, so I-iv is listed
    loop = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6}).amplitudes.copy()
    loop[7] = loop[0]
    violated, searches = count(check_infinite, RuleTable(2, 3, loop))
    assert "I-iv" in violated and searches == 1


def run_verify(path, capsys):
    code = main(["verify", str(path), "--mode", "periodic"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("q,k", [(2, 7), (3, 4), (5, 3)])
def test_large_unitary_shifts_decided(q, k, tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(dump_rule(quantized_shift(q, k, seed=q * 10 + k)))
    code, out, _ = run_verify(path, capsys)
    assert code == 0 and "verdict: unitary" in out


def test_noisy_shift_listing_stops_at_cap(tmp_path, capsys):
    # Complex noise at the tolerance leaves mismatch edges just above it,
    # and the depth-first search for P-ii witnesses examines millions of
    # edges between cycles (it ran for minutes when the cap counted cycles).
    # The cap counts that work, so verify stops within seconds.  Seed 5 still
    # exceeds it with the search kept to the vertices that cycles reach.
    path = tmp_path / "rule.json"
    path.write_text(dump_rule(with_noise(quantized_shift(3, 3, seed=5), 1e-9, seed=5)))
    code, _, err = run_verify(path, capsys)
    assert code == 3 and "cycle enumeration exceeded the cap" in err


def test_cap_counts_examined_edges_not_cycles(monkeypatch):
    # the mismatch region of the shift has no cycle, yet the search works
    g2 = pair_graph(quantized_shift(2, 3))
    no_diagonal = ~g2.diagonal
    mismatch = g2.mismatch & (np.abs(g2.weight) > 1e-9)
    assert list(iter_cycles(g2, edge_mask=mismatch, vertex_mask=no_diagonal)) == []
    monkeypatch.setenv("QCA_CYCLE_CAP", "10")
    with pytest.raises(CapExceeded, match="examined edges"):
        list(iter_cycles(g2, edge_mask=mismatch, vertex_mask=no_diagonal))


def test_pair_size_guard_exits_3(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(dump_rule(quantized_shift(2, 12)))
    code, _, err = run_verify(path, capsys)
    assert code == 3 and "cap" in err


def test_periodic_verdict_is_monotone_in_the_tolerance():
    # a larger tolerance widens the band around 1 and deletes mismatch
    # edges, so it can only take violated conditions away
    tolerances = [10.0**-e for e in range(9, 0, -1)]
    for index, (label, rule, _) in enumerate(unitary_grid(11)):
        for eps in (1e-7, 1e-5, 1e-3):
            noisy = with_noise(rule, eps, index)
            before = set(PERIODIC_CONDITIONS)
            for tol in tolerances:
                verdict = check_periodic(noisy.with_tolerance(tol), max_violations=1)
                violated = {r.condition for r in verdict.reports}
                assert violated <= before, (label, eps, tol)
                before = violated


def test_every_violated_condition_lists_one_witness_at_a_cut_of_zero():
    # the grid keeps the sector rows exact, so I-v holds on it: the
    # rendering cases and a deterministic shift violate it
    sample = [*noisy_grid(2), *((f"rendering {mode}", rule, mode == "infinite")
                                for mode, rule in rendering_cases()),
              ("shift(2,4)", deterministic_shift(2, 4), True)]
    checked = 0
    for label, rule, infinite in sample:
        for check in (check_periodic, check_infinite) if infinite else (check_periodic,):
            try:
                violated = {r.condition for r in check(rule).reports}
            except CapExceeded:
                continue
            cut = [r.condition for r in check(rule, max_violations=0).reports]
            assert sorted(cut) == sorted(violated), (label, check.__name__)
            checked += bool(violated)
    assert checked > 100


def test_periodic_verdict_bounds_the_ring_defects():
    # the ring contract of a periodic verdict (qca1d.rules): on the rings of
    # N <= r sites, r = n^2 + n + 1 and n = q^(k-1), a unitary verdict keeps
    # the exact defect within (1 + tol)^N - 1, and a NOT-unitary one shows a
    # defect over tol on one of them; one walk reads every N <= r
    verdicts = [0, 0]
    for seed in range(4):
        for label, rule, infinite in noisy_grid(seed):
            if infinite:
                continue
            n, tol = rule.q ** (rule.k - 1), rule.tolerance
            defects = walk_defects(rule, n * n + n + 1)
            unitary = check_periodic(rule, max_violations=1).unitary
            if unitary:
                assert all(d <= (1 + tol) ** N - 1 for N, d in enumerate(defects, 1)), label
            else:
                assert any(d > tol for d in defects), label
            verdicts[unitary] += 1
    assert verdicts == [236, 148]


def test_infinite_verdict_is_monotone_in_the_tolerance():
    # the same for the infinite conditions; the sector's rows stay exact, so
    # the sector survives the noise and every verdict is decided
    tolerances = [10.0**-e for e in range(9, 0, -1)]
    for index, (label, rule, infinite) in enumerate(unitary_grid(11)):
        if not infinite:
            continue
        keep = deterministic_sector(rule)
        for eps in (1e-7, 1e-5, 1e-3):
            noisy = with_noise(rule, eps, index, keep)
            before = set(INFINITE_CONDITIONS)
            for tol in tolerances:
                verdict = check_infinite(noisy.with_tolerance(tol), max_violations=1)
                violated = {r.condition for r in verdict.reports}
                assert violated <= before, (label, eps, tol)
                before = violated


def test_gram_rounding_matches_per_edge_test():
    rule = with_noise(quantized_shift(3, 2, seed=5), 1e-3, seed=5)
    for tilted in _tolerance_on_rounding(rule):
        tol = tilted.tolerance
        per_edge = np.array([[a != b and abs(inner(tilted, ca, cb)) > tol
                              for b, cb in enumerate(tilted.configs())]
                             for a, ca in enumerate(tilted.configs())])
        assert np.array_equal(mismatch_support(tilted), per_edge)
