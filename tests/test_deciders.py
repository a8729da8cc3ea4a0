"""Array decisions of the unitarity conditions against witness enumeration."""

import json

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
from qca1d.graphs import (CapExceeded, cycle_reach, iter_cycles, iter_paths, mismatch_support,
                          pair_graph, sector_mask)
from qca1d.rules import config_index, dump_rule
from qca1d.unitarity import (
    DEFAULT_MAX_VIOLATIONS,
    INFINITE_CONDITIONS,
    PERIODIC_CONDITIONS,
    _RuleGraphs,
    _search,
    evaluate_condition,
    verdict_from_json,
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
            holds, reports = _search(rule, condition, sector, graphs)
            violated = next(reports(1), None) is not None
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
    monkeypatch.setattr("qca1d.unitarity.shortest_walks", refuse)
    for label, rule, infinite in unitary_grid(seed):
        verdict = check_infinite(rule) if infinite else check_periodic(rule)
        assert verdict.unitary, label


def test_listing_builds_each_graph_once(monkeypatch, f21):
    # the norm graph once for P-i; the mismatch witnesses are read off the
    # decision's masks and valued pair by pair, so no pair graph is built
    import qca1d.graphs as graphs
    import qca1d.unitarity as unitarity

    calls, kinds = [], []
    for module, name in ((unitarity, "rule_graph"), (graphs, "pair_graph")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda rule, f=original, n=name: calls.append(n) or f(rule))
    monkeypatch.setattr(graphs.Graph, "__init__", lambda self, kind, *a, f=graphs.Graph.__init__:
                        kinds.append(kind) or f(self, kind, *a))
    verdict = check_periodic(with_noise(f21, 1e-3))
    assert {r.condition for r in verdict.reports} == {"P-i", "P-ii", "P-iii"}
    assert calls == ["rule_graph"] and kinds == ["single"]


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
    assert count(check_infinite, _violating("I-i")[0]) == ({"I-i", "I-iii"}, 1)
    violated, searches = count(check_infinite, _violating("I-iv")[0])
    assert "I-iv" in violated and searches == 1


def _violating(condition):
    """A rule that violates the condition with more than one report, and
    its sector when the condition is an infinite one."""
    if condition in PERIODIC_CONDITIONS:
        return with_noise(quantized_shift(2, 3), 1e-3), None
    if condition == "I-iv":  # parallel 000 and 111 vectors: a sector mismatch loop
        amps = make_family("f31_000_111", {"m1": 1.5, "m2": 0.6}).amplitudes.copy()
        amps[7] = amps[0]
        rule = RuleTable(2, 3, amps)
    else:  # I-ii needs two sector vertices, and noisy f31_000 has one
        name = "f31_000_111" if condition == "I-ii" else "f31_000"
        exact = make_family(name, random_params(name, np.random.default_rng(0)))
        rule = with_noise(exact, 1e-3, keep=deterministic_sector(exact))
    return rule, deterministic_sector(rule)


@pytest.mark.parametrize("condition", [*PERIODIC_CONDITIONS, *INFINITE_CONDITIONS[:4]])
def test_evaluate_condition_cuts_the_report_stream(condition):
    # the listing of a violated condition is cut in one place: a cut of m
    # keeps the first max(m, 1) reports of the uncut stream
    rule, sector = _violating(condition)
    every = evaluate_condition(rule, condition, sector=sector, max_violations=10**6)
    assert len(every) > 1
    for m in (-1, 0, 1, 3):
        cut = evaluate_condition(rule, condition, sector=sector, max_violations=m)
        assert cut == every[:max(m, 1)], m


MISMATCH = ("P-ii", "P-iii", "I-iii", "I-iv")


def _pair_edge(pair, q):
    return config_index(pair[0], q) * q ** len(pair[0]) + config_index(pair[1], q)


def _reached(g2, edge_ok, start, allowed):
    """Plain breadth-first reference: the vertices one or more edges of
    ``edge_ok`` lead to from ``start``, through vertices of ``allowed``."""
    seen, frontier = set(), {start}
    while frontier:
        step = {t for e, s, t in zip(range(len(edge_ok)), g2.src.tolist(), g2.dst.tolist())
                if edge_ok[e] and s in frontier} - seen
        seen |= step
        frontier = {t for t in step if allowed[t]}
    return seen


@pytest.mark.parametrize("seed", [0, 1])
def test_mismatch_witnesses_are_shortest_walks_of_the_old_search(seed):
    # each listed witness is a shortest walk among those the depth-first
    # search lists for its root, over the mask that decided the condition;
    # the grid keeps sector rows exact, so the rendering cases add I-iv
    checked = set()
    rendered = [(mode, rule, mode == "infinite") for mode, rule in rendering_cases()]
    for label, rule, infinite in [*noisy_grid(seed), *rendered]:
        q, k = rule.q, rule.k
        if q ** (2 * k) > 256:
            continue
        g2 = pair_graph(rule)
        diagonal = g2.diagonal
        for condition, sector in _conditions(rule, infinite):
            if condition not in MISMATCH:
                continue
            reports = evaluate_condition(rule, condition, sector=sector)
            if not reports:
                continue
            checked.add(condition)
            edges = mismatch_support(rule)
            if condition == "I-iv":
                inside = sector_mask(sector, q, k)
                edges = edges & inside[:, None] & inside
            edge_ok = edges.ravel()
            cycles = condition in ("P-ii", "I-iv")
            reach = cycle_reach(edges, ~np.eye(q ** (k - 1), dtype=bool)).ravel()
            roots = np.flatnonzero(reach if cycles else diagonal).tolist()
            found = []  # the roots that have a walk, ascending
            for root in roots:
                allowed = reach & (np.arange(reach.size) > root) if cycles else ~diagonal
                ends = {root} if cycles else set(np.flatnonzero(diagonal).tolist())
                if ends & _reached(g2, edge_ok, root, allowed):
                    found.append(root)
            listed = []
            for r in reports:
                walk = [_pair_edge(pair, q) for pair in r.witness]
                root = int(g2.src[walk[0]])
                listed.append(root)
                assert all(edge_ok[walk]), (label, condition)
                assert g2.src[walk[1:]].tolist() == g2.dst[walk[:-1]].tolist()
                allowed = reach & (np.arange(reach.size) > root) if cycles else ~diagonal
                assert allowed[g2.dst[walk[:-1]]].all(), (label, condition)
                # for a cycle: the root's group of iter_cycles, up to this length
                one = np.arange(g2.n_vertices) == root
                candidates = [w for w, _, _ in iter_paths(
                    g2, one, one if cycles else diagonal, edge_mask=edge_ok,
                    interior_mask=allowed, max_len=len(walk))]
                assert tuple(walk) in candidates and min(map(len, candidates)) == len(walk)
                value = g2.product(walk)
                assert np.array([r.value, r.margin]).tobytes() == \
                    np.array([value, abs(value)]).tobytes(), (label, condition)
            assert listed == found[:DEFAULT_MAX_VIOLATIONS], (label, condition)
            cut = evaluate_condition(rule, condition, sector=sector, max_violations=3)
            assert cut == reports[:3]
    assert checked == set(MISMATCH)


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


def test_noisy_shift_lists_its_witnesses(tmp_path, capsys):
    # Complex noise at the tolerance leaves mismatch edges just above it, and
    # a depth-first search for P-ii witnesses examined over 10^6 edges between
    # cycles on seed 5 and exited 3.  The breadth-first listing takes each
    # root's shortest cycle off the decision's mask, so verify lists them.
    rule = with_noise(quantized_shift(3, 3, seed=5), 1e-9, seed=5)
    path = tmp_path / "rule.json"
    path.write_text(dump_rule(rule))
    code = main(["verify", str(path), "--mode", "periodic", "--json"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    reports = [r for r in verdict_from_json(json.loads(out.out)).reports if r.condition == "P-ii"]
    g2, support = pair_graph(rule), mismatch_support(rule).ravel()
    assert reports
    for r in reports:  # a closed walk of surviving mismatch edges off the diagonal
        walk = [config_index(a, 3) * 27 + config_index(b, 3) for a, b in r.witness]
        assert support[walk].all() and not g2.diagonal[g2.src[walk]].any()
        assert g2.src[walk].tolist() == g2.dst[walk[-1:] + walk[:-1]].tolist()
        assert r.value == g2.product(walk) and r.margin == abs(r.value) > 0


def test_noisy_2_8_shift_prints_a_bounded_verdict(tmp_path, capsys):
    # the depth-first listing printed 44 MB of simple P-ii cycles and P-iii
    # paths here; now the unchanged P-i norm cycles, about 150 KB, dominate
    path = tmp_path / "rule.json"
    path.write_text(dump_rule(with_noise(quantized_shift(2, 8), 1e-3)))
    code = main(["verify", str(path), "--mode", "periodic", "--json"])
    out = capsys.readouterr().out
    assert code == 1 and len(out) < 256 * 1024
    mismatch = [r for r in json.loads(out)["reports"] if r["condition"] in ("P-ii", "P-iii")]
    assert len(mismatch) == 2 * DEFAULT_MAX_VIOLATIONS and len(json.dumps(mismatch)) < 80 * 1024


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
