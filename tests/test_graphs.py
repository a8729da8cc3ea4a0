import itertools
import re
import tracemalloc

import numpy as np
import pytest

from qca1d import (
    RuleTable,
    deterministic_sector,
    enumerate_cycles,
    inner,
    make_family,
    monomial_of,
    pair_graph,
    path_monomials,
    patt_rule,
    quantize,
    rule_graph,
    to_dot,
)
from qca1d import graphs
from qca1d.cli import main
from qca1d.graphs import (MAX_PAIR_ENTRIES, CapExceeded, Walk, cycle_reach, iter_cycles, iter_paths,
                          reaches, sector_mask)
from qca1d.rules import config_index, dump_rule
from qca1d.transfer import Monomial

from conftest import F21_SAMPLE, haar_unitary, quantized_shift, with_noise
from references import unit_configs


def mono(*pairs):
    factors = []
    for p in pairs:
        if isinstance(p, int):
            factors.append((p,))
        else:
            factors.append(tuple(sorted(p)))
    return Monomial(tuple(sorted(factors)))


def cycle_monomials(graph, cycles):
    return {monomial_of(graph, c) for c in cycles}


def edge_configs(graph):
    """The config (norm graph) or config pair (pair graph) of every edge."""
    return graph.configs(range(len(graph.edges)))


def test_rule_graph_k2(f21):
    g = rule_graph(f21)
    assert g.n_vertices == 2 and len(g.edges) == 4
    weights = dict(zip(edge_configs(g), g.weight))
    for cfg in f21.configs():
        assert weights[cfg] == pytest.approx(inner(f21, cfg, cfg))
    rho = 1.5
    assert weights[(0, 1)] == pytest.approx(rho**2)
    assert weights[(1, 0)] == pytest.approx(rho**-2)


def test_rule_graph_k3():
    rule = make_family("f31", {"r1": 1.0, "r2": 1.0, "r6": 1.0})
    g = rule_graph(rule)
    assert g.n_vertices == 4 and len(g.edges) == 8
    for e, cfg in enumerate(edge_configs(g)):
        assert g.src[e] == config_index(cfg[:-1], 2)
        assert g.dst[e] == config_index(cfg[1:], 2)


def test_rule_graph_k1_degenerate():
    amps = np.array([[1, 0], [0, 1]], dtype=complex)
    rule = RuleTable(2, 1, amps)
    g = rule_graph(rule)
    assert g.n_vertices == 1
    assert len(g.edges) == 2
    assert all(s == t == 0 for s, t in zip(g.src, g.dst))
    assert len(enumerate_cycles(g)) == 2


@pytest.mark.parametrize("q, k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 5), (4, 3), (3, 3)])
def test_edge_i_is_config_i(q, k):
    # norm edge i is config i and pair edge i the pair divmod(i, q^k), in
    # every graph; out_edges lists each vertex's edges in index order
    rule = quantized_shift(q, k)
    configs = list(rule.configs())
    for g in (rule_graph(rule), pair_graph(rule)):
        assert (g.edges == np.arange(g.weight.size)).all()
        if g.kind == "single":
            assert list(g.configs(g.edges)) == configs and not g.mismatch.any()
        else:
            pairs = [divmod(i, q**k) for i in range(g.weight.size)]
            assert list(g.configs(g.edges)) == [(configs[a], configs[b]) for a, b in pairs]
            assert g.mismatch.tolist() == [a != b for a, b in pairs]
        assert g.out_edges == [np.flatnonzero(g.src == v).tolist() for v in range(g.n_vertices)]


def test_pair_graph_k2(f21):
    g2 = pair_graph(f21)
    assert g2.n_vertices == 4 and len(g2.edges) == 16
    assert sum(g2.mismatch) == 12
    g1 = rule_graph(f21)
    g1_weights = dict(zip(edge_configs(g1), g1.weight))
    for e, (ca, cb) in enumerate(edge_configs(g2)):
        if not g2.mismatch[e]:
            assert g2.weight[e] == pytest.approx(g1_weights[ca])
        assert g2.weight[e] == pytest.approx(inner(f21, ca, cb))
    w01 = [w for cfgs, w in zip(edge_configs(g2), g2.weight) if cfgs == ((0, 0), (0, 1))]
    assert w01[0] == pytest.approx(inner(f21, "00", "01"))


def test_pair_graph_k3():
    rule = make_family("f30", {"r1": 1.1, "r2": 0.9, "r6": 1.2})
    g2 = pair_graph(rule)
    assert g2.n_vertices == 16 and len(g2.edges) == 64


def test_cycles_g1_k2(ident):
    g = rule_graph(ident)
    cycles = enumerate_cycles(g)
    assert cycle_monomials(g, cycles) == {mono(0), mono(3), mono(1, 2)}
    assert all(g.product(c) == pytest.approx(1.0) for c in cycles)
    covered = {cfg for c in cycles for cfg in g.configs(c)}
    assert covered == set(ident.configs())


def test_cycles_g1_k3():
    rule = make_family("f31", {"r1": 1.3, "r2": 0.6, "r6": 0.8,
                               "p1": 0.2, "p4": 1.1, "theta": 0.7})
    g = rule_graph(rule)
    cycles = enumerate_cycles(g)
    assert cycle_monomials(g, cycles) == {
        mono(0), mono(7), mono(2, 5), mono(1, 2, 4), mono(3, 6, 5), mono(1, 3, 6, 4)}
    assert all(abs(g.product(c) - 1) < 1e-9 for c in cycles)
    covered = {cfg for c in cycles for cfg in g.configs(c)}
    assert covered == set(rule.configs())


def test_cycles_mismatch_k2(f21):
    g2 = pair_graph(f21)
    cycles = enumerate_cycles(g2, restrict="mismatch")
    assert cycle_monomials(g2, cycles) == {mono((0, 3)), mono((1, 2), (1, 2))}


def test_cycles_mismatch_k3():
    rule = make_family("f31", {"r1": 1.3, "r2": 0.6, "r6": 0.8})
    by_len = {}
    g2 = pair_graph(rule)
    for c in enumerate_cycles(g2, restrict="mismatch"):
        by_len.setdefault(len(c), set()).add(monomial_of(g2, c))
    assert by_len[1] == {mono((0, 7))}
    assert by_len[2] == {mono((2, 5), (2, 5)), mono((0, 2), (0, 5)), mono((2, 7), (5, 7))}
    # four length-3 mismatch cycles match the constraint analysis; the fifth
    # is redundant, its weight vanishing already when w_{25} does
    assert by_len[3] == {
        mono((0, 3), (0, 5), (0, 6)), mono((1, 2), (1, 4), (2, 4)),
        mono((1, 7), (2, 7), (4, 7)), mono((3, 5), (3, 6), (5, 6)),
        mono((1, 6), (2, 5), (3, 4))}


def test_mismatch_restrict_requires_pair_graph(ident):
    with pytest.raises(ValueError):
        enumerate_cycles(rule_graph(ident), restrict="mismatch")


def test_cycle_cap(ident, monkeypatch):
    monkeypatch.setenv("QCA_CYCLE_CAP", "2")
    with pytest.raises(CapExceeded, match="2"):
        enumerate_cycles(rule_graph(ident))


def test_cycle_order_deterministic(f21):
    ga, gb = pair_graph(f21), pair_graph(f21)
    a = enumerate_cycles(ga)
    b = enumerate_cycles(gb)
    assert [ga.configs(c) for c in a] == \
           [gb.configs(c) for c in b]


CARRIED_RULES = {
    "noisy_shift_2_3": lambda: with_noise(quantized_shift(2, 3), 1e-3),
    "noisy_shift_3_2": lambda: with_noise(quantized_shift(3, 2), 1e-3),
    "patt": lambda: quantize(patt_rule(), haar_unitary(np.random.default_rng(5), 2)),
    "f21": lambda: make_family("f21", F21_SAMPLE),
    # every product of two or more weights overflows
    "all_1e100": lambda: RuleTable(2, 3, np.full((8, 2), 1e100, dtype=complex)),
}


@pytest.mark.parametrize("name", CARRIED_RULES)
def test_walks_carry_their_configs_and_weight(name):
    # the labels and weight carried on the search stack equal those
    # recomputed from the walk; reprs make NaN and signed zeros count
    rule = CARRIED_RULES[name]()
    for graph in (rule_graph(rule), pair_graph(rule)):
        diagonal = graph.diagonal
        searches = [iter_cycles(graph), iter_paths(graph, diagonal, diagonal)]
        if graph.kind == "pair":
            mismatch = {"edge_mask": graph.mismatch}
            searches += [
                iter_cycles(graph, vertex_mask=~diagonal, **mismatch),
                iter_paths(graph, diagonal, diagonal, interior_mask=~diagonal, **mismatch),
                iter_paths(graph, diagonal, diagonal, interior_mask=~diagonal,
                           max_len=rule.k, **mismatch)]  # the shortest such paths
        for triples in searches:
            checked = 0
            for walk, labels, weight in itertools.islice(triples, 2000):
                assert labels == graph.configs(walk)
                assert repr(weight) == repr(graph.product(walk))
                checked += 1
            assert checked > 0


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (3, 2)])
def test_path_monomials_match_the_monomials_of_their_paths(q, k):
    rule = with_noise(quantized_shift(q, k), 1e-3)
    g2 = pair_graph(rule)
    diagonal = g2.diagonal
    by_length = path_monomials(rule, 5)
    assert len(by_length) == 5
    for n, monomials in enumerate(by_length, 1):
        paths = iter_paths(g2, diagonal, diagonal, edge_mask=g2.mismatch,
                           interior_mask=~diagonal, max_len=n)
        assert monomials == sorted({monomial_of(g2, p) for p, _, _ in paths if len(p) == n})


def mask_successors(edges, q):
    """Plain-Python adjacency of a boolean config mask: one axis of q^k
    configs per graph, config a running from a // q to a % q^(k-1); a pair
    vertex is a tuple of one vertex per axis."""
    n = edges.shape[0] // q
    succ = {}
    for cfgs in zip(*np.nonzero(edges)):
        u = tuple(int(a) // q for a in cfgs)
        succ.setdefault(u, set()).add(tuple(int(a) % n for a in cfgs))
    return succ


def as_vertices(mask):
    return set(map(tuple, np.argwhere(mask).tolist()))


def reference_reaches(succ, start, stop):
    """Depth-first search from ``start`` that enters no ``stop`` vertex
    except as the end of a walk."""
    seen, todo = set(start), list(start)
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w in stop:
                return True
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


def reference_cycle_exists(succ, inside):
    """Three-colour depth-first search for a back edge within ``inside``."""
    colour = dict.fromkeys(inside, 0)  # 0 new, 1 on the stack, 2 done
    for root in inside:
        if colour[root]:
            continue
        colour[root] = 1
        stack = [(root, iter(succ.get(root, ())))]
        while stack:
            u, it = stack[-1]
            for w in it:
                if w not in colour:
                    continue
                if colour[w] == 1:
                    return True
                if colour[w] == 0:
                    colour[w] = 1
                    stack.append((w, iter(succ.get(w, ()))))
                    break
            else:
                colour[u] = 2
                stack.pop()
    return False


def reference_cycle_reach(succ, inside):
    """The vertices of ``inside`` that a walk within ``inside`` reaches from
    a vertex it can return to."""
    def reached(roots):
        seen, todo = set(), list(roots)
        while todo:
            for w in succ.get(todo.pop(), ()):
                if w in inside and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    return reached(u for u in inside if u in reached([u]))


def advance(edges, frontier):
    """One step of the boolean ``graphs.Walk`` from the vertex mask
    ``frontier``, its batch axes last."""
    d, n = edges.ndim, frontier.shape[0]
    walk = Walk(edges.shape[0] // n, n, d, frontier.shape[d:])
    walk.walk[...] = frontier
    return walk.step(walk.edges(edges))


@pytest.mark.parametrize("axes", [1, 2], ids=["norm", "pair"])
@pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3) for k in range(1, 5)])
def test_step_kernels_match_plain_search(q, k, axes):
    # sparse masks, about one out-edge per vertex, give the long chains and
    # isolated cycles that rule tables do not
    rng = np.random.default_rng([q, k, axes])
    n = q ** (k - 1)
    for _ in range(8):
        edges = rng.uniform(size=(q**k,) * axes) < rng.uniform(0.3, 1.5) / q**axes
        succ = mask_successors(edges, q)
        frontier = np.moveaxis(rng.uniform(size=(3,) + (n,) * axes) < 0.3, 0, -1)
        stepped = advance(edges, frontier)
        assert stepped.shape == frontier.shape
        for row, got in zip(np.moveaxis(frontier, -1, 0), np.moveaxis(stepped, -1, 0)):
            expected = {w for u in as_vertices(row) for w in succ.get(u, ())}
            assert as_vertices(got) == expected
        assert np.array_equal(advance(edges, frontier[..., 0]), stepped[..., 0])
        stop = np.moveaxis(rng.uniform(size=(3,) + (n,) * axes) < 0.2, 0, -1)
        found = reaches(edges, frontier, stop)
        for row, start, end in zip(found, np.moveaxis(frontier, -1, 0), np.moveaxis(stop, -1, 0)):
            assert row == reference_reaches(succ, as_vertices(start), as_vertices(end))
        assert reaches(edges, frontier[..., 1], stop[..., 1]) == found[1]
        inside = rng.uniform(size=(n,) * axes) < 0.8
        reach = cycle_reach(edges, inside)
        assert reach.any() == reference_cycle_exists(succ, as_vertices(inside))
        assert as_vertices(reach) == reference_cycle_reach(succ, as_vertices(inside))


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
@pytest.mark.parametrize("axes", [1, 2], ids=["norm", "pair"])
@pytest.mark.parametrize("q,k", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_walk_products_are_indexed_by_the_prepended_digits(q, k, axes, batch):
    # products[c, v] is the walk at the predecessor of v by the digits c,
    # config // q on each axis, times the weight of the config c n + v; the
    # plus over axis 0 is the step
    rng = np.random.default_rng([q, k, axes, len(batch)])
    n = q ** (k - 1)
    weights = rng.uniform(size=(q**k,) * axes)
    walk = Walk(q, n, axes, batch, np.maximum, np.multiply, float)
    before = rng.uniform(size=walk.walk.shape)
    walk.walk[...] = before
    stepped = walk.step(walk.edges(weights)).copy()
    products = walk.products.reshape((q,) * axes + (n,) * axes + batch)
    for digits in itertools.product(range(q), repeat=axes):
        for vertex in itertools.product(range(n), repeat=axes):
            config = tuple(c * n + v for c, v in zip(digits, vertex))
            source = tuple(a // q for a in config)
            assert np.array_equal(products[digits + vertex], before[source] * weights[config])
    assert np.array_equal(stepped, walk.products.max(axis=0))


def unit_outputs(rule):
    """Per config, the unique output state with amplitude 1, or None."""
    out = {}
    for cfg in rule.configs():
        hits = [i for i, z in enumerate(rule.vector(cfg)) if abs(z - 1) <= rule.tolerance]
        out[cfg] = hits[0] if len(hits) == 1 else None
    return out


def closure_breaks(rule, sector):
    """Windows of the strings of k consecutive sector windows whose produced
    config is not in the sector."""
    out = unit_outputs(rule)
    k = rule.k
    strings = [(c, (c,)) for c in sector]
    broken = set()
    while strings:
        string, windows = strings.pop()
        if len(windows) == k:
            if tuple(out[w] for w in windows) not in sector:
                broken.update(windows)
            continue
        for s in range(rule.q):
            nxt = string + (s,)
            if nxt[-k:] in sector:
                strings.append((nxt, windows + (nxt[-k:],)))
    return broken


def closure_holds(rule, sector):
    return not closure_breaks(rule, sector)


def on_sector_cycles(sector):
    """Configs whose norm-graph edge lies on a cycle of sector edges."""
    succ = {}
    for cfg in sector:
        succ.setdefault(cfg[:-1], set()).add(cfg[1:])

    def reachable(v):
        seen, frontier = {v}, [v]
        while frontier:
            frontier = [w for u in frontier for w in succ.get(u, ()) if w not in seen]
            seen.update(frontier)
        return seen

    return {cfg for cfg in sector if cfg[:-1] in reachable(cfg[1:])}


def reference_sector(rule):
    """Set-based greatest fixpoint of the two prunings, and its round count."""
    out = unit_outputs(rule)
    sector = set(unit_configs(rule))
    rounds = 1
    while True:
        live = {cfg for cfg in on_sector_cycles(sector) if out[cfg] is not None}
        pruned = live - closure_breaks(rule, live)
        if pruned == sector:
            return frozenset(sector), rounds
        sector, rounds = pruned, rounds + 1


def random_sector_rule(rng):
    """q in {2, 3}, k in 1..4; each row a unit basis vector, all ones, or
    random, with basis rows the most common."""
    q, k = int(rng.integers(2, 4)), int(rng.integers(1, 5))
    amps = rng.normal(size=(q**k, q)) + 1j * rng.normal(size=(q**k, q))
    kind = rng.uniform(size=q**k)
    share = rng.uniform(0.5, 1.0)
    amps[kind < share] = np.eye(q)[rng.integers(q, size=int(np.sum(kind < share)))]
    amps[(kind >= share) & (kind < (1 + share) / 2)] = 1.0
    return RuleTable(q, k, amps)


def test_sector_identity(ident):
    sector = deterministic_sector(ident)
    assert sector == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert closure_holds(ident, sector)


def test_sector_f21_00(f21_00):
    assert deterministic_sector(f21_00) == {(0, 0)}


def test_sector_f31_000_111():
    rule = make_family("f31_000_111", {"m1": 1.4, "m2": 0.8, "theta01": 0.4, "theta10": 1.0})
    sector = deterministic_sector(rule)
    assert sector == {(0, 0, 0), (1, 1, 1)}
    assert closure_holds(rule, sector)


def test_sector_empty_for_flat_rule():
    amps = np.full((4, 2), 1 / np.sqrt(2), dtype=complex)
    rule = RuleTable(2, 2, amps)
    assert unit_configs(rule) == frozenset()
    assert deterministic_sector(rule) == frozenset()


def test_sector_prunes_unit_configs_off_cycles():
    # 01 has a unit component but only 00 lies on an all-sector cycle
    amps = np.array([[1, 0], [1, 0], [0.5, 0.5], [0.3, 0.1]], dtype=complex)
    rule = RuleTable(2, 2, amps)
    assert unit_configs(rule) == {(0, 0), (0, 1)}
    assert deterministic_sector(rule) == {(0, 0)}


def test_sector_matches_set_reference():
    rng = np.random.default_rng(2024)
    nonempty = multi_round = 0
    for _ in range(400):
        rule = random_sector_rule(rng)
        expected, rounds = reference_sector(rule)
        assert deterministic_sector(rule) == expected
        nonempty += bool(expected)
        multi_round += rounds > 2  # two pruning rounds before the confirming one
    assert nonempty > 150 and multi_round > 100


def test_sector_matches_set_reference_in_small_blocks(monkeypatch):
    # a bound of a few dozen entries splits both the cycle search and the
    # closure walks into many blocks per pruning round
    monkeypatch.setattr(graphs, "MAX_PAIR_ENTRIES", 36)
    searches = []

    def counted(edges, start, stop):
        searches.append(len(start))
        return reaches(edges, start, stop)

    monkeypatch.setattr(graphs, "reaches", counted)
    rng = np.random.default_rng(2024)
    split = 0
    for _ in range(200):
        rule = random_sector_rule(rng)
        searches.clear()
        expected, rounds = reference_sector(rule)
        assert deterministic_sector(rule) == expected
        split += len(searches) > rounds  # some round searched in two or more blocks
    assert split > 50


def test_sector_walks_stay_within_block_bound():
    # at (2,10) the 1024 * 512 closure strings have 1024 * 512 * 10 windows,
    # more than MAX_PAIR_ENTRIES; the closure holds one window per string at
    # a time, and blocks of start windows keep each array within
    # MAX_PAIR_ENTRIES entries
    q, k = 2, 10
    amps = np.zeros((q**k, q), dtype=complex)
    amps[np.arange(q**k), np.arange(q**k) % q] = 1.0
    shift = RuleTable(q, k, amps)
    assert q ** (k - 1) * q**k * k > MAX_PAIR_ENTRIES
    tracemalloc.start()
    try:
        sector = deterministic_sector(shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sector) == q**k
    assert peak <= 3 * MAX_PAIR_ENTRIES * np.dtype(np.intp).itemsize


def test_enumerate_cycles_refuses_an_unknown_restriction(f21):
    with pytest.raises(ValueError, match="^unknown restrict value 'diagonal'$"):
        enumerate_cycles(pair_graph(f21), restrict="diagonal")


def dot_edges(dot):
    """(source, target, config) of each edge a DOT rendering draws: the
    config (norm graph) or config pair (pair graph) is the source vertex
    with the label's appended symbols."""
    edges = []
    for src, dst, digits in re.findall(r'"(\S*)" -> "(\S*)" \[label="\(?([\d,]*)\)? /', dot):
        cfgs = tuple(tuple(map(int, p + d)) for p, d in zip(src.split("|"), digits.split(",")))
        edges.append((src, dst, cfgs[0] if len(cfgs) == 1 else cfgs))
    return edges


def test_sector_subgraph(tmp_path, capsys, ident, f21_00):
    # graph --which d1|d2 draws the whole graph, its edges masked to the sector
    def draw(rule, which):
        path = tmp_path / "rule.json"
        path.write_text(dump_rule(rule))
        assert main(["graph", str(path), "--which", which]) == 0
        return capsys.readouterr().out

    d1 = draw(f21_00, "d1")
    assert [(s, t) for s, t, _ in dot_edges(d1)] == [("0", "0")]
    assert '"1";' in d1  # every vertex is drawn, edges or not

    d2 = draw(make_family("f31_000_111", {"m1": 1.4, "m2": 0.8}), "d2")
    assert {cfgs for _, _, cfgs in dot_edges(d2)} == {
        ((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 1, 1)),
        ((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (1, 1, 1))}
    assert len(dot_edges(d2)) == 4

    empty = to_dot(rule_graph(ident), "d1", sector_mask(frozenset(), 2, 2))
    assert dot_edges(empty) == [] and " -> " not in empty
    full = rule_graph(f21_00)
    assert [cfg for _, _, cfg in dot_edges(to_dot(full))] == list(edge_configs(full))


def test_dot_export(f21):
    dot = to_dot(rule_graph(f21), name="g1")
    assert dot.startswith("digraph g1 {")
    assert '"0" -> "1"' in dot
    dot2 = to_dot(pair_graph(f21))
    assert "color=gray" in dot2 and '"0|1"' in dot2
