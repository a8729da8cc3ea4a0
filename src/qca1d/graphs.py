"""Weighted de Bruijn graphs over neighborhoods and neighborhood pairs.

Two graphs drive the unitarity analysis of a rule table:

* the *norm graph*: vertices are length k-1 strings, one edge per
  neighborhood from its prefix to its suffix, weighted by the squared norm
  of the neighborhood's amplitude vector;
* the *pair graph*: vertices are ordered pairs of length k-1 strings, one
  edge per ordered pair of neighborhoods, weighted by the inner product of
  the two amplitude vectors (first one conjugated).

Pair edges whose two configurations coincide form a copy of the norm graph,
the *diagonal*; all other pair edges are *mismatch* edges.  Cycle and path
weights are products of edge weights.

The graphs exist twice: as ``WeightedDiGraph`` objects with one ``Edge`` per
edge, which cycle and path enumeration walk to list witnesses, and as numpy
arrays indexed by config (``norm_potential``, ``mismatch_support``,
``pair_edges``) with two kernels over them, ``cycle_exists`` and
``reaches``, which decide the unitarity conditions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .rules import Config, RuleTable, all_configs, config_index, config_str, inner, unit_configs

DEFAULT_CYCLE_CAP = 10**6
MAX_PAIR_ENTRIES = 1 << 22  # q^(2k) pair weights, 64 MiB as complex128


class CycleCapExceeded(RuntimeError):
    """Cycle or path enumeration examined more edges than the cap, or a
    pair graph has more weights than ``MAX_PAIR_ENTRIES``."""


def resolve_cycle_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    return int(os.environ.get("QCA_CYCLE_CAP", DEFAULT_CYCLE_CAP))


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    configs: tuple[Config, ...]  # one neighborhood (norm graph) or an ordered pair
    weight: complex
    mismatch: bool = False

    @property
    def diagonal(self) -> bool:
        return not self.mismatch

    def label(self) -> str:
        if len(self.configs) == 1:
            return config_str(self.configs[0])
        return config_str(self.configs[0]) + "|" + config_str(self.configs[1])


class WeightedDiGraph:
    """Immutable directed multigraph with complex edge weights."""

    def __init__(self, kind: str, q: int, k: int, vertices: Sequence, edges: Sequence[Edge]):
        self.kind = kind  # "single" or "pair"
        self.q = q
        self.k = k
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        out: list[list[int]] = [[] for _ in self.vertices]
        for i, e in enumerate(self.edges):
            out[e.source].append(i)
        self._out = tuple(tuple(ix) for ix in out)

    def out_edges(self, vertex: int) -> tuple[int, ...]:
        """Indices into ``edges`` of the edges leaving ``vertex``."""
        return self._out[vertex]

    def vertex_name(self, vertex: int) -> str:
        label = self.vertices[vertex]
        if self.kind == "single":
            return config_str(label)
        return config_str(label[0]) + "|" + config_str(label[1])

    def is_diagonal_vertex(self, vertex: int) -> bool:
        if self.kind == "single":
            return True
        a, b = self.vertices[vertex]
        return a == b

    def diagonal_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(len(self.vertices)) if self.is_diagonal_vertex(v))

    def restricted(self, edge_ok: Callable[[Edge], bool]) -> "WeightedDiGraph":
        """Same vertex set, edges filtered by a predicate."""
        return WeightedDiGraph(self.kind, self.q, self.k, self.vertices,
                               [e for e in self.edges if edge_ok(e)])


def rule_graph(rule: RuleTable) -> WeightedDiGraph:
    """Norm graph: q^(k-1) vertices, one edge per neighborhood.

    The edge for neighborhood i1..ik runs from vertex i1..i(k-1) to vertex
    i2..ik and carries weight <<i1..ik | i1..ik>>.
    """
    q, k = rule.q, rule.k
    vertices = list(all_configs(q, k - 1))
    edges = []
    for cfg in rule.configs():
        edges.append(Edge(
            source=config_index(cfg[:-1], q),
            target=config_index(cfg[1:], q),
            configs=(cfg,),
            weight=inner(rule, cfg, cfg),
        ))
    return WeightedDiGraph("single", q, k, vertices, edges)


def pair_graph(rule: RuleTable) -> WeightedDiGraph:
    """Pair graph: q^(2(k-1)) vertices, one edge per ordered neighborhood pair.

    The edge for the pair (a, b) carries weight <<a | b>> and is flagged as a
    mismatch edge when a != b; the remaining edges reproduce the norm graph
    on the diagonal vertices.
    """
    q, k = rule.q, rule.k
    n_pref = q ** (k - 1)
    vertices = [(a, b) for a in all_configs(q, k - 1) for b in all_configs(q, k - 1)]
    edges = []
    for ca in rule.configs():
        for cb in all_configs(q, k):
            src = config_index(ca[:-1], q) * n_pref + config_index(cb[:-1], q)
            dst = config_index(ca[1:], q) * n_pref + config_index(cb[1:], q)
            edges.append(Edge(
                source=src,
                target=dst,
                configs=(ca, cb),
                weight=inner(rule, ca, cb),
                mismatch=ca != cb,
            ))
    return WeightedDiGraph("pair", q, k, vertices, edges)


def sector_subgraph(graph: WeightedDiGraph, sector: Iterable[Config]) -> WeightedDiGraph:
    """Edges whose configuration(s) all lie in the deterministic sector."""
    sector = frozenset(sector)
    return graph.restricted(lambda e: all(c in sector for c in e.configs))


# ---------------------------------------------------------------------------
# Array form: vertices and edges indexed by config
# ---------------------------------------------------------------------------


def norm_potential(rule: RuleTable) -> tuple[np.ndarray, float]:
    """Log-potential phi on the norm-graph vertices and its residual bound.

    phi(v) sums the log weights along the walk from 0^(k-1) to v that
    appends the symbols of v one at a time.  The log weight of any cycle is
    the sum of the residuals log w_a - (phi(a[1:]) - phi(a[:-1])) of its
    edges, and a vertex-simple cycle or path has at most q^(k-1) edges, so
    its log weight differs from phi(end) - phi(start) by at most the
    returned bound: the sum of the q^(k-1) largest residual moduli.  The
    bound is infinite when some weight is 0.
    """
    q, k = rule.q, rule.k
    n = q ** (k - 1)
    weights = np.sum(np.abs(rule.amplitudes) ** 2, axis=1)
    if not np.all(weights > 0):
        return np.zeros(n), math.inf
    logw = np.log(weights)
    vertex = np.arange(n)
    phi = np.zeros(n)
    for j in range(1, k):
        phi += logw[vertex // q ** (k - 1 - j)]
    a = np.arange(q**k)
    residual = np.abs(logw - (phi[a % n] - phi[a // q]))
    return phi, float(np.sum(np.partition(residual, a.size - n)[a.size - n:]))


def mismatch_support(rule: RuleTable) -> np.ndarray:
    """Boolean q^k x q^k mask of the mismatch pairs (a, b), a != b, whose
    weight |<<a | b>>| exceeds the tolerance.

    The weights come from one matrix product; the few within rounding of
    the tolerance are recomputed as :func:`pair_graph` computes its edge
    weights, so the mask agrees with the per-edge test exactly.  Raises
    :class:`CycleCapExceeded` before allocating when q^(2k) exceeds
    ``MAX_PAIR_ENTRIES``.
    """
    size = rule.q ** (2 * rule.k)
    if size > MAX_PAIR_ENTRIES:
        raise CycleCapExceeded(
            f"the pair graph has {size} weights, over the cap of {MAX_PAIR_ENTRIES}")
    amps, tol = rule.amplitudes, rule.tolerance
    magnitude = np.abs(amps.conj() @ amps.T)
    scale = max(float(np.max(np.sum(np.abs(amps) ** 2, axis=1))), tol)
    slack = 8 * rule.q * np.finfo(float).eps * scale
    for a, b in zip(*np.nonzero(np.abs(magnitude - tol) <= slack)):
        magnitude[a, b] = abs(complex(np.vdot(amps[a], amps[b])))
    support = magnitude > tol
    np.fill_diagonal(support, False)
    return support


def pair_edges(support: np.ndarray, q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Source and target pair-vertex indices of the pair edges (a, b) that a
    q^k x q^k mask selects: (a[:-1], b[:-1]) -> (a[1:], b[1:])."""
    n = q ** (k - 1)
    a, b = np.nonzero(support)
    return (a // q) * n + b // q, (a % n) * n + b % n


def cycle_exists(src: np.ndarray, dst: np.ndarray, n_vertices: int) -> bool:
    """Whether the edges src[i] -> dst[i] contain a directed cycle.

    Edges leaving a vertex without in-edges or entering a vertex without
    out-edges lie on no cycle; trimming them until none is left leaves a
    nonempty edge set exactly when a cycle exists.
    """
    while src.size:
        keep = (np.bincount(dst, minlength=n_vertices) > 0)[src] \
            & (np.bincount(src, minlength=n_vertices) > 0)[dst]
        if keep.all():
            return True
        src, dst = src[keep], dst[keep]
    return False


def reaches(src: np.ndarray, dst: np.ndarray, start: np.ndarray, stop: np.ndarray) -> bool:
    """Whether a walk of one or more edges src[i] -> dst[i] leads from a
    vertex in the boolean mask ``start`` to one in ``stop``, its interior
    vertices all outside ``stop``."""
    seen = start.copy()
    frontier = start
    while frontier.any():
        hit = dst[frontier[src]]
        if stop[hit].any():
            return True
        frontier = np.zeros_like(seen)
        frontier[hit] = True
        frontier &= ~seen
        seen |= frontier
    return False


# ---------------------------------------------------------------------------
# Cycle and path enumeration
# ---------------------------------------------------------------------------


def _cap_exceeded(kind: str, cap: int) -> CycleCapExceeded:
    return CycleCapExceeded(f"{kind} enumeration exceeded the cap of {cap} examined edges")


@dataclass(frozen=True)
class Cycle:
    edges: tuple[Edge, ...]

    @property
    def weight(self) -> complex:
        w = complex(1.0)
        for e in self.edges:
            w *= e.weight
        return w

    def __len__(self) -> int:
        return len(self.edges)


def path_weight(edges: Sequence[Edge]) -> complex:
    w = complex(1.0)
    for e in edges:
        w *= e.weight
    return w


def iter_cycles(
    graph: WeightedDiGraph,
    *,
    edge_ok: Callable[[Edge], bool] | None = None,
    vertex_ok: Callable[[int], bool] | None = None,
    cap: int | None = None,
) -> Iterator[Cycle]:
    """Yield every vertex-simple directed cycle, deterministically ordered.

    Cycles are grouped by their minimal vertex (ascending) and within a
    group follow depth-first edge order.  Parallel self-loops count as
    distinct cycles.  Raises :class:`CycleCapExceeded` once the search has
    examined more than ``cap`` edges (no limit when ``cap`` is None).
    """
    edges = graph.edges
    allowed_edge = edge_ok or (lambda e: True)
    allowed_vertex = vertex_ok or (lambda v: True)
    n = len(graph.vertices)
    budget = math.inf if cap is None else cap
    work = 0
    for start in range(n):
        if not allowed_vertex(start):
            continue
        # Iterative DFS over vertices >= start; `stack` holds (vertex, edge iterator).
        path_edges: list[Edge] = []
        on_path = {start}
        stack = [(start, iter(graph.out_edges(start)))]
        while stack:
            vertex, it = stack[-1]
            advanced = False
            for ei in it:
                work += 1
                if work > budget:
                    raise _cap_exceeded("cycle", cap)
                e = edges[ei]
                if not allowed_edge(e):
                    continue
                t = e.target
                if t == start:
                    yield Cycle(tuple(path_edges) + (e,))
                    continue
                if t > start and t not in on_path and allowed_vertex(t):
                    path_edges.append(e)
                    on_path.add(t)
                    stack.append((t, iter(graph.out_edges(t))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if path_edges:
                    on_path.discard(path_edges.pop().target)


def enumerate_cycles(
    graph: WeightedDiGraph,
    restrict: str | None = None,
    cap: int | None = None,
) -> list[Cycle]:
    """All vertex-simple cycles with their weights.

    restrict="mismatch" keeps only cycles that lie entirely in the mismatch
    region of a pair graph: every edge a mismatch edge and every vertex off
    the diagonal.  (Closed mismatch walks through diagonal vertices are
    classified as terminating paths, not cycles.)  Enumeration stops with
    :class:`CycleCapExceeded` once it has examined more than ``cap`` edges;
    the cap defaults to QCA_CYCLE_CAP or 10**6.
    """
    if restrict not in (None, "mismatch"):
        raise ValueError(f"unknown restrict value {restrict!r}")
    edge_ok = vertex_ok = None
    if restrict == "mismatch":
        if graph.kind != "pair":
            raise ValueError("mismatch restriction applies to pair graphs only")
        edge_ok = lambda e: e.mismatch
        vertex_ok = lambda v: not graph.is_diagonal_vertex(v)
    return list(iter_cycles(graph, edge_ok=edge_ok, vertex_ok=vertex_ok,
                            cap=resolve_cycle_cap(cap)))


def iter_paths(
    graph: WeightedDiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    *,
    edge_ok: Callable[[Edge], bool] | None = None,
    interior_ok: Callable[[int], bool] | None = None,
    exact_len: int | None = None,
    max_len: int | None = None,
    cap: int | None = None,
) -> Iterator[tuple[Edge, ...]]:
    """Paths from a source to a target with vertex-simple interior.

    Interior vertices must be distinct, satisfy ``interior_ok`` and differ
    from both endpoints; the endpoints themselves may coincide.  Paths are
    produced in depth-first order from each source (ascending).  Raises
    :class:`CycleCapExceeded` once the search has examined more than
    ``cap`` edges (no limit when ``cap`` is None).
    """
    edges = graph.edges
    allowed_edge = edge_ok or (lambda e: True)
    allowed_interior = interior_ok or (lambda v: True)
    target_set = frozenset(targets)
    limit = exact_len if exact_len is not None else max_len
    budget = math.inf if cap is None else cap
    work = 0
    for source in sorted(set(sources)):
        path: list[Edge] = []
        interior: set[int] = set()
        stack = [(source, iter(graph.out_edges(source)))]
        while stack:
            vertex, it = stack[-1]
            advanced = False
            for ei in it:
                work += 1
                if work > budget:
                    raise _cap_exceeded("path", cap)
                e = edges[ei]
                if not allowed_edge(e):
                    continue
                depth = len(path) + 1
                if limit is not None and depth > limit:
                    break
                t = e.target
                if t in target_set:
                    if exact_len is None or depth == exact_len:
                        yield tuple(path) + (e,)
                    continue
                if (limit is None or depth < limit) and t != source \
                        and t not in interior and allowed_interior(t):
                    path.append(e)
                    interior.add(t)
                    stack.append((t, iter(graph.out_edges(t))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if path:
                    interior.discard(path.pop().target)


# ---------------------------------------------------------------------------
# Deterministic sector
# ---------------------------------------------------------------------------


def _cycle_supported(rule: RuleTable, sector: set[Config]) -> set[Config]:
    """Configs whose norm-graph edge lies on a cycle using sector edges only."""
    q, k = rule.q, rule.k
    succ: dict[Config, set[Config]] = {}
    for cfg in sector:
        succ.setdefault(cfg[:-1], set()).add(cfg[1:])
    reach_cache: dict[Config, set[Config]] = {}

    def reachable(v: Config) -> set[Config]:
        if v not in reach_cache:
            seen = {v}
            frontier = [v]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in succ.get(u, ()):
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            reach_cache[v] = seen
        return reach_cache[v]

    return {cfg for cfg in sector if cfg[:-1] in reachable(cfg[1:])}


def _closure_stable(rule: RuleTable, sector: set[Config]) -> set[Config]:
    """Drop configs breaking closure under the deterministic update.

    Every k consecutive sector edges spell a string of length 2k-1 whose k
    windows each produce a unique output state; the produced string must
    itself be a sector config.  Windows with no unique unit component, and
    all windows of a producing path whose output escapes the sector, are
    removed.
    """
    from .rules import deterministic_output

    out: dict[Config, int] = {}
    bad: set[Config] = set()
    for cfg in sector:
        o = deterministic_output(rule, cfg)
        if o is None:
            bad.add(cfg)
        else:
            out[cfg] = o
    live = sector - bad
    if not live:
        return live

    # Depth-first extension of strings whose windows all stay in the sector.
    def walk(string: tuple[int, ...], windows: tuple[Config, ...]):
        if len(windows) == rule.k:
            produced = tuple(out[w] for w in windows)
            if produced not in live:
                bad.update(windows)
            return
        for s in range(rule.q):
            nxt = string + (s,)
            window = nxt[-rule.k:]
            if window in live:
                walk(nxt, windows + (window,))

    for first in sorted(live):
        walk(first, (first,))
    return sector - bad


def deterministic_sector(rule: RuleTable) -> frozenset[Config]:
    """Largest set of unit-component configs supporting deterministic ends.

    Computed as the greatest fixpoint of two prunings applied to the set of
    unit-component configs: every config must lie on a norm-graph cycle made
    of sector configs, and the sector must be closed under the deterministic
    update.  The result may be empty.
    """
    sector = set(unit_configs(rule))
    while True:
        pruned = _cycle_supported(rule, sector)
        pruned = _closure_stable(rule, pruned)
        if pruned == sector:
            return frozenset(sector)
        sector = pruned


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def format_weight(z: complex, digits: int = 6) -> str:
    z = complex(z)
    if abs(z.imag) < 10 ** (-digits - 3) * max(1.0, abs(z.real)):
        return f"{z.real:.{digits}g}"
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def to_dot(graph: WeightedDiGraph, name: str = "g") -> str:
    """Graphviz rendering; mismatch-region structure is kept visible.

    Each edge is labelled "<appended symbols> / <weight>"; diagonal edges of
    a pair graph are drawn grey.
    """
    lines = [f"digraph {name} {{"]
    for v in range(len(graph.vertices)):
        lines.append(f'  "{graph.vertex_name(v)}";')
    for e in graph.edges:
        if len(e.configs) == 1:
            sym = str(e.configs[0][-1])
        else:
            sym = f"({e.configs[0][-1]},{e.configs[1][-1]})"
        attrs = f'label="{sym} / {format_weight(e.weight)}"'
        if graph.kind == "pair" and e.diagonal:
            attrs += ", color=gray"
        lines.append(f'  "{graph.vertex_name(e.source)}" -> "{graph.vertex_name(e.target)}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines)
