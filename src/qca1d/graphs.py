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

Both graphs are numpy arrays indexed by config (:class:`Graph`): norm edge
i is config i, pair edge i is the pair (i // q^k, i % q^k).  One kernel,
:class:`Walk`, steps every walk over either graph, in a (plus, times)
semiring: the unitarity conditions are decided on boolean config masks by
``cycle_reach`` and ``reaches`` in (or, and), and ``oracle.walk_defect``
takes max-times and min-times closed walks.  ``iter_cycles`` and
``iter_paths`` list witness cycles and paths, each as its edge indices, edge
labels and weight.  The deterministic sector is a greatest fixpoint on a
config mask, tested by a batched ``reaches`` and on (2k-1)-cell strings.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .rules import (Config, RuleTable, all_configs, config_index, config_str, index_config,
                    unit_hits, vdots)

# Every resource limit.  check_cap refuses each size before its array is
# allocated or its work starts; enumeration raises the same CapExceeded once
# it has examined more edges than its cap.  The CLI exits 3 on it.
DEFAULT_CYCLE_CAP = 10**6  # edges one enumeration examines; QCA_CYCLE_CAP overrides it
MAX_PAIR_ENTRIES = 1 << 22  # q^(2k) pair weights, 64 MiB as complex128
MAX_STATE_DIM = 2**24  # amplitudes of a ring state
MAX_DENSE_DIM = 4096  # q^N of a dense ring matrix or of the exact orbit-row defect
MAX_WALK_COST = MAX_DENSE_DIM**2  # the orbit rows' cost at their cap, see oracle.walk_cost
MAX_DIM_DIGITS = 4300  # decimal digits of a printed q^N; Python 3.11+ converts no longer int
_EPS = float(np.finfo(float).eps)  # not a limit: float rounding, for mismatch_support


class CapExceeded(RuntimeError):
    """An input needs more work or memory than one of the caps above."""


def check_cap(size: int, cap: int, what: str) -> None:
    """Refuse ``what``, its ``{}`` filled in with the size ("the pair graph
    has {} weights"), when the size is over the cap."""
    if size > cap:
        raise CapExceeded(f"{what.format(size)}, over the cap of {cap}")


class Graph:
    """A norm graph (kind "single") or pair graph (kind "pair") as arrays.

    Edge i is config i (norm graph) or the ordered pair (i // q^k, i % q^k)
    (pair graph), so ``edges`` is ``arange(weight.size)``; it runs from
    vertex ``src[i]`` to ``dst[i]`` and carries ``weight[i]``.  Walks are
    tuples of edge indices; a restriction is a boolean edge or vertex mask.
    """

    def __init__(self, kind: str, q: int, k: int, weight: np.ndarray):
        self.kind, self.q, self.k, self.weight = kind, q, k, weight
        self.edges = edges = np.arange(weight.size)
        n = q ** (k - 1)
        if kind == "single":
            self.n_vertices = n
            self.src, self.dst = edges // q, edges % n
        else:
            self.n_vertices = n * n
            a, b = np.divmod(edges, q**k)  # (a[:-1], b[:-1]) -> (a[1:], b[1:])
            self.src, self.dst = (a // q) * n + b // q, (a % n) * n + b % n

    @cached_property
    def mismatch(self) -> np.ndarray:
        """Edge mask of the pair edges (a, b) with a != b."""
        if self.kind == "single":
            return np.zeros(self.weight.size, dtype=bool)
        return ~np.eye(self.q**self.k, dtype=bool).ravel()

    @property
    def diagonal(self) -> np.ndarray:
        """Vertex mask of the vertices (u, u); every norm-graph vertex."""
        if self.kind == "single":
            return np.ones(self.n_vertices, dtype=bool)
        return np.eye(self.q ** (self.k - 1), dtype=bool).ravel()

    @cached_property
    def out_edges(self) -> list[list[int]]:
        """Per vertex, the indices of the edges leaving it, in index order:
        each config axis read as (prefix, appended digit), prefixes first."""
        d = 1 if self.kind == "single" else 2
        layout = self.edges.reshape((self.q ** (self.k - 1), self.q) * d)
        axes = (*range(0, 2 * d, 2), *range(1, 2 * d, 2))
        return layout.transpose(axes).reshape(self.n_vertices, -1).tolist()

    @cached_property
    def _weights(self) -> list:
        """Edge weights, a float wherever the imaginary part is 0, so a real
        product overflows to inf where a complex one turns inf * 0j into nan."""
        if self.kind == "single":
            return self.weight.real.tolist()
        weights = self.weight.tolist()
        for i in np.flatnonzero(self.weight.imag == 0).tolist():
            weights[i] = weights[i].real
        return weights

    @cached_property
    def _label(self) -> Callable[[int], tuple]:
        """Edge index -> config or config pair, one tuple per edge shared by
        every walk through it."""
        cfgs, n = list(all_configs(self.q, self.k)), self.q**self.k
        if self.kind == "single":
            return cfgs.__getitem__
        return cache(lambda e: (cfgs[e // n], cfgs[e % n]))

    def product(self, walk: Sequence[int]) -> complex:
        """Weight of a walk: the product of its edge weights, left to right,
        real ones multiplied as floats."""
        return complex(math.prod(map(self._weights.__getitem__, walk)))

    def configs(self, walk: Sequence[int]) -> tuple:
        """The neighborhood (norm graph) or ordered neighborhood pair (pair
        graph) of each edge of a walk."""
        return tuple(map(self._label, walk))

    def vertex_name(self, vertex: int) -> str:
        parts = divmod(vertex, self.q ** (self.k - 1)) if self.kind == "pair" else (vertex,)
        return "|".join(config_str(index_config(p, self.q, self.k - 1)) for p in parts)


def rule_graph(rule: RuleTable) -> Graph:
    """Norm graph: q^(k-1) vertices, one edge per neighborhood.

    The edge for neighborhood i1..ik runs from vertex i1..i(k-1) to vertex
    i2..ik and carries weight <<i1..ik | i1..ik>>.
    """
    amps = rule.amplitudes
    return Graph("single", rule.q, rule.k, vdots(amps, amps))


def pair_graph(rule: RuleTable) -> Graph:
    """Pair graph: q^(2(k-1)) vertices, one edge per ordered neighborhood pair.

    The edge for the pair (a, b) carries weight <<a | b>>, an entry of the
    Gram matrix of the amplitude rows; the edges with a == b reproduce the
    norm graph on the diagonal vertices.  Raises :class:`CapExceeded`
    before allocating when q^(2k) exceeds ``MAX_PAIR_ENTRIES``.
    """
    check_cap(rule.q ** (2 * rule.k), MAX_PAIR_ENTRIES, "the pair graph has {} weights")
    amps = rule.amplitudes
    gram = vdots(amps[:, None, :], amps[None, :, :])
    return Graph("pair", rule.q, rule.k, gram.ravel())


def sector_mask(sector: Iterable[Config], q: int, k: int) -> np.ndarray:
    """Boolean mask over the q^k config indices of the configs in ``sector``."""
    inside = np.zeros(q**k, dtype=bool)
    inside[[config_index(cfg, q) for cfg in sector]] = True
    return inside


# ---------------------------------------------------------------------------
# Decision kernels on config-indexed arrays
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
    weights = (np.abs(rule.amplitudes) ** 2).sum(axis=1)
    if not (weights > 0).all():
        return np.zeros(n), math.inf
    logw = np.log(weights)
    vertex = np.arange(n)
    phi = np.zeros(n)
    for j in range(1, k):
        phi += logw[vertex // q ** (k - 1 - j)]
    a = np.arange(q**k)
    residual = np.abs(logw - (phi[a % n] - phi[a // q]))
    return phi, float(np.partition(residual, a.size - n)[a.size - n:].sum())


def mismatch_support(rule: RuleTable) -> np.ndarray:
    """Boolean q^k x q^k mask of the mismatch pairs (a, b), a != b, whose
    weight |<<a | b>>| exceeds the tolerance.

    The weights come from one matrix product; the few within rounding of
    the tolerance are recomputed as :func:`pair_graph` computes its edge
    weights, so the mask agrees with the per-edge test exactly.  Refused
    before allocating, as :func:`pair_graph` is.
    """
    check_cap(rule.q ** (2 * rule.k), MAX_PAIR_ENTRIES, "the pair graph has {} weights")
    amps, tol = rule.amplitudes, rule.tolerance
    magnitude = np.abs(amps.conj() @ amps.T)
    scale = max(float((np.abs(amps) ** 2).sum(axis=1).max()), tol)
    for a, b in zip(*np.nonzero(np.abs(magnitude - tol) <= 8 * rule.q * _EPS * scale)):
        magnitude[a, b] = abs(complex(np.vdot(amps[a], amps[b])))
    support = magnitude > tol
    support.ravel()[::len(support) + 1] = False  # the diagonal, a == b
    return support


class Walk:
    """Walks in a (plus, times) semiring over the de Bruijn graph of n =
    q^(k-1) vertices on each of d axes (1: norm graph, 2: pair graph), one
    per trailing batch column.  ``walk``, shape (n,)*d + batch, holds the
    plus over the walks ending at each vertex; ``products``, shape (q^d,) +
    (n,)*d + batch, their extensions by one edge, axis 0 the digits it
    prepends: the predecessor of v by digit c is c n/q + v // q on each axis.
    :meth:`step` reads the walk there through a view, with no index table,
    times in the edges and reduces by plus over axis 0 into ``walk``."""

    def __init__(self, q, n, d, batch=(), plus=np.logical_or, times=np.logical_and, dtype=bool):
        self.plus, self.times, m = plus, times, min(n, q)
        self.walk = np.empty((n,) * d + batch, dtype)
        # a vertex axis is read by a broadcast as (c, v // q, v % q); with no
        # batch the last one is repeated q times first, as (c, v), so the
        # innermost loop runs n long, not q; the first of two axes is read as
        # (c, 1, v // q), its 1 swapped with the second's c
        if batch:
            self._repeat = None
            read = self.walk.reshape((m, 1, n // m) * (d - 1) + (m, n // m, 1) + batch)
        else:
            self._repeat = np.empty(self.walk.shape + (q,), dtype)
            read = self._repeat.reshape((m, 1, n // m) * (d - 1) + (q, n))
        self._read = read.swapaxes(1, 3) if d == 2 else read
        self._layout = (q,) * d + (n // m, m) * (d - 1 + bool(batch)) + (n,) * (not batch)
        self._out = np.empty(self._layout + batch, dtype)
        self.products = self._out.reshape((q**d,) + self.walk.shape)

    def edges(self, weights: np.ndarray) -> np.ndarray:
        """A view of config-indexed edge weights, one axis of q n per graph,
        as (prepended digits, vertex) for :meth:`step`."""
        if weights.ndim == 2:
            q = self._layout[0]
            weights = weights.reshape(q, -1, q, weights.shape[1] // q).swapaxes(1, 2)
        return weights.reshape(self._layout + (1,) * (self._out.ndim - len(self._layout)))

    def step(self, edges: np.ndarray) -> np.ndarray:
        if self._repeat is None:  # times in place: numpy's fast loop for an edge along the batch
            np.copyto(self._out, self._read)
            self.times(self._out, edges, out=self._out)
        else:
            for c in range(self._repeat.shape[-1]):
                self._repeat[..., c] = self.walk  # faster than one copy q long innermost
            self.times(self._read, edges, out=self._out)
        return self.plus.reduce(self.products, axis=0, out=self.walk)


def cycle_reach(edges: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """The vertices of the mask ``inside`` that a directed cycle of the mask
    ``edges`` within ``inside`` reaches, its own included: those left after
    dropping the vertices without an in-edge from the kept ones until none
    is left, so empty exactly when there is no such cycle."""
    n = inside.shape[0]
    walk = Walk(edges.shape[0] // n, n, edges.ndim)
    step, kept = walk.edges(edges), walk.walk
    kept[...], count = inside, np.count_nonzero(inside)
    while True:
        np.logical_and(walk.step(step), inside, out=kept)
        left = np.count_nonzero(kept)
        if not 0 < left < count:
            return kept
        inside, count = kept.copy(), left


def reaches(edges: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Whether a walk of one or more edges of the mask ``edges`` leads from
    a vertex in the mask ``start`` to one in ``stop``, its interior vertices
    all outside ``stop``; one answer per trailing batch column of the masks."""
    d, n = edges.ndim, start.shape[0]
    walk = Walk(edges.shape[0] // n, n, d, start.shape[d:])
    step, frontier = walk.edges(edges), walk.walk
    found = np.zeros(start.shape[d:], dtype=bool)
    seen, frontier[...] = start | stop, start
    while np.count_nonzero(frontier):
        found |= (walk.step(step) & stop).any(axis=tuple(range(d)))
        np.greater(frontier, seen, out=frontier)  # frontier & ~seen, in one call
        seen |= frontier
    return found


# ---------------------------------------------------------------------------
# Cycle and path enumeration
# ---------------------------------------------------------------------------


def _walks(graph, roots, edge_mask, vertex_mask, max_len, kind, label=None):
    """Depth-first walks for :func:`iter_cycles` and :func:`iter_paths`.

    From each root (source, targets, floor) in turn, yield the walks of at
    most ``max_len`` edges (None: any) that end on their first vertex in
    ``targets``, their interior vertices distinct, above ``floor``, in
    ``vertex_mask`` and different from the source, as (walk, labels,
    weight): its edge indices, ``label(e)`` per edge (by default
    ``graph._label``) and :meth:`Graph.product` bit for bit.  Labels and
    prefix products ride the stack, so a walk costs its last edge.  Past
    QCA_CYCLE_CAP (or DEFAULT_CYCLE_CAP) edges examined over all roots,
    masked ones included, it raises :class:`CapExceeded`.
    """
    out, dst, weights = graph.out_edges, graph.dst.tolist(), graph._weights
    label = graph._label if label is None else label
    edge_ok = [True] * len(dst) if edge_mask is None else edge_mask.tolist()
    interior_ok = [True] * graph.n_vertices if vertex_mask is None else vertex_mask.tolist()
    cap = int(os.environ.get("QCA_CYCLE_CAP", DEFAULT_CYCLE_CAP))
    deepest = math.inf if max_len is None else max_len
    work = 0
    for source, targets, floor in roots:
        path: list[int] = []
        labels: list = []
        prefix = [1.0]  # prefix[i]: the product of the first i path weights
        interior: set[int] = set()
        stack = [iter(out[source])]  # one out-edge iterator per vertex on the path
        while stack:
            for e in stack[-1]:
                work += 1
                if work > cap:  # inline, not check_cap: this runs once per edge
                    raise CapExceeded(
                        f"{kind} enumeration exceeded the cap of {cap} examined edges")
                if not edge_ok[e]:
                    continue
                t = dst[e]
                if t in targets:
                    yield (*path, e), (*labels, label(e)), complex(prefix[-1] * weights[e])
                    continue
                if len(path) + 1 < deepest and t > floor and t != source \
                        and t not in interior and interior_ok[t]:
                    path.append(e)
                    labels.append(label(e))
                    prefix.append(prefix[-1] * weights[e])
                    interior.add(t)
                    stack.append(iter(out[t]))
                    break  # descend; the loop resumes on this iterator after the pop
            else:
                stack.pop()
                if path:
                    interior.discard(dst[path.pop()])
                    labels.pop()
                    prefix.pop()


def iter_cycles(
    graph: Graph,
    *,
    edge_mask: np.ndarray | None = None,
    vertex_mask: np.ndarray | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple, complex]]:
    """Yield every vertex-simple directed cycle, deterministically ordered.

    Only edges in ``edge_mask`` and vertices in ``vertex_mask`` (boolean
    arrays; None allows all) are used.  Each cycle is (walk, configs, weight):
    its edge indices, their :meth:`Graph.configs` and :meth:`Graph.product`.
    Cycles are grouped by their minimal vertex (ascending) and within a group in
    depth-first edge order.  Parallel self-loops count as distinct cycles.
    Raises :class:`CapExceeded` once the search has examined more than
    QCA_CYCLE_CAP edges, by default DEFAULT_CYCLE_CAP.
    """
    starts = range(graph.n_vertices) if vertex_mask is None \
        else np.flatnonzero(vertex_mask).tolist()
    return _walks(graph, ((s, {s}, s) for s in starts), edge_mask, vertex_mask, None, "cycle")


def enumerate_cycles(graph: Graph, restrict: str | None = None) -> list[tuple[int, ...]]:
    """All vertex-simple cycles, as tuples of edge indices.

    restrict="mismatch" keeps only cycles that lie entirely in the mismatch
    region of a pair graph: every edge a mismatch edge and every vertex off
    the diagonal.  (Closed mismatch walks through diagonal vertices are
    classified as terminating paths, not cycles.)  The search is bounded as
    in :func:`iter_cycles`.
    """
    if restrict not in (None, "mismatch"):
        raise ValueError(f"unknown restrict value {restrict!r}")
    edge_mask = vertex_mask = None
    if restrict == "mismatch":
        if graph.kind != "pair":
            raise ValueError("mismatch restriction applies to pair graphs only")
        edge_mask, vertex_mask = graph.mismatch, ~graph.diagonal
    return [walk for walk, _, _ in iter_cycles(graph, edge_mask=edge_mask, vertex_mask=vertex_mask)]


def iter_paths(
    graph: Graph,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    edge_mask: np.ndarray | None = None,
    interior_mask: np.ndarray | None = None,
    max_len: int | None = None,
    label: Callable[[int], object] | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple, complex]]:
    """Paths from a source to a target with vertex-simple interior.

    ``sources``, ``targets`` and ``interior_mask`` are boolean vertex
    masks, ``edge_mask`` a boolean edge mask (None allows all).  Interior
    vertices must be distinct, lie in ``interior_mask`` and differ from both
    endpoints; the endpoints themselves may coincide.  ``max_len`` bounds
    the edges of a path (None: no bound), so one search lists every length
    up to it.  Paths come in depth-first order from each source (ascending)
    as (walk, labels, weight), as in :func:`iter_cycles`; ``label`` maps an
    edge index to its label, by default its config or config pair
    (:meth:`Graph.configs`).  The search is bounded as in :func:`iter_cycles`.
    """
    ends = set(np.flatnonzero(targets).tolist())
    roots = ((s, ends, -1) for s in np.flatnonzero(sources).tolist())
    return _walks(graph, roots, edge_mask, interior_mask, max_len, "path", label)


# ---------------------------------------------------------------------------
# Deterministic sector
# ---------------------------------------------------------------------------


def deterministic_sector(rule: RuleTable) -> frozenset[Config]:
    """Largest set of unit-component configs supporting deterministic ends.

    The greatest fixpoint, on one boolean mask over the q^k configs, of two
    prunings of the unit-component configs.  A config a, the norm-graph
    edge a // q -> a % q^(k-1), stays when it is a self-loop or its suffix
    reaches its prefix over sector edges (one ``reaches`` column per config);
    and when every walk of k sector windows with unique outputs through it
    produces a config that is again such a window: a string of 2k-1 cells,
    window j its cells j..j+k-1.  Search columns and start windows run in
    blocks that keep each array within ``MAX_PAIR_ENTRIES`` entries.  The
    result may be empty.
    """
    q, k = rule.q, rule.k
    n = q ** (k - 1)
    config = np.arange(q**k)
    vertex, pre, suf = config[:n], config // q, config % n
    hits = unit_hits(rule)
    count = np.count_nonzero(hits, axis=1)
    out = np.where(count == 1, hits.argmax(axis=1), -1)  # as rules.deterministic_outputs
    moving, unique, sector = pre != suf, out >= 0, count > 0
    rows = max(1, MAX_PAIR_ENTRIES // n)  # frontier columns per search, start windows per block
    while True:
        live = sector & unique
        cycle = (live & moving).nonzero()[0]
        for first in range(0, cycle.size, rows):
            a = cycle[first:first + rows]
            live[a] = reaches(sector, vertex[:, None] == suf[a], vertex[:, None] == pre[a])
        pruned = live.copy()
        starts = live.nonzero()[0]
        for first in range(0, starts.size, rows):
            cells = (starts[first:first + rows, None] * n + vertex).ravel()
            walk, made = True, 0
            for j in range(k):
                w = cells // q ** (k - 1 - j) % q**k
                walk = walk & live[w]
                made = made * q + out[w]  # off the walks out[w] may be -1, made stays an index
            broken = cells[walk > live[made]]
            for j in range(k if broken.size else 0):
                pruned[broken // q ** (k - 1 - j) % q**k] = False
        if np.count_nonzero(pruned) == np.count_nonzero(sector):  # pruned only drops configs
            return frozenset(itertools.compress(rule.configs(), sector.tolist()))
        sector = pruned


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def format_weight(z: complex, digits: int = 6) -> str:
    z = complex(z)
    if abs(z.imag) < 10 ** (-digits - 3) * max(1.0, abs(z.real)):
        return f"{z.real:.{digits}g}"
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def to_dot(graph: Graph, name: str = "g", edge_mask: np.ndarray | None = None) -> str:
    """Graphviz rendering of every vertex and of the edges in ``edge_mask``
    (None: all); mismatch-region structure is kept visible.

    Each edge is labelled "<appended symbols> / <weight>"; diagonal edges of
    a pair graph are drawn grey.
    """
    names = [graph.vertex_name(v) for v in range(graph.n_vertices)]
    lines = [f"digraph {name} {{"]
    lines.extend(f'  "{v}";' for v in names)
    n, q = graph.q**graph.k, graph.q
    keep = graph.edges if edge_mask is None else np.flatnonzero(edge_mask)
    for i, s, t, w in zip(keep.tolist(), graph.src[keep].tolist(), graph.dst[keep].tolist(),
                          graph.weight[keep].tolist()):
        if graph.kind == "single":
            attrs = f'label="{i % q} / {format_weight(w)}"'
        else:
            attrs = f'label="({i // n % q},{i % q}) / {format_weight(w)}"'
            if i // n == i % n:  # the diagonal edge (a, a)
                attrs += ", color=gray"
        lines.append(f'  "{names[s]}" -> "{names[t]}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines)
