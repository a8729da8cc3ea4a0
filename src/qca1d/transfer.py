"""Transfer matrices, generating functions and path-weight monomials.

For a weighted digraph with transfer matrix A, the polynomial
Z(t) = det(I - tA) generates the closed-path weights through
Tr A(t) = -t Z'(t) / Z(t), whose t^n coefficient equals Tr(A^n).
Monomials name path weights symbolically: the factor w_{ab} stands for the
inner product of the amplitude vectors of neighborhoods a and b (a single
index w_a for a squared norm).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .graphs import MAX_PAIR_ENTRIES, Graph, check_cap, iter_paths, pair_graph
from .rules import RuleTable


@dataclass(frozen=True, order=True)
class Monomial:
    """Product of edge-weight labels in canonical form.

    Each factor is a config-index tuple: (a,) for a norm weight, (a, b)
    with a <= b for a pair weight.  Swapping a pair conjugates its weight,
    so one representative per conjugate pair is kept; factors are sorted.
    """

    factors: tuple[tuple[int, ...], ...]

    def evaluate(self, rule: RuleTable) -> complex:
        """Product of the named inner products (canonical argument order)."""
        value = complex(1.0)
        for f in self.factors:
            value *= complex(np.vdot(rule.amplitudes[f[0]], rule.amplitudes[f[-1]]))
        return value

    def __str__(self) -> str:
        parts = []
        for f in self.factors:  # w_3, w_{12} for (1, 2) or (12,), w_{3,12}
            index = ("" if max(f) < 10 else ",").join(map(str, f))
            parts.append(f"w_{index}" if len(index) == 1 else f"w_{{{index}}}")
        return "".join(parts)


def monomial_of(graph: Graph, walk: Sequence[int]) -> Monomial:
    """Monomial of a walk (a tuple of edge indices) of a norm or pair graph."""
    if graph.kind == "single":
        return Monomial(tuple(sorted((int(a),) for a in walk)))
    n = graph.q**graph.k
    return Monomial(tuple(sorted(tuple(sorted(divmod(int(i), n))) for i in walk)))


def transfer_matrix(graph: Graph, convention: str = "raw") -> np.ndarray:
    """Vertex-by-vertex matrix; entry (i, j) sums the weights of edges i -> j.

    convention="simplified" (pair graphs only) replaces the diagonal
    subgraph by bookkeeping weights: diagonal self-loops become 0, every
    other diagonal edge becomes 1, mismatch edges keep their true weights.
    Only mismatch-path weights then survive in the generating function.
    Past ``MAX_PAIR_ENTRIES`` entries it raises ``CapExceeded`` first.
    """
    check_cap(graph.n_vertices**2, MAX_PAIR_ENTRIES, "the transfer matrix has {} entries")
    if convention not in ("raw", "simplified"):
        raise ValueError(f"unknown convention {convention!r}")
    if convention == "simplified" and graph.kind != "pair":
        raise ValueError("the simplified convention applies to pair graphs only")
    weight = graph.weight
    if convention == "simplified":
        weight = np.where(graph.mismatch, weight, graph.src != graph.dst)
    a = np.zeros((graph.n_vertices, graph.n_vertices), dtype=complex)
    np.add.at(a, (graph.src, graph.dst), weight)
    return a


def z_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(I - tA), index = power of t.

    ``np.poly`` gives the coefficients of det(sI - A) from the highest power
    of s down; det(I - tA) = t^m det(I/t - A) has the same coefficients by
    ascending power of t.  Exactly-zero trailing coefficients are trimmed.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    coeffs = np.poly(a).astype(complex) if len(a) else np.ones(1, dtype=complex)
    last = len(coeffs) - 1
    while last > 0 and coeffs[last] == 0:
        last -= 1
    return coeffs[: last + 1]


def trace_series(a: np.ndarray, order: int) -> np.ndarray:
    """Coefficients 0..order of Tr A(t) = -t Z'(t) / Z(t).

    The t^n coefficient equals Tr(A^n) for n >= 1; the constant term is 0.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    z = z_polynomial(a)  # z[0] is 1: np.poly's leading coefficient
    coeffs = np.zeros(order + 1, dtype=complex)
    for n in range(1, order + 1):
        zn = z[n] if n < len(z) else 0.0
        acc = -n * zn
        for i in range(1, n):
            zi = z[i] if i < len(z) else 0.0
            acc -= zi * coeffs[n - i]
        coeffs[n] = acc
    return coeffs


def path_monomials(rule: RuleTable, max_len: int) -> list[list[Monomial]]:
    """Monomials of the mismatch paths terminating on the diagonal, one
    sorted list per length 1..``max_len``.

    One search over the pair graph enumerates the mismatch-edge paths of at
    most ``max_len`` edges whose first and last vertices are diagonal and
    whose interior vertices are distinct and off the diagonal, each edge
    labelled with its canonical factor (edge i of the full pair graph is
    the pair divmod(i, q^k)); each path's labels, sorted, give a monomial,
    deduplicated per length.  The result depends only on (q, k), not on
    the amplitude values.  The search stops with ``graphs.CapExceeded``
    past QCA_CYCLE_CAP examined edges, as witness listing does.
    """
    if max_len < 1:
        raise ValueError(f"the maximum path length must be at least 1, got {max_len}")
    g2 = pair_graph(rule)
    diagonal, size = g2.diagonal, rule.q**rule.k
    factor = cache(lambda e: tuple(sorted(divmod(e, size))))
    found: list[set] = [set() for _ in range(max_len)]
    for _, factors, _ in iter_paths(g2, diagonal, diagonal, edge_mask=g2.mismatch,
                                    interior_mask=~diagonal, max_len=max_len, label=factor):
        found[len(factors) - 1].add(tuple(sorted(factors)))
    return [[Monomial(f) for f in sorted(length)] for length in found]
