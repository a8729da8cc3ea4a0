"""Unitarity decision for periodic and infinite lattices.

A rule evolves every periodic lattice unitarily iff

* P-i: every cycle of the norm graph has weight 1;
* P-ii: every cycle inside the mismatch region of the pair graph has
  weight 0;
* P-iii: every mismatch path that starts and ends on diagonal vertices has
  weight 0.

On the infinite lattice the conditions are I-i (= P-i), I-ii (paths of the
norm graph between deterministic-sector vertices have weight 1), I-iii
(= P-iii), I-iv (mismatch cycles whose configurations all lie in the
deterministic sector have weight 0) and I-v (the evolution is onto).
``evaluate_condition`` takes all eight, I-v through
``surjectivity.check_surjectivity``.

Each condition is first decided on numpy arrays indexed by config:

* P-i, I-i: a potential certificate.  With edge weights
  w_a = ||f(.|a)||^2 and a potential phi on the q^(k-1) norm-graph
  vertices (``graphs.norm_potential``), the log weight of a cycle is the
  sum of its residuals log w_a - (phi(a[1:]) - phi(a[:-1])).  A simple
  cycle has at most q^(k-1) edges, so its weight lies within expm1(B) of 1,
  B the sum of the q^(k-1) largest residual moduli.  The condition holds
  when expm1(B) <= tolerance / 2; the other half of the tolerance absorbs
  rounding in an enumerated product.
* I-ii: the same potential; a path u -> v has log weight phi(v) - phi(u)
  up to B, so the condition holds when expm1(B + spread) <= tolerance / 2,
  spread the range of phi over the sector vertices.
* P-ii, I-iv, P-iii, I-iii: a product of edge weights vanishes iff some
  factor does, so mismatch edges with |weight| <= tolerance are deleted.
  The weights are the Gram matrix conj(A) A^T of the amplitude table A
  (``graphs.mismatch_support``).  P-ii and I-iv then ask for a cycle off the
  diagonal (``graphs.cycle_reach``), P-iii and I-iii for a walk from the
  diagonal back to it (``graphs.reaches``).  Both search the mask itself,
  one step of the boolean ``graphs.Walk`` at a time, and are exact.

Each decision comes with one stream of its violations, listed from the
masks of the decision when it is read, and ``evaluate_condition`` alone
cuts it; a condition that holds lists nothing.  P-i, I-i and I-ii
enumerate cycles or paths of ``graphs.rule_graph`` within QCA_CYCLE_CAP
examined edges, which also settles them where the certificate cannot.
P-ii, I-iv, P-iii and I-iii list one shortest walk per root over their
mask, roots ascending (``graphs.shortest_walks``): a cycle from each
cycle-reached vertex, its minimal vertex, or a path from each diagonal
vertex back to the diagonal, each weight taken pair by pair
(``rules.vdots``), so no pair graph is built.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import (
    CapExceeded,
    Graph,
    cycle_reach,
    deterministic_sector,
    iter_cycles,
    iter_paths,
    mismatch_support,
    norm_potential,
    reaches,
    rule_graph,
    sector_mask,
    shortest_walks,
)
from .rules import Config, RuleTable, config_str, vdots

PERIODIC_CONDITIONS = ("P-i", "P-ii", "P-iii")
INFINITE_CONDITIONS = ("I-i", "I-ii", "I-iii", "I-iv", "I-v")
DEFAULT_MAX_VIOLATIONS = 100


class NoDeterministicSector(ValueError):
    """The rule has an empty deterministic sector, so no configuration is
    admissible on the infinite lattice."""


@dataclass(frozen=True)
class ConstraintReport:
    """One violated constraint with a re-checkable witness.

    ``witness`` is a tuple of neighborhood configs (norm-graph cycle or
    path), a tuple of config pairs (pair-graph cycle or path), or a tagged
    tuple ("scalar", gamma, rho, rho') / ("det", gamma) for surjectivity.
    ``margin`` is the distance |value - target| from the required value.
    """

    condition: str
    witness: tuple
    value: complex
    margin: float


@dataclass(frozen=True)
class Verdict:
    unitary: bool
    mode: str
    reports: tuple[ConstraintReport, ...]

    def write_json(self, out) -> None:
        """Write the verdict to ``out`` as one line of JSON, one report at a
        time: the bytes ``json.dumps`` writes for {"unitary", "mode",
        "reports": [{"condition", "witness", "value": [re, im], "margin"}]},
        each witness element rendered once per verdict (config strings are
        digits and need no escaping)."""
        labels, sep = WitnessLabels(lambda label: f'"{label}"' if isinstance(label, str)
                                    else f'["{label[0]}", "{label[1]}"]'), ""
        out.write(f'{{"unitary": {json.dumps(self.unitary)}, "mode": "{self.mode}", "reports": [')
        for r in self.reports:  # mode and condition names need no escaping
            w = r.witness
            witness = (json.dumps([w[0], *map(config_str, w[1:])]) if w and isinstance(w[0], str)
                       else f'[{", ".join(map(labels.__getitem__, w))}]')
            out.write(f'{sep}{{"condition": "{r.condition}", "witness": {witness}, "value": '
                      f'[{_json_float(r.value.real)}, {_json_float(r.value.imag)}], '
                      f'"margin": {_json_float(r.margin)}}}')
            sep = ", "
        out.write("]}\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dumps writes them


def _json_float(x: float) -> str:
    text = float.__repr__(x)  # as json.dumps; repr writes np.float64(...) under numpy 2
    return _NON_FINITE.get(text, text)


class WitnessLabels(dict):
    """Config or config pair -> its label, rendered on first lookup by
    ``render`` from a config string or (str, str) pair, by default joined
    by "|".  One memo serves the witnesses of one verdict, which revisit a
    few hundred configs many times over."""

    def __init__(self, render=lambda label: label if isinstance(label, str) else "|".join(label)):
        self.render = render

    def __missing__(self, item: tuple):
        label = self[item] = self.render((config_str(item[0]), config_str(item[1]))
                                         if isinstance(item[0], tuple) else config_str(item))
        return label


def witness_from_json(data: list) -> tuple:
    def config(label):  # a config string, or a list of them
        return tuple(map(int, label)) if isinstance(label, str) else tuple(map(config, label))
    if data and data[0] in ("scalar", "det"):
        return (data[0], *map(config, data[1:]))
    return tuple(map(config, data))


def verdict_from_json(data: dict) -> Verdict:
    reports = tuple(
        ConstraintReport(
            condition=r["condition"],
            witness=witness_from_json(r["witness"]),
            value=complex(r["value"][0], r["value"][1]),
            margin=float(r["margin"]),
        )
        for r in data["reports"]
    )
    return Verdict(bool(data["unitary"]), str(data["mode"]), reports)


def witness_str(witness: tuple, labels: WitnessLabels | None = None) -> str:
    """A witness as text; ``labels`` is the memo of one verdict, fresh when None."""
    if witness and isinstance(witness[0], str):
        kind = witness[0]
        if kind == "det":
            return f"det gamma={config_str(witness[1]) or '()'}"
        gamma, rho, rho_out = witness[1], witness[2], witness[3]
        return (f"scalar gamma={config_str(gamma) or '()'} rho={config_str(rho)}"
                f" rho'={config_str(rho_out)}")
    return " ".join(map((WitnessLabels() if labels is None else labels).__getitem__, witness))


# ---------------------------------------------------------------------------
# Condition evaluation
# ---------------------------------------------------------------------------


class _RuleGraphs:
    """The graphs and arrays of one rule, each built on first use and shared
    by the conditions of one check."""

    def __init__(self, rule: RuleTable):
        self.rule, self._inside = rule, (None, None)

    def inside(self, sector) -> np.ndarray:
        """The config mask of ``sector``, kept for the next call with it."""
        if self._inside[0] is not sector:
            self._inside = sector, sector_mask(sector, self.rule.q, self.rule.k)
        return self._inside[1]

    @cached_property
    def diagonal(self) -> np.ndarray:  # the pair-graph vertices (u, u), one axis per end
        return np.eye(self.rule.q ** (self.rule.k - 1), dtype=bool)

    @cached_property
    def norm(self) -> Graph:
        return rule_graph(self.rule)

    @cached_property
    def potential(self) -> tuple[np.ndarray, float]:
        return norm_potential(self.rule)

    @cached_property
    def support(self) -> np.ndarray:
        return mismatch_support(self.rule)


def _sector_vertices(rule: RuleTable, inside: np.ndarray) -> np.ndarray:
    """Mask of the norm-graph vertices that are a prefix or suffix of a
    config of the sector mask ``inside``: config a = prefix * q + s = s' * n + suffix."""
    q, n = rule.q, rule.q ** (rule.k - 1)
    return inside.reshape(n, q).any(axis=1) | inside.reshape(q, n).any(axis=0)


def _certified(log_bound: float, tol: float) -> bool:
    """expm1(log_bound) <= tol / 2; a bound whose expm1 overflows exceeds
    every finite tolerance and certifies nothing."""
    try:
        return math.expm1(log_bound) <= tol / 2
    except OverflowError:
        return False


def _mismatch_reports(rule: RuleTable, condition: str, walks: list[list[int]]):
    """A report per pair-graph walk, each a violation: its config pairs and
    its weight, edge weights from ``rules.vdots``, real ones as floats,
    multiplied left to right, as ``Graph.product`` does."""
    amps, configs = rule.amplitudes, list(rule.configs())
    a, b = np.divmod(np.array([e for walk in walks for e in walk], int), len(configs))
    weights = [w.real if w.imag == 0 else w for w in vdots(amps[a], amps[b]).tolist()]
    pairs = list(zip(map(configs.__getitem__, a.tolist()), map(configs.__getitem__, b.tolist())))
    ends = np.cumsum([0, *map(len, walks)]).tolist()
    for i, j in zip(ends, ends[1:]):
        w = complex(math.prod(weights[i:j]))
        yield ConstraintReport(condition, tuple(pairs[i:j]), w, abs(w))


def _search(rule: RuleTable, condition: str, sector, graphs: _RuleGraphs):
    """Decide a condition on arrays, without enumeration.

    Returns ``(holds, reports)``.  True means the condition holds.  The
    mismatch conditions are decided exactly.  P-i, I-i and I-ii are
    certified by the norm potential, with half the tolerance as headroom for
    rounding; False there only means the certificate does not settle the
    condition.  ``reports(count)`` yields the violations, listed from the
    masks of this decision: norm-graph walks whose weight is off 1 by more
    than the tolerance, and every surviving mismatch walk, of which it lists
    at most ``count``.  Only the norm-graph listing builds a graph.
    """
    tol = rule.tolerance

    def off_one(walks):
        return (ConstraintReport(condition, configs, w, abs(w - 1))
                for _, configs, w in walks if abs(w - 1) > tol)
    if condition in ("P-i", "I-i"):
        return _certified(graphs.potential[1], tol), lambda count: off_one(iter_cycles(graphs.norm))
    if condition == "I-ii":
        # Norm-graph paths between (distinct) sector vertices, interior clear
        # of sector vertices; composite paths factor through these.  Closed
        # ones are cycles (I-i); with under two sector vertices all are.
        phi, bound = graphs.potential
        ends = _sector_vertices(rule, graphs.inside(sector))
        span = phi[ends]  # its range, max - min, bounds the path log weights
        holds = np.count_nonzero(ends) < 2 or _certified(bound + float(span.max() - span.min()), tol)
        return holds, lambda count: off_one(p for p in iter_paths(graphs.norm, ends, ends)
                                            if p[1][0][:-1] != p[1][-1][1:])
    edges = graphs.support  # the mismatch edges above the tolerance
    if condition == "I-iv":
        inside = graphs.inside(sector)
        edges = edges & inside[:, None] & inside
    diagonal = graphs.diagonal
    if condition in ("P-ii", "I-iv"):
        reach = cycle_reach(edges, ~diagonal)  # each listed cycle's minimal vertex is here
        return not np.count_nonzero(reach), lambda count: _mismatch_reports(
            rule, condition, shortest_walks(edges, np.flatnonzero(reach), reach, None, count))
    return not reaches(edges, diagonal, diagonal), lambda count: _mismatch_reports(
        rule, condition, shortest_walks(edges, np.flatnonzero(diagonal), ~diagonal, diagonal, count))


def _nonempty_sector(rule: RuleTable, sector: frozenset[Config] | None = None) -> frozenset[Config]:
    """The sector, computed when None; raises when it is empty."""
    sector = deterministic_sector(rule) if sector is None else sector
    if not sector:
        raise NoDeterministicSector(
            "the rule has no deterministic sector; no configuration is admissible "
            "on the infinite lattice")
    return sector


def evaluate_condition(
    rule: RuleTable,
    condition: str,
    *,
    sector: frozenset[Config] | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    graphs: _RuleGraphs | None = None,
) -> list[ConstraintReport]:
    """The violations of a single condition: at least one when it is
    violated, at most ``max_violations``.

    The condition is decided on arrays first; only when that decision does
    not return "holds" are witnesses listed, norm-graph ones by an
    enumeration whose examined edges QCA_CYCLE_CAP (default 10**6) bounds.
    This is the one place a condition's report stream is cut.
    Surjectivity (I-v) is decided and listed by
    ``surjectivity.check_surjectivity``.  The sector for I-ii, I-iv and I-v
    is computed on demand when not supplied; ``graphs`` shares the graphs
    of one rule between the conditions of one check.
    """
    if condition not in PERIODIC_CONDITIONS + INFINITE_CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    sector = _nonempty_sector(rule, sector) if condition in ("I-ii", "I-iv", "I-v") else None
    graphs = graphs or _RuleGraphs(rule)
    if condition == "I-v":
        # imported here: surjectivity imports this module, and perfbench's
        # tracer patches surjectivity.check_surjectivity to time its span
        from .surjectivity import check_surjectivity
        return check_surjectivity(rule, graphs.inside(sector), max_violations)
    holds, reports = _search(rule, condition, sector, graphs)
    if holds:
        return []
    count = max(max_violations, 1)
    try:
        return list(itertools.islice(reports(count), count))
    except CapExceeded as exc:
        raise CapExceeded(f"{condition}: {exc}") from None


def _check(rule: RuleTable, mode: str, conditions: tuple[str, ...], max_violations: int,
           sector: frozenset[Config] | None = None) -> Verdict:
    graphs = _RuleGraphs(rule)
    reports = tuple(r for condition in conditions for r in evaluate_condition(
        rule, condition, sector=sector, max_violations=max_violations, graphs=graphs))
    return Verdict(not reports, mode, reports)


def check_periodic(
    rule: RuleTable,
    *,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
) -> Verdict:
    """Decide unitarity of the evolution on every periodic lattice at once."""
    return _check(rule, "periodic", PERIODIC_CONDITIONS, max_violations)


def check_infinite(
    rule: RuleTable,
    *,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
) -> Verdict:
    """Decide unitarity of the evolution on the infinite lattice.

    Raises :class:`NoDeterministicSector` when the deterministic sector is
    empty (the rule then admits no infinite-lattice configurations at all).
    """
    return _check(rule, "infinite", INFINITE_CONDITIONS, max_violations, _nonempty_sector(rule))
