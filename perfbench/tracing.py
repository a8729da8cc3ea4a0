"""Span tracing around the public calls the CLI makes into each layer.

While a ``Tracer`` is installed, the public functions that ``qca1d.cli``
calls into ``rules``, ``unitarity``, ``transfer`` and ``oracle`` (and the
public calls those make into ``unitarity``, ``graphs``, ``surjectivity``
and ``oracle``) are replaced by pass-through wrappers that record one span
per call: name, start, end, parent and op id.  Spans are kept in memory and
written out once, at the end of the run.  The op itself is the root span
``cli.main``; its self time is the CLI's own parsing and rendering.

Span names are ``<module>.<function>``, except ``evaluate_condition``,
which is named after its condition (``unitarity.P-i`` ...).  A
``unitarity.*`` span includes the graph rebuilds ``evaluate_condition``
does internally; the ``graphs.rule_graph`` / ``graphs.pair_graph`` spans
of a verify op are separate calls on the same rule, made after the op
under the root ``control`` and outside its wall time.  The two must not
be subtracted from one another.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

# (module, attribute, span name); a name of None means "name by condition"
TRACED_CALLS = (
    ("qca1d.cli", "load_rule", "rules.load_rule"),
    ("qca1d.cli", "check_periodic", "unitarity.check_periodic"),
    ("qca1d.cli", "check_infinite", "unitarity.check_infinite"),
    ("qca1d.unitarity", "evaluate_condition", None),
    ("qca1d.unitarity", "deterministic_sector", "graphs.deterministic_sector"),
    ("qca1d.surjectivity", "check_surjectivity", "surjectivity.check_surjectivity"),
    ("qca1d.cli", "rule_graph", "graphs.rule_graph"),
    ("qca1d.cli", "pair_graph", "graphs.pair_graph"),
    ("qca1d.cli", "path_monomials", "transfer.path_monomials"),
    ("qca1d.cli", "transfer_matrix", "transfer.transfer_matrix"),
    ("qca1d.cli", "z_polynomial", "transfer.z_polynomial"),
    ("qca1d.cli", "global_matrix", "oracle.global_matrix"),
    ("qca1d.oracle", "global_matrix", "oracle.global_matrix"),
    ("qca1d.cli", "unitarity_defect", "oracle.unitarity_defect"),
    ("qca1d.cli", "defect_estimate", "oracle.defect_estimate"),
    ("qca1d.cli", "evolve", "oracle.evolve"),
    ("qca1d.oracle", "apply_global", "oracle.apply_global"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    result_len: int | None = None  # length of a list result (reports, monomials)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if isinstance(result, list):
            span.result_len = len(result)
        return result

    def root(self, name: str, op_id: int, fn, *args):
        self._op = op_id
        return self.span(name, fn, *args)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name or "unitarity." + (args[1] if len(args) > 1 else kwargs["condition"])
            return self.span(label, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, attr, name in TRACED_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue  # the CLI no longer makes this call: its span reads 0
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        own = self.self_times()
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "self": t} for s, t in zip(self.spans, own)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
