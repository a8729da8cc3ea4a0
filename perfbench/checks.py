"""Output checks for every benchmark operation.

``Checker.check(op, code, out)`` returns None when the output is right and
a one-line reason otherwise.  Expectations come from the construction of
the inputs (workloads.py), never from a second run of the same code path:

* verify on a unitary-by-construction rule exits 0;
* verify --json on a noisy rule exits 1, and every witness is re-evaluated
  from the generated rule table with ``rules.inner``: the reported value
  and margin must match, and the witness must violate its condition as the
  program decides it.  For P-i, I-i and I-ii the margin |value - 1| exceeds
  the tolerance.  P-ii, P-iii, I-iii and I-iv are decided per edge (a
  product vanishes iff a factor does), so every edge weight on the witness
  must exceed the tolerance; the product itself can fall below it, because
  one absolute tolerance is applied to products of any length.  Those
  witnesses are counted in ``Checker.subtolerance`` and printed, not
  failed.  I-v witnesses, whose value must vanish, are re-evaluated from
  the amplitudes directly;
* zpoly coefficients match ``np.poly`` of the pair-graph transfer matrix;
* paths output is amplitude independent, so every rule of one shape must
  print the same listing, with each count equal to the lines listed;
* the oracle defect of a unitary rule is within the rule's tolerance;
* simulate keeps the norm at 1 to 1e-9 on every step.
"""

from __future__ import annotations

import json
import re

import numpy as np

from qca1d.rules import inner

VALUE_TOL = 1e-9  # agreement of a re-evaluated witness value with the report
NORM_TOL = 1e-9
ZPOLY_TOL = 1e-8  # relative to the largest coefficient; np.poly goes via eigenvalues

_TARGET_ONE = {"P-i", "I-i", "I-ii"}  # conditions whose products must equal 1
_CYCLES = {"P-i", "I-i", "P-ii", "I-iv"}  # witnesses that close up
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?"
_WEIGHT = re.compile(rf"^({_NUM}|nan|inf)(?:({_NUM})i)?$")
_COEFF = re.compile(r"^t\^(\d+): (\S+)$")
_PATHS_HEAD = re.compile(r"^n = (\d+): (\d+) monomials$")
_NORM = re.compile(r"^step\s+(\d+)\s+norm=(\S+)")


def parse_weight(text: str) -> complex:
    """Inverse of ``graphs.format_weight``: "1.5", "-2e-07", "0.5+1.25i"."""
    m = _WEIGHT.match(text)
    if not m:
        raise ValueError(f"unparsable weight {text!r}")
    return complex(float(m.group(1)), float(m.group(2) or 0.0))


def _digits(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


def _chained(items, closed: bool) -> bool:
    """Consecutive neighborhoods overlap in k-1 cells (cyclically if closed)."""
    pairs = list(zip(items, items[1:]))
    if closed:
        pairs.append((items[-1], items[0]))
    return all(a[1:] == b[:-1] for a, b in pairs)


def _surjectivity_value(rule, witness) -> complex:
    """I-v witnesses: a border scalar (product of window amplitudes) or an
    extension-matrix determinant, computed from the amplitude table."""
    q, k = rule.q, rule.k
    amps = rule.amplitudes
    index = lambda cfg: int(np.ravel_multi_index(cfg, (q,) * len(cfg))) if cfg else 0
    if witness[0] == "det":
        gamma = _digits(witness[1])
        return complex(np.linalg.det(np.array([amps[index(gamma + (i,))] for i in range(q)])))
    gamma, rho, rho_out = (_digits(s) for s in witness[1:])
    string, out = gamma + rho[:-1], rho_out[:-1]
    value = complex(1.0)
    for j, o in enumerate(out):
        value *= amps[index(string[j:j + k]), o]
    return value


class Checker:
    def __init__(self):
        self._paths_reference: dict[tuple, str] = {}
        self.subtolerance = 0  # weight-zero witnesses whose product is within tolerance
        self._gram: tuple = (None, None)

    def _gram_of(self, rule) -> dict:
        """Every inner product of one rule, by neighborhood pair, from
        ``rules.inner``; kept for the most recent rule only."""
        if self._gram[0] is not rule:
            configs = list(rule.configs())
            self._gram = (rule, {(a, b): inner(rule, a, b) for a in configs for b in configs})
        return self._gram[1]

    def _witness(self, rule, report: dict) -> str | None:
        cond, witness = report["condition"], report["witness"]
        reported = complex(*report["value"])
        margin = float(report["margin"])
        tol = rule.tolerance
        if cond == "I-v":
            value = _surjectivity_value(rule, witness)
            limit = tol * rule.q if witness[0] == "det" else tol
            if abs(value - reported) > VALUE_TOL or not margin <= limit:
                return f"I-v witness {witness} re-evaluates to {value}, reported {reported}"
            return None
        if not witness:
            return f"{cond} witness is empty"
        if isinstance(witness[0], str):
            left = right = [_digits(s) for s in witness]
        else:
            left = [_digits(a) for a, _ in witness]
            right = [_digits(b) for _, b in witness]
        closed = cond in _CYCLES
        if not (_chained(left, closed) and _chained(right, closed)):
            return f"{cond} witness {witness} is not a {'cycle' if closed else 'path'}"
        gram = self._gram_of(rule)
        weights = [gram[pair] for pair in zip(left, right)]
        value = complex(1.0)
        for w in weights:
            value *= w
        if abs(value - reported) > VALUE_TOL * max(1.0, abs(value)):
            return f"{cond} witness value {reported} != re-evaluated {value}"
        if cond in _TARGET_ONE:
            expected_margin, violated = abs(value - 1.0), abs(value - 1.0) > tol
        else:
            # Weight-zero conditions are decided per edge: the product is nonzero
            # because no factor is within tolerance of zero.
            expected_margin, violated = abs(value), min(abs(w) for w in weights) > tol
            self.subtolerance += expected_margin <= tol
        if abs(margin - expected_margin) > VALUE_TOL * max(1.0, expected_margin) or not violated:
            return (f"{cond} witness margin {margin} (re-evaluated {expected_margin}, "
                    f"tolerance {tol})")
        return None

    def check(self, op, code: int, out: str) -> str | None:
        return getattr(self, "_" + op.check)(op, code, out)

    def _unitary(self, op, code, out):
        if code != 0 or "verdict: unitary" not in out:
            return f"expected a unitary verdict (exit 0), got exit {code}"
        return None

    def _violations(self, op, code, out):
        if code != 1:
            return f"expected a not-unitary verdict (exit 1), got exit {code}"
        data = json.loads(out)
        if data["unitary"] is not False or data["mode"] != op.expect["mode"]:
            return f"verdict JSON says unitary={data['unitary']} mode={data['mode']}"
        if not data["reports"]:
            return "not-unitary verdict without witnesses"
        first = "P-i" if op.expect["mode"] == "periodic" else "I-i"
        if not any(r["condition"] == first for r in data["reports"]):
            return f"noisy norms but no {first} witness"
        for report in data["reports"]:
            reason = self._witness(op.rule, report)
            if reason:
                return reason
        return None

    def _paths(self, op, code, out):
        if code != 0:
            return f"paths exited {code}"
        lines = out.splitlines()
        heads = [(i, _PATHS_HEAD.match(line)) for i, line in enumerate(lines)]
        heads = [(i, m) for i, m in heads if m]
        if [int(m.group(1)) for _, m in heads] != list(range(1, op.expect["max_len"] + 1)):
            return "paths output does not list lengths 1..max-len"
        ends = [i for i, _ in heads[1:]] + [len(lines)]
        for (i, m), end in zip(heads, ends):
            if end - i - 1 != int(m.group(2)):
                return (f"paths n={m.group(1)} announces {m.group(2)} monomials, "
                        f"lists {end - i - 1}")
        key = (op.rule.q, op.rule.k, op.expect["max_len"])
        if self._paths_reference.setdefault(key, out) != out:
            return f"paths listing for (q, k) = {key[:2]} differs between rules of one shape"
        return None

    def _zpoly(self, op, code, out):
        if code != 0:
            return f"zpoly exited {code}"
        expected = [complex(re_, im) for re_, im in op.expect["coeffs"]]
        got = []
        for line in out.splitlines():
            m = _COEFF.match(line)
            if not m or int(m.group(1)) != len(got):
                return f"unexpected zpoly line {line!r}"
            got.append(parse_weight(m.group(2)))
        if not got or len(got) > len(expected):
            return f"zpoly printed {len(got)} coefficients for degree {len(expected) - 1}"
        scale = max(1.0, max(abs(c) for c in expected))
        padded = got + [0.0] * (len(expected) - len(got))
        worst = max(abs(a - b) for a, b in zip(padded, expected))
        if worst > ZPOLY_TOL * scale:
            return f"zpoly coefficients differ from np.poly by {worst:.3e}"
        return None

    def _oracle(self, op, code, out):
        if code != 0:
            return f"oracle exited {code}"
        data = json.loads(out)
        if data["sites"] != op.expect["sites"] or data["dimension"] != op.rule.q ** data["sites"]:
            return f"oracle reports sites={data['sites']} dimension={data['dimension']}"
        if not data["defect"] <= op.rule.tolerance:
            return f"unitary rule shows oracle defect {data['defect']:.3e}"
        return None

    def _simulate(self, op, code, out):
        if code != 0:
            return f"simulate exited {code}"
        norms = [(int(m.group(1)), float(m.group(2)))
                 for m in map(_NORM.match, out.splitlines()) if m]
        if [s for s, _ in norms] != list(range(op.expect["steps"] + 1)):
            return "simulate did not report every step"
        worst = max(abs(n - 1.0) for _, n in norms)
        if worst > NORM_TOL:
            return f"simulate norm drifts by {worst:.3e}"
        return None
