"""Test references: the interior-operator proof behind I-v, and state relabeling.

The paper's surjectivity argument factors the determinant of the evolution
restricted to bordered interiors into border scalars and extension-matrix
determinants.  ``surjectivity.check_surjectivity`` decides only from those
end quantities; the operators below rebuild the factorization one interior
at a time, so the tests can check that the decision's quantities are the
right ones.  ``border_scalar`` is the one-at-a-time reference for the
decision's batched gather; both interior operators are
``rules.window_product`` over the bordered interior's windows.

``state_transpose`` and ``unit_configs`` serve the covariance and sector
tests, ``approx_equal`` the tests that compare two tables; ``walk_defects``
reads the exact ring defect of every ring size up to a bound from one
walk, for the ring-contract test.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from qca1d.graphs import Walk, deterministic_sector
from qca1d.rules import (Config, RuleTable, all_configs, as_config, config_digits, config_index,
                         config_str, unit_hits, window_indices, window_product)


def extension_matrix(rule: RuleTable, prefix: str | Sequence[int]) -> np.ndarray:
    """q x q matrix whose row i is the amplitude vector of prefix + (i,)."""
    prefix = as_config(prefix, rule.q, rule.k - 1)
    rows = [rule.vector(prefix + (i,)) for i in range(rule.q)]
    return np.array(rows, dtype=complex)


def window_amplitude(rule: RuleTable, output: Sequence[int], input: Sequence[int]) -> complex:
    """Transition amplitude of a finite string under the sliding window.

    The output must be k-1 cells shorter than the input; the amplitude is
    the product of f(output[j] | input[j:j+k]) over all windows.
    """
    k = rule.k
    if len(output) != len(input) - k + 1:
        raise ValueError(
            f"output length {len(output)} does not match input length {len(input)} minus {k - 1}")
    value = complex(1.0)
    for j, out in enumerate(output):
        value *= rule.amplitude(out, tuple(input[j:j + k]))
    return value


def border_scalar(rule: RuleTable, gamma: str | Sequence[int],
                  right: str | Sequence[int], right_out: str | Sequence[int]) -> complex:
    """Amplitude <right_out[:-1] | F | gamma + right[:-1]>."""
    gamma = as_config(gamma, rule.q, rule.k - 1)
    right = rule.config(right)
    right_out = rule.config(right_out)
    return window_amplitude(rule, right_out[:-1], gamma + right[:-1])


def _bordered_windows(rule: RuleTable, left: Config, n: int, right: Config = ()) -> np.ndarray:
    """Window indices of left + a + right, one column per interior string a
    of length n in index order."""
    digits = config_digits(rule.q, n)
    border = lambda cfg: np.repeat(np.array(cfg, dtype=np.intp)[:, None], digits.shape[1], axis=1)
    return window_indices(np.vstack([border(left), digits, border(right)]), rule.q, rule.k)


def _require_sector(rule, configs: Iterable[Config], sector):
    if sector is None:
        sector = deterministic_sector(rule)
    missing = [c for c in configs if c not in sector]
    if missing:
        raise ValueError(
            "configs outside the deterministic sector: "
            + ", ".join(config_str(c) for c in missing))
    return sector


def restricted_evolution(
    rule: RuleTable,
    left: str | Sequence[int],
    right: str | Sequence[int],
    right_out: str | Sequence[int],
    n: int,
    *,
    sector: frozenset[Config] | None = None,
) -> np.ndarray:
    """Evolution on length-n interiors between deterministic borders.

    Entry (a', a) is the amplitude of input left[1:] + a + right[:-1]
    producing output a' + right_out[:-1].  Requires left, right, right_out
    in the deterministic sector and f(right_out[-1] | right) = 1.
    """
    if n < 0:
        raise ValueError(f"interior length must be nonnegative, got {n}")
    left, right, right_out = rule.config(left), rule.config(right), rule.config(right_out)
    _require_sector(rule, (left, right, right_out), sector)
    if abs(rule.amplitude(right_out[-1], right) - 1.0) > rule.tolerance:
        raise ValueError(
            f"transition amplitude f({right_out[-1]}|...) on the right border is not 1")
    windows = _bordered_windows(rule, left[1:], n, right[:-1])
    matrix = window_product(rule.amplitudes, windows[:n])
    # border window j must produce right_out[j]: one factor per column
    for window, out in zip(windows[n:], right_out):
        matrix = matrix * rule.amplitudes[window, out]
    return matrix


def _column_prefix(rule: RuleTable, left: Config, alpha: Config, n: int) -> Config:
    # Length k-1 prefix governing column alpha: its own tail once the
    # interior is long enough, padded from `left` before that.
    if n >= rule.k - 1:
        return alpha[n - rule.k + 1:]
    return left[n + 1:] + alpha


def reduced_evolution(
    rule: RuleTable,
    left: str | Sequence[int],
    n: int,
    *,
    sector: frozenset[Config] | None = None,
) -> np.ndarray:
    """Border-factor-free form of the restricted evolution.

    Entry (a', a) is the amplitude of input left[1:] + a producing output
    a'.  It is the tensor recurrence: the 1 x 1 stage is (1), and stage m+1
    multiplies entry (a', a) by the extension-matrix entry Phi[i, j] of the
    column's governing prefix, mapping to entry (a'j, ai).
    """
    if n < 0:
        raise ValueError(f"interior length must be nonnegative, got {n}")
    left = rule.config(left)
    _require_sector(rule, (left,), sector)
    return window_product(rule.amplitudes, _bordered_windows(rule, left[1:], n))


def column_factor_product(
    rule: RuleTable,
    left: str | Sequence[int],
    right: str | Sequence[int],
    right_out: str | Sequence[int],
    n: int,
) -> complex:
    """Product of the per-column border scalars pulled out of a determinant:
    one per interior string, taken at the prefix that governs its column."""
    left, right, right_out = rule.config(left), rule.config(right), rule.config(right_out)
    value = complex(1.0)
    for alpha in all_configs(rule.q, n):
        value *= border_scalar(rule, _column_prefix(rule, left, alpha, n), right, right_out)
    return value


def extension_det_product(rule: RuleTable, left: str | Sequence[int], n: int) -> complex:
    """Product of extension-matrix determinants entering stage n -> n+1."""
    left = rule.config(left)
    q = rule.q
    dets = np.linalg.det(rule.amplitudes.reshape(-1, q, q)).tolist()  # by prefix index, see below
    value = complex(1.0)
    for alpha in all_configs(q, n):
        value *= dets[config_index(_column_prefix(rule, left, alpha, n), q)]
    return value


def det_factorization_check(
    rule: RuleTable,
    left: str | Sequence[int],
    right: str | Sequence[int],
    right_out: str | Sequence[int],
    n: int,
    *,
    sector: frozenset[Config] | None = None,
    max_interior: int = 3,
) -> bool:
    """Verify det(restricted) = column factors x det(reduced) at one size."""
    if n > max_interior:
        raise ValueError(f"interior length {n} exceeds the configured bound {max_interior}")
    restricted = restricted_evolution(rule, left, right, right_out, n, sector=sector)
    reduced = reduced_evolution(rule, left, n, sector=sector)
    factored = (column_factor_product(rule, left, right, right_out, n)
                * complex(np.linalg.det(reduced)))
    direct = complex(np.linalg.det(restricted))
    return abs(direct - factored) <= rule.tolerance * restricted.shape[0]


def approx_equal(rule: RuleTable, other: RuleTable, tol: float | None = None) -> bool:
    """Same shape, and every amplitude within ``tol`` (the rule's tolerance
    when None) of the other's."""
    if (rule.q, rule.k) != (other.q, other.k):
        return False
    tol = rule.tolerance if tol is None else tol
    return bool(np.all(np.abs(rule.amplitudes - other.amplitudes) <= tol))


def state_transpose(rule: RuleTable, perm: Sequence[int], side: str = "both") -> RuleTable:
    """Relabel states by a permutation of {0, ..., q-1}.

    side="input" permutes every cell of the neighborhood, side="output"
    permutes the components of every amplitude vector, side="both" does both.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(rule.q)):
        raise ValueError(f"{perm} is not a permutation of 0..{rule.q - 1}")
    if side not in ("input", "output", "both"):
        raise ValueError(f"side must be input, output or both, got {side!r}")
    amps = rule.amplitudes
    if side in ("input", "both"):
        rows = [config_index(tuple(perm[s] for s in cfg), rule.q) for cfg in rule.configs()]
        amps = amps[rows]
    if side in ("output", "both"):
        amps = amps[:, list(perm)]
    return RuleTable(rule.q, rule.k, amps, rule.tolerance)


def unit_configs(rule: RuleTable) -> frozenset[Config]:
    """Neighborhoods whose amplitude vector has a component equal to 1."""
    return frozenset(itertools.compress(rule.configs(), unit_hits(rule).any(axis=1).tolist()))


def walk_defects(rule: RuleTable, sizes: int) -> list[float]:
    """``oracle.walk_defect(rule, N)`` for N = 1..sizes, bit for bit, from one
    walk of ``sizes`` steps per semiring: the closed walks of N edges are the
    diagonal of the walk after step N, one batch column per start vertex."""
    q = rule.q
    weights = np.abs(rule.amplitudes.conj() @ rule.amplitudes.T)
    norms = weights.diagonal()
    mismatch = weights.copy()
    np.fill_diagonal(mismatch, 0.0)

    def closed(first, edges, plus, zero):
        d, n = first.ndim, first.shape[0] // q
        walk = Walk(q, n, d, (n**d,), plus, np.multiply, float)
        steps = walk.edges(first), walk.edges(edges)
        ends = walk.walk.reshape(n**d, n**d)
        ends[...] = zero
        np.fill_diagonal(ends, 1.0)
        found = []
        for step in range(sizes):
            walk.step(steps[step > 0])
            found.append(float(plus(zero, plus.reduce(ends.diagonal()))))
        return found

    high = closed(norms, norms, np.maximum, 0.0)
    with np.errstate(invalid="ignore"):  # inf * 0 = nan, which np.fmin passes over
        low = closed(norms, norms, np.fmin, np.inf)
    off = closed(mismatch, weights, np.maximum, 0.0)
    return [max(h - 1.0, 1.0 - lo, o) for h, lo, o in zip(high, low, off)]
