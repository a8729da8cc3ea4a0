"""Surjectivity of the infinite-lattice evolution.

A norm-preserving infinite evolution is onto iff two families of finite
quantities all stay away from zero: the border scalars
<rho'_0..rho'_(k-2) | F | gamma rho_0..rho_(k-2)> for every prefix gamma
and every sector pair (rho, rho') coupled by a unit transition amplitude,
and the determinants of the q x q extension matrices Phi whose rows are
the amplitude vectors of a prefix's one-state extensions.

``check_surjectivity`` gathers the border scalars of one reading direction
at once, one column per coupled pair and prefix: the amplitude table read
at the k-1 windows of gamma + rho[:-1] and the digits of rho'[:-1], then
multiplied down the column.  ``border_scalar`` is its one-at-a-time reference.

The supporting machinery (restricted evolution on bordered interiors, its
reduced form, and the determinant factorizations relating them) is exposed
for direct validation; both interior operators are ``rules.window_product``
over the bordered interior's windows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import MAX_PAIR_ENTRIES, check_cap, deterministic_sector, sector_mask
from .rules import (Config, RuleTable, all_configs, as_config, config_digits, config_index,
                    config_str, parity_transform, window_indices, window_product)
from .unitarity import ConstraintReport


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


def _oriented_reports(rule: RuleTable, sector: frozenset[Config],
                      inside: np.ndarray | None = None) -> Iterator[ConstraintReport]:
    tol, q, k = rule.tolerance, rule.q, rule.k
    n = q ** (k - 1)
    rho = (sector_mask(sector, q, k) if inside is None else inside).nonzero()[0]
    # one column per coupled pair (rho, rho') and prefix gamma, in that order
    coupled = np.abs(rule.amplitudes[rho][:, rho % q] - 1.0) <= tol
    check_cap(np.count_nonzero(coupled) * n * (k - 1), MAX_PAIR_ENTRIES,
              "the I-v gather has {} window entries")
    right, right_out = (rho[pairs].repeat(n) for pairs in coupled.nonzero())
    gamma = np.arange(right.size) % n
    digits = config_digits(q, k - 1)
    windows = window_indices(np.concatenate((digits[:, gamma], digits[:, right // q])), q, k)
    values = rule.amplitudes[windows, digits[:, right_out // q]].prod(axis=0)
    hit = np.abs(values) <= tol
    # row i of extension_matrix(gamma) is row index(gamma) * q + i of the table
    dets = np.linalg.det(rule.amplitudes.reshape(-1, q, q)).tolist()
    singular = [(g, det) for g, det in enumerate(dets) if abs(det) <= tol * q]
    if singular or np.count_nonzero(hit):  # the config labels, only for reports
        configs, prefixes = list(rule.configs()), list(all_configs(q, k - 1))
        for g, a, b, z in zip(gamma[hit].tolist(), right[hit].tolist(),
                              right_out[hit].tolist(), values[hit].tolist()):
            yield ConstraintReport("I-v", ("scalar", prefixes[g], configs[a], configs[b]), z, abs(z))
        yield from (ConstraintReport("I-v", ("det", prefixes[g]), d, abs(d)) for g, d in singular)


def check_surjectivity(rule: RuleTable, sector: frozenset[Config],
                       inside: np.ndarray | None = None) -> list[ConstraintReport]:
    """Violations of the surjectivity constraints, as I-v reports.

    Border scalars are checked for every coupled sector pair (rho, rho')
    and every prefix gamma; extension-matrix determinants once per gamma
    with singularity threshold tolerance x q.

    The border quantities read the lattice rightward, which makes them
    orientation dependent: reflecting the lattice turns the evolution into
    the parity-transformed rule's evolution (up to translation) and leaves
    onto-ness unchanged, yet a rule whose deterministic transitions flow
    leftward can satisfy the constraints in the reflected reading only.
    Onto-ness is therefore certified when either reading direction is
    violation free; violations are reported in the rightward reading, and
    the mirrored reading stops at its first.  A reading whose gather has
    more than ``MAX_PAIR_ENTRIES`` window entries raises ``CapExceeded``
    before it is allocated.  ``inside``, the sector's config mask
    (``graphs.sector_mask``), saves building it again.
    """
    if not sector:
        raise ValueError("the deterministic sector is empty")
    reports = list(_oriented_reports(rule, sector, inside))
    if not reports:
        return []
    mirrored = frozenset(tuple(reversed(c)) for c in sector)
    if next(_oriented_reports(parity_transform(rule), mirrored), None) is None:
        return []
    return reports
