"""Surjectivity of the infinite-lattice evolution: condition I-v.

A norm-preserving infinite evolution is onto iff two families of finite
quantities all stay away from zero: the border scalars
<rho'_0..rho'_(k-2) | F | gamma rho_0..rho_(k-2)> for every prefix gamma
and every sector pair (rho, rho') coupled by a unit transition amplitude,
and the determinants of the q x q extension matrices whose rows are the
amplitude vectors of a prefix's one-state extensions.

``check_surjectivity`` gathers the border scalars of one reading direction
at once, one column per coupled pair and prefix: the amplitude table read
at the k-1 windows of gamma + rho[:-1] and the digits of rho'[:-1], then
multiplied down the column.  The determinants are one batched
``np.linalg.det`` over the table's q x q blocks, one block per prefix.

The proof that these quantities decide onto-ness factors the evolution
restricted to bordered interiors; its operators are test references, in
``tests/references.py``.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .graphs import MAX_PAIR_ENTRIES, check_cap, sector_mask
from .rules import Config, RuleTable, all_configs, config_digits, parity_transform, window_indices
from .unitarity import DEFAULT_MAX_VIOLATIONS, ConstraintReport


def _oriented_reports(rule: RuleTable, inside: np.ndarray) -> Iterator[ConstraintReport]:
    """The I-v reports of the rightward reading over the sector mask
    ``inside``, each made as it is consumed."""
    tol, q, k = rule.tolerance, rule.q, rule.k
    n = q ** (k - 1)
    rho = inside.nonzero()[0]
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
    # gamma's extension matrix is table block index(gamma): row i is row index(gamma) * q + i
    dets = np.linalg.det(rule.amplitudes.reshape(-1, q, q)).tolist()
    singular = [(g, det) for g, det in enumerate(dets) if abs(det) <= tol * q]
    if singular or np.count_nonzero(hit):  # the config labels, only for reports
        configs, prefixes = list(rule.configs()), list(all_configs(q, k - 1))
        for i in np.flatnonzero(hit):
            z = values[i].item()
            yield ConstraintReport("I-v", ("scalar", prefixes[gamma[i]], configs[right[i]],
                                           configs[right_out[i]]), z, abs(z))
        yield from (ConstraintReport("I-v", ("det", prefixes[g]), d, abs(d)) for g, d in singular)


def check_surjectivity(rule: RuleTable, sector: frozenset[Config],
                       max_violations: int = DEFAULT_MAX_VIOLATIONS) -> list[ConstraintReport]:
    """Violations of the surjectivity constraints, as I-v reports: at least
    one when there is one, at most ``max_violations``.

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
    the mirrored reading, the same sector mask and table read through
    digit-reversal views, stops at its first.  A reading whose gather has
    more than ``MAX_PAIR_ENTRIES`` window entries raises ``CapExceeded``
    before it is allocated.
    """
    if not sector:
        raise ValueError("the deterministic sector is empty")
    q, k = rule.q, rule.k
    inside = sector_mask(sector, q, k)
    reports = _oriented_reports(rule, inside)
    first = next(reports, None)
    if first is None or next(_oriented_reports(
            parity_transform(rule), inside.reshape((q,) * k).transpose().ravel()), None) is None:
        return []
    return [first, *itertools.islice(reports, max(max_violations, 1) - 1)]
