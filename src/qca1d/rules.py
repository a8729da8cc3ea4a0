"""Rule tables for one-dimensional quantum cellular automata.

A local rule over states {0, ..., q-1} assigns to every length-k
neighborhood string an amplitude vector in C^q.  Tables are dense: one row
per neighborhood, rows ordered with the leftmost cell most significant
(the string "101" for q=2 is row 5).  Every comparison made by this
package (norm one, orthogonality, unit components, determinism) is a
tolerance test using the table's ``tolerance``, tol.  A unitary periodic
verdict keeps the exact defect of an N-site ring within (1 + tol)^N - 1:
derived for the diagonal entries (at most N simple cycles, each within tol
of 1), observed for the rest.  A NOT-unitary one showed a defect over tol
at some N <= r, r = n^2 + n + 1, n = q^(k-1): observed on the tests' noisy
grid.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

DEFAULT_TOLERANCE = 1e-9

Config = tuple[int, ...]


class RuleFormatError(ValueError):
    """Malformed rule data: wrong shape, bad keys, non-finite entries."""


def config_index(config: Sequence[int], q: int) -> int:
    """Encode a neighborhood string, leftmost cell most significant."""
    idx = 0
    for s in config:
        idx = idx * q + int(s)
    return idx


def index_config(index: int, q: int, k: int) -> Config:
    """Inverse of :func:`config_index` for strings of length k."""
    digits = []
    for _ in range(k):
        index, r = divmod(index, q)
        digits.append(r)
    return tuple(reversed(digits))


def config_digits(q: int, length: int, index: np.ndarray | None = None) -> np.ndarray:
    """Cells of every string of the given length, or of those indexed: [s, i] is cell s of i."""
    place = q ** np.arange(length - 1, -1, -1)
    return (np.arange(q**length) if index is None else index)[None, :] // place[:, None] % q


def window_indices(cells: np.ndarray, q: int, k: int) -> np.ndarray:
    """Config index of every length-k run of rows: entry [j, i] reads cells[j:j+k, i]."""
    count = len(cells) - k + 1
    windows = cells[:count]
    for j in range(1, k):
        windows = windows * q + cells[j:j + count]
    return windows


def window_product(amplitudes: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Matrix [out, i] = prod_j f(out_j | windows[j, i]), out_0 most significant: column i
    is the Kronecker product of its windows' amplitude vectors, one row of ones for none."""
    if not len(windows):
        return np.ones((1, windows.shape[1]), dtype=amplitudes.dtype)
    # np.take keeps every factor, and so the matrix, C-contiguous
    matrix = np.take(amplitudes.T, windows[0], axis=1)
    for window in windows[1:]:
        factor = np.take(amplitudes.T, window, axis=1)
        matrix = (matrix[:, None, :] * factor[None, :, :]).reshape(-1, windows.shape[1])
    return matrix


def config_str(config: Sequence[int]) -> str:
    return "".join(str(s) for s in config)


def all_configs(q: int, length: int) -> Iterator[Config]:
    """All strings of the given length in index order."""
    return itertools.product(range(q), repeat=length)


def as_config(value: str | Sequence[int], q: int, length: int) -> Config:
    """Normalize a neighborhood given as digits string or sequence of integers."""
    if isinstance(value, str):
        if not set(value) <= set("0123456789"):  # int() would also take other scripts' digits
            raise RuleFormatError(f"config string {value!r} has non-digit characters")
        cfg = tuple(map(int, value))
    elif all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in value):
        cfg = tuple(map(int, value))
    else:  # int() would truncate a float and read a bool
        raise RuleFormatError(f"config {value!r} has cells that are not integers")
    if len(cfg) != length:
        raise RuleFormatError(f"config {config_str(cfg)!r} has length {len(cfg)}, expected {length}")
    if any(s < 0 or s >= q for s in cfg):
        raise RuleFormatError(f"config {config_str(cfg)!r} has states outside 0..{q - 1}")
    return cfg


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Dense table of amplitude vectors, one per neighborhood.

    ``amplitudes`` has shape (q**k, q); row r holds the amplitude vector of
    the neighborhood with index r, column i the amplitude of output state i.
    """

    q: int
    k: int
    amplitudes: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.q < 2:
            raise RuleFormatError(f"state count q={self.q} must be at least 2")
        if self.k < 1:
            raise RuleFormatError(f"neighborhood size k={self.k} must be at least 1")
        if not 0 < self.tolerance < np.inf:
            raise RuleFormatError(f"tolerance {self.tolerance} must be positive and finite")
        amps = np.array(self.amplitudes, dtype=complex, order="C")  # the table's own copy
        if amps.shape != (self.q**self.k, self.q):
            raise RuleFormatError(
                f"amplitude table has shape {amps.shape}, expected {(self.q**self.k, self.q)}"
            )
        top = np.abs(amps.view(float)).max()  # nan or inf when an entry is not finite
        if not top < np.inf:
            raise RuleFormatError("amplitude table contains non-finite entries")
        # a row's squared norm is at most 2q top^2, half the float range below this top
        if top > (sys.float_info.max / (4 * self.q)) ** 0.5:
            with np.errstate(over="ignore"):  # a squared norm past float range is refused below
                if not np.isfinite(np.square(np.abs(amps)).sum(axis=1)).all():
                    raise RuleFormatError("amplitude table has a row whose squared norm overflows")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def config(self, value: str | Sequence[int]) -> Config:
        return as_config(value, self.q, self.k)

    def configs(self) -> Iterator[Config]:
        return all_configs(self.q, self.k)

    def vector(self, config: str | Sequence[int]) -> np.ndarray:
        """Amplitude vector of one neighborhood (read-only view)."""
        return self.amplitudes[config_index(self.config(config), self.q)]

    def amplitude(self, out_state: int, config: str | Sequence[int]) -> complex:
        return complex(self.vector(config)[out_state])

    def with_tolerance(self, tolerance: float) -> "RuleTable":
        return replace(self, tolerance=tolerance)


def inner(rule: RuleTable, a: str | Sequence[int], b: str | Sequence[int]) -> complex:
    """Sesquilinear inner product of two amplitude vectors.

    The first argument is conjugated: inner(a, b) = sum_i conj(f(i|a)) f(i|b).
    """
    return complex(np.vdot(rule.vector(a), rule.vector(b)))


def vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.vdot`` of the last axes of x and y, broadcast over the others:
    a batch of 1 x q by q x 1 products, which rounds as ``np.vdot`` does and
    a BLAS matrix product does not."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def parity_transform(rule: RuleTable) -> RuleTable:
    """Reverse every neighborhood: the new table at i1..ik is the old at ik..i1,
    read through the view with one axis per cell in reverse order."""
    q, k = rule.q, rule.k
    cells = rule.amplitudes.reshape((q,) * k + (q,)).transpose(*range(k - 1, -1, -1), k)
    return RuleTable(q, k, cells.reshape(q**k, q), rule.tolerance)


def unit_hits(rule: RuleTable) -> np.ndarray:
    """Entry [a, i]: whether |f(i|a) - 1| <= tolerance.  A component of
    modulus one but nonzero phase does not qualify."""
    return np.abs(rule.amplitudes - 1.0) <= rule.tolerance


def deterministic_outputs(rule: RuleTable) -> np.ndarray:
    """Per config index, the unique output state with amplitude 1, or -1
    where there is none or more than one."""
    hits = unit_hits(rule)
    return np.where(hits.sum(axis=1) == 1, hits.argmax(axis=1), -1)


def is_deterministic(rule: RuleTable) -> bool:
    """True when every amplitude vector is a unit basis vector (within tolerance)."""
    hits = unit_hits(rule)
    zeros = np.abs(rule.amplitudes) <= rule.tolerance
    return bool(np.all(hits.sum(axis=1) == 1) and np.all(hits | zeros))


# ---------------------------------------------------------------------------
# Rule file format: JSON with one amplitude-vector entry per neighborhood:
#   { "q": 2, "k": 2, "tolerance": 1e-9,
#     "amplitudes": { "00": [[re, im], [re, im]], ... } }
# ---------------------------------------------------------------------------


def rule_to_dict(rule: RuleTable) -> dict:
    amplitudes = dict(zip(map(config_str, rule.configs()),
                          rule.amplitudes.view(float).reshape(-1, rule.q, 2).tolist()))
    return {"q": rule.q, "k": rule.k, "tolerance": rule.tolerance, "amplitudes": amplitudes}


def rule_from_dict(data: dict) -> RuleTable:
    if not isinstance(data, dict):
        raise RuleFormatError(f"rule file must hold a JSON object, got {type(data).__name__}")
    for field in ("q", "k", "amplitudes"):
        if field not in data:
            raise RuleFormatError(f"rule file is missing the {field!r} field")
    q, k = data["q"], data["k"]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (q, k)):  # JSON true is a bool
        raise RuleFormatError("fields 'q' and 'k' must be integers")
    if q > 10:
        raise RuleFormatError("config strings use single digits; q must be at most 10")
    if q < 2:
        raise RuleFormatError(f"field 'q' = {q} must be at least 2")
    if not 1 <= k <= 63:  # q**k >= 2**64 exceeds any table, so it is never evaluated
        raise RuleFormatError(f"field 'k' = {k} must lie in 1..63")
    tolerance = data.get("tolerance", DEFAULT_TOLERANCE)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) \
            or not 0 < tolerance <= sys.float_info.max:  # an int past it has no float
        raise RuleFormatError(
            f"field 'tolerance' must be a positive number and finite, got {tolerance!r}")
    table = data["amplitudes"]
    if not isinstance(table, dict):
        raise RuleFormatError("field 'amplitudes' must be an object keyed by config strings")
    if len(table) != q**k:
        raise RuleFormatError(f"field 'amplitudes' has {len(table)} entries, expected {q**k}")
    amps = _table_array(table, q, k)
    if amps is not None:
        return RuleTable(q, k, amps, float(tolerance))
    amps = np.zeros((q**k, q), dtype=complex)  # something is malformed: find it in file order
    seen = set()
    for key, entry in table.items():
        cfg = as_config(key, q, k)
        if cfg in seen:  # q^k keys, so a repeat leaves another config's row unset
            raise RuleFormatError(f"config key {key!r} names config {config_str(cfg)!r} again")
        seen.add(cfg)
        if not isinstance(entry, list) or len(entry) != q:
            raise RuleFormatError(f"amplitude vector for {key!r} must list {q} [re, im] pairs")
        for i, pair in enumerate(entry):
            if not isinstance(pair, list) or len(pair) != 2:
                raise RuleFormatError(f"entry {i} for config {key!r} is not an [re, im] pair")
            try:
                amps[config_index(cfg, q), i] = complex(pair[0], pair[1])
            except (TypeError, OverflowError):  # a string, null, or an int past float range
                raise RuleFormatError(
                    f"entry {i} for config {key!r} is not a pair of numbers") from None
    return RuleTable(q, k, amps, float(tolerance))


def _table_array(table: dict, q: int, k: int) -> np.ndarray | None:
    """The (q^k, q) amplitude table of q^k well-formed entries, from one
    array conversion and one scatter by config index.  None unless every key
    is a length-k string of ASCII digits below q and the entries form a
    (q^k, q, 2) array of numbers."""
    try:
        digits = "".join(table)
        if set(map(len, table)) != {k} or not (digits.isascii() and digits.isdigit()):
            return None
        index = list(map(int, table, itertools.repeat(q)))  # base-q digits
        values = np.array(list(table.values()))
    except (TypeError, ValueError, OverflowError):  # a digit >= q, ragged entries
        return None
    if values.shape != (q**k, q, 2) or values.dtype.kind not in "biuf":
        return None
    amps = np.empty((q**k, q), dtype=complex)
    amps[index] = values.astype(float, copy=False).view(complex)[..., 0]
    return amps


def dump_rule(rule: RuleTable) -> str:
    return json.dumps(rule_to_dict(rule), indent=2)


def load_rule(path: str) -> RuleTable:
    """Read a rule file; the path "-" reads standard input."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuleFormatError(f"rule file {path!r} is not valid JSON: {exc}") from exc
    return rule_from_dict(data)
