"""Brute-force ground truth on periodic lattices.

The global evolution matrix on N sites has entries
F[out, in] = prod_x f(out_x | in_x..in_(x+k-1)) with periodic indexing,
site 0 most significant in the configuration index: the neighborhood of
site x is sites x..x+k-1, as everywhere in the package (one starting at
x+m gives F T^m, T the cyclic shift).  Summing over the outputs site by
site, every Gram entry is a product of N neighborhood inner products:
(F^dagger F)[y, x] = prod_s <f(.|w_s(y)), f(.|w_s(x))>, w_s(x) being the
window site s reads from x.  Two exact defect kernels read max |F^dagger F - I|
from that identity without forming F.  ``walk_defect`` takes the pairs
(y, x) as the closed walks of N edges in the pair graph and finds the
extreme products by max-times and min-times walks (``graphs.Walk``), at a
cost of about 2 N q^(4k-2) for any N.
``ring_defect`` builds the Gram rows of one configuration per shift orbit,
in memory of order #orbits * q^N, about 1/N of F, at a cost of about
q^(2N); ``exact_defect_kernel`` picks the cheaper one.  The dense build
``global_matrix`` multiplies the amplitude columns of every site's window
index, site by site in Kronecker order; it and ``unitarity_defect``, from
the Gram of any matrix, are the references of the tests.  Every evolution
applies F or F^dagger matrix-free, at every ring size: a block of L sites
at a time, L the largest with q^L <= 16 (4 sites for q = 2, 2 for q = 3
or 4, 1 for q >= 5), as a batched matmul over the window cells the block
shares with its neighbours; its kernel is the same window-index product
as ``global_matrix`` (``rules.window_product``), over the block's L + k - 1
cells.  F^dagger takes the same kernels: it runs the steps of F in reverse
order, each conjugate-transposed.  The k - 1 cells read around the wrap
are fixed to each of their values in turn, one chain of steps each; F
skips the chain of a value on which the state is zero, when the kernels
are all finite (0 * inf is nan).  The bound comes from a sweep on
a shared 2-core x86-64 host with one BLAS thread: a forward f21 pass on
16 sites took 7.4, 2.5, 2.3, 1.7, 2.4, 2.3 and 6.5 ms at q^L = 2, 4, 8,
16, 32, 64 and 256.  States over MAX_STATE_DIM are refused.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .graphs import (MAX_DENSE_DIM, MAX_PAIR_ENTRIES, MAX_STATE_DIM, MAX_WALK_COST, Walk,
                     check_cap)
from .rules import (RuleTable, all_configs, as_config, config_digits, config_index, window_indices,
                    window_product)

_BLOCK_DIM = 16  # q^L bound on the sites one matrix-free step contracts


def state_dim(q: int, n_sites: int) -> int:
    """q^N for an N-site ring, refused past MAX_STATE_DIM before any allocation.
    As q >= 2, q^N is over the cap exactly when q^min(N, bits of the cap) is."""
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    check_cap(q ** min(n_sites, MAX_STATE_DIM.bit_length()), MAX_STATE_DIM,
              f"ring state dimension {q}^{n_sites}")
    return q**n_sites


def basis_state(q: int, n_sites: int, config: Sequence[int] | str) -> np.ndarray:
    state = np.zeros(state_dim(q, n_sites), dtype=complex)
    state[config_index(as_config(config, q, n_sites), q)] = 1.0
    return state


def _checked_state(state: np.ndarray, q: int, n_sites: int) -> np.ndarray:
    dim = state_dim(q, n_sites)
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    return state


def _checked_out(out: np.ndarray | None, dim: int, *busy: np.ndarray) -> np.ndarray:
    """``out``, a C-contiguous complex vector of dim apart from ``busy``; fresh if None."""
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == (dim,)
                                and out.dtype == complex and out.flags.c_contiguous
                                and not any(np.shares_memory(out, a) for a in busy)):
        raise ValueError(f"out must be a C-contiguous complex vector of {dim} amplitudes "
                         "sharing no memory with the state or the scratch vectors")
    return np.empty(dim, dtype=complex) if out is None else out


def random_state(q: int, n_sites: int, rng: np.random.Generator) -> np.ndarray:
    dim = state_dim(q, n_sites)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def global_matrix(rule: RuleTable, n_sites: int) -> np.ndarray:
    """Dense evolution matrix on the N-site ring, refused past q^N = MAX_DENSE_DIM.

    Column `in` is the Kronecker product over sites of the amplitude
    vectors of the windows read from the input configuration; for a
    deterministic rule every column is a standard basis vector.  It is the
    reference the matrix-free evolution is tested against.
    """
    q, k = rule.q, rule.k
    check_cap(state_dim(q, n_sites), MAX_DENSE_DIM, "dense matrix dimension {}")
    cells = config_digits(q, n_sites)[np.arange(n_sites + k - 1) % n_sites]
    return window_product(rule.amplitudes, window_indices(cells, q, k))


def shift_orbit_representatives(dim: int, n_sites: int) -> np.ndarray:
    """Smallest index of each cyclic-shift orbit of the dim = q^N ring configurations."""
    q = round(dim ** (1 / n_sites)) if n_sites >= 1 else 0
    if q < 1 or q**n_sites != dim:
        raise ValueError(f"dimension {dim} is not q^{n_sites} for an integer q")
    index = rotated = smallest = np.arange(dim)
    for _ in range(n_sites - 1):  # each pass moves site 0 to the end
        rotated = rotated % (dim // q) * q + rotated // (dim // q)
        smallest = np.minimum(smallest, rotated)
    return np.flatnonzero(smallest == index)


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of F^dagger F - I; zero iff the matrix is unitary.  The Gram is
    Hermitian, so its upper block triangle, 512 rows at a time, holds every modulus."""
    matrix = np.asarray(matrix)
    worst = 0.0
    for i in range(0, matrix.shape[1], 512):
        gram = matrix[:, i:i + 512].conj().T @ matrix[:, i:]
        diag = np.arange(len(gram))
        gram[diag, diag] -= 1.0
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst


def ring_defect(rule: RuleTable, n_sites: int) -> float:
    """Max-norm of F^dagger F - I for the N-site ring evolution F, without forming F.

    F commutes with the cyclic shift T, so (F^dagger F)[Tx, Ty] = (F^dagger F)[x, y]
    and the Gram rows y of one configuration per shift orbit hold every entry.
    Row y is a broadcast product over the N cell axes of x, one multiply per
    site s, of the inner products <f(.|w_s(y)), f(.|w_s(x))>, which depend on
    the window cells of x alone.
    """
    q, k = rule.q, rule.k
    dim = state_dim(q, n_sites)
    check_cap(dim, MAX_DENSE_DIM, "exact-defect ring dimension {}")
    reps = shift_orbit_representatives(dim, n_sites)
    cells = config_digits(q, n_sites)[np.arange(n_sites + k - 1) % n_sites][:, reps]
    rep_windows = window_indices(cells, q, k)
    # a window reads m distinct cells, repeated around the ring when N < k;
    # local[a] is the window index of assignment a of cells s, s+1, .. (mod N)
    m = min(k, n_sites)
    local = window_indices(config_digits(q, m)[np.arange(k) % m], q, k)[0]
    columns = rule.amplitudes[local].T
    gram = np.empty((len(reps), dim), dtype=complex)
    for s in range(n_sites):
        wrap = max(0, s + m - n_sites)  # window cells 0..wrap-1 read past the end
        factor = rule.amplitudes[rep_windows[s]].conj() @ columns
        factor = factor.reshape(len(reps), q ** (m - wrap), q**wrap).transpose(0, 2, 1)
        # axes: cells 0..wrap-1, wrap..s-1, s..s+m-wrap-1, the rest
        view = gram.reshape(len(reps), q**wrap, q ** (s - wrap), q ** (m - wrap), -1)
        if s:
            view *= factor[:, :, None, :, None]
        else:
            view[...] = factor[:, :, None, :, None]
    gram[np.arange(len(reps)), reps] -= 1.0
    return float(np.max(np.abs(gram)))


def walk_cost(q: int, k: int, n_sites: int) -> int:
    """Estimated cost of ``walk_defect``, in Gram entries of ``ring_defect``.

    Its pair-graph walk takes N steps over the q^(2k) pair edges, one batch
    row per each of the q^(2(k-1)) start vertices, and an edge product was
    once measured at about twice a Gram entry.  Stepped by ``graphs.Walk``
    it takes 0.75-0.84 of a Gram entry (one BLAS thread, 2-core x86-64: at
    (2, 5) and N = 12, 5.3-6.2 ms for 3.1M edge products against 36-44 ms
    for the 16.8M entries of the orbit rows); the factor 2 stays, so that
    each ring keeps the kernel, and so the bits, that it had.
    """
    return 2 * n_sites * q ** (4 * k - 2)


def _closed_walks(q: int, first: np.ndarray, weights: np.ndarray, n_sites: int,
                  plus: np.ufunc, zero: float) -> float:
    """``plus`` over the closed walks of n_sites edges of their weight, the
    product of ``first`` at the first edge and ``weights`` at the others,
    each with one config axis per graph; ``zero`` is the weight of no walk.
    One ``graphs.Walk`` column per start vertex, in blocks of at most
    MAX_PAIR_ENTRIES edge products per step."""
    d, n = first.ndim, first.shape[0] // q
    vertices = n**d
    block, best = max(1, MAX_PAIR_ENTRIES // (q**d * vertices)), zero
    for low in range(0, vertices, block):
        size = min(block, vertices - low)
        walk = Walk(q, n, d, (size,), plus, np.multiply, float)
        edges = walk.edges(first), walk.edges(weights)
        ends = walk.walk.reshape(vertices, size)
        ends[...] = zero
        np.fill_diagonal(ends[low:], 1.0)  # start vertex low + i, column i
        for step in range(n_sites):
            walk.step(edges[step > 0])
        best = plus(best, plus.reduce(ends[low:].diagonal()))
    return float(best)


def walk_defect(rule: RuleTable, n_sites: int) -> float:
    """Max-norm of F^dagger F - I for the N-site ring evolution F, from
    max-times closed walks over the norm and pair graphs.

    The ring configurations x are the closed walks of N edges in the norm
    graph, and the pairs (y, x) those in the pair graph, N < k included;
    (F^dagger F)[y, x] is the product of the pair-edge weights
    <<w_s(y) | w_s(x)>> along the walk.  So the modulus of an entry is the
    product of the moduli of its weights, and each of the extremes below is
    a walk over a (max, x) or (min, x) semiring, the same closed walks whose
    sum Tr A^N the transfer matrices of ``qca1d.transfer`` count.
    Diagonal entries are products of norms: the largest and smallest of
    them come from a max-times and a min-times walk of the norm graph, where
    an unreachable vertex holds inf and inf * 0 = nan, which np.fmin passes
    over.  An off-diagonal walk has an edge (a, b) with a != b, and rotating
    the ring makes it the first edge: the largest |entry| is the max-times
    walk whose first edge is such a mismatch edge.  Each extreme is one
    ``graphs.Walk`` (``_closed_walks``).  Refused with ``graphs.CapExceeded``
    when ``walk_cost`` exceeds MAX_WALK_COST.
    """
    q, k = rule.q, rule.k
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    check_cap(walk_cost(q, k, n_sites), MAX_WALK_COST, "the closed-walk defect costs {}")
    amps = rule.amplitudes
    weights = np.abs(amps.conj() @ amps.T)
    norms = weights.diagonal()
    mismatch = weights.copy()
    np.fill_diagonal(mismatch, 0.0)
    high = _closed_walks(q, norms, norms, n_sites, np.maximum, 0.0)
    with np.errstate(invalid="ignore"):  # inf * 0 = nan, which np.fmin passes over
        low = _closed_walks(q, norms, norms, n_sites, np.fmin, np.inf)
    off = _closed_walks(q, mismatch, weights, n_sites, np.maximum, 0.0)
    return max(high - 1.0, 1.0 - low, off)


def exact_defect_kernel(q: int, k: int, n_sites: int) -> Callable[[RuleTable, int], float] | None:
    """The exact ring-defect kernel of least estimated cost that takes an
    N-site ring of a (q, k) rule, or None when both refuse: ``walk_defect``
    costs ``walk_cost``, up to MAX_WALK_COST, and ``ring_defect`` q^(2N)
    Gram entries, up to q^N = MAX_DENSE_DIM."""
    kernels = []
    if (cost := walk_cost(q, k, n_sites)) <= MAX_WALK_COST:
        kernels.append((cost, walk_defect))
    if q ** min(n_sites, MAX_DENSE_DIM.bit_length()) <= MAX_DENSE_DIM:
        kernels.append((q ** (2 * n_sites), ring_defect))
    return min(kernels, key=lambda kernel: kernel[0])[1] if kernels else None


def _block_kernels(rule: RuleTable, cells: tuple[int, ...],
                   length: int) -> tuple[list[int], np.ndarray]:
    """Kernels of the step over sites x..x+length-1, whose window cells
    x..x+length+k-2 are given as a border cell, fixed, or -1, free: the
    distinct border cells, and one kernel per assignment of them, in index
    order, laid out [border values, cells x+length.., cells ..x+length-1, outputs]."""
    q, k = rule.q, rule.k
    border = sorted(set(cells) - {-1})
    digits = config_digits(q, len(border) + cells.count(-1))  # border cells, then free cells
    free = iter(digits[len(border):])
    inputs = np.array([next(free) if y < 0 else digits[border.index(y)] for y in cells])
    block = window_product(rule.amplitudes, window_indices(inputs, q, k))
    block = block.reshape(q**length, q ** len(border), -1, q ** cells[length:].count(-1))
    return border, np.ascontiguousarray(block.transpose(1, 3, 2, 0))


def _global_map(rule: RuleTable, n_sites: int) -> tuple[Callable, Callable]:
    """The maps state -> F @ state and state -> F^dagger @ state on the N-site ring.

    The ring size is validated, the kernel chains built and two scratch
    vectors of q^N amplitudes allocated once, when the maps are made; each
    map checks every state it is given and returns ``out`` (``_checked_out``) or a fresh array.
    Cells 0..k-2, which the last windows read around the wrap (every cell
    when n < k), are fixed to one value at a time, each with its chain of
    kernels, and are no axes of the state.  A step contracts the block of
    sites x..x+L-1, L being the largest with q^L <= _BLOCK_DIM (the last
    block is shorter): it multiplies the state, read as [a, mid, rest], by
    kernel[mid, a, b], the product of the block's amplitudes over the free
    cells of its L+k-1 window cells, into [mid, rest, b]: a is inputs
    x..x+L-1, mid the next k-1 inputs, b the outputs x..x+L-1, and the state
    runs [inputs x.., outputs ..x-1].  F^dagger runs the same steps in
    reverse order, each the adjoint of its forward step: it reads the state
    as [mid, rest, b], multiplies it by conj(kernel) transposed to
    [mid, b, a], and writes [a, mid, rest].  A step writes into the scratch
    vector the step before did not, the last step of a chain into its
    result.  A step has one kernel per value of the fixed cells it reads,
    all built in one product; blocks clear of those cells share one kernel.
    F skips a chain whose input row is zero when every kernel is finite:
    the first chain that runs writes the result, the later ones add to it
    through the scratch vector, and the result is zeroed when none runs.
    """
    q, k, n = rule.q, rule.k, n_sites
    dim = state_dim(q, n)
    b = min(k - 1, n)
    size = 1
    while q ** (size + 1) <= _BLOCK_DIM:
        size += 1
    kernels, steps = {}, []
    for x in range(0, n, size):
        length = min(size, n - x)
        cells = tuple(y if y < b else -1 for y in ((x + j) % n for j in range(length + k - 1)))
        if cells not in kernels:
            border, kernel = _block_kernels(rule, cells, length)
            kernels[cells] = border, kernel, kernel.conj().transpose(0, 1, 3, 2)
        steps.append(kernels[cells])
    picks = [[config_index([values[y] for y in border], q) for border, _, _ in steps]
             for values in all_configs(q, b)]
    forward_chains = [[kernel[i] for (_, kernel, _), i in zip(steps, pick)] for pick in picks]
    adjoint_chains = [[adj[i] for (_, _, adj), i in zip(steps, pick)][::-1] for pick in picks]
    # finite kernels map a zero row to +-0, which adds nothing; 0 * inf would be nan
    infinite = not all(np.isfinite(kernel).all() for _, kernel, _ in kernels.values())
    scratch = np.empty((2, dim), dtype=complex)

    def run(chain, c, result, adjoint):
        for j, kernel in enumerate(chain):
            mid, a, out = kernel.shape
            legs = c.reshape(mid, -1, a) if adjoint else c.reshape(a, mid, -1).transpose(1, 2, 0)
            c = result if j == len(chain) - 1 else scratch[j % 2, :legs.size // a * out]
            np.matmul(legs, kernel, out=c.reshape(out, mid, -1).transpose(1, 2, 0) if adjoint
                      else c.reshape(mid, -1, out))

    def forward(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        vec = _checked_state(state, q, n)
        rows = vec.reshape(q**b, -1)
        out, last = _checked_out(out, dim, vec, scratch), scratch[(len(steps) - 1) % 2]
        first = True  # no chain has written out yet
        for row, chain, live in zip(rows, forward_chains, (rows.any(axis=1) | infinite).tolist()):
            if not live:
                continue
            run(chain, row, out if first else last, False)
            if not first:
                out += last
            first = False
        if first:
            out[...] = 0.0
        return out

    def adjoint(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        vec = _checked_state(state, q, n)
        out = _checked_out(out, dim, vec, scratch)
        for p, chain in enumerate(adjoint_chains):
            run(chain, vec, out.reshape(q**b, -1)[p], True)
        return out

    return forward, adjoint


def apply_global(
    rule: RuleTable,
    n_sites: int,
    state: np.ndarray,
    adjoint: bool = False,
) -> np.ndarray:
    """Apply the evolution (or its adjoint) without building the matrix,
    building the block kernels of the matrix-free step for this call."""
    return _global_map(rule, n_sites)[bool(adjoint)](state)


def evolution_step(rule: RuleTable, n_sites: int) -> Callable[..., np.ndarray]:
    """One step of ``apply_global`` with its kernels built once; ``out`` as in ``_global_map``."""
    return _global_map(rule, n_sites)[0]


def evolve(
    rule: RuleTable,
    n_sites: int,
    state: np.ndarray,
    steps: int,
) -> np.ndarray:
    """Apply the evolution ``steps`` times to a state, in two vectors of its own."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    state, spare = _checked_state(state, rule.q, n_sites), None
    step = evolution_step(rule, n_sites)
    for t in range(steps):
        state, spare = step(state, out=spare), state if t else None  # not the caller's
    return state


def defect_estimate(
    rule: RuleTable,
    n_sites: int,
    samples: int = 8,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate the unitarity defect as max |F^dag F v - v| over random unit vectors."""
    if samples < 1:
        raise ValueError(f"need at least one sample vector, got {samples}")
    rng = rng if rng is not None else np.random.default_rng(0)
    forward, backward = _global_map(rule, n_sites)
    worst = 0.0
    for _ in range(samples):
        v = random_state(rule.q, n_sites, rng)
        worst = max(worst, float(np.max(np.abs(backward(forward(v)) - v))))
    return worst


def probabilities(state: np.ndarray, tolerance: float = 1e-9) -> np.ndarray:
    """Measurement distribution |amplitude|^2 of a normalized state."""
    probs = np.abs(np.asarray(state)) ** 2
    norm_sq = float(np.sum(probs))
    if abs(norm_sq - 1.0) > tolerance:
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
    return probs


def is_permutation_matrix(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    matrix = np.asarray(matrix)
    ones = np.abs(matrix - 1.0) <= tol
    zeros = np.abs(matrix) <= tol
    if not np.all(ones | zeros):
        return False
    return bool(np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1))
