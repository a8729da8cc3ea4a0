import itertools
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from qca1d import (
    RuleTable,
    basis_state,
    check_periodic,
    defect_estimate,
    evolve,
    global_matrix,
    index_config,
    is_permutation_matrix,
    make_family,
    patt_rule,
    probabilities,
    random_params,
    unitarity_defect,
)
import qca1d.oracle as oracle
from qca1d.graphs import MAX_DENSE_DIM, MAX_WALK_COST, CapExceeded, pair_graph, rule_graph
from qca1d.oracle import (apply_global, evolution_step, exact_defect_kernel, random_state, ring_defect,
                          shift_orbit_representatives, walk_cost, walk_defect)
from qca1d.rules import all_configs, config_digits, config_index

from conftest import (deterministic_shift, haar_unitary, quantized_shift, unitary_grid,
                      with_noise)
from references import walk_defects


def kron_columns(rule, n, cols):
    """Columns of the ring evolution matrix, one Kronecker product per input config."""
    columns = []
    for col in cols:
        cfg = index_config(int(col), rule.q, n)
        windows = [config_index([cfg[(x + e) % n] for e in range(rule.k)], rule.q) for x in range(n)]
        columns.append(reduce(np.kron, (rule.amplitudes[w] for w in windows)))
    return np.stack(columns, axis=1)


def random_rule(q, k, rng):
    amps = rng.normal(size=(q**k, q)) + 1j * rng.normal(size=(q**k, q))
    return RuleTable(q, k, amps / np.linalg.norm(amps, axis=1, keepdims=True))


def test_identity_map_global_matrix(ident):
    # delta(i, i2) shifts left; its parity twin delta(i, i1) is the identity map
    from qca1d.rules import parity_transform

    copy_first = parity_transform(ident)
    np.testing.assert_array_equal(global_matrix(copy_first, 2), np.eye(4))
    swap = np.eye(4)[:, [0, 2, 1, 3]]
    np.testing.assert_array_equal(global_matrix(ident, 2), swap)


def test_deterministic_columns(ident):
    patt = patt_rule()
    f = global_matrix(patt, 5)
    ones = np.abs(f - 1) <= 1e-12
    zeros = np.abs(f) <= 1e-12
    assert np.all(ones.sum(axis=0) == 1)
    assert np.all((ones | zeros).all(axis=0))
    assert is_permutation_matrix(f)


def test_f21_defect_tiny(f21):
    assert unitarity_defect(global_matrix(f21, 3)) <= 1e-12


def test_scaled_identity_defect(ident):
    amps = ident.amplitudes.copy()
    amps[0] = [0.5, 0.0]
    rule = RuleTable(2, 2, amps)
    f = global_matrix(rule, 2)
    gram = f.conj().T @ f
    assert gram[0, 0] == pytest.approx(0.0625)
    assert unitarity_defect(f) >= 0.5


def test_f21_00_periodic_defect_matches_mismatch_cycle(f21_00):
    # the all-0 / all-1 off-diagonal entry is w_{03}^N, so the two-frame
    # infinite family genuinely fails on rings
    defect = unitarity_defect(global_matrix(f21_00, 4))
    w03 = abs(np.vdot(f21_00.vector("00"), f21_00.vector("11")))
    assert defect == pytest.approx(w03**4)
    assert defect == pytest.approx(np.sin(np.pi / 3) ** 4)


def test_evolve_identity_map(ident):
    from qca1d.rules import parity_transform

    rng = np.random.default_rng(0)
    state = random_state(2, 4, rng)
    np.testing.assert_allclose(evolve(parity_transform(ident), 4, state, 5), state, atol=1e-12)


def test_deterministic_shift():
    rule = make_family("f21", {})  # copies the right neighbor: a left shift
    n = 5
    cfg = (0, 1, 1, 0, 1)
    out = evolve(rule, n, basis_state(2, n, cfg), 1)
    shifted = cfg[1:] + cfg[:1]
    expect = basis_state(2, n, shifted)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_evolve_preserves_norm(f21):
    rng = np.random.default_rng(1)
    state = random_state(2, 6, rng)
    out = evolve(f21, 6, state, 10)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_translation_covariance(f21):
    n = 4
    f = global_matrix(f21, n)
    shift = np.zeros((16, 16))
    for s in range(16):
        cfg = index_config(s, 2, n)
        shift[config_index(cfg[1:] + cfg[:1], 2), s] = 1
    assert np.max(np.abs(shift @ f - f @ shift)) <= 1e-12


@pytest.mark.parametrize("family,params,k", [
    ("f21", {"theta": 0.5, "rho": 1.2}, 2),
    ("f31", {"r1": 1.1, "r2": 0.8, "r6": 1.3, "theta": 0.9}, 3),
    ("patt", {}, 4),
])
def test_matrix_free_matches_dense(family, params, k):
    rule = make_family(family, params)
    rng = np.random.default_rng(2)
    for n in (k, k + 1, 6):
        state = random_state(2, n, rng)
        f = global_matrix(rule, n)
        np.testing.assert_allclose(apply_global(rule, n, state), f @ state, atol=1e-12)
        np.testing.assert_allclose(
            apply_global(rule, n, state, adjoint=True), f.conj().T @ state, atol=1e-12)


@pytest.mark.parametrize("q", (3, 4, 5))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_matrix_free_matches_dense_larger_alphabets(q, k):
    # all columns while q^N <= 1024, a sample of 16 past that; q = 5 steps
    # over blocks of one site
    rng = np.random.default_rng(10 * q + k)
    rule = random_rule(q, k, rng)
    for n in range(1, 8):
        dim = q**n
        cols = np.arange(dim) if dim <= 1024 else rng.choice(dim, 16, replace=False)
        f = kron_columns(rule, n, cols)
        coeffs = rng.normal(size=len(cols)) + 1j * rng.normal(size=len(cols))
        state = np.zeros(dim, dtype=complex)
        state[cols] = coeffs
        np.testing.assert_allclose(apply_global(rule, n, state), f @ coeffs, atol=1e-12)
        state = random_state(q, n, rng)
        np.testing.assert_allclose(
            apply_global(rule, n, state, adjoint=True)[cols], f.conj().T @ state, atol=1e-12)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_matrix_free_block_remainders_match_dense(k):
    # q = 2 steps over blocks of 4 sites: n = 1..12 meets every n mod 4, with
    # and without a block clear of the border
    rng = np.random.default_rng(20 + k)
    rule = random_rule(2, k, rng)
    for n in range(1, 13):
        state = random_state(2, n, rng)
        f = global_matrix(rule, n)
        np.testing.assert_allclose(apply_global(rule, n, state), f @ state, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            apply_global(rule, n, state, adjoint=True), f.conj().T @ state, rtol=0, atol=1e-12)


def test_matrix_free_deterministic_shift_is_exact_past_the_dense_cap():
    # f(i | a) = delta(i, a_3) at (2, 3) moves every cell two sites left
    shift = RuleTable(2, 3, np.eye(2)[config_digits(2, 3)[-1]])
    rng = np.random.default_rng(12)
    for n in range(13, 17):
        for index in rng.choice(2**n, 4, replace=False):
            cfg = index_config(int(index), 2, n)
            moved = basis_state(2, n, cfg[2:] + cfg[:2])
            assert np.array_equal(apply_global(shift, n, basis_state(2, n, cfg)), moved)
            assert np.array_equal(apply_global(shift, n, moved, adjoint=True), basis_state(2, n, cfg))


def test_matrix_free_adjoint_is_the_adjoint_past_the_dense_cap():
    rule = make_family("f31", {"r1": 1.1, "r2": 0.8, "r6": 1.3, "theta": 0.9})
    rng = np.random.default_rng(13)
    v, w = random_state(2, 14, rng), random_state(2, 14, rng)
    lhs = np.vdot(apply_global(rule, 14, v), w)
    assert abs(lhs - np.vdot(v, apply_global(rule, 14, w, adjoint=True))) <= 1e-12


def fresh_allocation_maps(rule, n):
    """F and F^dagger stepped over the block kernels of ``oracle._block_kernels``
    with a fresh array for every step's result, one kernel chain per value of
    the wrap cells: the reference of the buffered maps."""
    q, k, b, size = rule.q, rule.k, min(rule.k - 1, n), 1
    while q ** (size + 1) <= oracle._BLOCK_DIM:
        size += 1
    steps = [oracle._block_kernels(rule, tuple(y if y < b else -1 for y in (
        (x + j) % n for j in range(min(size, n - x) + k - 1))), min(size, n - x))
        for x in range(0, n, size)]
    chains = [[kernel[config_index([values[y] for y in border], q)] for border, kernel in steps]
              for values in all_configs(q, b)]

    def forward(state):
        out = np.zeros(q**n, dtype=complex)
        for c, chain in zip(state.reshape(q**b, -1), chains):
            for kernel in chain:
                c = c.reshape(kernel.shape[1], kernel.shape[0], -1).transpose(1, 2, 0) @ kernel
            out += c.reshape(-1)
        return out

    def adjoint(state):
        rows = []
        for chain in chains:
            c = state
            for kernel in reversed(chain):
                mid, a, out = kernel.shape
                legs = c.reshape(mid, -1, out)
                c = np.empty((a, mid, legs.shape[1]), dtype=complex)
                np.matmul(legs, kernel.conj().transpose(0, 2, 1), out=c.transpose(1, 2, 0))
            rows.append(c.reshape(-1))
        return np.concatenate(rows)

    return forward, adjoint


@pytest.mark.parametrize("q, k, max_n", [(2, 1, 16), (2, 2, 16), (2, 3, 16), (2, 4, 16),
                                         (3, 2, 9)])
def test_buffered_maps_equal_fresh_allocation_steps_bitwise(q, k, max_n):
    # n < k and every short last block (blocks of 4 sites at q = 2, 2 at q = 3)
    rng = np.random.default_rng(30 + 10 * q + k)
    rule = random_rule(q, k, rng)
    for n in range(1, max_n + 1):
        maps, reference = oracle._global_map(rule, n), fresh_allocation_maps(rule, n)
        v, w = random_state(q, n, rng), random_state(q, n, rng)
        for side, expected in enumerate(reference):
            first = maps[side](v)
            kept = first.copy()
            second = maps[side](w)
            assert np.array_equal(first, expected(v)), (n, side)
            assert np.array_equal(second, expected(w)), (n, side)
            # the scratch vectors never reach a result: a later call leaves
            # the earlier result as it was, and a fresh map gives the same
            assert np.array_equal(first, kept) and not np.shares_memory(first, second)
            assert np.array_equal(first, oracle._global_map(rule, n)[side](v))


def test_buffered_maps_allocate_only_their_result(f21):
    # one f21 step on 14 sites: the result and small objects, no state-size
    # temporary (the fresh-allocation steps peak at about 3 x nbytes)
    forward, adjoint = oracle._global_map(f21, 14)
    state = random_state(2, 14, np.random.default_rng(15))
    for apply in (forward, adjoint):
        tracemalloc.start()
        try:
            apply(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * state.nbytes, apply.__name__


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (3, 2)])
def test_maps_write_into_a_caller_owned_out(q, k):
    rng = np.random.default_rng(50 + 10 * q + k)
    rule = random_rule(q, k, rng)
    for n in range(1, 6):  # n < k included
        dim = q**n
        for apply in (*oracle._global_map(rule, n), evolution_step(rule, n)):
            v, w = random_state(q, n, rng), random_state(q, n, rng)
            first, out = apply(v), np.empty(dim, dtype=complex)
            kept = first.copy()
            assert apply(w, out=out) is out and np.array_equal(out, apply(w)), n
            assert apply(v, out=out) is out and np.array_equal(out, first), n
            assert np.array_equal(first, kept)  # an earlier result is left as it was
            for bad in (v, v[:], v.view(), np.empty(dim + 1, dtype=complex),
                        np.empty((1, dim), dtype=complex), np.empty(dim),
                        np.empty(dim, dtype=np.complex64),
                        np.empty(2 * dim, dtype=complex)[::2], [0j] * dim):
                with pytest.raises(ValueError, match="out must be"):
                    apply(v, out=bad)
        # evolve steps in two vectors of its own and leaves the caller's state
        v = random_state(q, n, rng)
        kept, expected = v.copy(), v
        for _ in range(3):
            expected = apply_global(rule, n, expected)
        assert np.array_equal(evolve(rule, n, v, 3), expected) and np.array_equal(v, kept)


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (3, 2)])
def test_forward_map_skips_the_chains_of_zero_wrap_rows(q, k):
    # basis states, and states zero on every value of the wrap cells 0..k-2
    # but one, which run one chain of the forward map; the adjoint runs them all
    rng = np.random.default_rng(70 + 10 * q + k)
    sparse = random_rule(q, k, rng).amplitudes * (rng.random((q**k, q)) < 0.6)
    for rule in (random_rule(q, k, rng), RuleTable(q, k, sparse), deterministic_shift(q, k)):
        for n in range(1, 7):
            dim, b = q**n, min(k - 1, n)
            matrix, step = global_matrix(rule, n), evolution_step(rule, n)
            (_, adjoint), reference = oracle._global_map(rule, n), fresh_allocation_maps(rule, n)
            states = list(np.eye(dim, dtype=complex)[rng.choice(dim, min(dim, 6), replace=False)])
            rows = random_state(q, n, rng).reshape(q**b, -1)
            for p in range(q**b):
                states.append(np.zeros_like(rows))
                states[-1][p] = rows[p]
            for state in states:
                state = state.ravel()
                for apply, dense, expected in ((step, matrix, reference[0]),
                                               (adjoint, matrix.conj().T, reference[1])):
                    got = apply(state)
                    assert np.allclose(got, dense @ state, rtol=0, atol=1e-12), n
                    assert np.array_equal(got == 0, dense @ state == 0), n
                    assert np.array_equal(got, expected(state)), n  # equal up to the sign of 0
            out = np.full(dim, np.nan, dtype=complex)  # no chain runs: out is still written
            assert step(np.zeros(dim), out=out) is out and not out.any()


def test_chains_whose_kernels_overflow_run_on_zero_rows():
    # f(.|1x) near 1e90: a block of four sites reading 1 from cell 0 on has
    # an inf kernel, and 0 * inf is nan on the zero row of cell 0 = 1; the
    # chain of cell 0 = 0 multiplies at most three such factors and stays finite
    rng = np.random.default_rng(71)
    amps = random_rule(2, 2, rng).amplitudes.copy()
    amps[2:] *= 1e90
    rule = RuleTable(2, 2, amps)
    for n in (4, 5, 6):
        half = 2 ** (n - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            step, (expected, _) = evolution_step(rule, n), fresh_allocation_maps(rule, n)
            for row in (0, 1):  # cell 0 = 0 or 1 on, the other row zero
                state = np.zeros(2**n, dtype=complex)
                state[row * half:(row + 1) * half] = rng.normal(size=half) + 1j
                got, want = step(state), expected(state)
                assert np.array_equal(np.isnan(got), np.isnan(want)), (n, row)
                assert row or np.isnan(want).any()  # the zero row of cell 0 = 1 gives nan


@pytest.mark.parametrize("rule", [
    make_family("f21", {"theta": 0.5, "rho": 1.2}),
    make_family("f31", {"r1": 1.1, "r2": 0.8, "r6": 1.3, "theta": 0.9}),
    patt_rule(),
    random_rule(3, 1, np.random.default_rng(7)),
    random_rule(3, 2, np.random.default_rng(8)),
], ids=["f21", "f31", "patt", "q3k1", "q3k2"])
def test_global_matrix_equals_kron_loop(rule):
    for n in range(1, 8):
        f = global_matrix(rule, n)
        assert np.array_equal(f, kron_columns(rule, n, range(rule.q**n)))
        assert f.flags.c_contiguous  # products with it round as before


def test_deterministic_columns_are_exact_basis_vectors():
    patt = patt_rule()
    for n in range(1, 8):
        f = global_matrix(patt, n)
        assert np.all((f == 0) | (f == 1))
        assert np.all((f == 1).sum(axis=0) == 1)


def test_evolution_step_builds_its_kernels_once_and_equals_apply_global(monkeypatch):
    import qca1d.oracle as oracle

    builds = []
    original = oracle._block_kernels
    monkeypatch.setattr(oracle, "_block_kernels",
                        lambda *a, **kw: builds.append(a[1]) or original(*a, **kw))
    for q, seed in ((2, 14), (3, 16)):
        rule = random_rule(q, 3, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for n in range(1, 17):
            if q**n > 2**16:
                break
            before = len(builds)
            step = evolution_step(rule, n)
            built = len(builds) - before
            state = expected = random_state(q, n, rng)
            for _ in range(3):
                state = step(state)
                expected = apply_global(rule, n, expected)
                assert np.array_equal(state, expected), (q, n)
            # apply_global builds the kernels on every call, the step never again
            assert built > 0 and len(builds) - before == 4 * built
        # the estimate builds the one kernel set of F and F^dagger once, for
        # any sample count: as many kernels as one step
        before = len(builds)
        evolution_step(rule, 5)
        step_builds = len(builds) - before
        for samples in (1, 4):
            before = len(builds)
            defect_estimate(rule, 5, samples=samples)
            assert len(builds) - before == step_builds > 0


def test_matrix_free_wrap_case():
    rule = make_family("f31", {"r1": 1.1, "r2": 0.8, "r6": 1.3})
    rng = np.random.default_rng(3)
    state = random_state(2, 2, rng)
    f = global_matrix(rule, 2)
    np.testing.assert_allclose(apply_global(rule, 2, state), f @ state, atol=1e-12)


def test_evolve_matrix_free_path():
    # evolve never builds F; repeated products with the dense reference agree
    for q, seed in ((2, 40), (3, 41)):
        rule = random_rule(q, 3, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for n in range(1, 13):
            if q**n > MAX_DENSE_DIM:
                break
            f = global_matrix(rule, n)
            state = expected = random_state(q, n, rng)
            for _ in range(3):
                expected = f @ expected
            del f  # one dense reference alive at a time: 256 MiB at q^N = 4096
            np.testing.assert_allclose(evolve(rule, n, state, 3), expected,
                                       rtol=0, atol=1e-13, err_msg=f"q={q} n={n}")


def test_defect_estimate(f21, f21_00):
    rng = np.random.default_rng(5)
    assert defect_estimate(f21, 13, samples=2, rng=rng) <= 1e-10
    assert defect_estimate(f21_00, 13, samples=4, rng=rng) > 1e-4


def test_probabilities(ident):
    probs = probabilities(basis_state(2, 3, "010"))
    assert probs[config_index((0, 1, 0), 2)] == 1.0 and probs.sum() == 1.0
    superposition = np.zeros(8, dtype=complex)
    superposition[:4] = 0.5
    np.testing.assert_allclose(probabilities(superposition)[:4], 0.25)
    with pytest.raises(ValueError, match="not normalized"):
        probabilities(superposition * 1.1)


def test_probabilities_after_evolution(f21):
    rng = np.random.default_rng(6)
    out = evolve(f21, 8, random_state(2, 8, rng), 10)
    assert probabilities(out).sum() == pytest.approx(1.0, abs=1e-9)


def test_dimension_cap():
    # the dense reference is refused past one fixed cap, at any q
    f21 = make_family("f21", {})
    for rule, refused in ((f21, 13), (random_rule(3, 2, np.random.default_rng(0)), 8)):
        assert rule.q ** (refused - 1) <= MAX_DENSE_DIM < rule.q**refused
        message = f"dense matrix dimension {rule.q**refused}, over the cap of {MAX_DENSE_DIM}"
        with pytest.raises(CapExceeded, match=message):
            global_matrix(rule, refused)
    with pytest.raises(CapExceeded):
        ring_defect(f21, 13)


def test_site_count_validation(f21):
    with pytest.raises(ValueError):
        global_matrix(f21, 0)


def test_state_and_count_validation(f21):
    with pytest.raises(ValueError, match=r"^state has shape \(4,\), expected \(8,\)$"):
        apply_global(f21, 3, np.ones(4))
    with pytest.raises(ValueError, match="^steps must be nonnegative, got -1$"):
        evolve(f21, 3, basis_state(2, 3, "010"), -1)
    with pytest.raises(ValueError, match="^need at least one sample vector, got 0$"):
        defect_estimate(f21, 3, samples=0)
    assert not is_permutation_matrix(np.full((2, 2), 0.5))


def permutation_rule(q, k, rng):
    """f(i | a) = delta(i, pi(a_j)) for a random cell j and alphabet permutation pi:
    a site-wise permutation after a shift, so F is a permutation matrix."""
    j, pi = rng.integers(k), rng.permutation(q)
    amps = np.zeros((q**k, q))
    for cfg in all_configs(q, k):
        amps[config_index(cfg, q), pi[cfg[j]]] = 1.0
    return RuleTable(q, k, amps)


def ring_rules(q, k, seed):
    """(rule, exact) pairs: unitary rules, the same with 1e-3 noise, and a
    deterministic permutation rule, whose defects are exactly 0."""
    rng = np.random.default_rng(seed)
    unitary = [quantized_shift(q, k, seed)]
    if q == 2 and k > 1:
        name = "f21" if k == 2 else "f31"
        unitary.append(make_family(name, random_params(name, rng)))
    noisy = [with_noise(rule, 1e-3, seed) for rule in unitary]
    return [(rule, False) for rule in unitary + noisy] + [(permutation_rule(q, k, rng), True)]


def assert_walk_defect_matches(rule, n, reference, exact):
    """walk_defect against a reference defect, or its refusal past its cap."""
    if walk_cost(rule.q, rule.k, n) > MAX_WALK_COST:
        with pytest.raises(CapExceeded):
            walk_defect(rule, n)
        return
    walk = walk_defect(rule, n)
    if exact:
        assert walk == reference == 0.0
    assert abs(walk - reference) <= 1e-13 + 1e-12 * reference


def assert_orbit_defect_matches(rule, n, exact):
    """ring_defect and walk_defect against the full Gram of the dense matrix."""
    orbit = ring_defect(rule, n)
    full = unitarity_defect(global_matrix(rule, n))
    if exact:
        assert full == orbit == 0.0
    assert abs(orbit - full) <= 1e-13 + 1e-12 * full
    assert_walk_defect_matches(rule, n, full, exact)


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_orbit_defect_matches_full_gram(q, k):
    # every rule on rings of at most 512 configurations, n < k included
    for rule, exact in ring_rules(q, k, 100 * q + k):
        for n in range(1, 10):
            if q**n > 512:
                break
            assert_orbit_defect_matches(rule, n, exact)


@pytest.mark.parametrize("q,n", ((2, 10), (2, 11), (2, 12), (3, 6), (3, 7), (4, 5)))
def test_orbit_defect_matches_full_gram_up_to_dense_cap(q, n):
    # (4, 6) is left out for test time; (2, 12) has its size, 4096
    assert 512 < q**n <= MAX_DENSE_DIM
    rule = with_noise(quantized_shift(q, 2, n), 1e-3, n)
    assert_orbit_defect_matches(rule, n, exact=False)


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_walk_defect_matches_orbit_rows_up_to_their_cap(q, k):
    # the rings past those the dense test above covers, up to 4096 configurations
    for rule, exact in ring_rules(q, k, 100 * q + k):
        for n in range(1, 13):
            if q**n > MAX_DENSE_DIM:
                break
            if q**n > 512:
                fits = walk_cost(q, k, n) <= MAX_WALK_COST
                assert_walk_defect_matches(rule, n, ring_defect(rule, n) if fits else None, exact)


def test_walk_defect_of_a_deterministic_shift_is_zero_past_the_orbit_rows_cap():
    # f(i | a) = delta(i, a_3) at (2, 3) permutes every ring
    shift = RuleTable(2, 3, np.eye(2)[config_digits(2, 3)[-1]])
    for n in range(13, 21):
        assert exact_defect_kernel(2, 3, n) is walk_defect
        assert walk_defect(shift, n) == 0.0


def test_walk_defect_reads_the_largest_entry_past_the_orbit_rows_cap(f21_00):
    # the all-0 / all-1 entry of the two-frame family is w_{03}^N, its
    # largest off-diagonal entry, as at N = 4 in the dense test above
    w03 = abs(np.vdot(f21_00.vector("00"), f21_00.vector("11")))
    for n in (4, 13, 16):
        assert walk_defect(f21_00, n) == pytest.approx(w03**n, rel=1e-12)


def test_walk_defect_is_the_same_in_blocks_of_one_start_vertex(monkeypatch):
    import qca1d.oracle as oracle

    rule = with_noise(make_family("f31", {"r1": 1.1, "r2": 0.8, "r6": 1.3}), 1e-3, 16)
    whole = [walk_defect(rule, n) for n in (1, 2, 5, 14)]
    monkeypatch.setattr(oracle, "MAX_PAIR_ENTRIES", 64)  # the 64 pair edges of (2, 3)
    assert [walk_defect(rule, n) for n in (1, 2, 5, 14)] == whole


def closed_walks(q, k, n):
    """The edge configs of every closed walk of n edges in the norm graph:
    a start vertex, then n appended digits, ending on the start vertex."""
    walks = []
    for start in itertools.product(range(q), repeat=k - 1):
        for digits in itertools.product(range(q), repeat=n):
            cells = start + digits
            if cells[n:] == start:
                walks.append([config_index(cells[j:j + k], q) for j in range(n)])
    return walks


def extreme_rules(q, k):
    """A noisy quantized shift, the same with a zero row, a permutation rule,
    and the noisy shift scaled by 1e100 (its walks overflow to inf) and by
    1e-200 (its weights underflow to 0)."""
    noisy = with_noise(quantized_shift(q, k, 10 * q + k), 1e-3, q + k)
    dead = noisy.amplitudes.copy()
    dead[1] = 0.0
    return (noisy, RuleTable(q, k, dead), permutation_rule(q, k, np.random.default_rng(q + k)),
            RuleTable(q, k, noisy.amplitudes * 1e100), RuleTable(q, k, noisy.amplitudes * 1e-200))


@pytest.mark.parametrize("q,k,largest", ((2, 1, 5), (2, 2, 5), (2, 3, 5), (3, 2, 4)))
def test_walk_defect_is_the_extreme_closed_walk_products_bit_for_bit(q, k, largest):
    # every walk weight is a left-to-right product of |<a|b>| as Python
    # floats, and every extreme runs over every closed walk; the only warning
    # is the overflow of the scaled rule's products
    for rule in extreme_rules(q, k):
        weights = np.abs(rule.amplitudes.conj() @ rule.amplitudes.T)
        mismatch = weights.copy()
        np.fill_diagonal(mismatch, 0.0)
        w, m = weights.tolist(), mismatch.tolist()

        def product(first, y, x):
            value = first[y[0]][x[0]]
            for a, b in zip(y[1:], x[1:]):
                value *= w[a][b]
            return value

        for n in range(1, largest + 1):
            walks = closed_walks(q, k, n)
            assert len(walks) == q**n  # the ring configurations
            norms = [product(w, x, x) for x in walks]
            off = max(product(m, y, x) for y in walks for x in walks)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                defect = walk_defect(rule, n)
            assert repr(defect) == repr(max(max(norms) - 1.0, 1.0 - min(norms), off))
            assert {str(c.message) for c in caught} <= {"overflow encountered in multiply"}


@pytest.mark.parametrize("q,k", ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)))
def test_one_walk_reads_walk_defect_at_every_ring_size_bit_for_bit(q, k):
    n = q ** (k - 1)
    r = n * n + n + 1  # the ring contract's sizes
    for rule in extreme_rules(q, k) + tuple(rule for rule, _ in ring_rules(q, k, q * k)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow pinned above
            defects = walk_defects(rule, r)
            assert len(defects) == r
            for size in {1, 2, min(5, r), r}:  # (2, 1) has r = 3
                assert repr(defects[size - 1]) == repr(walk_defect(rule, size)), size


def trace_defects(rule, r):
    """d_N / q^N for N = 1..r, d_N = tr(M^N) - 2 tr(T^N) + q^N the Frobenius
    defect |F^dagger F - I|_F^2 of the N-site ring: M and T are the transfer
    matrices of the pair graph weighted by |<a|b>|^2 and of the norm graph
    weighted by |a|^2, whose closed walks of N edges are the ring's config
    pairs and configs.  Powers of M/q and T/q, not eigenvalues: on the
    unitary variety M/q has a nilpotent part, whose eigenvalues are
    ill-conditioned."""
    norm, pair = rule_graph(rule), pair_graph(rule)
    t = np.zeros((norm.n_vertices,) * 2)
    np.add.at(t, (norm.src, norm.dst), norm.weight.real / rule.q)
    m = np.zeros((pair.n_vertices,) * 2)
    np.add.at(m, (pair.src, pair.dst), np.abs(pair.weight) ** 2 / rule.q)
    defects, tn, mn = [], np.eye(len(t)), np.eye(len(m))
    for _ in range(r):
        tn, mn = tn @ t, mn @ m
        defects.append(np.trace(mn) - 2 * np.trace(tn) + 1.0)
    return np.array(defects)


def test_trace_defect_vanishes_on_every_size_up_to_its_recurrence_order():
    # d_N satisfies a linear recurrence of order r = n^2 + n + 1 (M, T and
    # the scalar q), so d_N = 0 for N = 1..r is d_N = 0 at every ring size
    for seed in (0, 1):
        for label, rule, infinite in unitary_grid(seed):
            if infinite:
                continue
            n = rule.q ** (rule.k - 1)
            assert n <= 9, label
            defects = trace_defects(rule, n * n + n + 1)
            assert np.max(np.abs(defects)) <= 1e-12, label


def dense_frobenius_defect(rule, n):
    """|F^dagger F - I|_F^2 from the dense matrix: the Gram rows of one config
    per shift orbit, each counted once per config of its orbit, as the rows
    of an orbit are permutations of each other."""
    q, dim = rule.q, rule.q**n
    f = global_matrix(rule, n)
    reps = shift_orbit_representatives(dim, n)
    gram = f[:, reps].conj().T @ f
    gram[np.arange(len(reps)), reps] -= 1.0
    rotated, period = reps, np.zeros(len(reps), dtype=int)
    for p in range(1, n + 1):
        rotated = rotated % (dim // q) * q + rotated // (dim // q)
        period[(period == 0) & (rotated == reps)] = p
    return float(period @ np.sum(np.abs(gram) ** 2, axis=1))


@pytest.mark.parametrize("q,k", ((2, 1), (2, 2), (2, 3), (3, 2), (4, 2)))
def test_trace_defect_is_the_frobenius_defect_of_the_dense_matrix(q, k):
    # every ring the dense matrix takes, on a noisy rule; the unitary ones
    # read 0 in the test above.  d_N / q^N is a difference of traces near 1,
    # so it rounds in absolute terms: 3.4e-15 at most here, against defects
    # of 1e-6 and more
    rule = with_noise(quantized_shift(q, k, q * k), 1e-3, q * k)
    sizes = [n for n in range(1, 13) if q**n <= MAX_DENSE_DIM]
    for n, defect in zip(sizes, trace_defects(rule, sizes[-1])):
        dense = dense_frobenius_defect(rule, n) / q**n
        assert dense > 1e-7 and abs(defect - dense) <= 1e-13, (n, defect, dense)


def test_exact_kernel_is_the_cheaper_one_that_takes_the_ring():
    assert exact_defect_kernel(2, 2, 12) is walk_defect
    assert exact_defect_kernel(2, 4, 8) is ring_defect  # 2^16 Gram entries against 2^18
    assert exact_defect_kernel(4, 4, 6) is ring_defect  # the walk refuses (4, 4)
    assert exact_defect_kernel(2, 7, 13) is None
    assert exact_defect_kernel(2, 2, 10**9) is None
    with pytest.raises(CapExceeded):
        walk_defect(make_family("f21", {}), MAX_WALK_COST)
    with pytest.raises(ValueError):
        walk_defect(make_family("f21", {}), 0)


def test_ring_defect_stays_the_size_of_its_ring():
    # a (2, 10) rule on 8 sites: 36 orbit rows of 256 entries, never the
    # 1024 x 1024 window Gram (16 MiB)
    rule = with_noise(quantized_shift(2, 10, 3), 1e-3, 3)
    tracemalloc.start()
    try:
        defect = ring_defect(rule, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert abs(defect - unitarity_defect(global_matrix(rule, 8))) <= 1e-13 + 1e-12 * defect


@pytest.mark.parametrize("eps", (0.0, 1e-3))
def test_defect_and_verdict_ignore_a_unitary_on_every_amplitude_vector(eps):
    # f(.|a) -> U f(.|a) and f(.|a) -> e^(i phi) f(.|a) keep every inner product
    for index, (label, rule, _) in enumerate(unitary_grid(11)):
        rule = with_noise(rule, eps, index)
        rng = np.random.default_rng(index)
        verdict = check_periodic(rule)
        for u in (haar_unitary(rng, rule.q), np.exp(2j * np.pi * rng.random()) * np.eye(rule.q)):
            moved = RuleTable(rule.q, rule.k, rule.amplitudes @ u.T, rule.tolerance)
            for n in range(1, 9):
                if rule.q**n > 512:
                    break
                assert abs(ring_defect(moved, n) - ring_defect(rule, n)) <= 1e-13, (label, n)
                if walk_cost(rule.q, rule.k, n) <= MAX_WALK_COST:
                    assert abs(walk_defect(moved, n) - walk_defect(rule, n)) <= 1e-13, (label, n)
            moved_verdict = check_periodic(moved)
            assert moved_verdict.unitary == verdict.unitary, label
            assert ({r.condition for r in moved_verdict.reports}
                    == {r.condition for r in verdict.reports}), label


def necklaces(q, n):
    """(1/N) sum over d | N of phi(d) q^(N/d): the number of shift orbits."""
    phi = [sum(np.gcd(d, i) == 1 for i in range(1, d + 1)) for d in range(n + 1)]
    return sum(phi[d] * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_orbit_representatives_count_necklaces():
    for q in (1, 2, 3, 4, 5):
        for n in range(1, 17):
            if q**n > 2**16:
                break
            reps = shift_orbit_representatives(q**n, n)
            assert len(reps) == necklaces(q, n)
            assert reps[0] == 0 and np.all(np.diff(reps) > 0)
    assert shift_orbit_representatives(4, 2).tolist() == [0, 1, 3]  # 00, 01 ~ 10, 11


def test_orbit_defect_rejects_a_size_that_is_no_ring():
    for dim, n in ((6, 2), (8, 2), (4, 0), (4, -1)):
        with pytest.raises(ValueError):
            shift_orbit_representatives(dim, n)
    assert shift_orbit_representatives(9, 2).tolist() == [0, 1, 2, 4, 5, 8]
