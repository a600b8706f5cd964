"""Kernel constructions and the simplex-grid sweeps.

The closed forms used as oracles:

* oscillating(gamma): pooled row separation is attained at the clamp
  bounds, so alpha_hat = gamma and lambda_hat = 1 (swap map moves rows
  one-for-one with the input).
* continuum(alpha, lam): off-diagonals range over [alpha/2, lam-alpha/2],
  giving alpha_hat = alpha and lambda_hat = lam.
* mixture Q,lam: alpha_hat = alpha_0 (1-lam) with alpha_0 the overlap of
  Q, lambda_hat = lam, both attained at simplex vertices.
"""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlmarkov import kernels
from nlmarkov.kernel_spec import compile_kernel_spec
from nlmarkov.kernels import (
    KernelValidationError,
    MeasureGrid,
    NonlinearKernel,
    birth_death_jitter_matrix,
    certify,
    continuum_kernel,
    default_resolution,
    estimate_alpha,
    estimate_lambda,
    largest_resolution,
    markov_example_kernel,
    markov_kernel,
    mixture_kernel,
    no_invariant_kernel,
    oscillating_kernel,
    validate,
)
from nlmarkov.kernels import _grid_ranks, _l1_diameter
from nlmarkov.measures import DiscreteMeasure


# ---------------------------------------------------------------------------
# Grids


def test_grid_enumerates_all_compositions():
    g = MeasureGrid(3, 4)
    assert g.size == math.comb(4 + 3 - 1, 3 - 1)
    assert np.allclose(g.weights.sum(axis=1), 1.0)
    # vertices present
    for i in range(3):
        assert any(np.array_equal(w, np.eye(3)[i]) for w in g.weights)


def compositions(total, parts):
    """Weak compositions of ``total`` into ``parts`` parts, in the
    lexicographic order of their divider positions: the grid's order."""
    for dividers in combinations(range(total + parts - 1), parts - 1):
        prev, comp = -1, []
        for d in dividers:
            comp.append(d - prev - 1)
            prev = d
        comp.append(total + parts - 2 - prev)
        yield comp


def test_grid_matches_the_composition_generator():
    for n in range(1, 7):
        for r in range(1, 9):
            want = np.array(list(compositions(r, n)), dtype=float) / r
            got = MeasureGrid(n, r).weights
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_grid_memory_stays_near_its_weights():
    tracemalloc.start()
    try:
        weights = MeasureGrid(2, 1_000_000).weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.nbytes == 16_000_016
    assert peak < 3 * weights.nbytes


def test_grid_measures_are_valid():
    for w in MeasureGrid(2, 5).weights:
        assert DiscreteMeasure(w).size == 2


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        MeasureGrid(0, 4)
    with pytest.raises(ValueError):
        MeasureGrid(2, 0)


def test_default_resolution_presets_and_budget():
    assert default_resolution(2) == 50
    assert default_resolution(5) == 8
    for n in range(2, 8):
        r = default_resolution(n)
        assert math.comb(r + n - 1, n - 1) <= 1000
        assert math.comb(r + n, n - 1) > 1000 or n in (2, 3, 4, 5)


def test_largest_resolution_is_the_last_that_fits():
    for n, max_points in [(2, 1), (2, 33), (3, 1000), (30, 29), (50, 2**30 // 20_000)]:
        r = largest_resolution(n, max_points)
        assert math.comb(r + n - 1, n - 1) <= max_points
        assert math.comb(r + n, n - 1) > max_points
    assert largest_resolution(50, 2**30 // 20_000) == 3


# ---------------------------------------------------------------------------
# Constructors and validation


def test_kernel_matrix_shape_guard():
    k = NonlinearKernel(2, lambda w: np.zeros((len(w), 3, 3)), "bad-shape")
    with pytest.raises(KernelValidationError):
        k.matrix([0.5, 0.5])
    with pytest.raises(KernelValidationError):
        k.matrix([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ValueError):
        markov_example_kernel().matrix([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        markov_example_kernel().matrix([[[1.0, 0.0]]])


STOCK_KERNELS = [
    oscillating_kernel(0.4),
    continuum_kernel(0.2, 0.8),
    markov_example_kernel(),
    mixture_kernel(birth_death_jitter_matrix(), 0.2),
    no_invariant_kernel(0.3, 0.6, 12),
]


def test_validate_accepts_stock_kernels():
    for k in STOCK_KERNELS:
        info = validate(k, MeasureGrid(k.space_size, 6))
        assert info["worst_row_deviation"] <= 1e-10


def test_validate_names_the_offending_row():
    leaky = np.array([[0.5, 0.4], [0.5, 0.5]])
    bad = NonlinearKernel(2, lambda w: np.broadcast_to(leaky, (len(w), 2, 2)), "leaky")
    with pytest.raises(KernelValidationError, match="row 0"):
        validate(bad, MeasureGrid(2, 2))
    negative = np.array([[1.1, -0.1], [0.5, 0.5]])
    neg = NonlinearKernel(2, lambda w: np.broadcast_to(negative, (len(w), 2, 2)), "neg")
    with pytest.raises(KernelValidationError, match="negative"):
        validate(neg, MeasureGrid(2, 2))


def faulty_kernel(leak_from, negative_from):
    """Uniform 2-state rows, except that row 0 sums to 1.1 once nu_1 >=
    leak_from and row 1 holds -0.1 once nu_1 >= negative_from."""
    def rows(w):
        mats = np.full((len(w), 2, 2), 0.5)
        mats[w[:, 0] >= leak_from, 0, 0] = 0.6
        mats[w[:, 0] >= negative_from, 1] = [1.1, -0.1]
        return mats
    return NonlinearKernel(2, rows, "faulty")


def test_validate_reports_first_measure_and_negative_rows_first():
    # grid order on 2 states at R = 4: nu_1 = 0, 0.25, 0.5, 0.75, 1
    grid = MeasureGrid(2, 4)
    with pytest.raises(KernelValidationError, match=r"row 0 sums to .* at nu=\[0.5, 0.5\]"):
        validate(faulty_kernel(0.5, 0.75), grid)
    with pytest.raises(KernelValidationError, match=r"negative entry in row 1 at nu=\[0.5, 0.5\]"):
        validate(faulty_kernel(0.5, 0.5), grid)
    with pytest.raises(KernelValidationError, match=r"negative entry in row 1 at nu=\[0.25, 0.75\]"):
        validate(faulty_kernel(0.5, 0.25), grid)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kernel", STOCK_KERNELS, ids=lambda k: k.label)
def test_stock_kernel_batch_matches_single_measures(kernel, data):
    n = kernel.space_size
    rows = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                              min_size=1, max_size=8))
    w = np.array(rows)
    w[w.sum(axis=1) == 0.0] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    mats = kernel.matrix(w)
    assert mats.shape == (len(w), n, n)
    for b in range(len(w)):
        assert mats[b].tobytes() == kernel.matrix(w[b]).tobytes()


def test_constructor_parameter_guards():
    with pytest.raises(ValueError):
        oscillating_kernel(0.0)
    with pytest.raises(ValueError):
        continuum_kernel(0.8, 0.2)  # needs alpha < lam
    with pytest.raises(ValueError):
        no_invariant_kernel(0.3, 0.6, 2)  # truncation >= 3
    with pytest.raises(ValueError):
        mixture_kernel(np.eye(2), 1.5)
    with pytest.raises(ValueError):
        markov_kernel(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        markov_kernel(np.ones((2, 3)))


def test_birth_death_jitter_rows():
    q = birth_death_jitter_matrix()
    assert q.shape == (5, 5)
    assert np.allclose(q.sum(axis=1), 1.0)
    assert np.all(q >= 0.1 / 5 - 1e-15)  # jitter floor everywhere


def test_no_invariant_kernel_row_structure():
    # With nu = dirac at the first state, lam F_j >= alpha for all j, so
    # every row sends lam home and 1 - lam one step right.
    lam, alpha = 0.6, 0.3
    k = no_invariant_kernel(alpha, lam, 5)
    mat = k.matrix([1.0, 0.0, 0.0, 0.0, 0.0])
    assert mat[0, 0] == pytest.approx(lam)
    assert mat[0, 1] == pytest.approx(1.0 - lam)
    assert mat[2, 3] == pytest.approx(1.0 - lam)
    assert mat[4, 4] == pytest.approx(1.0 - lam)  # boundary fold
    # with mass far out the clamp at alpha kicks in for state 1
    mat2 = k.matrix([0.0, 0.0, 0.0, 0.0, 1.0])
    assert mat2[0, 0] == pytest.approx(alpha)
    assert np.allclose(mat2.sum(axis=1), 1.0, atol=1e-15)


def test_no_invariant_rows_sum_to_one_exactly():
    k = no_invariant_kernel(0.3, 0.6, 7)
    worst = max(
        float(np.abs(k.matrix(w).sum(axis=1) - 1.0).max())
        for w in MeasureGrid(7, 4).weights
    )
    assert worst < 1e-14


# ---------------------------------------------------------------------------
# Sweeps: frozen closed-form values


def test_oscillating_overlap_equals_gamma():
    for gamma in (0.1, 0.4, 0.8):
        k = oscillating_kernel(gamma)
        assert estimate_alpha(k) == pytest.approx(gamma, abs=1e-12)
        assert estimate_lambda(k) == pytest.approx(1.0, abs=1e-12)
        assert certify(k).regime == "uncertified"


def test_continuum_sweep_recovers_parameters():
    k = continuum_kernel(0.2, 0.8)
    assert estimate_alpha(k) == pytest.approx(0.2, abs=1e-9)
    assert estimate_lambda(k) == pytest.approx(0.8, abs=1e-9)
    assert certify(k).regime == "uncertified"


def test_markov_example_certificate():
    cert = certify(markov_example_kernel())
    assert cert.alpha_hat == pytest.approx(0.7, abs=1e-12)
    assert cert.lambda_hat == 0.0
    assert cert.regime == "fast"


def test_mixture_certificate_two_state():
    q = np.array([[0.8, 0.2], [0.1, 0.9]])  # overlap 0.3
    cert = certify(mixture_kernel(q, 0.2))
    assert cert.alpha_hat == pytest.approx(0.3 * 0.8, abs=1e-9)
    assert cert.lambda_hat == pytest.approx(0.2, abs=1e-9)
    assert cert.regime == "fast"


def test_mixture_with_flat_base_is_slow():
    # Q with identical rows has overlap 1, so alpha_hat = 1 - lam,
    # which ties with lambda_hat exactly at lam = 1/2.
    cert = certify(mixture_kernel(np.full((2, 2), 0.5), 0.5))
    assert cert.regime == "slow"
    assert cert.alpha_hat == pytest.approx(0.5, abs=1e-9)
    assert cert.lambda_hat == pytest.approx(0.5, abs=1e-9)


def test_tie_tolerance_is_honoured(monkeypatch):
    q = np.array([[0.8, 0.2], [0.1, 0.9]])
    k = mixture_kernel(q, 0.2)
    assert certify(k).regime == "fast"
    # |0.24 - 0.2| = 0.04 <= 0.05 counts as a tie
    monkeypatch.setattr(kernels, "TIE_TOLERANCE", 0.05)
    cert = certify(k)
    assert cert.regime == "slow" and cert.tie_tolerance == 0.05


def test_certificate_to_dict_round_trip():
    cert = certify(markov_example_kernel())
    d = cert.to_dict()
    assert d["regime"] == "fast"
    assert d["grid_resolution"] == 50
    assert set(d) == {
        "alpha_hat",
        "lambda_hat",
        "regime",
        "grid_resolution",
        "tie_tolerance",
        "kernel",
    }


# ---------------------------------------------------------------------------
# Sweeps: structural properties


def test_sweep_estimates_are_one_sided_brackets():
    # alpha_hat >= alpha and lambda_hat <= lam for the continuum family
    for alpha, lam in ((0.1, 0.5), (0.3, 0.9), (0.05, 0.95)):
        k = continuum_kernel(alpha, lam)
        g = MeasureGrid(2, 17)
        assert estimate_alpha(k, g) >= alpha - 1e-12
        assert estimate_lambda(k, g) <= lam + 1e-12


def test_grid_refinement_is_monotone():
    k = continuum_kernel(0.3, 0.7)
    coarse, fine = MeasureGrid(2, 10), MeasureGrid(2, 20)
    assert estimate_alpha(k, fine) <= estimate_alpha(k, coarse) + 1e-12
    assert estimate_lambda(k, fine) >= estimate_lambda(k, coarse) - 1e-12
    km = mixture_kernel(birth_death_jitter_matrix(), 0.3)
    c5, f5 = MeasureGrid(5, 3), MeasureGrid(5, 6)
    assert estimate_alpha(km, f5) <= estimate_alpha(km, c5) + 1e-12
    assert estimate_lambda(km, f5) >= estimate_lambda(km, c5) - 1e-12


def test_markov_kernel_ignores_the_measure():
    k = markov_kernel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    m1 = k.matrix([1.0, 0.0])
    m2 = k.matrix([0.25, 0.75])
    assert np.array_equal(m1, m2)
    assert estimate_lambda(k, MeasureGrid(2, 8)) == 0.0


# ---------------------------------------------------------------------------
# Sweeps against the all-pairs reference


def pairwise_sweeps(kernel, grid, block=32):
    """(alpha_hat, lambda_hat) by the all-pairs definitions, in row blocks.

    Memory is O(block * G * n^2), so keep it to small grids.
    """
    mats = np.stack([kernel.matrix(w) for w in grid.weights])
    rows = mats.reshape(-1, kernel.space_size)
    worst = 0.0
    for s in range(0, rows.shape[0], block):
        diff = np.abs(rows[s:s + block, None, :] - rows[None, :, :]).sum(axis=2)
        worst = max(worst, float(diff.max()))
    w = grid.weights
    best = 0.0
    for s in range(0, grid.size, block):
        move = np.abs(mats[s:s + block, None] - mats[None]).sum(axis=3).max(axis=2)
        base = np.abs(w[s:s + block, None, :] - w[None, :, :]).sum(axis=2)
        ok = base > 1e-9
        if ok.any():
            best = max(best, float((move[ok] / base[ok]).max()))
    return 1.0 - worst / 2.0, best


def assert_matches_pairwise(kernel, grid):
    alpha, lam = pairwise_sweeps(kernel, grid)
    assert abs(estimate_alpha(kernel, grid) - alpha) <= 1e-12
    assert abs(estimate_lambda(kernel, grid) - lam) <= 1e-12


@st.composite
def mixture_cases(draw, sizes, resolutions):
    """(kernel, grid): a mixture kernel with a random base Q and lam."""
    n, r = draw(sizes), draw(resolutions)
    unit = st.floats(0.0, 1.0)
    q = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    q[q.sum(axis=1) == 0.0] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    return mixture_kernel(q, draw(unit)), MeasureGrid(n, r)


SWEEP_SETTINGS = settings(max_examples=40, deadline=None)


@SWEEP_SETTINGS
@given(case=mixture_cases(st.integers(1, 6), st.integers(1, 6)))
def test_sweeps_match_pairwise_on_mixture_kernels(case):
    assert_matches_pairwise(*case)


def birth_death_jitter(size):
    """``birth_death_jitter_matrix``'s chain on ``size`` states."""
    q = np.zeros((size, size))
    for i in range(size):
        q[i, max(i - 1, 0)] += 0.7
        q[i, i] += 0.2
        q[i, min(i + 1, size - 1)] += 0.1
    return 0.9 * q + 0.1 / size


# With 2^(n-1) > G n the alpha sweep takes pairwise tiles instead of sign
# vectors: n = 7 and 12 at R = 1 fall back, n = 7 at R = 2 does not.
@SWEEP_SETTINGS
@given(case=mixture_cases(st.integers(7, 12), st.integers(1, 2)))
@example(case=(mixture_kernel(birth_death_jitter(12), 0.3), MeasureGrid(12, 1)))
@example(case=(mixture_kernel(birth_death_jitter(7), 0.3), MeasureGrid(7, 2)))
@example(case=(no_invariant_kernel(0.2, 0.8, 12), MeasureGrid(12, 1)))
@example(case=(no_invariant_kernel(0.2, 0.8, 12), MeasureGrid(12, 2)))
def test_sweeps_match_pairwise_across_the_sign_vector_cutoff(case):
    assert_matches_pairwise(*case)


def lattice_rows(n, m, seed, floor_low, bump_low, density):
    """(m, n) rows on a lattice of quarters, so distances tie exactly: a
    shared column floor from floor_low/4 up, plus bumps from bump_low/4
    up in a share ``density`` of the entries."""
    rng = np.random.default_rng(seed)
    floor = rng.integers(floor_low, 5, n) / 4.0
    bumps = rng.integers(bump_low, 5, (m, n))
    bumps *= rng.random((m, n)) < density
    return floor + bumps / 4.0


# 9 to 14 columns and m < 256 rows send every case to the pairwise
# branch, whose tiles hold 68 to 85 rows: up to four tiles, the last
# one short for most m.
@settings(max_examples=100, deadline=None)
@given(rows=st.builds(lattice_rows, st.integers(9, 14), st.integers(1, 255),
                      st.integers(0, 2**32 - 1), st.integers(-4, 0),
                      st.integers(-4, 0), st.floats(0.0, 1.0)))
@example(rows=lattice_rows(9, 1, 0, -4, -4, 0.5))
@example(rows=lattice_rows(9, 2, 0, -4, -4, 0.5))
# one bump of 1 per row: the floor bound, 2, ties the first pair found
@example(rows=lattice_rows(12, 100, 0, -4, 4, 0.08))
def test_l1_diameter_matches_all_pairs(rows):
    dist = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
    assert abs(_l1_diameter(rows) - dist.max()) <= 1e-12


# 53 x 5 takes the sign-vector branch: chunks of 5 rows (the floor of n
# rows under a 1-byte tile), 7 rows, or all 53 at once
@pytest.mark.parametrize("tile", [1, 7 * 8 * 16, 2**30])
def test_l1_diameter_sign_vectors_match_all_pairs_whatever_the_tile(monkeypatch, tile):
    rows = np.random.default_rng(3).dirichlet(np.ones(5), size=53)
    dist = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
    monkeypatch.setattr(kernels, "TILE_BYTES", tile)
    assert abs(_l1_diameter(rows) - dist.max()) <= 1e-12


# 20 x 3 takes the sign-vector branch, 200 x 12 the pairwise one
@pytest.mark.parametrize("m, n", [(20, 3), (200, 12)])
def test_l1_diameter_is_nan_on_a_nan_entry(m, n):
    rows = np.random.default_rng(0).dirichlet(np.ones(n), size=m)
    rows[m // 2, 1] = np.nan
    assert np.isnan(_l1_diameter(rows))


@st.composite
def clamped_specs(draw):
    """(n, R, terms): off-diagonal entry (i, j) is
    max(min(c + slope * nu(k), hi), lo) for terms[i][j] = (lo, hi, c, slope, k),
    and each diagonal entry is 1 minus the rest of its row."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cap = 1.0 / max(n - 1, 1)
    terms = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                lo = draw(st.floats(0.0, cap / 2))
                hi = draw(st.floats(lo, cap))
                c = draw(st.floats(lo, hi))
                terms[i][j] = (lo, hi, c, draw(st.floats(-2.0, 2.0)), draw(st.integers(1, n)))
    return n, r, terms


def clamped_spec_kernel(n, terms, grid):
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                lo, hi, c, slope, k = terms[i][j]
                entries[i][j] = f"max(min({c!r} + {slope!r}*nu({k}), {hi!r}), {lo!r})"
        others = [f"({entries[i][j]})" for j in range(n) if j != i]
        entries[i][i] = " - ".join(["1", *others])
    kernel = compile_kernel_spec(json.dumps({"space_size": n, "entries": entries}))
    validate(kernel, grid)
    return kernel


# Row 1 loses mass on both off-diagonal entries when mass moves from state 1
# to state 3, so lambda (0.8) is reached only by that move and not by moves
# between adjacent states (0.4 each).
FAR_MOVE = [
    [None, (0.0, 0.4, 0.0, 0.4, 1), (0.0, 0.4, 0.4, -0.4, 3)],
    [(0.1, 0.1, 0.1, 0.0, 1), None, (0.1, 0.1, 0.1, 0.0, 1)],
    [(0.1, 0.1, 0.1, 0.0, 1), (0.1, 0.1, 0.1, 0.0, 1), None],
]


@SWEEP_SETTINGS
@given(spec=clamped_specs())
@example(spec=(3, 4, FAR_MOVE))
def test_sweeps_match_pairwise_on_clamped_spec_kernels(spec):
    # The clamps make the sensitivity peak between grid vertices, where a
    # mixture kernel's is flat.
    n, r, terms = spec
    grid = MeasureGrid(n, r)
    assert_matches_pairwise(clamped_spec_kernel(n, terms, grid), grid)


# The lambda sweep takes its neighbour pairs in tiles: here the pairs
# fill one tile less one, exactly one, or one and one more (that is the
# pair count just under, at and just over a tile), or a tile holds less
# than one pair, so each pair is a tile.
@pytest.mark.parametrize("tile", [
    lambda pairs: pairs + 1, lambda pairs: pairs, lambda pairs: pairs - 1, lambda pairs: 0,
], ids=["under", "at", "over", "pair-per-tile"])
@pytest.mark.parametrize("kernel, grid", [
    (mixture_kernel(birth_death_jitter(5), 0.3), MeasureGrid(5, 4)),
    (clamped_spec_kernel(3, FAR_MOVE, MeasureGrid(3, 4)), MeasureGrid(3, 4)),
    (no_invariant_kernel(0.2, 0.8, 12), MeasureGrid(12, 1)),
], ids=["mixture5", "far-move", "no-invariant12"])
def test_lambda_sweep_matches_pairwise_whatever_the_tile(monkeypatch, kernel, grid, tile):
    n = kernel.space_size
    whole = estimate_lambda(kernel, grid)
    pairs = sum(a.size for a, _ in kernels._neighbour_pairs(grid))
    monkeypatch.setattr(kernels, "TILE_BYTES", max(tile(pairs) * 8 * n * n, 1))
    lam = estimate_lambda(kernel, grid)
    assert lam == whole  # the maximum does not depend on the split
    assert abs(lam - pairwise_sweeps(kernel, grid)[1]) <= 1e-12


def test_grid_ranks_reproduce_grid_order():
    for n in range(1, 7):
        for r in range(1, 9):
            g = MeasureGrid(n, r)
            counts = np.rint(g.weights * r).astype(np.int64)
            table = np.array([[math.comb(s + d, d) for d in range(n)] for s in range(r + 1)])
            assert np.array_equal(_grid_ranks(counts, table), np.arange(g.size))


def whole_pair_index(grid):
    """The neighbour pairs (a, b), k_b = k_a - e_i + e_j with i < j, as one
    index of all of them, in direction, source and target order: the
    oracle of the chunks the lambda sweep takes them in."""
    n, r = grid.space_size, grid.resolution
    counts = np.rint(grid.weights * r).astype(np.int64)
    table = np.array([[math.comb(s + d, d) for d in range(n)] for s in range(r + 1)],
                     dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    firsts = [np.zeros(0, dtype=np.int64)]
    seconds = [np.zeros(0, dtype=np.int64)]
    for i in range(n - 1):
        src = np.flatnonzero(counts[:, i])
        moved = counts[src, None, :] - eye[i] + eye[None, i + 1:, :]
        firsts.append(np.repeat(src, n - 1 - i))
        seconds.append(_grid_ranks(moved.reshape(-1, n), table))
    return np.concatenate(firsts), np.concatenate(seconds)


# A tile of 1 byte makes every chunk one source measure, and so one pair
# in the last direction; the stock tile splits only the first directions
# of the largest grids.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), r=st.integers(1, 8), tile=st.integers(1, 2**12))
@example(n=7, r=8, tile=1)
@example(n=7, r=8, tile=kernels.TILE_BYTES)
def test_neighbour_pair_chunks_are_the_whole_index_in_order(n, r, tile):
    grid = MeasureGrid(n, r)
    counts = np.rint(grid.weights * r).astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TILE_BYTES", tile)
        chunks = list(kernels._neighbour_pairs(grid))
    want = whole_pair_index(grid)
    got = [np.concatenate([c[k] for c in chunks] or [np.zeros(0, dtype=np.int64)])
           for k in (0, 1)]
    assert all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))
    for firsts, seconds in chunks:
        # one direction i: every pair moves a unit out of the same state
        assert np.unique((counts[seconds] - counts[firsts]).argmin(axis=1)).size == 1
        # moved counts: n int64 a pair, a tile's worth or one source's moves
        per_source = firsts.size // np.unique(firsts).size
        assert firsts.size * 8 * n <= max(tile, per_source * 8 * n)


# ---------------------------------------------------------------------------
# Sweep memory


def test_lambda_sweep_holds_little_beyond_its_stack():
    # the stack is 46,376 x 25 floats, 9.3 MB; an index of all 409,200
    # neighbour pairs and their moved counts would hold more than it again
    kernel, grid = mixture_kernel(birth_death_jitter(5), 0.3), MeasureGrid(5, 30)
    stack = grid.size * 5 * 5 * 8
    tracemalloc.start()
    try:
        estimate_lambda(kernel, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * stack


@pytest.mark.parametrize(
    "kernel, grid",
    [
        (mixture_kernel(birth_death_jitter_matrix(), 0.2), MeasureGrid(5, 12)),
        (no_invariant_kernel(0.2, 0.8, 30), MeasureGrid(30, 1)),
    ],
    ids=["mixture5-r12", "no-invariant30-r1"],
)
def test_certify_memory_stays_small(kernel, grid):
    tracemalloc.start()
    try:
        certify(kernel, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
