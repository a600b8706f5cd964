"""Nonlinear transition kernels on finite state spaces.

A nonlinear kernel maps a probability measure nu to a row-stochastic
matrix P_nu; the chain evolves by mu_{k+1} = mu_k P_{mu_k}.  Two numbers
govern ergodicity of such chains:

* the Dobrushin overlap ``alpha``: every pair of rows, across every pair
  of input measures, has total variation at most 2(1 - alpha);
* the measure sensitivity ``lambda``: rows at a fixed state move by at
  most lambda times the total variation between input measures.

Both are estimated here by sweeps over a simplex grid of G measures,
which makes the estimates one-sided: alpha_hat >= alpha and
lambda_hat <= lambda, with monotone behaviour under grid refinement.

Each sweep evaluates the kernel on the whole grid in one batched call
and then takes the same maximum an all-pairs sweep would, through an
exact identity that avoids materialising the pairs:

* alpha: the L1 diameter of the G*n pooled rows equals the largest
  spread ``max_a s.r_a - min_a s.r_a`` over sign vectors s in {-1, +1}^n
  with s_1 = +1, because ``||v||_1 = max_s s.v`` and s, -s give the same
  spread.  That is one (G*n x n) by (n x 2^(n-1)) product instead of
  (G*n)^2 row differences.  With more sign vectors than rows it first
  finds a far pair with two farthest-row sweeps.  Since |x - y| =
  x + y - 2 min(x, y) for any reals, no two rows are more than
  2 max_a sum(r_a) - 2 sum_i min_a r_ai apart (the floor bound); when
  the pair found meets it, as for the no-invariant kernel, whose rows
  all put alpha on state 1, that pair is the answer.  Otherwise (as
  with dense rows, which share no floor) it takes the pairwise maximum
  in fixed-size tiles.
* lambda: two grid measures are joined by unit moves (e_j - e_i)/R
  through grid measures whose TV lengths add up to exactly their own
  distance, so by the triangle inequality the largest ratio over all
  pairs is the largest ratio over neighbour pairs: G*n(n-1)/2 pairs
  instead of G^2.

Memory is linear in G: the (G, n, n) kernel evaluations, the (G, n)
grid counts, and temporaries of about ``TILE_BYTES`` each (the L2-sized
tile or pair chunk every sweep works in) or of the sign matrix where
that is larger (from 14 states on, a projection chunk takes n rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .reporting import Record

ROW_SUM_TOL = 1e-10
TIE_TOLERANCE = 1e-6
# Every sweep's tile stays in a core's L2 cache.  On Dirichlet(1) rows
# (900 x 30 and 2500 x 50), which the floor bound of _l1_diameter does
# not settle, 512 KiB was the fastest of 128 KiB to 1 MiB, at 0.55-0.60x
# the time of 16 MiB tiles; the lambda sweep's no-invariant pairs took
# 0.56-0.82x, and the sign-vector projections of 10-14 states
# (10,000-40,000 rows) 0.46-0.85x, on a 2-CPU x86 host.
TILE_BYTES = 512 * 2**10

__all__ = [
    "NonlinearKernel",
    "MeasureGrid",
    "ErgodicityCertificate",
    "KernelValidationError",
    "validate",
    "row_faults",
    "oscillating_kernel",
    "continuum_kernel",
    "no_invariant_kernel",
    "markov_kernel",
    "markov_example_kernel",
    "mixture_kernel",
    "birth_death_jitter_matrix",
    "estimate_alpha",
    "estimate_lambda",
    "certify",
    "default_resolution",
    "largest_resolution",
]


class KernelValidationError(ValueError):
    """A kernel produced a non-stochastic row for some input measure."""


@dataclass(frozen=True)
class NonlinearKernel:
    """Measure-dependent transition kernel.

    ``row_builder`` maps a (B, n) array of B measures' weights to the
    (B, n, n) stack of their transition matrices.  It must be a pure
    function of each row: same measure, same matrix, whatever the batch.
    """

    space_size: int
    row_builder: Callable[[np.ndarray], np.ndarray]
    label: str = "kernel"

    def __post_init__(self):
        if self.space_size < 1:
            raise ValueError("space_size must be positive")

    def matrix(self, nu) -> np.ndarray:
        """Transition matrix P_nu: (n, n) for one measure ``nu`` of n
        weights, or (B, n, n) for a (B, n) stack of measures."""
        w = np.asarray(nu, dtype=float)
        n = self.space_size
        if w.ndim not in (1, 2) or w.shape[-1] != n:
            raise ValueError(f"measure has {w.shape} weights, kernel expects {n}")
        batch = w.reshape(-1, n)
        mats = np.asarray(self.row_builder(batch), dtype=float)
        if mats.shape != (batch.shape[0], n, n):
            raise KernelValidationError(
                f"{self.label}: row builder returned shape {mats.shape}"
            )
        return mats if w.ndim == 2 else mats[0]


def default_resolution(space_size: int) -> int:
    """Grid resolution used when the caller does not pick one.

    Chosen so the grid stays in the hundreds of points: 50 for two
    states, 8 for five, and in general the largest R with
    C(R + n - 1, n - 1) <= 1000.
    """
    presets = {1: 1, 2: 50, 3: 20, 4: 12, 5: 8}
    if space_size in presets:
        return presets[space_size]
    return max(1, largest_resolution(space_size, 1000))


def largest_resolution(space_size: int, max_points: int) -> int:
    """The largest R whose grid has at most ``max_points`` measures, or
    0 if none has; for two or more states, by bisection on R."""
    lo, hi = 0, max_points + 1  # C(R + n - 1, n - 1) > R for n >= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid + space_size - 1, space_size - 1) <= max_points:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class MeasureGrid:
    """All probability vectors with weights k/R on a given state space.

    The grid contains every vertex of the simplex and has
    C(R + n - 1, n - 1) points.  Refining R to a multiple produces a
    superset, which is what makes the sweep estimates monotone.
    """

    space_size: int
    resolution: int
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, r = self.space_size, self.resolution
        if n < 1 or r < 1:
            raise ValueError("space_size and resolution must be positive")
        # The counts k_1..k_n in lexicographic order are the partial sums
        # S_j = k_1 + ... + k_j, nondecreasing in [0, r], in lexicographic
        # order: each sequence is followed by its extensions S_{j+1} = S_j..r.
        sums = np.zeros((1, 0), dtype=np.int64)
        last = np.zeros(1, dtype=np.int64)
        for _ in range(n - 1):
            reps = r + 1 - last
            # block i starts at b_i = cumsum(reps)_i - reps_i and counts
            # up from last_i, so entry t holds t - (b_i - last_i)
            last = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - last, reps)
            sums = np.column_stack([np.repeat(sums, reps, axis=0), last])
        rows = np.empty((sums.shape[0], n))
        rows[:, :-1] = sums
        rows[:, -1] = r
        del sums, last
        rows[:, 1:] = np.diff(rows, axis=1)
        rows /= r
        rows.flags.writeable = False
        object.__setattr__(self, "weights", rows)

    @staticmethod
    def default(space_size: int) -> "MeasureGrid":
        return MeasureGrid(space_size, default_resolution(space_size))

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class ErgodicityCertificate(Record):
    """Outcome of the grid sweep: estimated overlap and sensitivity plus
    the regime they imply.

    fast         lambda_hat < alpha_hat (geometric contraction)
    slow         lambda_hat = alpha_hat within the tie tolerance
    uncertified  lambda_hat > alpha_hat; no conclusion
    """

    alpha_hat: float
    lambda_hat: float
    regime: str
    grid_resolution: int
    tie_tolerance: float = TIE_TOLERANCE
    kernel_label: str = field(default="kernel", metadata={"key": "kernel"})


# ---------------------------------------------------------------------------
# Kernel constructions.


def oscillating_kernel(gamma: float) -> NonlinearKernel:
    """Two-state kernel whose rows swap the input masses, clamped to
    [gamma/2, 1 - gamma/2].

    Both rows equal (clamp(nu_2), 1 - clamp(nu_2)), so the chain jumps
    straight to that row and alternates forever between (a, 1-a) and
    (1-a, a).  Its overlap is exactly gamma, yet the symmetric fixed
    point attracts nothing but itself.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    lo, hi = gamma / 2.0, 1.0 - gamma / 2.0

    def rows(w: np.ndarray) -> np.ndarray:
        # second entry is the complement of the first, not a second
        # clamp: writing it as clamp(nu_1) makes each row sum to
        # sum(nu), so normalization error would square every step
        a = np.minimum(np.maximum(w[:, 1:], lo), hi)
        row = np.concatenate([a, 1.0 - a], axis=1)
        return np.repeat(row[:, None, :], 2, axis=1)

    return NonlinearKernel(2, rows, f"oscillating(gamma={gamma:g})")


def continuum_kernel(alpha: float, lam: float) -> NonlinearKernel:
    """Two-state kernel with overlap alpha and measure sensitivity lam
    whose fixed points fill the whole interval
    a in [alpha/(2 lam), 1 - alpha/(2 lam)].

    Requires 0 < alpha < lam <= 1.  Off-diagonal entries are
    lam * nu(other state) clamped to [alpha/2, lam - alpha/2]; each
    diagonal entry is one minus the off-diagonal one, so rows are
    exactly stochastic.
    """
    if not (0.0 < alpha < lam <= 1.0):
        raise ValueError("need 0 < alpha < lam <= 1")

    lo, hi = alpha / 2.0, lam - alpha / 2.0

    def rows(w: np.ndarray) -> np.ndarray:
        # columns p12 (from nu_2) and p21 (from nu_1)
        p = np.minimum(np.maximum(lam * w[:, ::-1], lo), hi)
        return np.concatenate([1.0 - p[:, :1], p, 1.0 - p[:, 1:]], axis=1).reshape(-1, 2, 2)

    return NonlinearKernel(2, rows, f"continuum(alpha={alpha:g},lam={lam:g})")


def no_invariant_kernel(alpha: float, lam: float, truncation: int) -> NonlinearKernel:
    """Truncated version of the chain on {1, 2, ...} that admits no
    stationary law for lam < 1.

    Row i sends mass max(lam * nu({1}), alpha) to state 1, routes
    clamped increments of the running mass lam * nu({1..j}) - alpha to
    states j >= 2, and shifts the remaining 1 - lam one step to the
    right.  Truncation folds the shift out of the last state back onto
    itself; that artifact only matters once mass reaches the boundary.
    """
    if not (0.0 < alpha < lam <= 1.0):
        raise ValueError("need 0 < alpha < lam <= 1")
    if truncation < 3:
        raise ValueError("truncation must be at least 3")
    m = truncation

    def rows(w: np.ndarray) -> np.ndarray:
        # base[j] = ((lam F_j - alpha) ^ lam nu_j) v 0 written as the
        # increment of max(lam F_j, alpha): algebraically identical, and
        # the shift mass is the exact complement, so row sums stay at 1
        # instead of compounding cumsum rounding step over step.
        cum = np.maximum(lam * np.cumsum(w, axis=1), alpha)
        base = cum.copy()
        np.subtract(cum[:, 1:], cum[:, :-1], out=base[:, 1:])
        shift = 1.0 - cum[:, -1:]
        mats = np.repeat(base[:, None, :], m, axis=1)
        # the superdiagonal (i, i + 1) is every (m + 1)-th entry from 1
        mats.reshape(len(w), m * m)[:, 1::m + 1] += shift
        mats[:, m - 1, m - 1] += shift[:, 0]
        return mats

    return NonlinearKernel(
        m, rows, f"no-invariant(alpha={alpha:g},lam={lam:g},m={m})"
    )


def markov_kernel(matrix, label: str = "markov") -> NonlinearKernel:
    """Ordinary (measure-independent) Markov kernel from a fixed
    row-stochastic matrix."""
    q = np.asarray(matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("matrix must be square")
    # in this form a NaN entry fails, and an infinite one fails its row sum
    if not (np.all(q >= 0) and np.all(np.abs(q.sum(axis=1) - 1.0) <= ROW_SUM_TOL)):
        raise ValueError("matrix rows must be probability vectors")
    q = q.copy()
    q.flags.writeable = False
    return NonlinearKernel(q.shape[0], lambda w: np.repeat(q[None], len(w), axis=0), label)


def markov_example_kernel() -> NonlinearKernel:
    """Two-state Markov chain with overlap 0.7, used as the stock
    linear example."""
    return markov_kernel(np.array([[0.7, 0.3], [0.4, 0.6]]), "markov-example")


def mixture_kernel(matrix, lam: float) -> NonlinearKernel:
    """Kernel P_nu = (1 - lam) Q + lam * (every row equal to nu).

    Its measure sensitivity is exactly lam, and its overlap is
    alpha_0 (1 - lam) where alpha_0 is the overlap of Q, so small lam
    against a well-mixing Q lands in the fast regime.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    base = markov_kernel(matrix, "mixture-base")
    q = base.matrix(np.full(base.space_size, 1.0 / base.space_size))

    def rows(w: np.ndarray) -> np.ndarray:
        # the nu term must carry unit mass exactly: row sums inherit
        # lam * sum(nu) otherwise, and that feedback compounds the
        # evolving law's rounding drift geometrically
        return (1.0 - lam) * q + (lam / w.sum(axis=1))[:, None, None] * w[:, None, :]

    return NonlinearKernel(base.space_size, rows, f"mixture(lam={lam:g})")


def birth_death_jitter_matrix() -> np.ndarray:
    """Five-state birth-death transition matrix (down 0.7, stay 0.2,
    up 0.1) blended with a uniform jitter of 0.1.

    The jitter gives every pair of rows a common overlap component,
    which pure nearest-neighbour chains lack (distant rows would be
    mutually singular).  Down-moves from the bottom state and up-moves
    from the top state fold back into staying put.
    """
    size, jitter = 5, 0.1
    q = np.zeros((size, size))
    for i in range(size):
        q[i, max(i - 1, 0)] += 0.7
        q[i, i] += 0.2
        q[i, min(i + 1, size - 1)] += 0.1
    return (1.0 - jitter) * q + jitter / size


# ---------------------------------------------------------------------------
# Grid sweeps.


def row_faults(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of an (..., n, n) stack: whether it has an entry below
    -tol, its deviation |sum - 1|, and whether it is faulty, i.e. has
    either a negative entry or a deviation not within tol (NaN is not)."""
    negative = (mats < -tol).any(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
        deviation = np.abs(mats.sum(axis=-1) - 1.0)
    return negative, deviation, negative | ~(deviation <= tol)


def validate(kernel: NonlinearKernel, grid: MeasureGrid | None = None) -> dict:
    """Check that every grid measure yields nonnegative rows summing to 1
    within 1e-10.  Returns a small report; raises KernelValidationError
    naming the first offending measure in grid order and its offending
    row otherwise, a negative entry taking precedence over a bad sum.
    """
    grid = grid or MeasureGrid.default(kernel.space_size)
    mats = kernel.matrix(grid.weights)
    negative, deviation, faulty = row_faults(mats, ROW_SUM_TOL)
    if faulty.any():
        b = int(faulty.any(axis=1).argmax())
        nu = grid.weights[b].tolist()
        if negative[b].any():
            raise KernelValidationError(
                f"{kernel.label}: negative entry in row {negative[b].argmax()} at nu={nu}"
            )
        i = deviation[b].argmax()
        with np.errstate(over="ignore", invalid="ignore"):
            total = mats[b, i].sum()
        raise KernelValidationError(
            f"{kernel.label}: row {i} sums to {total:.17g} at nu={nu}"
        )
    return {
        "kernel": kernel.label,
        "grid_points": grid.size,
        "worst_row_deviation": float(deviation.max()),
    }


def _l1_diameter(rows: np.ndarray) -> float:
    """Largest ||r_a - r_b||_1 over all pairs of rows of an (m, n) array."""
    m, n = rows.shape
    n_signs = 2 ** (n - 1)
    if n_signs <= m:
        # Columns are the sign vectors with s_1 = +1; bit t of the column
        # index flips the sign of coordinate t + 2.
        bits = (np.arange(n_signs)[None, :] >> np.arange(n - 1)[:, None]) & 1
        signs = np.vstack([np.ones((1, n_signs)), 1.0 - 2.0 * bits])
        hi = np.full(n_signs, -np.inf)
        lo = np.full(n_signs, np.inf)
        # every chunk reads all of signs, so it takes at least n rows
        step = max(TILE_BYTES, signs.nbytes) // (8 * n_signs)
        for s in range(0, m, step):
            proj = rows[s:s + step] @ signs
            np.maximum(hi, proj.max(axis=0), out=hi)
            np.minimum(lo, proj.min(axis=0), out=lo)
        return float((hi - lo).max())
    # More sign vectors than rows.  Two farthest-row sweeps find a pair;
    # if no pair can be farther, that pair is the answer.  The sweeps and
    # tiles below lose NaN distances in their comparisons, so a NaN entry
    # is answered here with NaN, as the sign-vector branch answers it.
    if np.isnan(rows).any():
        return float("nan")
    chunk = max(1, TILE_BYTES // (8 * n))
    _, far = _farthest(rows, 0, chunk)
    best, _ = _farthest(rows, far, chunk)
    top = max(rows[s:s + chunk].sum(axis=1).max() for s in range(0, m, chunk))
    if 2.0 * (top - rows.min(axis=0).sum()) <= best:
        return best
    # Otherwise pairwise differences in square tiles, upper triangle only.
    step = max(1, math.isqrt(TILE_BYTES // (8 * n)))
    worst = 0.0
    for s in range(0, m, step):
        for t in range(s, m, step):
            diff = rows[s:s + step, None, :] - rows[None, t:t + step, :]
            worst = max(worst, float(np.abs(diff, out=diff).sum(axis=2).max()))
    return worst


def _farthest(rows: np.ndarray, a: int, chunk: int) -> tuple[float, int]:
    """Largest ||r_a - r_b||_1 over rows b, and the first b reaching it."""
    best, far = 0.0, a
    for s in range(0, rows.shape[0], chunk):
        dist = np.abs(rows[s:s + chunk] - rows[a]).sum(axis=1)
        i = int(dist.argmax())
        if dist[i] > best:
            best, far = float(dist[i]), s + i
    return best, far


def _grid_ranks(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Position in ``MeasureGrid`` order of each row of integer weights,
    given the table C(s + d, d) for s <= R and d < n.

    The grid lists compositions in lexicographic order of their divider
    positions.  With m = n - 1 and suffix sums S_p = k_p + ... + k_{n-1},
    the number of compositions before k is

        sum_{p < m} C(S_p + m - p, m - p) - C(S_{p+1} + m - p, m - p),

    and every term is at most the grid size, so int64 is exact.
    """
    n = counts.shape[1]
    m = n - 1
    suffix = np.zeros((counts.shape[0], n + 1), dtype=np.int64)
    suffix[:, :n] = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    d = np.arange(m, 0, -1)
    return (table[suffix[:, :m], d] - table[suffix[:, 1:n], d]).sum(axis=1)


def _neighbour_pairs(grid: MeasureGrid) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunks (a, b) of the index pairs of grid measures with
    k_b = k_a - e_i + e_j, i < j: each unordered pair one unit move apart
    once, at most G n (n - 1) / 2 of them.  A chunk is one direction i
    and a run of sources whose moved counts take about ``TILE_BYTES``
    (one source at least); no index of all pairs is built.
    """
    n, r = grid.space_size, grid.resolution
    counts = np.rint(grid.weights * r).astype(np.int64)
    table = np.array([[math.comb(s + d, d) for d in range(n)] for s in range(r + 1)],
                     dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    for i in range(n - 1):
        src = np.flatnonzero(counts[:, i])
        step = max(1, TILE_BYTES // (8 * n * (n - 1 - i)))
        for s in range(0, src.size, step):
            a = src[s:s + step]
            # unnamed, the moved counts are freed before the chunk is swept
            yield np.repeat(a, n - 1 - i), _grid_ranks(
                (counts[a, None, :] - eye[i] + eye[None, i + 1:, :]).reshape(-1, n), table)


def estimate_alpha(
    kernel: NonlinearKernel,
    grid: MeasureGrid | None = None,
) -> float:
    """Grid estimate of the Dobrushin overlap:

        alpha_hat = 1 - (1/2) max ||P_mu(x, .) - P_nu(y, .)||_tv

    with the max over all grid measure pairs and all state pairs.  The
    sweep covers a subset of the true supremum's domain, so alpha_hat
    never underestimates the kernel's worst-case row separation being
    shown, i.e. alpha_hat >= alpha and refining the grid can only lower it.

    The max is the L1 diameter of the G*n pooled rows r_a, computed as

        max_{a,b} ||r_a - r_b||_1 = max_s (max_a s.r_a - min_a s.r_a)

    over s in {-1, +1}^n with s_1 = +1.  This is exact: ||v||_1 = max_s s.v,
    the pair max and the sign max commute, and s and -s give the same
    spread.  Cost O(G n^2 2^(n-1)) time for the projections; when
    2^(n-1) > G*n the pairwise sweep is cheaper and runs instead in tiles
    of about ``TILE_BYTES``, O((G n)^2 n) time.  Two
    farthest-row sweeps come first, O(G n^2) time, and when the pair they
    find is as far apart as the floor bound
    2 max_a sum(r_a) - 2 sum_i min_a r_ai allows, no tile is compared;
    the no-invariant kernel is settled this way.  Rows with no shared
    column floor, such as dense rows, are rarely settled and pay the
    full sweep.
    The skip can only lower the diameter, so only raise alpha_hat, and
    only where the computed bound rounds below the true diameter: by at
    most the rounding of the bound and of one n-term distance, about
    n * eps times the largest row sum, far below ``TIE_TOLERANCE``.
    Memory is O(G n^2) plus temporaries of about ``TILE_BYTES`` or the
    sign matrix each, whichever is larger.
    """
    grid = grid or MeasureGrid.default(kernel.space_size)
    rows = kernel.matrix(grid.weights).reshape(-1, kernel.space_size)
    return 1.0 - _l1_diameter(rows) / 2.0


def estimate_lambda(
    kernel: NonlinearKernel,
    grid: MeasureGrid | None = None,
) -> float:
    """Grid estimate of the measure sensitivity:

        lambda_hat = max over grid pairs, states x of
                     ||P_mu(x, .) - P_nu(x, .)||_tv / ||mu - nu||_tv.

    The max runs over a grid subset, so lambda_hat <= lambda and grid
    refinement can only raise it.

    Only neighbour pairs (k, k - e_i + e_j) are swept, and the max is
    the same.  Such a pair differs by (e_i - e_j)/R, so its TV length
    is 2/R up to rounding, never 0.  Any two grid measures mu, nu are
    joined by ||mu - nu||_tv R / 2 unit moves through grid measures, so
    the lengths add up to exactly ||mu - nu||_tv.  By the triangle
    inequality at each state, the row movement between mu and nu is at
    most the largest neighbour ratio times that sum.  Cost O(G n^4) time
    over at most G n (n - 1) / 2 pairs, which arrive in chunks and are
    taken in tiles of about ``TILE_BYTES`` so that each pair's row
    differences are summed while they are still in the L2 cache (a pair
    larger than a tile is a tile of its own, its difference taken from
    views of its two matrices into one reused buffer); the maximum does
    not depend on how the pairs are split.  Memory: the (G, n, n) stack
    and (G, n) counts, plus about ``TILE_BYTES`` a chunk and a tile.
    """
    grid = grid or MeasureGrid.default(kernel.space_size)
    mats = kernel.matrix(grid.weights)
    w = grid.weights
    n = kernel.space_size
    step = max(1, TILE_BYTES // (8 * n * n))
    # a pair larger than a tile reads its two matrices as views, into one buffer
    pair = np.empty((1, n, n)) if step == 1 else None
    best = 0.0
    for firsts, seconds in _neighbour_pairs(grid):
        for s in range(0, firsts.size, step):
            a, b = firsts[s:s + step], seconds[s:s + step]
            # Row movement per state, then max over states, per measure pair.
            if pair is not None:
                diff = pair
                np.subtract(mats[a[0]], mats[b[0]], out=diff[0])
            else:
                diff = mats[a]
                diff -= mats[b]
            move = np.abs(diff, out=diff).sum(axis=2).max(axis=1)
            base = np.abs(w[a] - w[b]).sum(axis=1)
            best = max(best, float((move / base).max()))
    return best


def certify(kernel: NonlinearKernel, grid: MeasureGrid | None = None) -> ErgodicityCertificate:
    """Run both sweeps and classify the kernel.

    fast if lambda_hat < alpha_hat - TIE_TOLERANCE, slow if the two agree
    within TIE_TOLERANCE, uncertified otherwise.  Uncertified means the
    grid evidence does not separate the contraction from the measure
    feedback; it is not a proof of non-ergodicity.
    """
    grid = grid or MeasureGrid.default(kernel.space_size)
    a = estimate_alpha(kernel, grid)
    l = estimate_lambda(kernel, grid)
    if l < a - TIE_TOLERANCE:
        regime = "fast"
    elif abs(l - a) <= TIE_TOLERANCE:
        regime = "slow"
    else:
        regime = "uncertified"
    return ErgodicityCertificate(
        alpha_hat=a,
        lambda_hat=l,
        regime=regime,
        grid_resolution=grid.resolution,
        tie_tolerance=TIE_TOLERANCE,
        kernel_label=kernel.label,
    )
