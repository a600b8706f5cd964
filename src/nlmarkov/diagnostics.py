"""Statistical diagnostics for the particle simulations: histogram
total variation over time, exponential decay fits, Lyapunov
regressions and coupled-run bound checks; and the local overlap of
transition laws, read from the Euler chain's laws on a grid.

The particle diagnostics only reduce the observations of runs their
caller made; a pair of runs is read through one distance reader.

All total variation estimates here go through a fixed shared binning,
declared once per experiment, because comparing histograms with
different bins estimates nothing.  Monte Carlo noise gives the
particle estimates a positive floor; checks that compare against
theoretical bounds therefore carry an explicit allowance, such as the
``bootstrap_floor`` of a run the caller already made, instead of
pretending the estimator is exact.  The grid laws carry no noise, only
a grid tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mckean_vlasov import WeightFunction, _BLOCK_BYTES, _row_blocks, _stream
from .reporting import NumericalFailure, Record

# A run observing Binning.masses: its (time, cell masses) pairs.
Run = Sequence[tuple[float, np.ndarray]]

__all__ = [
    "Binning",
    "LyapunovFit",
    "DecayFit",
    "DecayFitError",
    "GirsanovReport",
    "LocalAlpha",
    "estimate_local_alpha",
    "euler_grid",
    "euler_laws",
    "LOCAL_ALPHA_STARTS",
    "lyapunov_diagnostic",
    "mean_weight",
    "girsanov_bound_check",
    "girsanov_rate",
    "BOOTSTRAP_PAIRS",
    "bootstrap_floor",
    "fit_decay",
]


@dataclass(frozen=True)
class Binning(Record):
    """Shared histogram grid: [lower, upper) split into ``bins`` half-open
    bins.  The one place where particle clouds and grid laws are binned
    and their total variation is measured."""

    lower: float = -10.0
    upper: float = 10.0
    bins: int = 200

    def __post_init__(self):
        if not -math.inf < self.lower < self.upper < math.inf:
            raise ValueError("lower and upper must be finite, upper above lower")
        if self.bins < 1:
            raise ValueError("bins must be positive")

    def masses(self, points: np.ndarray) -> np.ndarray:
        """Masses of a flat cloud of n points: the ``bins`` cells in
        order, then the overflow, the mass outside [lower, upper).  A
        point exactly at the upper bound is outside.  The cloud is binned
        a block at a time into the one float array returned, whose counts
        stay exact integers until they are divided by n."""
        width = (self.upper - self.lower) / self.bins
        masses = np.zeros(self.bins + 1)
        for rows in _row_blocks(len(points)):
            block = points[rows]
            if not np.all(np.isfinite(block)):
                raise ValueError("points must be finite")
            inside = (block >= self.lower) & (block < self.upper)
            # clamping at bins - 1 guards against rounding at the topmost
            # float below the upper bound (the bound itself is outside); at
            # 0, it keeps far outside points castable.  In place, and each
            # block's scratch dropped before the next, so that binning beside
            # a run's own blocks holds at most two blocks more.  A point far
            # outside may scale past the float range, to inf: it is outside.
            with np.errstate(over="ignore"):
                scaled = np.subtract(block, self.lower)
                scaled /= width
            np.floor(scaled, out=scaled)
            cells = np.clip(scaled, 0, self.bins - 1, out=scaled).astype(int)
            del scaled
            cells[~inside] = self.bins
            np.add.at(masses, cells, 1.0)
            del cells, inside
        masses /= len(points)
        return masses

    def grid_masses(self, first: float, dx: float, law: np.ndarray) -> np.ndarray:
        """Masses of a one-dimensional law on the nodes first + j dx, in
        the layout of ``masses``: node j's mass spread evenly over its cell
        [first + (j - 1/2) dx, first + (j + 1/2) dx).  The law's cumulative
        mass is then linear across each cell, so each bin edge reads it by
        interpolation, a block of edges at a time; the overflow is the
        rest of the law's mass."""
        knots = first + dx * (np.arange(len(law) + 1) - 0.5)
        cumulative = np.concatenate(([0.0], np.cumsum(law)))
        width = (self.upper - self.lower) / self.bins
        masses = np.empty(self.bins + 1)
        below = bottom = float(np.interp(self.lower, knots, cumulative))
        for rows in _row_blocks(self.bins):
            edges = self.lower + width * np.arange(rows.start + 1, rows.stop + 1)
            at = np.interp(edges, knots, cumulative)
            masses[rows] = np.diff(at, prepend=below)
            below = float(at[-1])
        masses[-1] = cumulative[-1] - (below - bottom)
        return masses

    @staticmethod
    def tv(p: np.ndarray, q: np.ndarray) -> float:
        """Total variation between two ``masses`` of one binning: the sum
        of |mass differences| over the cells plus the overflow difference.
        Holds one temporary the size of p."""
        diff = np.subtract(p, q)
        np.abs(diff, out=diff)
        return float(diff[:-1].sum() + diff[-1])


# ---------------------------------------------------------------------------
# The Euler chain's law on a grid, and the local overlap of transition laws.


# The grid step is dx = sqrt(h) / GRID_CELLS, and the noise kernel reaches
# GRID_REACH sqrt(h) on each side: 2 GRID_REACH GRID_CELLS + 1 taps.
GRID_CELLS, GRID_REACH = 10, 8
# The most mass a law may lose off the grid's edges before its
# propagation is a numerical failure.
LOST_MASS_TOL = 1e-9


def euler_grid(reach: float, horizon: float, step_size: float,
               per_sqrt_h: int = GRID_CELLS) -> tuple[float, float, int]:
    """The grid step dx = sqrt(h) / per_sqrt_h, the half-width J of the
    grid that holds the Euler chain's laws from starts within ``reach``
    of 0 up to ``horizon``, and its noise kernel's taps: the nodes are
    j dx for |j| <= J, the first J dx >= reach + GRID_REACH (sqrt(horizon)
    + sqrt(h)).  J is a float, inf past the float range, so a caller can
    budget the 2 J + 1 nodes before laying them out."""
    dx = math.sqrt(step_size) / per_sqrt_h
    half = (reach + GRID_REACH * (math.sqrt(horizon) + math.sqrt(step_size))) / dx
    return (dx, float(math.ceil(half)) if math.isfinite(half) else math.inf,
            2 * GRID_REACH * per_sqrt_h + 1)


def _noise_taps(per_sqrt_h: int) -> np.ndarray:
    """N(0, h) integrated over the cells [(m - 1/2) dx, (m + 1/2) dx),
    |m| <= GRID_REACH per_sqrt_h, at dx = sqrt(h) / per_sqrt_h, and
    renormalized for the tails past GRID_REACH sqrt(h) (about 1e-15).
    The taps do not depend on h.  Each tail is taken from math.erfc of a
    positive argument, so no tap loses its digits to cancellation."""
    scale = per_sqrt_h * math.sqrt(2.0)
    reach = GRID_REACH * per_sqrt_h
    tails = [0.5 * math.erfc((m - 0.5) / scale) for m in range(1, reach + 2)]
    half = np.subtract(tails[:-1], tails[1:])
    taps = np.concatenate((half[::-1], [math.erf(0.5 / scale)], half))
    return taps / taps.sum()


def _split(y: np.ndarray, first: float, dx: float, n: int):
    """For each position in y, the node i and the share f such that a mass
    at y goes 1 - f to node i and f to node i + 1 of the n nodes
    first + j dx; and the mask of the positions off the grid (or not
    finite), whose i and f are 0."""
    u = np.subtract(y, first) / dx
    off = ~((u >= 0.0) & (u <= n - 1))
    u[off] = 0.0
    i = np.minimum(np.floor(u), n - 2).astype(np.intp)
    return i, u - i, off


def euler_laws(
    b1: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[float],
    step_size: float,
    steps: int,
    per_sqrt_h: int = GRID_CELLS,
) -> tuple[float, float, np.ndarray]:
    """The laws after ``steps`` steps of the one-dimensional Euler chain

        Y <- Y + h b1(Y) + sqrt(h) xi,   xi ~ N(0, 1),

    from each point of ``starts``, as masses on the nodes of
    ``euler_grid(max |start|, steps h, h, per_sqrt_h)``.  Returns the
    first node, dx and the (len(starts), nodes) array of the laws.

    This is the Markov chain approximation of the diffusion on a grid
    (H. J. Kushner and P. Dupuis, Numerical Methods for Stochastic
    Control Problems in Continuous Time, 2nd ed., 2001), with no
    particles and no random numbers.  A start's mass, and at each step
    each node's mass pushed through x + h b1(x), is split linearly
    between the two nodes around it (np.bincount); then the law is
    convolved with ``_noise_taps`` (np.convolve).  The split adds about
    f (1 - f) dx^2 of variance per step and the cell integration dx^2/12,
    so the laws are second order in dx.  b1 does not read the law, so
    the push map is computed once; a mean-field drift would recompute it
    from each step's law.

    Raises NumericalFailure, naming the step, once a law has lost more
    than LOST_MASS_TOL of its mass off the grid, pushed past its edges
    or spread across them.
    """
    starts = np.asarray(starts, dtype=float)
    if steps < 1:
        raise ValueError("the chain needs at least one step")
    dx, half, _ = euler_grid(float(np.max(np.abs(starts))), steps * step_size,
                             step_size, per_sqrt_h)
    n = 2 * int(half) + 1
    first = -half * dx
    nodes = first + dx * np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        pushed = nodes + step_size * b1(nodes)
        below, up, off = _split(pushed, first, dx, n)
    del nodes, pushed
    stay = np.where(off, 0.0, 1.0 - up)
    up[off] = 0.0
    above = below + 1
    taps = _noise_taps(per_sqrt_h)
    reach = len(taps) // 2

    laws = np.zeros((len(starts), n))
    at, share, _ = _split(starts, first, dx, n)  # every start is inside the grid
    for law, i, f, x0 in zip(laws, at, share, starts):
        law[i], law[i + 1] = 1.0 - f, f
        for k in range(1, steps + 1):
            moved = np.bincount(below, law * stay, n)
            moved += np.bincount(above, law * up, n)
            law[:] = np.convolve(moved, taps)[reach:reach + n]
            lost = 1.0 - law.sum()
            if not lost <= LOST_MASS_TOL:
                raise NumericalFailure(
                    f"the Euler chain's law from {x0:g} lost {lost:.3g} of its mass "
                    f"off the grid [{first:g}, {-first:g}] by step {k}")
    return first, dx, laws


@dataclass(frozen=True)
class LocalAlpha(Record):
    """The local overlap 1 - max TV/2 of the start laws, its grid
    tolerance, the grid step it was read at, and the pair of starts whose
    laws are furthest apart."""

    alpha_hat: float
    grid_tolerance: float
    grid_dx: float
    worst_pair: tuple


# The default start grid of estimate_local_alpha: this many points
# evenly spaced on [-R, R].
LOCAL_ALPHA_STARTS = 5


def estimate_local_alpha(
    b1: Callable[[np.ndarray], np.ndarray],
    R: float,
    t: float,
    binning: Binning = Binning(),
    x_grid: np.ndarray | None = None,
    step_size: float = 0.01,
) -> LocalAlpha:
    """Overlap of the time-t laws of the Euler chain of
    dY = b1(Y) dt + dW, in one dimension, across starting points in the
    R-ball:

        alpha_hat(R, t) = 1 - (1/2) max over start pairs of
                          tv between their binned laws,

    each law propagated on a grid by ``euler_laws`` and binned by
    ``binning.grid_masses``.  The starts are ``x_grid``, or
    LOCAL_ALPHA_STARTS points evenly spaced on [-R, R].  The grid
    tolerance is |alpha_hat - alpha_hat at 2 dx|: the error is second
    order in dx, so the tolerance is about three times the error of
    alpha_hat against the Euler chain's exact laws.
    """
    if not (R > 0 and t > 0):
        raise ValueError("R and t must be positive")
    if x_grid is None:
        x_grid = np.linspace(-R, R, LOCAL_ALPHA_STARTS)
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1:
        raise ValueError(f"the grid holds laws in one dimension only; x_grid has "
                         f"shape {x_grid.shape}")
    if len(x_grid) < 2:
        raise ValueError(f"x_grid needs two or more starts, got {len(x_grid)}")
    if not np.all(np.abs(x_grid) <= R + 1e-12):
        raise ValueError("x_grid must lie inside the R-ball")
    steps = int(round(t / step_size))

    def overlap(per_sqrt_h):
        first, dx, laws = euler_laws(b1, x_grid, step_size, steps, per_sqrt_h)
        masses = [binning.grid_masses(first, dx, law) for law in laws]
        pairs = [(i, j) for i in range(len(masses)) for j in range(i + 1, len(masses))]
        tvs = [Binning.tv(masses[i], masses[j]) for i, j in pairs]
        worst = int(np.argmax(tvs))
        return 1.0 - tvs[worst] / 2.0, dx, pairs[worst]

    alpha_hat, dx, (i, j) = overlap(GRID_CELLS)
    coarse, _, _ = overlap(GRID_CELLS // 2)
    return LocalAlpha(alpha_hat, abs(alpha_hat - coarse), dx,
                      (float(x_grid[i]), float(x_grid[j])))


# ---------------------------------------------------------------------------
# Lyapunov regression.


@dataclass(frozen=True)
class LyapunovFit(Record):
    """Least squares fit of mean-weight recursion m_{k+1} = gamma m_k + K
    across snapshots one lag apart."""

    gamma_hat: float
    K_hat: float
    lag: float
    n_points: int
    residual_rms: float
    degenerate: bool
    predicted_gamma: float


def mean_weight(V: Callable, points: np.ndarray) -> float:
    """The mean of V over a flat cloud, V evaluated into one array a
    block at a time; inf where V overflows, with no warning."""
    weights = np.empty(len(points))
    with np.errstate(over="ignore"):
        for rows in _row_blocks(len(points)):
            weights[rows] = V(points[rows])
        return float(np.mean(weights))


def lyapunov_diagnostic(
    snapshots: Sequence[tuple[float, float]],
    V: WeightFunction,
    lag: float,
) -> LyapunovFit:
    """Regress the mean weight along the trajectory at lag multiples.

    ``snapshots`` holds (time, mean of V) pairs, as a run observing
    ``mean_weight(V, x)`` returns them.  Needs pairs at times 0, lag,
    2 lag, ... (within a relative 1e-9); at least three of them.  A flat
    series (already at equilibrium, or a frozen ensemble) cannot identify
    gamma and comes back flagged degenerate.  ``predicted_gamma`` is V's
    own decay factor per lag.  A mean weight that is not finite, or too
    large for the fit to square, raises NumericalFailure naming its time.
    """
    if lag <= 0:
        raise ValueError("lag must be positive")
    wanted = sorted((t, m) for t, m in snapshots
                    if abs(t / lag - round(t / lag)) <= 1e-9 * max(1.0, t / lag))
    if len(wanted) < 3:
        raise ValueError(
            f"need at least 3 snapshots at lag multiples, found {len(wanted)}"
        )
    most = math.sqrt(sys.float_info.max / len(wanted))  # the fit sums their squares
    for time, weight in wanted:
        if not weight <= most:
            raise NumericalFailure(f"lyapunov: the mean weight at t = {time:g} is "
                                   f"{weight:.6g}, over the {most:.6g} a fit can square")
    m = np.array([weight for _, weight in wanted])

    prev, nxt = m[:-1], m[1:]
    fit = dict(lag=lag, n_points=len(m), predicted_gamma=V.predicted_gamma(lag))
    if float(np.var(prev)) < 1e-14 * (1.0 + float(np.mean(prev)) ** 2):
        return LyapunovFit(gamma_hat=float("nan"), K_hat=float(np.mean(nxt)),
                           residual_rms=0.0, degenerate=True, **fit)
    slope, intercept = np.polyfit(prev, nxt, 1)
    resid = nxt - (slope * prev + intercept)
    return LyapunovFit(gamma_hat=float(slope), K_hat=float(intercept),
                       residual_rms=float(np.sqrt(np.mean(resid**2))), degenerate=False,
                       **fit)


# ---------------------------------------------------------------------------
# Coupled-run bound check.


@dataclass(frozen=True)
class GirsanovReport(Record):
    """Histogram distances between two coupled runs against the
    exponential coupling bound sqrt(2) tv0 exp(4 eps^2 L^2 t)."""

    times: tuple
    estimates: tuple
    bounds: tuple
    allowance: float
    tv0: float
    epsilon: float
    lipschitz_L: float
    violations: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def csv_rows(self):
        for t, est, b in zip(self.times, self.estimates, self.bounds):
            yield (t, est, b, b + self.allowance - est)


def girsanov_rate(epsilon: float, lipschitz_L: float) -> float:
    """The rate 4 eps^2 L^2 of the coupling bound, as 4 (eps L)(eps L): it
    overflows only when the rate itself does, however large eps or L."""
    el = epsilon * lipschitz_L
    return 4.0 * el * el


def girsanov_bound_check(run_a: Run, run_b: Run, tv0: float, epsilon: float,
                         lipschitz_L: float, allowance: float = 0.0) -> GirsanovReport:
    """Compare the histogram distance of two runs of one binning, driven
    by the same noise from two initial laws, with
    sqrt(2) tv0 exp(4 eps^2 L^2 t) + allowance at each snapshot.

    ``tv0`` is the total variation between the exact initial laws (not
    estimated from particles); ``allowance`` covers the estimator's
    noise, the bootstrap_floor of the mu0 run for instance.
    """
    if not 0.0 <= tv0 <= 2.0:
        raise ValueError("tv0 must lie in [0, 2]")
    if not allowance >= 0.0:
        raise ValueError("allowance must be nonnegative")
    if not run_a:
        raise ValueError("need at least one snapshot")
    times, estimates = _distances(run_a, run_b)
    rate = girsanov_rate(epsilon, lipschitz_L)
    bounds = [math.sqrt(2.0) * tv0 * math.exp(rate * t) for t in times]
    violations = [(t, est, bound) for t, est, bound in zip(times, estimates, bounds)
                  if est > bound + allowance]
    return GirsanovReport(
        times=tuple(times),
        estimates=tuple(estimates),
        bounds=tuple(bounds),
        allowance=allowance,
        tv0=tv0,
        epsilon=epsilon,
        lipschitz_L=lipschitz_L,
        violations=tuple(violations),
    )


def _distances(run_a: Run, run_b: Run) -> tuple[list, list]:
    """The snapshot times of two runs and their histogram distances, one
    per snapshot.  Raises ValueError unless the runs have the same
    snapshot count and times (within 1e-9)."""
    if len(run_a) != len(run_b):
        raise ValueError("trajectories have different snapshot counts")
    times, tvs = [], []
    for (t, p), (u, q) in zip(run_a, run_b):
        if abs(t - u) > 1e-9:
            raise ValueError("snapshot times differ between trajectories")
        times.append(t)
        tvs.append(Binning.tv(p, q))
    return times, tvs


# ---------------------------------------------------------------------------
# Noise floors.


# The pairs of count vectors bootstrap_floor draws at each snapshot, and
# the most it draws in one call.
BOOTSTRAP_PAIRS = 200
_BOOTSTRAP_CHUNK = 25


def bootstrap_floor(run: Run, n: int, seed: int) -> float:
    """Noise floor of the histogram distance between two independent
    runs from the law of ``run``, taken from ``run`` alone: a parametric
    bootstrap (B. Efron, Ann. Statist. 7 (1979)).  ``run`` holds the
    (time, cell masses) pairs of a run observing ``Binning.masses`` of
    its n particles.

    At each snapshot with t > 0, with cell masses p, draw
    BOOTSTRAP_PAIRS pairs of multinomial(n, p) count vectors and take
    each pair's distance, the sum of |count differences| over n.  The
    floor is the 99th percentile of all those distances.

    The bootstrap is exact for independent particles.  Mean-field
    particles are not independent: they are exchangeable and interact
    only through the empirical law, here its mean, so that they become
    independent as n grows (propagation of chaos; A.-S. Sznitman,
    Topics in propagation of chaos, 1991).  The floor assumes they are
    independent already at the simulated n.

    The draws come from the (seed, 2**64 - 1) stream, which no step of
    any run uses, so the floor is a function of the run's masses, n and
    the seed, whichever process stepped the run.  A cell of
    mass 0 always counts 0 and is left out of the draws, so a draw holds
    at most min(n, cells) counts.
    """
    snapshots = [p for t, p in run if t > 0.0]
    if not snapshots:
        raise ValueError("the bootstrap needs a snapshot at a positive time")
    rng = _stream(seed, 2**64 - 1)  # a run's stream tags are its steps
    samples = np.empty((len(snapshots), BOOTSTRAP_PAIRS))
    for row, p in zip(samples, snapshots):
        p = p[p > 0.0]
        # a chunk of pairs stays within a block of memory, or is one pair
        chunk = max(1, min(_BOOTSTRAP_CHUNK, _BLOCK_BYTES // (16 * len(p))))
        for start in range(0, BOOTSTRAP_PAIRS, chunk):
            draws = rng.multinomial(n, p, size=(min(chunk, BOOTSTRAP_PAIRS - start), 2))
            diff = np.subtract(draws[:, 0], draws[:, 1], out=draws[:, 0])
            np.abs(diff, out=diff)
            row[start:start + len(draws)] = diff.sum(axis=1) / n
    return _percentile_99(samples)


def _percentile_99(samples) -> float:
    """``np.percentile(samples, 99.0)`` with numpy's default linear rule,
    computed from ``np.sort``: np.percentile imports numpy.ma on its
    first call, which holds its memory for the rest of the process."""
    x = np.sort(samples, axis=None)
    index = (x.size - 1) * 0.99
    low = math.floor(index)
    if low >= x.size - 1:
        return float(x[-1])
    gamma, a, b = index - low, x[low], x[low + 1]
    return float(b - (b - a) * (1.0 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


# ---------------------------------------------------------------------------
# Exponential decay fit.


class DecayFitError(RuntimeError):
    """Too few distance points above the noise floor to fit a rate."""

    def __init__(self, message: str, usable: int, tv_values: list):
        super().__init__(message)
        self.usable = usable
        self.tv_values = tv_values


@dataclass(frozen=True)
class DecayFit(Record):
    """Least squares fit of log tv(t) = log C - theta t on the points
    above the noise floor, with a 95 percent band on theta."""

    theta: float
    theta_lower: float
    theta_upper: float
    log_c: float
    n_used: int
    times: tuple
    tv_values: tuple
    noise_floor: float


def fit_decay(run_a: Run, run_b: Run, noise_floor: float = 0.0) -> DecayFit:
    """Exponential decay rate of the histogram distance between two
    trajectories sharing snapshot times, given as (time, cell masses)
    pairs of one binning.

    Points at or below ``noise_floor`` carry no rate information and are
    dropped; fewer than three survivors raise DecayFitError (identical
    runs, or a floor set too high).
    """
    times, tvs = _distances(run_a, run_b)
    keep = [i for i, v in enumerate(tvs) if v > noise_floor]
    if len(keep) < 3:
        raise DecayFitError(
            f"only {len(keep)} distance points above the noise floor "
            f"{noise_floor:g}; cannot fit a decay rate",
            len(keep),
            tvs,
        )
    t = np.array([times[i] for i in keep])
    y = np.log([tvs[i] for i in keep])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    dof = len(keep) - 2
    if dof > 0:
        sigma2 = float(resid @ resid) / dof
        se = math.sqrt(sigma2 / float(((t - t.mean()) ** 2).sum()))
    else:
        se = float("nan")
    theta = -float(slope)
    return DecayFit(
        theta=theta,
        theta_lower=theta - 1.96 * se,
        theta_upper=theta + 1.96 * se,
        log_c=float(intercept),
        n_used=len(keep),
        times=tuple(times),
        tv_values=tuple(tvs),
        noise_floor=noise_floor,
    )
