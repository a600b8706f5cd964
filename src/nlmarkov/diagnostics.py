"""Statistical diagnostics for the particle simulations: histogram
total variation over time, exponential decay fits, local overlap of
transition laws, Lyapunov regressions, and coupled-run bound checks.

All total variation estimates here go through a fixed shared binning,
declared once per experiment, because comparing histograms with
different bins estimates nothing.  Monte Carlo noise gives the
estimates a positive floor; checks that compare against theoretical
bounds therefore carry an explicit allowance, bootstrapped from a run
they already made, instead of pretending the estimator is exact.
"""

from __future__ import annotations

import math
import sys
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mckean_vlasov import (
    SMVESpec,
    WeightFunction,
    _BLOCK_BYTES,
    _row_blocks,
    _stream,
    simulate,
    simulate_runs,
)
from .reporting import NumericalFailure, Record

__all__ = [
    "Binning",
    "LyapunovFit",
    "DecayFit",
    "DecayFitError",
    "GirsanovReport",
    "estimate_local_alpha",
    "LOCAL_ALPHA_STARTS",
    "lyapunov_diagnostic",
    "mean_weight",
    "girsanov_bound_check",
    "girsanov_rate",
    "BOOTSTRAP_PAIRS",
    "bootstrap_floor",
    "calibrate_tv_allowance",
    "fit_decay",
]


@dataclass(frozen=True)
class Binning(Record):
    """Shared histogram grid: [lower, upper) split into ``bins`` half-open
    bins per axis.  The one place where particle clouds are binned and
    their total variation is measured."""

    lower: float = -10.0
    upper: float = 10.0
    bins: int = 200

    def __post_init__(self):
        if not -math.inf < self.lower < self.upper < math.inf:
            raise ValueError("lower and upper must be finite, upper above lower")
        if self.bins < 1:
            raise ValueError("bins must be positive")

    def masses(self, points: np.ndarray) -> np.ndarray:
        """Masses of an (n, d) cloud: the ``bins**d`` cells in C order,
        then the overflow, the mass outside the box.  A point exactly at
        the upper bound is outside.  The cloud is binned a block of rows
        at a time into the one float array returned, whose counts stay
        exact integers until they are divided by n."""
        n, d = points.shape
        width = (self.upper - self.lower) / self.bins
        strides = self.bins ** np.arange(d - 1, -1, -1)
        masses = np.zeros(self.bins**d + 1)
        for rows in _row_blocks(n, d):
            block = points[rows]
            if not np.all(np.isfinite(block)):
                raise ValueError("points must be finite")
            inside = np.all((block >= self.lower) & (block < self.upper), axis=1)
            # clamping at bins - 1 guards against rounding at the topmost
            # float below the upper bound (the bound itself is outside); at
            # 0, it keeps far outside points castable.  In place, and each
            # block's scratch dropped before the next, so that binning beside
            # a run's own blocks holds at most two blocks more.
            scaled = np.subtract(block, self.lower)
            scaled /= width
            np.floor(scaled, out=scaled)
            cells = np.clip(scaled, 0, self.bins - 1, out=scaled).astype(int)
            del scaled
            cells = cells @ strides
            cells[~inside] = self.bins**d
            np.add.at(masses, cells, 1.0)
            del cells, inside
        masses /= n
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
# Local overlap of transition laws.


# The default start grid of estimate_local_alpha: this many points
# evenly spaced on [-R, R].
LOCAL_ALPHA_STARTS = 5


def estimate_local_alpha(
    b1: Callable[[np.ndarray], np.ndarray],
    R: float,
    t: float,
    n_sims: int,
    binning: Binning = Binning(),
    x_grid: np.ndarray | None = None,
    step_size: float = 0.01,
    seed: int = 101,
) -> float:
    """Overlap of the time-t laws of dY = b1(Y) dt + dW across starting
    points in the R-ball:

        alpha_hat(R, t) = 1 - (1/2) max over start pairs of
                          tv between their histogram laws.

    Monte Carlo noise biases the histogram distance upward (pushing
    alpha_hat down, toward caution); very coarse bins push the other way
    by smearing the laws together.  With the default binning the noise
    term dominates at practical n_sims.
    """
    if R <= 0 or t <= 0:
        raise ValueError("R and t must be positive")
    if n_sims < 100:
        raise ValueError("need at least 100 simulations per start")
    if x_grid is None:
        x_grid = np.linspace(-R, R, LOCAL_ALPHA_STARTS)[:, None]
    else:
        x_grid = np.asarray(x_grid, dtype=float)
        if x_grid.ndim == 1:
            x_grid = x_grid[:, None]
    if np.any(np.linalg.norm(x_grid, axis=1) > R + 1e-12):
        raise ValueError("x_grid must lie inside the R-ball")

    k, d = x_grid.shape
    if k < 2:
        raise ValueError(f"x_grid needs two or more starts, got {k}")

    def sampler(rng, x):
        # n_sims rows at each start, in grid order
        x.reshape(k, n_sims, d)[:] = x_grid[:, None, :]

    def per_start(x):
        return [binning.masses(x[i * n_sims:(i + 1) * n_sims]) for i in range(k)]

    probe = SMVESpec(d, b1, None, 0.0, 0.0, 0.0, "local-alpha-probe")
    [(_, masses)] = simulate(probe, sampler, k * n_sims, step_size, t, seed, [t],
                             observe=per_start)
    worst = max(binning.tv(masses[i], masses[j])
                for i in range(k) for j in range(i + 1, k))
    return 1.0 - worst / 2.0


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
    predicted_gamma: float | None = None


def mean_weight(V: Callable, points: np.ndarray) -> float:
    """The mean of V over an (n, d) cloud, V evaluated into one array a
    block of rows at a time; inf where V overflows, with no warning."""
    weights = np.empty(len(points))
    with np.errstate(over="ignore"):
        for rows in _row_blocks(*points.shape):
            weights[rows] = np.reshape(V(points[rows]), -1)
        return float(np.mean(weights))


def lyapunov_diagnostic(
    snapshots: Sequence[tuple[float, float]],
    V: Callable,
    lag: float,
) -> LyapunovFit:
    """Regress the mean weight along the trajectory at lag multiples.

    ``snapshots`` holds (time, mean of V) pairs, as a run observing
    ``mean_weight(V, x)`` returns them.  Needs pairs at times 0, lag,
    2 lag, ... (within a relative 1e-9); at least three of them.  A flat
    series (already at equilibrium, or a frozen ensemble) cannot identify
    gamma and comes back flagged degenerate.  ``predicted_gamma`` is V's
    own decay factor per lag when V is a ``WeightFunction``, and None
    otherwise.  A mean weight that is not finite, or too large for the
    fit to square, raises NumericalFailure naming its time.
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
    predicted = V.predicted_gamma(lag) if isinstance(V, WeightFunction) else None
    m = np.array([weight for _, weight in wanted])

    prev, nxt = m[:-1], m[1:]
    fit = dict(lag=lag, n_points=len(m), predicted_gamma=predicted)
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


def girsanov_bound_check(
    spec: SMVESpec,
    mu0_sampler: Callable,
    nu0_sampler: Callable,
    tv0: float,
    times: Sequence[float],
    n_particles: int,
    step_size: float,
    seed: int,
    binning: Binning = Binning(),
    allowance: float | None = 0.0,
) -> GirsanovReport:
    """Run the same noise through two initial laws and compare their
    histogram distance with sqrt(2) tv0 exp(4 eps^2 L^2 t) + allowance.

    ``tv0`` is the total variation between the exact initial laws (not
    estimated from particles).  With ``allowance`` None, the allowance
    is the bootstrap_floor of the mu0 run, drawn at ``seed``.
    """
    if not 0.0 <= tv0 <= 2.0:
        raise ValueError("tv0 must lie in [0, 2]")
    if allowance is not None and allowance < 0.0:
        raise ValueError("allowance must be nonnegative")
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("need at least one time")
    horizon = max(times[-1], step_size)
    run_a, run_b = simulate_runs(spec, [(mu0_sampler, seed), (nu0_sampler, seed)],
                                 n_particles, step_size, horizon, times,
                                 observe=binning.masses)
    if allowance is None:
        allowance = bootstrap_floor(run_a, n_particles, seed)

    rate = girsanov_rate(spec.epsilon, spec.lipschitz_L)
    snap_times = tuple(t for t, _ in run_a)
    estimates = tuple(Binning.tv(p, q) for (_, p), (_, q) in zip(run_a, run_b))
    bounds = tuple(math.sqrt(2.0) * tv0 * math.exp(rate * t) for t in snap_times)
    violations = [(t, est, bound) for t, est, bound in zip(snap_times, estimates, bounds)
                  if est > bound + allowance]
    return GirsanovReport(
        times=snap_times,
        estimates=estimates,
        bounds=bounds,
        allowance=allowance,
        tv0=tv0,
        epsilon=spec.epsilon,
        lipschitz_L=spec.lipschitz_L,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Noise floors.


# The pairs of count vectors bootstrap_floor draws at each snapshot, and
# the most it draws in one call.
BOOTSTRAP_PAIRS = 200
_BOOTSTRAP_CHUNK = 25


def bootstrap_floor(run: Sequence[tuple[float, np.ndarray]], n: int,
                    seed: int) -> float:
    """Noise floor of the histogram distance between two independent
    runs from the law of ``run``, taken from ``run`` alone: a parametric
    bootstrap (B. Efron, Ann. Statist. 7 (1979)).  ``run`` holds the
    (time, cell masses) pairs of a run observing ``Binning.masses`` of
    its n particles.

    At each snapshot with t > 0, with cell masses p, draw
    BOOTSTRAP_PAIRS pairs of multinomial(n, p) count vectors and take
    each pair's distance, the sum of |count differences| over n.  The
    floor is the 99th percentile of all those distances, the quantile
    calibrate_tv_allowance takes over its runs.

    The bootstrap is exact for independent particles.  Mean-field
    particles are not independent: they are exchangeable and interact
    only through the empirical law, here its mean, so that they become
    independent as n grows (propagation of chaos; A.-S. Sznitman,
    Topics in propagation of chaos, 1991).  The floor assumes they are
    independent already at the simulated n.

    The draws come from the (seed, 2**64 - 1) stream, which no step of
    any run uses, so the floor is a function of the run's masses, n and
    the seed, whatever the worker layout.  A cell of
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


def calibrate_tv_allowance(
    spec: SMVESpec,
    sampler: Callable,
    times: Sequence[float],
    n_particles: int,
    step_size: float,
    seed: int,
    binning: Binning = Binning(),
    n_pairs: int = 5,
) -> float:
    """Noise floor of the histogram distance: run independent pairs of
    ensembles from the same law and take the 99th percentile of their
    distances over the requested times (t = 0 excluded; initial data has
    no Monte Carlo noise when samplers are deterministic).  It costs
    2 n_pairs runs; the commands take bootstrap_floor of a run they
    make anyway, and the tests compare the two."""
    times = [float(t) for t in times if t > 0.0]
    if not times:
        raise ValueError("calibration needs at least one positive time")
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    samples = []
    # Pair j is the runs at seeds seed + 2j + 1 and seed + 2j + 2, each
    # observed as its cell masses.
    runs = [(sampler, seed + k) for k in range(1, 2 * n_pairs + 1)]
    with closing(simulate_runs(spec, runs, n_particles, step_size, max(times),
                               times, observe=binning.masses)) as results:
        for run_a in results:
            run_b = next(results)
            samples += [Binning.tv(p, q) for (_, p), (_, q) in zip(run_a, run_b)]
    return _percentile_99(samples)


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


def fit_decay(
    run_a: Sequence[tuple[float, np.ndarray]],
    run_b: Sequence[tuple[float, np.ndarray]],
    noise_floor: float = 0.0,
) -> DecayFit:
    """Exponential decay rate of the histogram distance between two
    trajectories sharing snapshot times, given as (time, cell masses)
    pairs of one binning.

    Points at or below ``noise_floor`` carry no rate information and are
    dropped; fewer than three survivors raise DecayFitError (identical
    runs, or a floor set too high).
    """
    if len(run_a) != len(run_b):
        raise ValueError("trajectories have different snapshot counts")
    times, tvs = [], []
    for (t, p), (u, q) in zip(run_a, run_b):
        if abs(t - u) > 1e-9:
            raise ValueError("snapshot times differ between trajectories")
        times.append(t)
        tvs.append(Binning.tv(p, q))
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
