"""Probability measures on finite state spaces and on R^d, with the
distances used throughout the package.

Total variation here follows the convention

    d_tv(mu, nu) = sum_i |mu_i - nu_i|,

so the distance between mutually singular measures is 2, not 1.  All
bounds produced elsewhere in the package (contraction rates, coupling
inequalities) are stated in this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-12

__all__ = [
    "DiscreteMeasure",
    "EmpiricalMeasure",
    "HistogramDensity",
    "tv_distance",
    "weighted_tv_distance",
    "histogram_of",
    "tv_between_histograms",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability vector on the finite state space {1, ..., n}.

    Weights must be nonnegative and sum to 1 within ``tol``.  Inputs that
    fail are rejected, never silently renormalized.
    """

    weights: np.ndarray
    tol: float = field(default=MASS_TOL, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > self.tol:
            raise ValueError(
                f"weights sum to {w.sum():.17g}, not 1 within {self.tol:g}"
            )
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @staticmethod
    def dirac(state: int, size: int) -> "DiscreteMeasure":
        """Point mass at ``state`` (0-based) on a space of ``size`` states."""
        if not 0 <= state < size:
            raise ValueError(f"state {state} outside space of size {size}")
        w = np.zeros(size)
        w[state] = 1.0
        return DiscreteMeasure(w)

    @staticmethod
    def uniform(size: int) -> "DiscreteMeasure":
        return DiscreteMeasure(np.full(size, 1.0 / size))

    @staticmethod
    def two_point(a: float) -> "DiscreteMeasure":
        """The measure (a, 1 - a) on a two-state space."""
        if not 0.0 <= a <= 1.0:
            raise ValueError("a must lie in [0, 1]")
        return DiscreteMeasure(np.array([a, 1.0 - a]))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform empirical measure carried by a cloud of sample points.

    ``points`` has shape (n, d); one-dimensional input is reshaped to
    a column.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_samples(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    @classmethod
    def view(cls, points: np.ndarray) -> "EmpiricalMeasure":
        """Wrap ``points`` as they are, without the copy and the checks:
        the caller guarantees a finite, read-only (n, d) float array.  The
        measure follows the array, so whoever owns the data may change it
        between uses; ``simulate`` passes its particles to the drift this
        way while it steps them in place."""
        law = object.__new__(cls)
        object.__setattr__(law, "points", points)
        return law

    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)


@dataclass(frozen=True)
class HistogramDensity:
    """Mass-per-bin summary of a sample cloud on a fixed rectangular grid.

    ``masses`` has shape ``bin_count`` (one axis per coordinate) and
    ``overflow`` collects everything falling outside the box, so the
    total is always 1.  Two histograms are comparable only if they share
    bounds and bin counts exactly.
    """

    lower: np.ndarray
    upper: np.ndarray
    bin_count: tuple
    masses: np.ndarray
    overflow: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        bc = tuple(int(b) for b in np.atleast_1d(self.bin_count))
        if lo.shape != hi.shape or lo.size != len(bc):
            raise ValueError("lower, upper and bin_count must agree per axis")
        if np.any(hi <= lo):
            raise ValueError("upper must exceed lower on every axis")
        if any(b < 1 for b in bc):
            raise ValueError("bin_count must be at least 1 per axis")
        m = np.asarray(self.masses, dtype=float)
        if m.shape != bc:
            raise ValueError("masses shape must equal bin_count")
        if self.overflow < -MASS_TOL or np.any(m < -MASS_TOL):
            raise ValueError("bin masses must be nonnegative")
        total = float(m.sum() + self.overflow)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"histogram mass {total:.17g} is not 1")
        for arr in (lo, hi, m):
            arr.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "bin_count", bc)
        object.__setattr__(self, "masses", m)

    def same_binning(self, other: "HistogramDensity") -> bool:
        return (
            self.bin_count == other.bin_count
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )


def _as_weights(mu) -> np.ndarray:
    if isinstance(mu, DiscreteMeasure):
        return mu.weights
    return DiscreteMeasure(np.asarray(mu, dtype=float)).weights


def tv_distance(mu, nu) -> float:
    """Total variation distance sum_i |mu_i - nu_i| between two discrete
    measures on the same state space.  Ranges over [0, 2].
    """
    p, q = _as_weights(mu), _as_weights(nu)
    if p.shape != q.shape:
        raise ValueError("measures live on different state spaces")
    return float(np.abs(p - q).sum())


def weighted_tv_distance(mu, nu, f) -> float:
    """Weighted total variation sum_i f_i |mu_i - nu_i|.

    For f identically 1 this reduces to ``tv_distance``; with f = 1 + beta*V
    it is the weighted metric used by the drift-condition certificates.
    The weight must be nonnegative.
    """
    p, q = _as_weights(mu), _as_weights(nu)
    w = np.asarray(f, dtype=float)
    if p.shape != q.shape or w.shape != p.shape:
        raise ValueError("measures and weight must share one state space")
    if np.any(w < 0.0):
        raise ValueError("weight function must be nonnegative")
    return float((w * np.abs(p - q)).sum())


def histogram_of(ensemble: EmpiricalMeasure, bounds, bin_count) -> HistogramDensity:
    """Bin a sample cloud on the rectangular grid given by ``bounds``
    (a (lower, upper) pair, scalars in 1-d or per-axis arrays) and
    ``bin_count`` bins per axis.  All bins are half-open [l, u), so a
    sample exactly at the upper bound counts as ``overflow`` along with
    everything else outside the box.
    """
    if not isinstance(ensemble, EmpiricalMeasure):
        ensemble = EmpiricalMeasure(np.asarray(ensemble))
    lo = np.atleast_1d(np.asarray(bounds[0], dtype=float))
    hi = np.atleast_1d(np.asarray(bounds[1], dtype=float))
    bc = np.atleast_1d(bin_count).astype(int)
    d = ensemble.dimension
    if lo.size == 1 and d > 1:
        lo = np.full(d, lo[0])
    if hi.size == 1 and d > 1:
        hi = np.full(d, hi[0])
    if bc.size == 1 and d > 1:
        bc = np.full(d, bc[0])
    if lo.size != d or hi.size != d or bc.size != d:
        raise ValueError("bounds/bin_count do not match sample dimension")
    if np.any(hi <= lo):
        raise ValueError("upper bound must exceed lower bound")
    if np.any(bc < 1):
        raise ValueError("need at least one bin per axis")

    pts = ensemble.points
    n = ensemble.n_samples
    inside = np.all((pts >= lo) & (pts < hi), axis=1)
    kept = pts[inside]
    idx = np.empty((kept.shape[0], d), dtype=int)
    for k in range(d):
        width = (hi[k] - lo[k]) / bc[k]
        col = np.floor((kept[:, k] - lo[k]) / width).astype(int)
        # clamp guards against rounding at the topmost representable
        # float below the upper edge; the edge itself is already out
        idx[:, k] = np.minimum(col, bc[k] - 1)
    flat = np.ravel_multi_index(idx.T, tuple(bc)) if kept.size else np.array([], dtype=int)
    counts = np.bincount(flat, minlength=int(np.prod(bc))).reshape(tuple(bc))
    masses = counts / n
    overflow = float((~inside).sum()) / n
    return HistogramDensity(lo, hi, tuple(int(b) for b in bc), masses, overflow)


def tv_between_histograms(a: HistogramDensity, b: HistogramDensity) -> float:
    """Total variation between two histograms with identical binning:
    sum over bins of |mass difference| plus the overflow difference.
    """
    if not a.same_binning(b):
        raise ValueError("histograms use different binnings")
    return float(np.abs(a.masses - b.masses).sum() + abs(a.overflow - b.overflow))
