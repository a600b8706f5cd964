"""Probability measures on finite state spaces, with the distances used
throughout the package.

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
    "weighted_tv_distance",
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
        # finite weights can still sum past the float range; the message
        # names the inf sum, so numpy need not warn about it
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if abs(total - 1.0) > self.tol:
            raise ValueError(
                f"weights sum to {total:.17g}, not 1 within {self.tol:g}"
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


def _as_weights(mu) -> np.ndarray:
    if isinstance(mu, DiscreteMeasure):
        return mu.weights
    return DiscreteMeasure(np.asarray(mu, dtype=float)).weights


def weighted_tv_distance(mu, nu, f) -> float:
    """Weighted total variation sum_i f_i |mu_i - nu_i|.

    For f identically 1 this is d_tv; with f = 1 + beta*V it is the
    weighted metric used by the drift-condition certificates.
    The weight must be nonnegative.
    """
    p, q = _as_weights(mu), _as_weights(nu)
    w = np.asarray(f, dtype=float)
    if p.shape != q.shape or w.shape != p.shape:
        raise ValueError("measures and weight must share one state space")
    if np.any(w < 0.0):
        raise ValueError("weight function must be nonnegative")
    return float((w * np.abs(p - q)).sum())
