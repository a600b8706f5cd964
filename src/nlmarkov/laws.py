"""Initial laws of a particle run.  ``parse`` reads one of the ``FORMS``
into a ``Point``, ``Gauss`` or ``Mix`` record: the sampler that
``simulate`` takes, ``law(rng, x)`` filling the flat float array x of
positions in place.  ``tv`` is the exact total variation distance
between two laws."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["FORMS", "Point", "Gauss", "Mix", "floats", "parse", "tv"]

FORMS = "point:x, gauss:mean,std or mix:x0,x1,w0"

# A bound on |z| for numpy's standard normal draws, which stay below
# 12.23: its ziggurat's tail draw is r + x, r = 3.654, accepted only if
# x^2 < 2 ln(1/U) <= 2 * 53 ln 2 for a 53-bit uniform U.
Z_BOUND = 13.0


@dataclass(frozen=True)
class Point:
    """Every particle at x0."""

    x0: float

    def __call__(self, rng: np.random.Generator, x: np.ndarray) -> None:
        x[:] = self.x0

    def atoms(self) -> dict:
        return {self.x0: 1}


@dataclass(frozen=True)
class Gauss:
    """Independent draws mean + std * z, z standard normal, refused
    unless every |z| up to ``Z_BOUND`` keeps them in the float range."""

    mean: float
    std: float

    def __post_init__(self):
        if not 0 < self.std < math.inf:
            raise ValueError("std must be finite and positive")
        if not abs(self.mean) + Z_BOUND * self.std <= sys.float_info.max:
            raise ValueError(f"mean {self.mean:g} and std {self.std:g} put mean + std * z "
                             f"past the float range for |z| up to {Z_BOUND:g}")

    def __call__(self, rng: np.random.Generator, x: np.ndarray) -> None:
        rng.standard_normal(out=x)
        x *= self.std
        x += self.mean


@dataclass(frozen=True)
class Mix:
    """Weight w0 at x0 and 1 - w0 at x1, split deterministically:
    round(w0 n) of the n particles at x0, the rest at x1.  The split and
    ``tv`` work in w0's own arithmetic; a Fraction keeps both exact."""

    x0: float
    x1: float
    w0: float

    def __post_init__(self):
        if not 0 <= self.w0 <= 1:
            raise ValueError("weight0 must lie in [0, 1]")

    def __call__(self, rng: np.random.Generator, x: np.ndarray) -> None:
        n0 = round(self.w0 * len(x))
        x[:n0] = self.x0
        x[n0:] = self.x1

    def atoms(self) -> dict:
        atoms = {self.x0: self.w0}
        atoms[self.x1] = atoms.get(self.x1, 0) + (1 - self.w0)
        return atoms


def floats(value, field: str) -> list:
    """The finite numbers of a list or of comma-separated text."""
    if isinstance(value, (list, tuple)):
        try:
            vals = [float(v) for v in value]
        except (TypeError, ValueError):
            raise ValueError(f"{field} must hold numbers, got {value!r}")
    else:
        try:
            vals = [float(tok) for tok in str(value).split(",") if tok != ""]
        except ValueError:
            raise ValueError(f"{field} must be comma-separated numbers, got {value!r}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{field} must hold finite numbers, got {value!r}")
    return vals


def parse(text, field: str) -> Point | Gauss | Mix:
    """The law that ``text`` names, a mix weight exact in its decimal
    text; a ValueError naming ``field`` if it names none."""
    text = str(text)
    kind, _, rest = text.partition(":")
    vals = floats(rest, field) if rest else []
    try:
        if kind == "point" and len(vals) == 1:
            return Point(vals[0])
        if kind == "gauss" and len(vals) == 2:
            return Gauss(vals[0], vals[1])
        if kind == "mix" and len(vals) == 3:
            from fractions import Fraction
            w0 = [tok for tok in rest.split(",") if tok != ""][2]
            # Fraction expands the exponent; 4300 is CPython's int digit limit
            if abs(int(w0.lower().partition("e")[2] or 0)) > 4300:
                raise ValueError(f"weight0 {w0!r} has an exponent over 4300 in magnitude")
            return Mix(vals[0], vals[1], Fraction(w0))
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}")
    raise ValueError(f"{field} must be {FORMS}; got {text!r}")


def tv(a: Point | Gauss | Mix, b: Point | Gauss | Mix) -> float:
    """Exact total variation distance, in [0, 2], between two laws in one
    dimension: the sum of |mass differences| over atoms, 2 between atoms
    and a Gauss, and for two Gauss laws twice the narrow law's mass minus
    the wide law's mass where the narrow density is the larger."""
    if not isinstance(a, Gauss) and not isinstance(b, Gauss):
        pa, pb = a.atoms(), b.atoms()
        return float(sum(abs(pa.get(x, 0) - pb.get(x, 0)) for x in pa.keys() | pb.keys()))
    if not isinstance(a, Gauss) or not isinstance(b, Gauss):
        return 2.0
    from statistics import NormalDist
    # Scale-free: r = s_narrow / s_wide and d = |dm| / s_wide.  In the
    # narrow law's z-units u the wide law's CDF is Phi(d + r u), and the
    # narrow density is the larger between the roots of
    # (1 - r^2) u^2 - 2 d r u - d^2 - 2 ln(1/r).
    (m1, s1), (m2, s2) = sorted([(a.mean, a.std), (b.mean, b.std)], key=lambda law: law[1])
    r, d = s1 / s2, abs(m1 - m2) / s2
    phi = NormalDist().cdf
    if r == 1.0:
        return 2.0 * (2.0 * phi(d / 2.0) - 1.0)
    curvature, log_ratio = (1.0 - r) * (1.0 + r), math.log(s2 / s1)
    q = d * r + math.hypot(d, math.sqrt(2.0 * curvature * log_ratio))
    if not math.isfinite(q):  # d or 1/r overflowed: the laws are disjoint
        return 2.0
    # u1 u2 = -(d^2 + 2 ln(1/r)) / (1 - r^2) gives u1 free of cancellation
    u1, u2 = -(d * (d / q) + 2.0 * log_ratio / q), q / curvature
    return 2.0 * ((phi(u2) - phi(u1)) - (phi(d + r * u2) - phi(d + r * u1)))
