"""Executable checks that the ergodicity conditions are sharp.

Three constructions, each certified by replaying its defining algebra
numerically rather than by simulation alone:

* an oscillating two-state kernel with positive overlap whose orbits
  alternate forever at constant distance from the symmetric fixed point;
* a two-state kernel whose stationary measures fill a whole interval of
  mixtures;
* a chain on {1, ..., m} (a truncation of the construction on the
  positive integers) whose stationarity equation is self-contradictory,
  so the untruncated chain has no invariant law for lambda < 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ergodicity import evolve, find_invariant, verify_invariant
from .kernels import (
    MeasureGrid,
    continuum_kernel,
    estimate_alpha,
    estimate_lambda,
    no_invariant_kernel,
    oscillating_kernel,
)
from .measures import DiscreteMeasure
from .reporting import Claim

EXACT_TOL = 1e-12

__all__ = [
    "CounterexampleReport",
    "check_alpha_lam",
    "check_replay",
    "verify_oscillation",
    "verify_continuum",
    "verify_no_invariant_recursion",
]


@dataclass(frozen=True)
class CounterexampleReport:
    parameters: dict
    claims: tuple
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


def check_alpha_lam(p: dict) -> None:
    """Refuse p["alpha"] and p["lam"], named with their --, unless 0 <
    alpha < lam <= 1: the continuum and no-invariant constructions'."""
    if not 0.0 < p["alpha"] < p["lam"] <= 1.0:
        raise ValueError(f"--alpha and --lam need 0 < alpha < lam <= 1, got "
                         f"{p['alpha']:g} and {p['lam']:g}")


def check_replay(replay: str, p: dict) -> None:
    """Refuse out-of-range parameters of ``replay`` (oscillation,
    continuum or no-invariant), given under the names of their
    command-line options (gamma, a, alpha, lam, steps, n-max); each
    message names its option with its --.  The verify functions check
    here, and so does the CLI, before it writes any output."""
    if replay == "oscillation":
        gamma, a = p["gamma"], p["a"]
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"--gamma must lie in (0, 1), got {gamma:g}")
        if not gamma / 2.0 <= a <= 1.0 - gamma / 2.0:
            raise ValueError(f"--a must lie in [gamma/2, 1 - gamma/2] = "
                             f"[{gamma / 2.0:g}, {1.0 - gamma / 2.0:g}], got {a:g}")
        if p["steps"] < 2:
            raise ValueError(f"--steps must be at least 2, got {p['steps']}")
        return
    check_alpha_lam(p)
    if replay == "continuum" and p["steps"] < 0:
        raise ValueError(f"--steps must be nonnegative, got {p['steps']}")
    if replay == "no-invariant" and p["n-max"] < 2:
        raise ValueError(f"--n-max must be at least 2, got {p['n-max']}")


def verify_oscillation(gamma: float, a: float, n_steps: int = 50) -> CounterexampleReport:
    """Replay the oscillating kernel from (a, 1-a).

    Checks exact period-2 alternation, constant distance 2|a - 1/2| to
    the symmetric law, invariance of the symmetric law, an overlap
    estimate equal to gamma, and that fixed-point iteration fails
    (detecting the 2-cycle) unless started symmetric.
    """
    check_replay("oscillation", {"gamma": gamma, "a": a, "steps": n_steps})

    kernel = oscillating_kernel(gamma)
    mu0 = DiscreteMeasure.two_point(a)
    swapped = DiscreteMeasure.two_point(1.0 - a)
    pi = DiscreteMeasure.two_point(0.5)
    traj = evolve(kernel, mu0, n_steps)
    w = traj.weights

    alternating = np.where(np.arange(n_steps + 1)[:, None] % 2 == 0,
                           mu0.weights, swapped.weights)
    worst_period = float(np.abs(w - alternating).sum(axis=1).max())
    target = 2.0 * abs(a - 0.5)
    worst_dist = float(np.abs(np.abs(w - pi.weights).sum(axis=1) - target).max())
    residual = verify_invariant(kernel, pi)
    alpha_hat = estimate_alpha(kernel)

    claims = [
        Claim(
            "orbit alternates with period 2",
            worst_period <= EXACT_TOL,
            {"worst_deviation": worst_period, "steps": n_steps},
        ),
        Claim(
            "distance to the symmetric law is constant",
            worst_dist <= EXACT_TOL,
            {"target": target, "worst_deviation": worst_dist},
        ),
        Claim(
            "symmetric law is invariant",
            residual <= EXACT_TOL,
            {"residual": residual},
        ),
        Claim(
            "overlap estimate equals gamma",
            abs(alpha_hat - gamma) <= EXACT_TOL,
            {"alpha_hat": alpha_hat, "gamma": gamma},
        ),
    ]

    fp = find_invariant(kernel, mu0, max_iter=64)
    if target > EXACT_TOL:
        claims.append(
            Claim(
                "fixed-point iteration stalls on a 2-cycle",
                (not fp.converged) and fp.cycle_period == 2,
                {"converged": fp.converged, "cycle_period": fp.cycle_period},
            )
        )
    else:
        claims.append(
            Claim(
                "symmetric start converges immediately",
                fp.converged and fp.iterations == 0,
                {"converged": fp.converged, "iterations": fp.iterations},
            )
        )

    return CounterexampleReport(
        {"gamma": gamma, "a": a, "n_steps": n_steps},
        tuple(claims),
        {"trajectory_head": w[:6].tolist()},
    )


def verify_continuum(
    alpha: float,
    lam: float,
    a_samples: Sequence[float] | None = None,
    n_steps: int = 100,
) -> CounterexampleReport:
    """Check that every mixture a delta_1 + (1-a) delta_2 with a in
    [alpha/(2 lam), 1 - alpha/(2 lam)] is a fixed point, that distinct
    fixed points never attract each other, and that the grid estimates
    bracket the construction (alpha_hat >= alpha, lambda_hat <= lam).
    """
    check_replay("continuum", {"alpha": alpha, "lam": lam, "steps": n_steps})
    lo, hi = alpha / (2.0 * lam), 1.0 - alpha / (2.0 * lam)
    if a_samples is None:
        a_samples = np.linspace(lo, hi, 5).tolist()
    bad = [a for a in a_samples if not lo <= a <= hi]
    if bad:
        raise ValueError(f"samples {bad} outside the invariant interval [{lo:g}, {hi:g}]")

    kernel = continuum_kernel(alpha, lam)
    residuals = {
        float(a): verify_invariant(kernel, DiscreteMeasure.two_point(a))
        for a in a_samples
    }
    worst_resid = max(residuals.values())

    # Distinct fixed points: both trajectories are constant, so their
    # distance never moves from 2 |a1 - a2|.
    worst_pair_dev = 0.0
    samples = sorted(float(a) for a in a_samples)
    runs = [evolve(kernel, DiscreteMeasure.two_point(a), n_steps).weights
            for a in samples]
    for a1, a2, w1, w2 in zip(samples, samples[1:], runs, runs[1:]):
        target = 2.0 * abs(a1 - a2)
        dev = float(np.abs(np.abs(w1 - w2).sum(axis=1) - target).max())
        worst_pair_dev = max(worst_pair_dev, dev)

    grid = MeasureGrid.default(2)
    alpha_hat = estimate_alpha(kernel, grid)
    lambda_hat = estimate_lambda(kernel, grid)

    # A mixture strictly outside the interval must move.
    a_out = lo / 2.0
    outside_resid = verify_invariant(kernel, DiscreteMeasure.two_point(a_out))

    claims = (
        Claim(
            "sampled mixtures are all invariant",
            worst_resid <= EXACT_TOL,
            {"residuals": residuals},
        ),
        Claim(
            "distinct fixed points keep their distance",
            worst_pair_dev <= EXACT_TOL,
            {"worst_deviation": worst_pair_dev, "n_steps": n_steps},
        ),
        Claim(
            "grid estimates bracket the construction",
            alpha_hat >= alpha - EXACT_TOL and lambda_hat <= lam + EXACT_TOL,
            {"alpha_hat": alpha_hat, "lambda_hat": lambda_hat,
             "alpha": alpha, "lam": lam},
        ),
        Claim(
            "mixtures outside the interval are not invariant",
            outside_resid > 1e-9,
            {"a": a_out, "residual": outside_resid},
        ),
    )
    return CounterexampleReport(
        {"alpha": alpha, "lam": lam, "a_samples": list(map(float, a_samples)),
         "n_steps": n_steps},
        claims,
        {"invariant_interval": [lo, hi]},
    )


def verify_no_invariant_recursion(
    alpha: float, lam: float, n_max: int = 50
) -> CounterexampleReport:
    """Replay the stationarity algebra of the chain on the positive
    integers and exhibit its contradiction.

    For lambda < 1 a stationary law mu would need mu({1}) = alpha
    (the branch mu({1}) >= alpha/lambda collapses to mu({1}) = 0), a
    geometric profile mu({i}) = alpha (1-lambda)^{i-1} below the first
    index n where lambda mu({1..n}) >= alpha, and then the balance
    equation at n itself solves to mu({n}) = 0 for every hypothetical
    n, contradicting the definition of n.  At lambda = 1 the equation
    degenerates (coefficient 1 - lambda vanishes) and the argument
    gives nothing; that boundary is flagged, not asserted.
    """
    check_replay("no-invariant", {"alpha": alpha, "lam": lam, "n-max": n_max})

    if lam == 1.0:
        # Degenerate boundary: the shift term vanishes and rows equal the
        # input law wherever its first-state mass is at least alpha, so
        # stationary laws exist.  Exhibit one on a truncation.
        m = 30
        w = np.zeros(m)
        w[0] = max(alpha, 0.5)
        w[1:] = (1.0 - w[0]) / (m - 1)
        resid = verify_invariant(no_invariant_kernel(alpha, lam, m), DiscreteMeasure(w))
        claims = (
            Claim(
                "lambda = 1 boundary: stationarity equation degenerates",
                True,
                {"equation_coefficient": 0.0, "note":
                 "contradiction not derivable; construction certified for lambda < 1 only"},
            ),
            Claim(
                "lambda = 1 boundary: stationary inputs exist",
                resid <= EXACT_TOL,
                {"residual": resid, "first_state_mass": float(w[0])},
            ),
        )
        return CounterexampleReport(
            {"alpha": alpha, "lam": lam, "n_max": n_max},
            claims,
            {"boundary_case": True},
        )

    # Branch mu({1}) >= alpha/lambda: stationarity reads mu1 = lam * mu1,
    # whose only solution is 0, incompatible with mu1 >= alpha/lam > 0.
    branch_solution = 0.0
    branch_ok = abs(branch_solution * (1.0 - lam)) <= EXACT_TOL and branch_solution < alpha / lam

    # Hence mu({1}) = alpha, and n(mu) = 1 would need lam * alpha >= alpha.
    n1_infeasible = lam * alpha < alpha

    # The balance at each n = 2..n_max solves for mu({n}) from the running
    # profile mass F_{n-1}.  Its numerator cancels to a rounding residue of
    # the profile's terms, at most eps alpha each, which the division by
    # 1 - lam amplifies; past about 36 / lam terms the profile is below eps
    # times its sum.  The claims allow that bound on top of EXACT_TOL.
    profile = alpha * (1.0 - lam) ** np.arange(n_max)
    f_prev = np.cumsum(profile[:-1])
    mu = (profile[1:] + lam * f_prev - alpha) / (1.0 - lam)
    solved = mu.tolist()
    worst_abs = float(np.abs(mu).max())
    terms = min(n_max, 40.0 / lam)
    tolerance = EXACT_TOL + terms * float(np.finfo(float).eps) * alpha / (1.0 - lam)
    # With mu({n}) = 0 the running mass lam * F_n stays short of alpha,
    # so n cannot be a first-crossing index at all.
    worst_crossing_margin = float(np.max(lam * (f_prev + mu) - alpha))

    claims = (
        Claim(
            "first-state mass is forced to alpha",
            branch_ok,
            {"upper_branch_solution": branch_solution,
             "threshold": alpha / lam, "forced_value": alpha},
        ),
        Claim(
            "first-crossing at state 1 is infeasible",
            n1_infeasible,
            {"lam_times_alpha": lam * alpha, "alpha": alpha},
        ),
        Claim(
            "balance at every hypothetical crossing state solves to zero mass",
            worst_abs <= tolerance,
            {"worst_abs_solution": worst_abs, "n_range": [2, n_max],
             "tolerance": tolerance},
        ),
        Claim(
            "zero solution contradicts the crossing definition",
            worst_crossing_margin <= tolerance,
            {"worst_margin": worst_crossing_margin, "tolerance": tolerance},
        ),
    )
    return CounterexampleReport(
        {"alpha": alpha, "lam": lam, "n_max": n_max},
        claims,
        {"solved_boundary_masses": solved, "boundary_case": False},
    )
