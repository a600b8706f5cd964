"""Evolution, fixed points, contraction checks and rate certificates
for nonlinear Markov chains.

The chain advances by mu_{k+1} = mu_k P_{mu_k}.  For kernels whose grid
certificate lands in the fast or slow regime, distances to the fixed
point obey explicit bounds:

    fast (lambda < alpha):   d_tv(mu_n, pi) <= 2 (1 - (alpha - lambda))^n
    slow (lambda = alpha):   d_tv(mu_n, pi) <= 2 / (lambda n)

and one step of the chain always satisfies the contraction inequality

    d_tv(P_mu mu, P_nu nu) <= d (1 - alpha + lambda) - lambda d^2 / 2,

where d = d_tv(mu, nu).  A separate drift-based certificate (weighted
total variation with weight 1 + beta V) covers linear kernels with a
Lyapunov function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import ErgodicityCertificate, KernelValidationError, NonlinearKernel
from .kernels import ROW_SUM_TOL, markov_kernel
from .measures import DiscreteMeasure, MASS_TOL
from .reporting import Record

MAX_CYCLE_PERIOD = 8
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
NUMERICAL_FLOOR = 1e-12

__all__ = [
    "Trajectory",
    "FixedPointResult",
    "ContractionCheck",
    "RateReport",
    "HMCertificate",
    "DriftConditionError",
    "CertificationError",
    "evolve",
    "find_invariant",
    "verify_invariant",
    "check_contraction_inequality",
    "rate_bound",
    "check_rate",
    "certify_hm_contraction",
]


class DriftConditionError(ValueError):
    """The Lyapunov drift inequality fails at some state."""


class CertificationError(RuntimeError):
    """No weighted contraction factor below 1 could be certified."""


@dataclass(frozen=True)
class Trajectory:
    """A finite run of the chain: the weights of mu_0 ... mu_n as one
    read-only (n + 1, states) array and the total variation of each
    step."""

    weights: np.ndarray
    step_distances: tuple

    @property
    def steps(self) -> int:
        return len(self.weights) - 1

    def csv_rows(self):
        for k, row in enumerate(self.weights.tolist()):
            yield (k, *row, self.step_distances[k - 1] if k > 0 else 0.0)


def _step(kernel: NonlinearKernel, weights: np.ndarray, k: int) -> np.ndarray:
    """mu P_mu for an (n,) measure, or for each row of a (B, n) stack as a
    (1, n) @ (n, n) product, the same product as for a single measure."""
    mats = kernel.matrix(weights)
    # Row sums of measure-dependent kernels inherit the evolving law's
    # rounding drift, which grows with the state count.
    tol = ROW_SUM_TOL * kernel.space_size
    # The row check in two whole-stack reductions; a NaN fails it too,
    # since both reductions pass a NaN through.
    passed = (mats.min(initial=np.inf) >= -tol
              and np.abs(mats.sum(axis=-1) - 1.0).max(initial=0.0) <= tol)
    if not passed:
        raise KernelValidationError(
            f"{kernel.label}: non-stochastic rows at step {k}"
        )
    return (weights[..., None, :] @ mats)[..., 0, :]


def _check_iterate(w: np.ndarray, tol: float):
    """Raise what ``DiscreteMeasure(w, tol=tol)`` raises on an (n,) array,
    without copying a passing one into a measure.  A NaN or an infinity
    fails the test below, as a negative weight or a bad sum does."""
    if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= tol):
        DiscreteMeasure(w, tol=tol)


# Iterates kept past an orbit's stored prefix: the fixed-point search
# reads the last ten and scans MAX_CYCLE_PERIOD back for a cycle.
_WINDOW = MAX_CYCLE_PERIOD + 10


class _Orbit:
    """The iterates w_0, w_1, ... of mu_{k+1} = mu_k P_{mu_k} from one
    start, stepped on demand and read by ``evolve``, ``find_invariant``
    and ``check_rate`` alike.

    The first ``keep`` iterates are stored in one array, later ones in a
    ring of the last ``_WINDOW``, so memory is O((keep + _WINDOW) n)
    however far a search runs.  The ring serves one search read forward:
    reading an iterate that has left it raises IndexError.  A step is a
    pure function of the bytes of its input, so once a new iterate has
    the bytes of w_j, one of the last MAX_CYCLE_PERIOD, the orbit is
    periodic from j on: w_{m+p} = w_m for m >= j.  From then on no step
    calls the kernel, and every iterate and step distance is read by
    index.  Bytes, not ``==``: 0.0 == -0.0, and a kernel may see the
    sign of a zero.
    """

    def __init__(self, kernel: NonlinearKernel, mu0: DiscreteMeasure, keep: int):
        self.kernel, self.mu0, self.keep = kernel, mu0, keep
        self._w = np.empty((keep + _WINDOW, mu0.size))
        self._w[0] = mu0.weights
        # _d[slot(j)] = ||w_{j+1} - w_j||_1 once w_{j+1} is known
        self._d = np.empty(keep + _WINDOW)
        self.size = 1  # w_0 ... w_{size-1} are stepped
        self.start = self.period = None  # set when the orbit closes
        self._recent = {mu0.weights.tobytes(): 0}

    def _slot(self, i: int) -> int:
        if self.period is not None and i >= self.size:
            i = self.start + (i - self.start) % self.period
        if i < self.keep:
            return i
        if i < self.size - _WINDOW:
            raise IndexError(f"iterate {i} has left the orbit's window")
        return self.keep + (i - self.keep) % _WINDOW

    def at(self, i: int) -> np.ndarray:
        """w_i, which must be stepped already or repeat a stored iterate."""
        return self._w[self._slot(i)]

    def distance(self, j: int) -> float:
        """||w_{j+1} - w_j||_1, first stepping to w_{j+1} if it is the
        next iterate."""
        if j + 1 == self.size and self.period is None:
            return self._advance()
        return float(self._d[self._slot(j)])

    def _advance(self) -> float:
        """Step from the last iterate w_k to w_{k+1}, step k + 1 in a
        row-check error, and return the step's distance; close the orbit
        instead of storing the new iterate if it repeats one of the last
        MAX_CYCLE_PERIOD."""
        k = self.size - 1
        slot = self._slot(k)
        w = self._w[slot]
        nxt = _step(self.kernel, w, k + 1)
        self._d[slot] = dist = float(np.abs(nxt - w).sum())
        key = nxt.tobytes()
        j = self._recent.get(key)
        if j is not None:
            self.start, self.period = j, k + 1 - j
            return dist
        self._w[self._slot(k + 1)] = nxt
        self.size += 1
        self._recent[key] = k + 1
        if len(self._recent) > MAX_CYCLE_PERIOD:
            del self._recent[next(iter(self._recent))]  # the oldest
        return dist

    def trajectory(self, steps: int) -> Trajectory:
        """The first ``steps`` steps (``steps < keep``), each iterate
        checked as a DiscreteMeasure before the next step is taken."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.mu0.size != self.kernel.space_size:
            raise ValueError("initial measure does not match kernel state space")
        k = 1
        while k <= steps:
            if k == self.size and self.period is None:
                self._advance()
            if k == self.size:  # w_k repeats an earlier iterate
                break
            _check_iterate(self._w[k], MASS_TOL * (k + 1))
            k += 1
        if k <= steps:
            for a, end in ((self._w, steps + 1), (self._d, steps)):
                idx = np.arange(k, end)
                a[k:end] = a[self.start + (idx - self.start) % self.period]
            # A repeat of w_m, m >= 1, passed with a smaller tolerance; the
            # first repeat of w_0 (here w_k) has not been checked at all.
            if self.start == 0:
                _check_iterate(self._w[k], MASS_TOL * (k + 1))
        weights = self._w[:steps + 1]
        weights.flags.writeable = False
        return Trajectory(weights, tuple(self._d[:steps].tolist()))

    def fixed_point(self, tol: float, max_iter: int) -> "FixedPointResult":
        """The search of ``find_invariant``."""
        if tol <= 0 or max_iter < 1:
            raise ValueError("tol must be positive and max_iter at least 1")
        resid0 = self.distance(0)
        if resid0 < tol:
            return FixedPointResult(True, self.mu0, 0, resid0)
        for k in range(1, max_iter + 1):
            if self.period is not None and k - 1 - self.period >= self.start:
                # (d_{k-1}, d_k) and every later pair repeat one tried already
                break
            if self.distance(k - 1) < tol:
                # the residual is the authoritative check: small successive
                # steps alone can be a slowly drifting or periodic orbit
                resid = self.distance(k)
                if resid < tol:
                    pi = DiscreteMeasure(self.at(k), tol=MASS_TOL * (k + 2))
                    return FixedPointResult(True, pi, k, resid)

        last = self.at(max_iter)
        period = next(
            (p for p in range(1, min(MAX_CYCLE_PERIOD, max_iter) + 1)
             if np.abs(last - self.at(max_iter - p)).sum() < max(tol, 1e-9)),
            None,
        )
        kept = tuple(
            DiscreteMeasure(self.at(i), tol=MASS_TOL * (max_iter + 1))
            for i in range(max(0, max_iter - 9), max_iter + 1)
        )
        resid = self.distance(max_iter)
        return FixedPointResult(False, None, max_iter, resid, kept, period)


def evolve(kernel: NonlinearKernel, mu0: DiscreteMeasure, steps: int) -> Trajectory:
    """Run ``steps`` applications of the chain from ``mu0``.

    Normalization drifts by at most a few machine epsilons per step;
    the measures are re-validated with a tolerance that grows linearly
    in the step count, never renormalized.  Once an iterate repeats one
    of the last MAX_CYCLE_PERIOD bit for bit, the rest of the run is
    read by index instead of stepped.
    """
    return _Orbit(kernel, mu0, max(steps, 0) + 1).trajectory(steps)


@dataclass(frozen=True)
class FixedPointResult(Record):
    """Outcome of fixed-point iteration.

    Acceptance needs both the successive distance and the fixed-point
    residual d_tv(P_pi pi, pi) below tolerance; a small successive step
    alone can be a slowly drifting orbit.  On failure the tail of the
    trajectory is kept and scanned for short cycles.
    """

    converged: bool
    measure: DiscreteMeasure | None
    iterations: int
    residual: float
    tail: tuple = field(default=(), metadata={"key": None})
    cycle_period: int | None = None


def find_invariant(
    kernel: NonlinearKernel,
    mu0: DiscreteMeasure | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointResult:
    """Iterate the chain until it sits still within ``DEFAULT_TOL``, or
    give up after ``max_iter`` steps and report the last stretch of the
    orbit with a detected cycle period (up to 8) if there is one.  An
    orbit that repeats bit for bit is not stepped past its first repeat:
    the rest of the search is read from the cycle."""
    mu0 = mu0 or DiscreteMeasure.uniform(kernel.space_size)
    return _Orbit(kernel, mu0, 1).fixed_point(DEFAULT_TOL, max_iter)


def verify_invariant(kernel: NonlinearKernel, pi: DiscreteMeasure) -> float:
    """Fixed-point residual d_tv(P_pi pi, pi)."""
    return float(np.abs(_step(kernel, pi.weights, 0) - pi.weights).sum())


@dataclass(frozen=True)
class ContractionCheck(Record):
    """Result of sweeping the one-step contraction inequality over
    measure pairs."""

    n_pairs: int
    n_violations: int
    max_excess: float
    worst_pair: tuple | None
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def check_contraction_inequality(
    kernel: NonlinearKernel,
    alpha: float,
    lam: float,
    pairs: Sequence,
    tol: float = DEFAULT_TOL,
) -> ContractionCheck:
    """Check d_tv(P_mu mu, P_nu nu) <= d (1 - alpha + lambda) - lambda d^2/2
    for each supplied pair, d being their total variation distance, with
    all pairs in one kernel evaluation.  ``worst_pair`` is the first pair
    with the largest excess of the left side over the right."""
    n = kernel.space_size
    w = np.asarray(pairs, dtype=float).reshape(len(pairs), 2, n)
    if not len(w):
        return ContractionCheck(0, 0, -np.inf, None, tol)
    stepped = _step(kernel, w.reshape(-1, n), 0).reshape(w.shape)
    d = np.abs(w[:, 0] - w[:, 1]).sum(axis=1)
    lhs = np.abs(stepped[:, 0] - stepped[:, 1]).sum(axis=1)
    excess = lhs - (d * (1.0 - alpha + lam) - lam * d * d / 2.0)
    p = int(excess.argmax())
    worst = (w[p, 0].tolist(), w[p, 1].tolist())
    return ContractionCheck(len(w), int((excess > tol).sum()), float(excess[p]), worst, tol)


def rate_bound(certificate: ErgodicityCertificate, n: int) -> float:
    """Theoretical distance bound after n steps under a certificate.

    fast: 2 (1 - (alpha_hat - lambda_hat))^n for n >= 0;
    slow: 2 / (lambda_hat n), defined only for n >= 1.
    Uncertified certificates carry no bound and are rejected.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha, lam = certificate.alpha_hat, certificate.lambda_hat
    if certificate.regime == "fast":
        gap = alpha - lam
        if gap <= 0:
            raise ValueError("fast regime requires lambda_hat < alpha_hat")
        return 2.0 * (1.0 - gap) ** n
    if certificate.regime == "slow":
        if lam <= 0:
            raise ValueError("slow regime requires lambda_hat = alpha_hat > 0")
        if n == 0:
            raise ValueError("slow-regime bound is undefined at n = 0")
        return 2.0 / (lam * n)
    raise ValueError(f"no rate bound in regime {certificate.regime!r}")


@dataclass(frozen=True)
class RateReport(Record):
    """Measured distances to the fixed point against the certified decay
    bound.

    Distances below ``numerical_floor`` are treated as consistent with
    the bound even when the bound itself has underflowed further: once
    the chain reaches the fixed point, float64 cannot resolve distances
    past roughly 1e-15 while a geometric bound keeps shrinking.
    Violations therefore count only where measured > max(bound, floor).
    """

    kernel_label: str = field(metadata={"key": "kernel"})
    certificate: ErgodicityCertificate
    distances: tuple
    bounds: tuple
    numerical_floor: float
    violations: tuple
    falsified: bool
    invariant: tuple | None
    fixed_point_iterations: int
    # slow-regime bounds start at n = 1 (Eq. undefined at n = 0)
    first_step: int = 0
    # the run the distances were read from; None when falsified
    trajectory: Trajectory | None = field(default=None, repr=False, compare=False,
                                          metadata={"key": None})

    @property
    def passed(self) -> bool:
        return not self.falsified and len(self.violations) == 0

    def csv_rows(self):
        for i, (d, b) in enumerate(zip(self.distances, self.bounds)):
            yield (self.first_step + i, d, b, max(b, self.numerical_floor) - d)


def check_rate(
    kernel: NonlinearKernel,
    certificate: ErgodicityCertificate,
    mu0: DiscreteMeasure,
    steps: int,
) -> RateReport:
    """Evolve from mu0 and compare every d_tv(mu_n, pi) with the regime
    bound.  A certified kernel whose fixed-point search fails is
    reported as falsified rather than skipped.  The search and the
    trajectory read one orbit, stepped once from mu0; the report hands
    the trajectory back.

    In the fast regime the reference fixed point is resolved two orders
    of magnitude below the numerical floor; otherwise the estimation
    error of pi itself would register as late-step violations once the
    geometric bound underflows the floor."""
    if certificate.regime not in ("fast", "slow"):
        raise ValueError("rate check needs a fast or slow certificate")
    fp_tol = DEFAULT_TOL if certificate.regime == "slow" else NUMERICAL_FLOOR / 100.0
    orbit = _Orbit(kernel, mu0, max(steps, 0) + 1)
    fp = orbit.fixed_point(fp_tol, DEFAULT_MAX_ITER)
    if not fp.converged:
        return RateReport(
            kernel_label=kernel.label,
            certificate=certificate,
            distances=(),
            bounds=(),
            numerical_floor=NUMERICAL_FLOOR,
            violations=(),
            falsified=True,
            invariant=None,
            fixed_point_iterations=fp.iterations,
        )
    pi = fp.measure.weights
    traj = orbit.trajectory(steps)
    first = 0 if certificate.regime == "fast" else 1
    steps_n = range(first, steps + 1)
    distances = tuple(np.abs(traj.weights[first:] - pi).sum(axis=1).tolist())
    bounds = tuple(rate_bound(certificate, n) for n in steps_n)
    violations = tuple(
        (n, d, b) for n, d, b in zip(steps_n, distances, bounds)
        if d > max(b, NUMERICAL_FLOOR)
    )
    return RateReport(
        kernel_label=kernel.label,
        certificate=certificate,
        distances=distances,
        bounds=bounds,
        numerical_floor=NUMERICAL_FLOOR,
        violations=violations,
        falsified=False,
        invariant=tuple(pi.tolist()),
        fixed_point_iterations=fp.iterations,
        first_step=first,
        trajectory=traj,
    )


# ---------------------------------------------------------------------------
# Weighted-total-variation certificate for linear kernels with a
# Lyapunov function.


@dataclass(frozen=True)
class HMCertificate(Record):
    """Certified contraction of a Markov kernel in the weighted metric
    d_{1+beta V}: applying the kernel shrinks the metric by lambda_w < 1.

    Preconditions recorded here: the drift bound QV <= gamma V + K holds
    pointwise, and rows overlap by at least alpha_local on the sublevel
    set {V <= 4K / (1 - gamma)}.
    """

    gamma: float
    K: float
    alpha_local: float
    beta: float
    lambda_w: float
    sublevel_threshold: float
    sublevel_states: tuple
    n_test_pairs: int
    kernel_label: str = field(default="kernel", metadata={"key": "kernel"})


def certify_hm_contraction(
    matrix,
    V,
    gamma: float,
    K: float,
    alpha_local: float,
    beta_grid: Sequence[float],
    test_pairs: Sequence = (),
    tol: float = DEFAULT_TOL,
    label: str = "kernel",
) -> HMCertificate:
    """Search ``beta_grid`` for a weight 1 + beta V in which the kernel
    provably contracts.

    For each beta the candidate factor is the worst point-mass ratio

        lambda_w(beta) = max_{x != y}
            sum_j (1 + beta V_j) |Q(x,j) - Q(y,j)| / (2 + beta (V_x + V_y)),

    which bounds the ratio for arbitrary measure pairs (positive and
    negative parts of mu - nu have disjoint supports).  The returned
    certificate uses the beta minimizing lambda_w and re-checks the
    inequality on the supplied test pairs.

    Raises DriftConditionError if QV <= gamma V + K fails at any state,
    ValueError if the supplied alpha_local is not actually achieved on
    the sublevel set, and CertificationError if no beta works.
    """
    kernel = markov_kernel(matrix, label)
    n = kernel.space_size
    q = kernel.matrix(np.full(n, 1.0 / n))
    v = np.asarray(V, dtype=float)
    if v.shape != (n,):
        raise ValueError("V must have one value per state")
    if not np.all((v >= 1.0 - 1e-12) & (v < np.inf)):
        raise ValueError("V must be finite and at least 1 everywhere")
    if not 0.0 < gamma < 1.0 or K <= 0.0:
        raise ValueError("need 0 < gamma < 1 and K > 0")
    if not 0.0 < alpha_local <= 1.0:
        raise ValueError("alpha_local must lie in (0, 1]")

    qv = q @ v
    drift_gap = qv - (gamma * v + K)
    if np.any(drift_gap > tol):
        bad = int(np.argmax(drift_gap))
        raise DriftConditionError(
            f"{label}: drift QV <= gamma V + K fails at state {bad} "
            f"(QV = {qv[bad]:.17g}, bound = {gamma * v[bad] + K:.17g})"
        )

    threshold = 4.0 * K / (1.0 - gamma)
    sublevel = np.flatnonzero(v <= threshold)
    if sublevel.size == 0:
        raise ValueError("sublevel set {V <= 4K/(1-gamma)} is empty")
    rows = q[sublevel]
    sep = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
    apart = np.argwhere(np.triu(sep > 2.0 * (1.0 - alpha_local) + tol, 1))
    if apart.size:
        x, y = sublevel[apart[0]]
        raise ValueError(
            f"{label}: rows {x} and {y} overlap less than "
            f"alpha_local = {alpha_local:g} on the sublevel set"
        )

    betas = [float(b) for b in beta_grid]
    if not betas or any(b <= 0 for b in betas):
        raise ValueError("beta_grid must contain positive values")

    best_beta, best_lw = None, np.inf
    table = {}
    for beta in betas:
        f = 1.0 + beta * v
        num = (np.abs(q[:, None, :] - q[None, :, :]) * f[None, None, :]).sum(axis=2)
        den = 2.0 + beta * (v[:, None] + v[None, :])
        ratio = num / den
        np.fill_diagonal(ratio, 0.0)
        lw = float(ratio.max())
        table[beta] = lw
        if lw < best_lw:
            best_beta, best_lw = beta, lw
    if best_lw >= 1.0:
        raise CertificationError(
            f"{label}: no beta in the grid certifies contraction; "
            f"best lambda_w = {best_lw:.17g} at beta = {best_beta:g} "
            f"(table: {table})"
        )

    f = 1.0 + best_beta * v
    w = np.asarray(test_pairs, dtype=float).reshape(len(test_pairs), 2, n)
    moved = _step(kernel, w.reshape(-1, n), 0).reshape(w.shape)
    lhs = (f * np.abs(moved[:, 0] - moved[:, 1])).sum(axis=1)
    rhs = best_lw * (f * np.abs(w[:, 0] - w[:, 1])).sum(axis=1)
    failed = np.flatnonzero(lhs > rhs + tol)
    if failed.size:
        p = failed[0]
        raise CertificationError(
            f"{label}: certified factor fails on a validation pair "
            f"(lhs = {lhs[p]:.17g}, rhs = {rhs[p]:.17g})"
        )

    return HMCertificate(
        gamma=gamma,
        K=K,
        alpha_local=alpha_local,
        beta=best_beta,
        lambda_w=best_lw,
        sublevel_threshold=threshold,
        sublevel_states=tuple(int(s) for s in sublevel),
        n_test_pairs=len(test_pairs),
        kernel_label=label,
    )
