"""Particle simulation of stochastic mean-field (McKean-Vlasov) dynamics

    dX_t = (b1(X_t) + eps * b2(X_t, law(X_t))) dt + dW_t,

closed with the empirical measure of N particles and an Euler scheme.
The confining part b1 is assumed to satisfy the radial drift condition
<b1(x), x> <= -r |x| outside a ball of radius M; the interaction b2 is
bounded by D and enters at strength eps.  Under these assumptions the
law of the process admits an exponential Lyapunov weight

    V(x) = exp(kappa |x|),   kappa = min(r/4, 1),   |x| >= M,

smoothly capped inside the ball, and small-eps perturbation bounds hold
up to eps_0 = min(alpha_local, r) / (2 D).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .measures import EmpiricalMeasure

__all__ = [
    "WeightFunction",
    "make_weight_function",
    "SMVESpec",
    "ParticleEnsemble",
    "VHReport",
    "SimulationBlowUp",
    "DriftBoundError",
    "verify_vh",
    "simulate",
    "simulate_runs",
    "epsilon_zero",
    "ou_drift",
    "radial_confinement_drift",
    "mean_attraction_coupling",
    "make_ou_spec",
    "make_vh_spec",
    "point_mass_sampler",
    "gaussian_sampler",
    "two_point_mixture_sampler",
]


class SimulationBlowUp(RuntimeError):
    """A particle reached a non-finite position."""


class DriftBoundError(RuntimeError):
    """The interaction term exceeded its declared bound at runtime."""


# ---------------------------------------------------------------------------
# Lyapunov weight.

# Quintic Hermite basis on [0, 1]: value, first and second derivative
# at each end.
_H = (
    lambda u: 1.0 - 10.0 * u**3 + 15.0 * u**4 - 6.0 * u**5,
    lambda u: u - 6.0 * u**3 + 8.0 * u**4 - 3.0 * u**5,
    lambda u: 0.5 * (u**2 - 3.0 * u**3 + 3.0 * u**4 - u**5),
    lambda u: 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5,
    lambda u: -4.0 * u**3 + 7.0 * u**4 - 3.0 * u**5,
    lambda u: 0.5 * (u**3 - 2.0 * u**4 + u**5),
)


@dataclass(frozen=True)
class WeightFunction:
    """Radial weight V(x) = exp(kappa |x|) outside the ball of radius M,
    a constant plateau near the origin, and a C^2 quintic blend on
    [max(M-1, 0), M] joining the two.  V >= 1 everywhere and V(0) is
    finite.
    """

    r: float
    M: float
    kappa: float = field(init=False)
    blend_start: float = field(init=False)

    def __post_init__(self):
        if self.r <= 0 or self.M <= 0:
            raise ValueError("r and M must be positive")
        object.__setattr__(self, "kappa", min(self.r / 4.0, 1.0))
        object.__setattr__(self, "blend_start", max(self.M - 1.0, 0.0))

    def radial(self, s):
        """V as a function of the radius s = |x| (array friendly)."""
        s = np.asarray(s, dtype=float)
        k, m, s0 = self.kappa, self.M, self.blend_start
        out = np.empty_like(s)
        plateau = s <= s0
        outer = s >= m
        mid = ~plateau & ~outer
        out[plateau] = math.exp(k * s0)
        out[outer] = np.exp(k * s[outer])
        if mid.any():
            w = m - s0
            u = (s[mid] - s0) / w
            v0 = math.exp(k * s0)
            v1 = math.exp(k * m)
            out[mid] = (
                v0 * _H[0](u)
                + v1 * _H[3](u)
                + w * (k * v1) * _H[4](u)
                + w * w * (k * k * v1) * _H[5](u)
            )
        return out

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self.radial(abs(float(x))))
        if x.ndim == 1:
            return self.radial(np.abs(x))
        return self.radial(np.linalg.norm(x, axis=-1))


def make_weight_function(r: float, M: float) -> WeightFunction:
    return WeightFunction(r, M)


# ---------------------------------------------------------------------------
# Model spec and shipped coefficients.


@dataclass(frozen=True)
class SMVESpec:
    """Coefficients and constants of one mean-field model.

    ``b1`` maps positions (n, d) to drifts (n, d); ``b2`` additionally
    receives the previous-step empirical measure and must stay within
    ``bound_D`` in Euclidean norm (checked at runtime).  ``lipschitz_L``
    is the constant used in perturbation bounds; for the shipped
    coefficients it is derived by hand, not fitted.

    Neither coefficient may modify the positions: ``simulate`` passes a
    read-only view of the particles it steps in place, and ``law`` is a
    read-only view of the same array, with ``.points`` and ``.mean()``,
    valid for the duration of the call.  Either may return its input or
    a view of it; ``simulate`` never writes into what they return.
    """

    dimension: int
    b1: Callable[[np.ndarray], np.ndarray]
    b2: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray] | None
    epsilon: float
    bound_D: float
    lipschitz_L: float
    label: str = "smve"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.bound_D < 0 or self.lipschitz_L < 0:
            raise ValueError("bound_D and lipschitz_L must be nonnegative")
        if self.epsilon > 0 and self.b2 is None:
            raise ValueError("epsilon > 0 requires an interaction term")

    def drift(self, positions: np.ndarray, law: EmpiricalMeasure) -> np.ndarray:
        total = self.b1(positions)
        if self.b2 is not None and self.epsilon > 0:
            inter = self.b2(positions, law)
            worst = float(_row_norms(inter).max())
            if worst > self.bound_D + 1e-9:
                raise DriftBoundError(
                    f"{self.label}: |b2| = {worst:.17g} exceeds D = {self.bound_D:g}"
                )
            total = total + self.epsilon * inter
        return total


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) array, as an (n, 1)
    column.  In one dimension this is |v|, which equals the norm exactly
    unless v**2 under- or overflows (the norm then reads 0 or inf)."""
    if v.shape[1] == 1:
        return np.abs(v)
    return np.linalg.norm(v, axis=1, keepdims=True)


def ou_drift() -> Callable[[np.ndarray], np.ndarray]:
    """b1(x) = -x; its invariant law in one dimension is N(0, 1/2)."""
    return lambda x: -x


def radial_confinement_drift(r: float, M: float) -> Callable[[np.ndarray], np.ndarray]:
    """b1(x) = -r x / max(|x|, M): linear pull inside the M-ball, and
    <b1(x), x> = -r |x| exactly outside it."""
    if r <= 0 or M <= 0:
        raise ValueError("r and M must be positive")

    def b1(x: np.ndarray) -> np.ndarray:
        # -r x / max(|x|, M), with the same roundings, in two fresh arrays
        scale = _row_norms(x)
        np.maximum(scale, M, out=scale)
        out = x * -r
        out /= scale
        return out

    return b1


def mean_attraction_coupling(D: float) -> Callable[[np.ndarray, EmpiricalMeasure], np.ndarray]:
    """b2(x, mu) = (D / sqrt(d)) tanh(mean(mu) - x), bounded by D in
    Euclidean norm for any dimension."""
    if D <= 0:
        raise ValueError("D must be positive")

    def b2(x: np.ndarray, law: EmpiricalMeasure) -> np.ndarray:
        out = np.subtract(law.mean(), x)
        np.tanh(out, out=out)
        out *= D / math.sqrt(x.shape[1])
        return out

    return b2


def make_ou_spec(dimension: int = 1) -> SMVESpec:
    return SMVESpec(dimension, ou_drift(), None, 0.0, 0.0, 0.0, "ou")


def make_vh_spec(
    r: float = 1.0,
    M: float = 1.0,
    D: float = 1.0,
    epsilon: float = 0.05,
    dimension: int = 1,
) -> SMVESpec:
    """Radially confined drift plus bounded mean-attraction, with the
    hand Lipschitz constant L = D of the interaction."""
    return SMVESpec(
        dimension,
        radial_confinement_drift(r, M),
        mean_attraction_coupling(D),
        epsilon,
        D,
        D,
        f"vh(r={r:g},M={M:g},D={D:g},eps={epsilon:g})",
    )


# ---------------------------------------------------------------------------
# Initial conditions.


def point_mass_sampler(x0) -> Callable:
    """All particles start at x0."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def sample(rng: Generator, n: int, d: int) -> np.ndarray:
        if x0.size != d:
            raise ValueError("x0 dimension mismatch")
        return np.tile(x0, (n, 1))

    return sample


def gaussian_sampler(mean, std: float) -> Callable:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if std <= 0:
        raise ValueError("std must be positive")

    def sample(rng: Generator, n: int, d: int) -> np.ndarray:
        if mean.size != d:
            raise ValueError("mean dimension mismatch")
        return mean[None, :] + std * rng.standard_normal((n, d))

    return sample


def two_point_mixture_sampler(x0, x1, weight0: float) -> Callable:
    """Deterministic split: round(weight0 * n) particles at x0, the rest
    at x1.  Keeps the initial total variation against a point mass at
    exactly 2 (1 - weight0)."""
    if not 0.0 <= weight0 <= 1.0:
        raise ValueError("weight0 must lie in [0, 1]")
    a = np.atleast_1d(np.asarray(x0, dtype=float))
    b = np.atleast_1d(np.asarray(x1, dtype=float))

    def sample(rng: Generator, n: int, d: int) -> np.ndarray:
        if a.size != d or b.size != d:
            raise ValueError("point dimension mismatch")
        n0 = int(round(weight0 * n))
        out = np.empty((n, d))
        out[:n0] = a
        out[n0:] = b
        return out

    return sample


# ---------------------------------------------------------------------------
# Drift condition check.


@dataclass(frozen=True)
class VHReport:
    passed: bool
    worst_margin: float
    worst_point: list
    n_points: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "worst_point": self.worst_point,
            "n_points": self.n_points,
            "tolerance": self.tolerance,
        }


def verify_vh(
    b1: Callable[[np.ndarray], np.ndarray],
    r: float,
    M: float,
    sample_points: np.ndarray | None = None,
    dimension: int = 1,
    tol: float = 1e-9,
) -> VHReport:
    """Check <b1(x), x> <= -r |x| on sample points with |x| in [M, 10M].

    The default sample is a signed radial grid (one dimension) or random
    directions at graded radii (higher dimensions); pass explicit points
    to probe specific regions.  The worst point is named in the report.
    """
    if r <= 0 or M <= 0:
        raise ValueError("r and M must be positive")
    if sample_points is None:
        radii = np.linspace(M, 10.0 * M, 200)
        if dimension == 1:
            pts = np.concatenate([radii, -radii])[:, None]
        else:
            rng = Generator(Philox(key=np.array([17, 0], dtype=np.uint64)))
            dirs = rng.standard_normal((radii.size * 4, dimension))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts = dirs * np.tile(radii, 4)[:, None]
    else:
        pts = np.asarray(sample_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms < M - 1e-12):
            raise ValueError("sample points must have |x| >= M")

    drift = b1(pts)
    inner = (drift * pts).sum(axis=1)
    margins = inner + r * np.linalg.norm(pts, axis=1)
    worst = int(np.argmax(margins))
    return VHReport(
        passed=bool(margins[worst] <= tol),
        worst_margin=float(margins[worst]),
        worst_point=pts[worst].tolist(),
        n_points=int(pts.shape[0]),
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# Euler scheme.


@dataclass(frozen=True)
class ParticleEnsemble:
    """Snapshot of the particle system.

    ``stream_offset`` is the Euler step index at which the snapshot was
    taken; together with ``seed`` it pins down the noise stream exactly.
    """

    positions: np.ndarray
    time: float
    step_size: float
    seed: int
    stream_offset: int

    def __post_init__(self):
        pts = np.asarray(self.positions, dtype=float)
        if pts.ndim != 2:
            raise ValueError("positions must be (n, d)")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "positions", pts)

    @property
    def n_particles(self) -> int:
        return int(self.positions.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.positions.shape[1])

    def empirical(self) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.positions)


def _stream(seed: int, tag: int, reuse: Generator | None = None) -> Generator:
    """The counter-based stream keyed by (seed, tag): a new Generator, or
    ``reuse`` (a Philox Generator) rewound to that stream's first draw.

    The (seed, tag) pair fully determines the block of draws,
    independent of how work is scheduled.  Rewinding sets the key, a
    zero counter and an empty buffer, which is the whole state of a new
    Philox, at a tenth of the cost of building one.
    """
    key = (seed % 2**64, tag % 2**64)
    if reuse is None:
        return Generator(Philox(key=np.array(key, dtype=np.uint64)))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


# How far the noise worker may run ahead of the Euler loop: about 1 MB
# of buffers, and never less than one step.
_LOOKAHEAD_BYTES = 2**20


class _NoiseAhead:
    """Euler noise sqrt(h) * xi for steps 1..n_steps, step k drawn from
    the (seed, k) stream on one worker thread while the caller computes
    drifts.

    The worker fills a ring of buffers: as many as fit in
    _LOOKAHEAD_BYTES, at least two, and no more than there are steps.
    It calls no public nlmarkov function, so traced spans stay on the
    caller's thread.  An exception in the worker is raised by ``take``
    at the step that hit it.  Leaving the ``with`` block stops the
    worker and joins it, on every exit path.
    """

    def __init__(self, seed: int, n_steps: int, shape: tuple, scale: float):
        step_bytes = 8 * shape[0] * shape[1]
        depth = min(n_steps, max(2, _LOOKAHEAD_BYTES // step_bytes))
        self._buffers = [np.empty(shape) for _ in range(depth)]
        self._free = threading.Semaphore(depth)
        self._ready = threading.Semaphore(0)
        self._stop = False
        self._failed_step = 0
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._draw, args=(seed, n_steps, scale),
            name="nlmarkov-noise", daemon=True,
        )

    def __enter__(self) -> "_NoiseAhead":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop = True
        self._free.release()
        self._thread.join()

    def _draw(self, seed: int, n_steps: int, scale: float) -> None:
        generator = None
        for k in range(1, n_steps + 1):
            self._free.acquire()
            if self._stop:
                return
            try:
                generator = _stream(seed, k, generator)
                out = self._buffers[k % len(self._buffers)]
                generator.standard_normal(out=out)
                out *= scale
            except BaseException as exc:
                self._error, self._failed_step = exc, k
                self._ready.release()
                return
            self._ready.release()

    def take(self, k: int) -> np.ndarray:
        """Step k's noise, valid until the call for step k + 1, which
        hands its buffer back to the worker.  Steps come in order."""
        if k > 1:
            self._free.release()
        self._ready.acquire()
        if k == self._failed_step:
            raise self._error
        return self._buffers[k % len(self._buffers)]


class _NoiseInline:
    """The same noise as ``_NoiseAhead``, drawn by the caller in ``take``
    into one reused buffer.  For processes whose CPUs are all busy
    stepping particles, where a noise thread would only contend."""

    def __init__(self, seed: int, n_steps: int, shape: tuple, scale: float):
        self._seed, self._scale = seed, scale
        self._out = np.empty(shape)
        self._generator: Generator | None = None

    def __enter__(self) -> "_NoiseInline":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def take(self, k: int) -> np.ndarray:
        """Step k's noise, valid until the call for step k + 1."""
        self._generator = _stream(self._seed, k, self._generator)
        self._generator.standard_normal(out=self._out)
        self._out *= self._scale
        return self._out


def _plan(n_particles: int, step_size: float, horizon: float,
          snapshot_times: Sequence[float] | None) -> tuple[int, list[int]]:
    """Check one run's arguments; return its step count and the sorted
    steps at which it takes snapshots."""
    if n_particles < 100:
        raise ValueError("need at least 100 particles")
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if horizon < step_size:
        raise ValueError("horizon must cover at least one step")
    n_steps = int(round(horizon / step_size))
    if snapshot_times is None:
        snapshot_times = [0.0, horizon]
    snap_steps = sorted({int(round(t / step_size)) for t in snapshot_times})
    if snap_steps[0] < 0 or snap_steps[-1] > n_steps:
        raise ValueError("snapshot times must lie within [0, horizon]")
    return n_steps, snap_steps


def _euler(
    spec: SMVESpec,
    initial_sampler: Callable,
    n_particles: int,
    step_size: float,
    seed: int,
    plan: tuple[int, list[int]],
    noise_source: type,
) -> list[ParticleEnsemble]:
    """The Euler loop of ``simulate``, with its noise drawn by
    ``noise_source`` (``_NoiseAhead`` or ``_NoiseInline``)."""
    n_steps, snap_steps = plan
    d = spec.dimension
    # An owned C-ordered copy: the loop writes into it.
    x = np.array(initial_sampler(_stream(seed, 0), n_particles, d), dtype=float, order="C")
    if x.shape != (n_particles, d):
        raise ValueError("initial sampler returned the wrong shape")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    positions = x.view()
    positions.flags.writeable = False
    law = EmpiricalMeasure.view(positions)

    snapshots = []
    snap_set = set(snap_steps)
    if 0 in snap_set:
        snapshots.append(ParticleEnsemble(x, 0.0, step_size, seed, 0))

    drift_h = np.empty_like(x)
    # The finiteness check after each step reports a blow-up as
    # SimulationBlowUp, so numpy's overflow warnings would only repeat it.
    with (noise_source(seed, n_steps, x.shape, math.sqrt(step_size)) as draws,
          np.errstate(over="ignore", invalid="ignore")):
        for k in range(1, n_steps + 1):
            noise = draws.take(k)
            np.multiply(spec.drift(positions, law), step_size, out=drift_h)
            x += drift_h
            x += noise
            if not np.isfinite(x).all():
                raise SimulationBlowUp(f"{spec.label}: non-finite position at step {k}")
            if k in snap_set:
                snapshots.append(ParticleEnsemble(x, k * step_size, step_size, seed, k))
    return snapshots


def simulate(
    spec: SMVESpec,
    initial_sampler: Callable,
    n_particles: int,
    step_size: float,
    horizon: float,
    seed: int,
    snapshot_times: Sequence[float] | None = None,
) -> list[ParticleEnsemble]:
    """Synchronous Euler update with the previous step's empirical
    measure:

        X_i <- (X_i + (b1(X_i) + eps b2(X_i, mu_prev)) h) + sqrt(h) xi_i.

    Noise for step k is drawn from a counter-based stream keyed by
    (seed, k), so runs are bit-reproducible and independent of any
    worker layout; initial positions use the (seed, 0) stream.  One
    worker thread draws the noise ahead of the steps (``_NoiseAhead``);
    the drift stays on the calling thread, once per step, and the
    particles are stepped in place.  Raises ValueError if the initial
    sample is not finite and SimulationBlowUp if positions leave the
    finite range.
    """
    plan = _plan(n_particles, step_size, horizon, snapshot_times)
    return _euler(spec, initial_sampler, n_particles, step_size, seed, plan, _NoiseAhead)


def simulate_runs(
    spec: SMVESpec,
    runs: Sequence[tuple[Callable, int]],
    n_particles: int,
    step_size: float,
    horizon: float,
    snapshot_times: Sequence[float] | None = None,
) -> Iterator[list[ParticleEnsemble]]:
    """``simulate(spec, sampler, n_particles, step_size, horizon, seed,
    snapshot_times)`` for each ``(sampler, seed)`` in ``runs``, yielded
    in list order and bit for bit the same.

    The runs are independent, so they are spread round-robin over forked
    worker processes, one per usable CPU.  A worker steps its runs one
    after another, draws each step's noise inline (``_NoiseInline``) and
    sends each run back as soon as it is done; while the caller waits
    for the next run it drains every worker's pipe, and it holds only
    the runs it has not yet yielded.  The runs go in
    order in this process, through ``simulate``, when there is one run
    or one usable CPU, off Linux, or when other threads are alive, since
    forking a threaded process is unsafe.

    The arguments are checked before any fork.  The exception of the
    first failing run in list order is raised with its type and message
    (as a RuntimeError naming both if it cannot be pickled); a worker
    that exits without reporting its run raises RuntimeError with its
    exit code.  Every worker is joined, or terminated and joined, when
    the iterator finishes, fails or is closed.
    """
    plan = _plan(n_particles, step_size, horizon, snapshot_times)
    runs = [(sampler, seed) for sampler, seed in runs]
    return _dispatch(spec, runs, n_particles, step_size, horizon, snapshot_times, plan)


def _dispatch(spec, runs, n_particles, step_size, horizon, snapshot_times, plan):
    # decided at the first item, which is when the workers would fork
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    if len(runs) < 2 or cpus < 2 or threading.active_count() > 1:
        for sampler, seed in runs:
            yield simulate(spec, sampler, n_particles, step_size, horizon, seed,
                           snapshot_times)
        return
    yield from _forked_runs(spec, runs, n_particles, step_size, plan,
                            min(len(runs), cpus))


def _forked_runs(spec, runs, n_particles, step_size, plan, n_workers):
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    workers = []  # (process, read end of its pipe)
    finished = False
    try:
        for w in range(n_workers):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_run_worker, name=f"nlmarkov-runs-{w}", daemon=True,
                args=(writer, spec, runs, w, n_workers, n_particles, step_size, plan),
            )
            workers.append((process, reader))
            process.start()
            # closed before the next fork, so only worker w holds it and
            # its exit shows as end-of-file
            writer.close()
        open_readers = [reader for _, reader in workers]
        partial = {}  # run index -> its snapshots received so far
        received = {}  # run index -> its snapshots, or the exception it raised
        for i in range(len(runs)):
            process, owner = workers[i % n_workers]
            while i not in received:
                if owner not in open_readers:
                    process.join()
                    raise RuntimeError(
                        f"particle run {i}: worker process exited with code "
                        f"{process.exitcode} without reporting it")
                for reader in wait(open_readers):
                    try:
                        j, item = pickle.loads(reader.recv_bytes())
                    except EOFError:
                        open_readers.remove(reader)
                    else:
                        if isinstance(item, ParticleEnsemble):
                            partial.setdefault(j, []).append(item)
                        else:
                            received[j] = partial.pop(j) if item is None else item
            result = received.pop(i)
            if isinstance(result, BaseException):
                raise result
            yield result
        finished = True
    finally:
        for process, reader in workers:
            if process.pid is not None:  # None if interrupted before it started
                if not finished:
                    process.terminate()
                process.join()
                process.close()
            reader.close()


def _run_worker(writer, spec, runs, first, stride, n_particles, step_size, plan):
    """Worker body: runs first, first + stride, ... in order, and stops
    at the first failure.  Each message is one pickle: (i, snapshot) for
    each snapshot of run i in time order, then (i, None) when run i is
    done, or (i, exception) when it failed.  One message per snapshot
    keeps the caller's allocations the size of a snapshot, as they are
    when the runs go in order in one process.  Ctrl-C reaches the
    parent, which terminates the workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for i in range(first, len(runs), stride):
        sampler, seed = runs[i]
        try:
            snapshots = _euler(spec, sampler, n_particles, step_size, seed, plan,
                               _NoiseInline)
        except BaseException as exc:
            writer.send_bytes(_pickled_failure(i, exc))
            return
        for snapshot in snapshots:
            writer.send_bytes(pickle.dumps((i, snapshot), protocol=5))
        writer.send_bytes(pickle.dumps((i, None)))


def _pickled_failure(i: int, exc: BaseException) -> bytes:
    try:
        payload = pickle.dumps((i, exc), protocol=5)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps((i, RuntimeError(f"{type(exc).__name__}: {exc}")))
    return payload


# ---------------------------------------------------------------------------
# Perturbation threshold.


def epsilon_zero(alpha_local: float, r: float, D: float) -> float:
    """Largest interaction strength the small-perturbation regime
    tolerates: min(alpha_local, r) / (2 D)."""
    if not 0.0 < alpha_local <= 1.0:
        raise ValueError("alpha_local must lie in (0, 1]")
    if r <= 0 or D <= 0:
        raise ValueError("r and D must be positive")
    return min(alpha_local / (2.0 * D), r / (2.0 * D))
