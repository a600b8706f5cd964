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

``simulate`` steps one particle system and returns what its observer
reads at each snapshot; ``simulate_pair`` steps two independent ones,
the second in a child made by ``os.fork`` where a second CPU is free.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .reporting import NumericalFailure

__all__ = [
    "WeightFunction",
    "SMVESpec",
    "SimulationBlowUp",
    "DriftBoundError",
    "simulate",
    "simulate_pair",
    "epsilon_zero",
    "ou_drift",
    "radial_confinement_drift",
    "mean_attraction_coupling",
    "make_ou_spec",
    "make_vh_spec",
]


class SimulationBlowUp(NumericalFailure):
    """A particle reached a non-finite position."""


class DriftBoundError(NumericalFailure):
    """The interaction term exceeded its declared bound at runtime."""


# ---------------------------------------------------------------------------
# Lyapunov weight.

# The quintic Hermite basis functions on [0, 1] the blend uses: value
# at 0, then value, first and second derivative at 1 (the plateau has
# no slope or curvature at 0).
_H = (
    lambda u: 1.0 - 10.0 * u**3 + 15.0 * u**4 - 6.0 * u**5,
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

    def __call__(self, x):
        """V at each point of x (array friendly)."""
        s = np.abs(np.asarray(x, dtype=float))
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
                + v1 * _H[1](u)
                + w * (k * v1) * _H[2](u)
                + w * w * (k * k * v1) * _H[3](u)
            )
        return out

    def predicted_gamma(self, lag: float) -> float:
        """Decay factor of the mean weight per ``lag``: exponential
        weights decay like exp(-kappa * r * t / 4) over time t."""
        return math.exp(-self.kappa * self.r * lag / 4.0)


# ---------------------------------------------------------------------------
# Model spec and shipped coefficients.


@dataclass(frozen=True)
class SMVESpec:
    """Coefficients and constants of one mean-field model.

    A position is one float.  ``b1`` is the confining drift: it maps a
    block of m positions to their m drifts.  ``b2`` is the interaction
    b2(x, m): it maps a block of positions x and the mean m of the law
    to their drifts.  Each step, ``simulate`` takes the mean of the
    positions once, then calls b1 and b2 on one block at a time,
    possibly on disjoint blocks from several threads at once.  |b2| must
    stay within ``bound_D`` (checked at runtime); ``lipschitz_L`` is the
    constant of the perturbation bounds, derived by hand, not fitted, for
    the shipped coefficients.

    No coefficient may modify the positions: ``simulate`` passes
    read-only views of the particles it steps in place, valid for the
    duration of the call.  b1 and b2 may return their input, a view of
    it, or an array that broadcasts to its shape; ``simulate`` never
    writes into what they return.
    """

    b1: Callable[[np.ndarray], np.ndarray]
    b2: Callable[[np.ndarray, float], np.ndarray] | None
    epsilon: float
    bound_D: float
    lipschitz_L: float
    label: str = "smve"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.bound_D < 0 or self.lipschitz_L < 0:
            raise ValueError("bound_D and lipschitz_L must be nonnegative")
        if self.epsilon > 0 and self.b2 is None:
            raise ValueError("epsilon > 0 requires an interaction term")


# The Euler step, b1 and the histogram masses work through the particles
# a block at a time, so their scratch is one block of about this many
# bytes, which stays in cache, instead of a particle-sized array.
_BLOCK_BYTES = 2**17


def _row_blocks(n_rows: int) -> list[slice]:
    """Slices covering rows 0..n_rows in order, each of at most
    _BLOCK_BYTES // 8 rows."""
    size = _BLOCK_BYTES // 8
    return [slice(i, min(i + size, n_rows)) for i in range(0, n_rows, size)]


def ou_drift() -> Callable[[np.ndarray], np.ndarray]:
    """b1(x) = -x; its invariant law is N(0, 1/2)."""
    return lambda x: -x


def radial_confinement_drift(r: float, M: float) -> Callable[[np.ndarray], np.ndarray]:
    """b1(x) = -r x / max(|x|, M): linear pull inside [-M, M], and
    b1(x) x = -r |x| exactly outside it."""
    if r <= 0 or M <= 0:
        raise ValueError("r and M must be positive")

    def b1(x: np.ndarray) -> np.ndarray:
        scale = np.abs(x)
        np.maximum(scale, M, out=scale)
        out = np.multiply(x, -r)
        out /= scale
        return out

    return b1


def mean_attraction_coupling(D: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """b2(x, m) = D tanh(m - x), bounded by D, in the one block that
    subtract makes."""
    if D <= 0:
        raise ValueError("D must be positive")
    return lambda x, m: np.multiply(np.tanh(t := np.subtract(m, x), out=t), D, out=t)


def make_ou_spec() -> SMVESpec:
    return SMVESpec(ou_drift(), None, 0.0, 0.0, 0.0, "ou")


def make_vh_spec(r: float = 1.0, M: float = 1.0, D: float = 1.0,
                 epsilon: float = 0.05) -> SMVESpec:
    """Radially confined drift plus bounded mean-attraction, with the
    hand Lipschitz constant L = D of the interaction."""
    return SMVESpec(radial_confinement_drift(r, M), mean_attraction_coupling(D), epsilon,
                    D, D, f"vh(r={r:g},M={M:g},D={D:g},eps={epsilon:g})")


# ---------------------------------------------------------------------------
# Euler scheme.


def _stream(seed: int, tag: int, reuse: Generator | None = None,
            block: int = 0) -> Generator:
    """The counter-based stream keyed by (seed, tag) from Philox counter
    (0, block, 0, 0): a new Generator, or ``reuse`` (a Philox Generator)
    rewound to that draw.

    The (seed, tag) pair fully determines the draws, independent of how
    work is scheduled, and block b's substream starts 2^64 Philox blocks
    after block b - 1's, so no run reaches the next.  Block 0 is the
    stream from its first draw.  Rewinding sets the key, the counter and
    an empty buffer, which is the whole state of a new Philox, at a
    tenth of the cost of building one.
    """
    key = (seed % 2**64, tag % 2**64)
    counter = (0, block, 0, 0)
    if reuse is None:
        return Generator(Philox(key=np.array(key, dtype=np.uint64),
                                counter=np.array(counter, dtype=np.uint64)))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


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
    observe: Callable[[np.ndarray], object],
    lanes: int = 1,
) -> list[tuple[float, object]]:
    """The Euler loop of ``simulate``, in ``lanes`` lanes (at most one
    per row block): the calling thread and, in a run of more than one
    lane, a pool of lanes - 1 threads that lives as long as the run.
    Step k takes the mean m of the positions on the calling thread; then
    lane j steps blocks j, j + lanes, ... in row order: b2(x, m) and its
    bound, b1, the step and its noise sqrt(h) * xi, drawn from block c's
    substream of the (seed, k) stream, and the finiteness check, through
    blocks of its own.  The caller steps lane 0 and then waits for the
    other lanes; after them, |b2| > D on any block raises first, then
    the lowest-numbered failing block.  No lane runs while ``observe``
    reads the positions at a snapshot, under the caller's numpy error
    state.  The pool's threads are joined on every exit path."""
    n_steps, snap_steps = plan
    blocks = _row_blocks(n_particles)
    lanes = min(lanes, len(blocks))

    # The run's one particle-sized array: the sampler fills it, the loop
    # steps it in place, and the observer reads it.
    x = np.zeros(n_particles)
    if initial_sampler(_stream(seed, 0), x) is not None:
        raise ValueError("initial sampler must fill x in place and return None")
    if not all(np.isfinite(x[rows]).all() for rows in blocks):
        raise ValueError("points must be finite")
    positions = x.view()
    positions.flags.writeable = False

    snapshots = []
    snap_set = set(snap_steps)
    caller_errors = np.geterr()
    if 0 in snap_set:
        snapshots.append((0.0, observe(positions)))

    scale = math.sqrt(step_size)
    failed = [None] * lanes  # per lane: (block, exception) of this step
    worst = [0.0] * lanes  # per lane: its largest |b2| in this step
    # per lane: its step scratch, noise and finiteness mask blocks, and
    # its generator, rewound to each block's substream
    own = [(np.empty(blocks[0].stop), np.empty(blocks[0].stop),
            np.empty(blocks[0].stop, dtype=bool), _stream(seed, 0))
           for _ in range(lanes)]

    def step(j: int, k: int) -> None:
        # lane j's blocks of step k, in row order, until one fails; b2's
        # bound is still checked on the rest
        scratch, noise, finite, generator = own[j]
        for c in range(j, len(blocks), lanes):
            rows = blocks[c]
            try:
                if mean is not None:
                    inter = spec.b2(positions[rows], mean)
                    # a NaN |b2| never counts
                    worst[j] = max(worst[j], np.fmax.reduce(np.abs(inter)).item())
                if failed[j]:
                    continue
                _stream(seed, k, generator, c)
                xb = x[rows]
                part = scratch[:len(xb)]
                if mean is None:
                    np.multiply(spec.b1(positions[rows]), step_size, out=part)
                else:
                    np.multiply(inter, spec.epsilon, out=part)
                    np.add(spec.b1(positions[rows]), part, out=part)
                    part *= step_size
                xb += part
                dw = noise[:len(xb)]
                generator.standard_normal(out=dw)
                dw *= scale
                xb += dw
                if not np.isfinite(xb, out=finite[:len(xb)]).all():
                    raise SimulationBlowUp(
                        f"{spec.label}: non-finite position at step {k}")
            except Exception as exc:
                failed[j] = failed[j] or (c, exc)

    pool = None
    if lanes > 1:
        from concurrent.futures import ThreadPoolExecutor

        # numpy's error state is per thread: a pool thread ignores what
        # the caller's loop ignores
        pool = ThreadPoolExecutor(lanes - 1, initializer=np.seterr,
                                  initargs=(None, None, "ignore", None, "ignore"))
    try:
        # The finiteness check after each step reports a blow-up as
        # SimulationBlowUp, so numpy's overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n_steps + 1):
                mean = positions.mean() if spec.epsilon > 0 else None
                others = [pool.submit(step, j, k) for j in range(1, lanes)] if pool else ()
                step(0, k)
                for other in others:
                    other.result()
                if max(worst) > spec.bound_D + 1e-9:
                    raise DriftBoundError(f"{spec.label}: |b2| = {max(worst):.17g} "
                                          f"exceeds D = {spec.bound_D:g}")
                if any(failed):
                    raise min(filter(None, failed), key=lambda f: f[0])[1]
                if k in snap_set:
                    with np.errstate(**caller_errors):
                        snapshots.append((k * step_size, observe(positions)))
    finally:
        if pool:
            pool.shutdown()
    return snapshots


def simulate(
    spec: SMVESpec,
    initial_sampler: Callable,
    n_particles: int,
    step_size: float,
    horizon: float,
    seed: int,
    snapshot_times: Sequence[float] | None = None,
    *,
    observe: Callable[[np.ndarray], object],
) -> list[tuple[float, object]]:
    """Synchronous Euler update with the previous step's empirical
    measure:

        X_i <- (X_i + (b1(X_i) + eps b2(X_i, mu_prev)) h) + sqrt(h) xi_i.

    Noise for step k is drawn from a counter-based stream keyed by
    (seed, k); initial positions use the (seed, 0) stream.  The particles
    are stepped in blocks of _BLOCK_BYTES // 8 = 16,384 rows, and block c
    draws its normals from the (seed, k) stream at Philox counter
    (0, c, 0, 0), its own substream.  So a run is bit-reproducible and
    independent of the thread count or the process that steps it, and
    ``_BLOCK_BYTES`` is part of what fixes the outputs of a run of more
    than one block; a one-block run (n <= 16,384) draws the (seed, k)
    stream from its start.

    ``initial_sampler(rng, x)`` writes the start positions into x, the
    zeroed float array of n_particles that the run then steps in place,
    and returns None.  At each snapshot time t (by default 0 and
    the horizon), in time order, the run calls ``observe(x)`` with a
    read-only view of x, valid only for that call, and returns the
    pairs (t, observe(x)): nothing the size of x leaves the run unless
    the observer makes it.  With an interaction, each step takes the
    mean m of the positions once in the calling thread.  It calls b1 and
    b2(x, m), draws the noise and steps the particles a block of rows at
    a time, with the blocks dealt round-robin to one lane per usable CPU:
    the calling thread and, with more than one block and CPU, a thread
    pool of this run's own.  Raises ValueError if the sampler
    returns a value or the initial sample is not finite, DriftBoundError
    with the step's largest |b2| if any exceeds D, SimulationBlowUp if
    positions leave the finite range, and otherwise the exception of the
    first failing block in row order, as a run in one lane would.
    """
    plan = _plan(n_particles, step_size, horizon, snapshot_times)
    return _euler(spec, initial_sampler, n_particles, step_size, seed, plan,
                  observe, _usable_cpus())


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_pair(
    spec: SMVESpec,
    first: tuple[Callable, int],
    second: tuple[Callable, int],
    n_particles: int,
    step_size: float,
    horizon: float,
    snapshot_times: Sequence[float] | None = None,
    *,
    observe: Callable[[np.ndarray], object],
) -> tuple[list[tuple[float, object]], list[tuple[float, object]]]:
    """``simulate(spec, sampler, n_particles, step_size, horizon, seed,
    snapshot_times, observe=observe)`` for the ``(sampler, seed)`` of
    ``first`` and of ``second``, returned in that order.

    The runs are independent, so a child made by ``os.fork`` steps
    ``second`` while the caller steps ``first``, each in one lane; the
    child writes its run's pairs to an ``os.pipe`` as one pickle, so
    observations must pickle.  Both runs go one after the other in this
    process, through ``simulate``, on one usable CPU, off Linux, or when
    other threads are alive, since forking a threaded process is unsafe.

    The arguments are checked before the fork.  The first run's
    exception, an observer's included, wins over the second's.  The
    child's exception keeps its type and message (it becomes a
    RuntimeError naming both if it cannot be pickled), and a child that
    exits without reporting its run raises RuntimeError with its exit
    code.  The child ignores SIGINT and leaves through ``os._exit``, never
    returning into the caller's stack or flushing the stdio it inherited;
    the caller reaps it with ``os.waitpid``, after SIGTERM if it has not
    reported, on every exit path.
    """
    plan = _plan(n_particles, step_size, horizon, snapshot_times)
    if sys.platform != "linux" or _usable_cpus() < 2 or threading.active_count() > 1:
        return tuple(simulate(spec, sampler, n_particles, step_size, horizon, seed,
                              snapshot_times, observe=observe)
                     for sampler, seed in (first, second))
    reader, writer = map(open, os.pipe(), ("rb", "wb"))
    pid = message = None
    try:
        pid = os.fork()
        if pid == 0:
            # the child: one run in one lane, written as one pickle of its
            # (time, observation) pairs or of its exception; Ctrl-C reaches
            # the caller, which terminates it
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                sampler, seed = second
                try:
                    message = pickle.dumps(
                        _euler(spec, sampler, n_particles, step_size, seed, plan, observe),
                        protocol=5)
                except BaseException as exc:
                    message = _pickled_failure(exc)
                writer.write(message)
                writer.close()
                code = 0
            finally:
                os._exit(code)
        # only the child holds the write end, so its exit shows as end-of-file
        writer.close()
        sampler, seed = first
        run_a = _euler(spec, sampler, n_particles, step_size, seed, plan, observe)
        message = reader.read()
    finally:
        if pid:  # None if the fork failed or was interrupted
            if message is None:
                os.kill(pid, signal.SIGTERM)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        writer.close()
        reader.close()
    # the child exits 0 only once its whole pickle is written
    if code != 0:
        raise RuntimeError(f"the second particle run's process exited with code "
                           f"{code} without reporting it")
    run_b = pickle.loads(message)
    if not isinstance(run_b, list):
        raise run_b
    return run_a, run_b


def _pickled_failure(exc: BaseException) -> bytes:
    try:
        payload = pickle.dumps(exc, protocol=5)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
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
