"""Tests for the particle SDE layer: weight functions, initial laws,
simulation determinism, and the perturbation threshold."""

import hashlib
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from nlmarkov import mckean_vlasov
from nlmarkov.laws import Gauss, Mix, Point
from nlmarkov.mckean_vlasov import (
    DriftBoundError,
    SMVESpec,
    SimulationBlowUp,
    WeightFunction,
    epsilon_zero,
    make_ou_spec,
    make_vh_spec,
    mean_attraction_coupling,
    radial_confinement_drift,
    simulate,
    simulate_runs,
)


def _positions(x):
    """An observer that keeps a copy of the positions."""
    return x.copy()


def brownian_spec():
    return SMVESpec(
        b1=lambda x: np.zeros_like(x),
        b2=None,
        epsilon=0.0,
        bound_D=0.0,
        lipschitz_L=0.0,
    )


class TestWeightFunction:
    def test_kappa_is_quarter_r_clamped_at_one(self):
        assert WeightFunction(1.0, 1.0).kappa == 0.25
        assert WeightFunction(4.0, 1.0).kappa == 1.0
        assert WeightFunction(8.0, 1.0).kappa == 1.0

    def test_pure_exponential_outside_the_ball(self):
        V = WeightFunction(4.0, 1.0)
        xs = np.array([1.0, 1.5, 2.0, 5.0])
        np.testing.assert_allclose(V(xs), np.exp(xs), rtol=1e-14)

    def test_plateau_inside_blend_start(self):
        # blend starts at M - 1 = 2, so V is flat at e^{0.5 * 2} = e
        # on [0, 2] and equals the exponential from M = 3 onward.
        V = WeightFunction(2.0, 3.0)
        assert V(0.0) == pytest.approx(math.e, rel=1e-14)
        assert V(np.array([1.0]))[0] == pytest.approx(math.e, rel=1e-14)
        assert V(np.array([2.0]))[0] == pytest.approx(math.e, rel=1e-14)
        assert V(np.array([6.0]))[0] == pytest.approx(math.exp(3.0), rel=1e-13)

    def test_at_least_one_and_nondecreasing(self):
        for r, M in [(1.0, 1.0), (2.0, 3.0), (0.5, 0.25)]:
            V = WeightFunction(r, M)
            vals = V(np.linspace(0.0, 6.0 * M, 400))
            assert vals.min() >= 1.0 - 1e-12
            assert np.all(np.diff(vals) >= -1e-12)

    def test_blend_is_c1_and_c2_at_both_knots(self):
        V = WeightFunction(2.0, 3.0)

        def d1(x, h=1e-6):
            return (V(np.array([x + h]))[0] - V(np.array([x - h]))[0]) / (2 * h)

        def d2(x, h=1e-4):
            f = lambda y: V(np.array([y]))[0]
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

        for knot in (V.blend_start, 3.0):
            assert abs(V(np.array([knot - 1e-9]))[0] - V(np.array([knot + 1e-9]))[0]) < 1e-8
            assert abs(d1(knot - 1e-6) - d1(knot + 1e-6)) < 1e-5
            assert abs(d2(knot - 1e-4) - d2(knot + 1e-4)) < 2e-2

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            WeightFunction(0.0, 1.0)
        with pytest.raises(ValueError):
            WeightFunction(1.0, -2.0)


def _sample(sampler, rng, n):
    """The n positions that ``sampler`` writes into a fresh array."""
    x = np.full(n, np.nan)
    assert sampler(rng, x) is None
    return x


class TestSamplers:
    def test_point_mass_tiles_the_location(self):
        x = _sample(Point(2.5), np.random.default_rng(0), 7)
        assert x.shape == (7,)
        assert np.all(x == 2.5)

    def test_point_mass_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _sample(Point([1.0, 2.0]), np.random.default_rng(0), 4)

    def test_gaussian_sampler_moments_and_guard(self):
        x = _sample(Gauss(1.0, 2.0), np.random.default_rng(3), 50_000)
        assert x.shape == (50_000,)
        assert float(x.mean()) == pytest.approx(1.0, abs=0.05)
        assert float(x.std()) == pytest.approx(2.0, abs=0.05)
        for std in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                Gauss(0.0, std)

    def test_gaussian_sampler_matches_one_out_of_place_draw(self):
        # in place, the draws and roundings of mean + std * z
        got = _sample(Gauss(-1.0, 1.7), np.random.default_rng(5), 999)
        z = np.random.default_rng(5).standard_normal(999)
        assert got.tobytes() == (-1.0 + 1.7 * z).tobytes()

    def test_mixture_split_is_deterministic(self):
        x = _sample(Mix(-0.5, 0.5, 0.6), np.random.default_rng(0), 10)
        assert int(np.sum(x < 0)) == 6
        assert int(np.sum(x > 0)) == 4
        with pytest.raises(ValueError):
            Mix(0.0, 1.0, 1.5)


class TestSpecConstruction:
    def test_interaction_requires_a_coupling(self):
        with pytest.raises(ValueError):
            SMVESpec(b1=lambda x: -x, b2=None,
                     epsilon=0.1, bound_D=1.0, lipschitz_L=1.0)

    def test_drift_bound_is_enforced_at_runtime(self):
        bad = SMVESpec(b1=lambda x: -x,
                       b2=lambda x, m: np.full_like(x, 5.0),
                       epsilon=0.1, bound_D=1.0, lipschitz_L=1.0)
        with pytest.raises(DriftBoundError, match="exceeds"):
            simulate(bad, Point(0.0), n_particles=100,
                     step_size=0.01, horizon=0.1, seed=1, observe=_positions)

    def test_shipped_specs_have_consistent_constants(self):
        ou = make_ou_spec()
        assert ou.epsilon == 0.0 and ou.b2 is None
        vh = make_vh_spec()
        assert vh.epsilon == 0.05
        assert vh.lipschitz_L == vh.bound_D == 1.0

    def test_mean_attraction_is_bounded_by_D(self):
        b2 = mean_attraction_coupling(1.0)
        x = np.array([100.0, 0.0, -100.0])
        assert np.all(np.abs(b2(x, x.mean())) <= 1.0 + 1e-12)


class TestSimulate:
    def test_same_seed_is_bitwise_reproducible(self):
        bm = brownian_spec()
        kw = dict(n_particles=500, step_size=0.01, horizon=0.5,
                  snapshot_times=[0.25, 0.5])
        a = simulate(bm, Point(0.0), seed=11, **kw, observe=_positions)
        b = simulate(bm, Point(0.0), seed=11, **kw, observe=_positions)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))
        c = simulate(bm, Point(0.0), seed=12, **kw, observe=_positions)
        assert not np.array_equal(a[-1][1], c[-1][1])

    def test_brownian_variance_grows_linearly(self):
        res = simulate(brownian_spec(), Point(0.0),
                       n_particles=4000, step_size=0.01, horizon=1.0,
                       seed=11, snapshot_times=[0.5, 1.0], observe=_positions)
        assert float(np.var(res[0][1])) == pytest.approx(0.5, abs=0.05)
        assert float(np.var(res[1][1])) == pytest.approx(1.0, abs=0.08)

    def test_ou_approaches_half_variance(self):
        res = simulate(make_ou_spec(), Gauss(0.0, 1.0),
                       n_particles=2000, step_size=0.01, horizon=5.0,
                       seed=5, snapshot_times=[5.0], observe=_positions)
        assert float(np.var(res[-1][1])) == pytest.approx(0.5, abs=0.08)

    def test_snapshot_bookkeeping(self):
        seen = []

        def observe(x):
            seen.append((x.shape, x.flags.writeable))
            return len(seen)

        res = simulate(brownian_spec(), Point(0.0), n_particles=100, step_size=0.01,
                       horizon=0.5, seed=2, observe=observe)
        assert res == [(0.0, 1), (0.5, 2)]
        assert seen == [((100,), False)] * 2

    def test_input_validation(self):
        bm = brownian_spec()
        s = Point(0.0)
        with pytest.raises(ValueError):
            simulate(bm, s, n_particles=50, step_size=0.01, horizon=1.0, seed=0,
                     observe=_positions)
        with pytest.raises(ValueError):
            simulate(bm, s, n_particles=100, step_size=0.0, horizon=1.0, seed=0,
                     observe=_positions)
        with pytest.raises(ValueError):
            simulate(bm, s, n_particles=100, step_size=0.01, horizon=0.001, seed=0,
                     observe=_positions)
        with pytest.raises(ValueError):
            simulate(bm, s, n_particles=100, step_size=0.01, horizon=1.0,
                     seed=0, snapshot_times=[2.0], observe=_positions)

    def test_nonfinite_positions_raise(self):
        expl = SMVESpec(b1=lambda x: x**3, b2=None,
                        epsilon=0.0, bound_D=0.0, lipschitz_L=0.0)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SimulationBlowUp,
                               match=r"^smve: non-finite position at step 1$"):
                simulate(expl, Point(1e200), n_particles=100,
                         step_size=0.01, horizon=0.5, seed=1, observe=_positions)
        assert threading.active_count() == threads

    def test_drift_bound_error_keeps_its_message(self):
        bad = SMVESpec(b1=lambda x: -x,
                       b2=lambda x, m: np.full_like(x, 5.0),
                       epsilon=0.1, bound_D=1.0, lipschitz_L=1.0)
        threads = threading.active_count()
        with pytest.raises(DriftBoundError,
                           match=r"^smve: \|b2\| = 5 exceeds D = 1$"):
            simulate(bad, Point(0.0), n_particles=100,
                     step_size=0.01, horizon=0.1, seed=1, observe=_positions)
        assert threading.active_count() == threads

    def test_nonfinite_initial_sample_is_a_value_error(self):
        threads = threading.active_count()
        with pytest.raises(ValueError, match="finite"):
            simulate(make_ou_spec(), Point(np.inf), n_particles=100,
                     step_size=0.01, horizon=0.5, seed=1, observe=_positions)
        assert threading.active_count() == threads

    def test_noise_worker_failure_reaches_the_caller_at_its_step(self, monkeypatch):
        real = mckean_vlasov._stream

        def failing(seed, tag, reuse=None, block=0):
            if tag == 7:
                raise RuntimeError("no draws for step 7")
            return real(seed, tag, reuse, block)

        monkeypatch.setattr(mckean_vlasov, "_stream", failing)
        calls = []

        def b1(x):
            calls.append(1)
            return -x

        spec = SMVESpec(b1=b1, b2=None, epsilon=0.0,
                        bound_D=0.0, lipschitz_L=0.0)
        threads = threading.active_count()
        outcome = {}

        def run():
            try:
                simulate(spec, Point(0.0), n_particles=100,
                         step_size=0.01, horizon=0.5, seed=3, observe=_positions)
            except RuntimeError as exc:
                outcome["error"] = exc

        # on a helper thread, so a lost failure fails the test, not hangs it
        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(timeout=60)
        assert not helper.is_alive(), "simulate did not return"
        assert str(outcome["error"]) == "no draws for step 7"
        assert threading.active_count() == threads
        # steps 1..6 ran as usual; step 7 stopped before its drift
        assert len(calls) == 6

    def test_coefficients_see_read_only_positions(self):
        seen = []

        def b1(x):
            seen.append(x.flags.writeable)
            return -x

        def b2(x, m):
            seen.append(x.flags.writeable)
            assert x.shape == (100,) and isinstance(m, float)
            return np.zeros_like(x)

        spec = SMVESpec(b1=b1, b2=b2, epsilon=0.1, bound_D=1.0, lipschitz_L=1.0)
        simulate(spec, Point(0.5), n_particles=100,
                 step_size=0.01, horizon=0.03, seed=3, observe=_positions)
        assert seen == [False] * 6

    def test_sampler_output_is_not_written_to(self):
        # the sampler copies the caller's array into the run's own array,
        # which is the only one the run writes
        start = np.zeros(100)

        def sampler(rng, x):
            x[:] = start

        simulate(make_ou_spec(), sampler, n_particles=100,
                 step_size=0.01, horizon=0.1, seed=3, observe=_positions)
        assert not start.any()

    def test_sampler_that_returns_its_positions_is_refused(self):
        with pytest.raises(ValueError, match="fill x in place and return None"):
            simulate(make_ou_spec(), lambda rng, x: np.ones_like(x), n_particles=100,
                     step_size=0.01, horizon=0.1, seed=3, observe=_positions)

    def test_sampler_fills_the_array_the_observer_reads(self):
        filled, seen = [], []

        def sampler(rng, x):
            filled.append(x)
            x[:] = 0.5

        def observe(x):
            seen.append(x)
            return x.copy()

        [(_, first), (_, last)] = simulate(make_ou_spec(), sampler, n_particles=100,
                                           step_size=0.01, horizon=0.1, seed=3,
                                           observe=observe)
        assert len(filled) == 1 and filled[0].shape == (100,)
        assert np.all(first == 0.5)
        assert np.array_equal(last, filled[0])
        assert all(x.base is filled[0] and not x.flags.writeable for x in seen)

    def test_an_observer_that_writes_into_x_is_refused(self):
        def observe(x):
            x[0] = 1.0

        threads = threading.active_count()
        with pytest.raises(ValueError, match="read-only"):
            simulate(make_ou_spec(), Point(0.0), n_particles=100, step_size=0.01,
                     horizon=0.1, seed=3, observe=observe)
        assert threading.active_count() == threads


def _step_noise(seed, k, n, whole_stream=False):
    """Step k's n normals: row block c of ``_row_blocks(n)``
    drawn from a fresh Philox Generator keyed by (seed, k) at counter
    (0, c, 0, 0), or, with ``whole_stream``, all rows from counter 0 in
    one call."""
    key = np.array([seed, k], dtype=np.uint64)
    if whole_stream:
        return Generator(Philox(key=key)).standard_normal(n)
    return np.concatenate([
        Generator(Philox(key=key, counter=np.array([0, c, 0, 0], dtype=np.uint64)))
        .standard_normal(rows.stop - rows.start)
        for c, rows in enumerate(mckean_vlasov._row_blocks(n))])


def _reference_simulate(b1, b2, epsilon, bound_D, label,
                        sampler, n, h, horizon, seed, times, whole_stream=False):
    """The Euler loop as it stood before the noise moved to a worker
    thread: fresh Philox Generators per step, b2(x, x.mean()) on the
    whole array, bound check on |b2|, out-of-place update, one thread."""
    n_steps = int(round(horizon / h))
    snap_steps = sorted({int(round(t / h)) for t in times})
    x = np.zeros(n)
    sampler(Generator(Philox(key=np.array([seed, 0], dtype=np.uint64))), x)
    out = [x.copy()] if 0 in snap_steps else []
    for k in range(n_steps):
        noise = _step_noise(seed, k + 1, n, whole_stream)
        total = b1(x)
        if b2 is not None and epsilon > 0:
            inter = b2(x, x.mean())
            worst = float(np.abs(inter).max())
            if worst > bound_D + 1e-9:
                raise DriftBoundError(f"{label}: |b2| exceeds D")
            total = total + epsilon * inter
        x = x + total * h + math.sqrt(h) * noise
        assert np.all(np.isfinite(x))
        if k + 1 in snap_steps:
            out.append(x.copy())
    return out


def _old_radial(r, M):
    return lambda x: -r * x / np.maximum(np.abs(x), M)


def _old_mean_attraction(D):
    return lambda x, m: D * np.tanh(m - x)


# (spec, the same coefficients as the reference loop evaluated them)
def _model(name):
    if name == "ou":
        return make_ou_spec(), (lambda x: -x, None, 0.0, 0.0)
    if name == "vh":
        spec = make_vh_spec(r=1.5, M=0.7, D=1.0, epsilon=0.3)
        return spec, (_old_radial(1.5, 0.7), _old_mean_attraction(1.0), 0.3, 1.0)
    if name == "identity":
        # the drift is the positions array itself
        b1 = lambda x: x
        return SMVESpec(b1, None, 0.0, 0.0, 0.0, "identity"), (b1, None, 0.0, 0.0)
    if name == "cached":
        # the drift is the same writeable array at every step
        cache = {}
        b1 = lambda x: cache.setdefault(x.shape, np.full(x.shape, -0.5))
        return SMVESpec(b1, None, 0.0, 0.0, 0.0, "cached"), (b1, None, 0.0, 0.0)
    # b1 returns its input and b2 a view of it, so a write into either
    # would change the particles
    b1 = lambda x: x
    b2 = lambda x, m: x[:]
    spec = SMVESpec(b1, b2, 0.5, 1e6, 1.0, "alias")
    return spec, (b1, b2, 0.5, 1e6)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["ou", "vh", "identity", "cached", "alias"]),
    n=st.sampled_from([100, 1_000, 10_000, 140_000]),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    h=st.sampled_from([0.01, 0.05]),
)
@example(model="vh", n=140_000, steps=5, seed=7, h=0.01)
@example(model="identity", n=1_000, steps=3, seed=2, h=0.01)
def test_simulate_matches_reference_euler_loop(model, n, steps, seed, h):
    # 140,000 particles make one step over 1 MB (a two-buffer ring);
    # 10^4 particles give a ring of 13 steps, which most step counts do
    # not divide
    if n == 140_000:
        steps = min(steps, 5)
    spec, (b1, b2, eps, bound) = _model(model)
    horizon = steps * h
    times = [0.0, (steps // 2) * h, horizon]
    sampler = Gauss(0.3, 1.0)
    got = simulate(spec, sampler, n, h, horizon, seed, times, observe=_positions)
    want = _reference_simulate(b1, b2, eps, bound, spec.label,
                               sampler, n, h, horizon, seed, times)
    assert len(got) == len(want) == len(set(times))
    for (_, pos), ref in zip(got, want):
        assert pos.tobytes() == ref.tobytes()


@pytest.mark.parametrize("drift", ["broadcast", "broadcast-interaction"])
def test_simulate_reads_an_aliased_or_broadcast_drift_whole(drift):
    # the step moves a block of rows at a time: b1 and b2 may return one
    # row broadcast to the rows they are given
    if drift == "broadcast":
        b1, b2, eps = (lambda x: np.array([-1.0])), None, 0.0
    else:
        # b2 pulls every row by the same one-row array: 0.5 (m - 1)
        b1, eps = (lambda x: -x), 0.5
        b2 = lambda x, m: np.array([0.5 * (m - 1.0)])
    spec = SMVESpec(b1, b2, eps, 1e6, 1.0, drift)
    sampler = Gauss(0.3, 1.0)
    times = [0.0, 0.02, 0.03]
    got = simulate(spec, sampler, 140_000, 0.01, 0.03, 5, times, observe=_positions)
    want = _reference_simulate(b1, b2, eps, 1e6, drift,
                               sampler, 140_000, 0.01, 0.03, 5, times)
    for (_, pos), ref in zip(got, want, strict=True):
        assert pos.tobytes() == ref.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    # one to four blocks of 16,384 rows
    n=st.integers(100, 60_000),
    lanes=st.integers(1, 3),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
@example(n=60_000, lanes=3, steps=4, seed=7)
def test_b2_sees_one_mean_per_step_the_mean_of_the_last_positions(n, lanes, steps, seed):
    # every block of step k gets the same m, bit for bit the mean of the
    # positions after step k - 1
    seen = []
    vh = mean_attraction_coupling(1.0)

    def b2(x, m):
        seen.append(m)
        return vh(x, m)

    spec = SMVESpec(radial_confinement_drift(1.5, 0.7), b2, 0.3, 1.0, 1.0, "recording")
    h = 0.01
    times = [k * h for k in range(steps + 1)]
    sampler = Gauss(0.3, 1.0)
    got = _in_lanes(spec, sampler, n, h, steps * h, seed, times, lanes)
    blocks = len(mckean_vlasov._row_blocks(n))
    assert len(seen) == steps * blocks
    for k in range(1, steps + 1):
        means = {np.float64(m).tobytes() for m in seen[(k - 1) * blocks:k * blocks]}
        assert means == {got[k - 1][1].mean().tobytes()}
    want = _reference_simulate(_old_radial(1.5, 0.7), _old_mean_attraction(1.0), 0.3, 1.0,
                               spec.label, sampler, n, h, steps * h, seed, times)
    for (_, pos), ref in zip(got, want, strict=True):
        assert pos.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Row blocks stepped in lanes.


def _in_lanes(spec, sampler, n, h, horizon, seed, times, lanes):
    plan = mckean_vlasov._plan(n, h, horizon, times)
    return mckean_vlasov._euler(spec, sampler, n, h, seed, plan, _positions, lanes)


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(["ou", "vh", "alias"]),
    # one block is 16,384 rows
    n=st.sampled_from([100, 16_384, 16_385, 24_577, 40_000]),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
@example(model="vh", n=40_000, steps=3, seed=7)
def test_outputs_are_the_same_in_one_two_and_three_lanes(model, n, steps, seed):
    threads = threading.active_count()
    spec, _ = _model(model)
    h = 0.01
    times = [0.0, (steps // 2) * h, steps * h]
    sampler = Gauss(0.3, 1.0)
    one, *more = [_in_lanes(spec, sampler, n, h, steps * h, seed, times, lanes)
                  for lanes in (1, 2, 3)]
    for run in more:
        _same_runs([run], [one])
    assert threading.active_count() == threads


# sha256 of the last positions of a one-block vh run, as the whole
# (seed, k) streams gave them before the blocks had substreams
_ONE_BLOCK_DIGEST = "f8c594a2124e549ebca0ccb17f587e0ae366b1917227d095ca8e20a76e0a7a82"


def test_one_block_run_draws_the_whole_step_stream():
    n = 16_384
    assert len(mckean_vlasov._row_blocks(n)) == 1
    spec, (b1, b2, eps, bound) = _model("vh")
    sampler = Gauss(0.3, 1.0)
    got = simulate(spec, sampler, n, 0.01, 0.2, 7, observe=_positions)
    want = _reference_simulate(b1, b2, eps, bound, spec.label, sampler,
                               n, 0.01, 0.2, 7, [0.0, 0.2], whole_stream=True)
    for (_, pos), ref in zip(got, want, strict=True):
        assert pos.tobytes() == ref.tobytes()
    assert hashlib.sha256(got[-1][1].tobytes()).hexdigest() == _ONE_BLOCK_DIGEST


def test_wide_run_steps_its_blocks_in_one_lane_per_usable_cpu(monkeypatch):
    _use_cpus(monkeypatch, 3)
    callers = set()

    def b1(x):
        callers.add(threading.current_thread().name)
        return -x

    threads = threading.active_count()
    spec = SMVESpec(b1, None, 0.0, 0.0, 0.0)
    simulate(spec, Point(0.0), 40_000, 0.01, 0.05, 3, observe=len)  # three blocks
    assert len(callers) == 3 and threading.current_thread().name in callers
    assert threading.active_count() == threads
    callers.clear()
    simulate(spec, Point(0.0), 16_385, 0.01, 0.05, 3, observe=len)  # two lanes
    assert len(callers) == 2


def _row_index_sampler(rng, x):
    x[:] = np.arange(len(x))


def _refusing_b1(first_row):
    # b1 raises on every block from row first_row on; at step 1 a
    # block's first position is its first row's index
    def b1(x):
        if x[0] >= first_row:
            raise LookupError(f"b1 refused the block from row {x[0]:.0f}")
        return -x

    return b1


def _stream_failing_at_step_7(seed, tag, reuse=None, block=0, real=mckean_vlasov._stream):
    if tag == 7:
        raise RuntimeError(f"no draws for step 7, block {block}")
    return real(seed, tag, reuse, block)


# (spec, sampler, the failure in any number of lanes); 57,344 particles
# make 4 blocks of 16,384 rows (the last short), so three lanes take
# blocks 0 and 3, 1, and 2
LANE_FAILURES = {
    "blow-up in block 1": (
        SMVESpec(lambda x: 50.0 * x, None, 0.0, 0.0, 0.0, "late"),
        lambda rng, x: x.__setitem__(slice(16_384, None), 1e306),
        SimulationBlowUp, r"^late: non-finite position at step \d+$"),
    "drift bound": (
        SMVESpec(lambda x: -x, lambda x, m: np.full_like(x, 5.0),
                 0.1, 1.0, 1.0),
        Point(0.0), DriftBoundError, r"^smve: \|b2\| = 5 exceeds D = 1$"),
    "b1 from block 1 on": (
        SMVESpec(_refusing_b1(10_000), None, 0.0, 0.0, 0.0),
        _row_index_sampler, LookupError, r"^b1 refused the block from row 16384$"),
    "b1 from block 2 on": (
        SMVESpec(_refusing_b1(20_000), None, 0.0, 0.0, 0.0),
        _row_index_sampler, LookupError, r"^b1 refused the block from row 32768$"),
    "stream at step 7": (
        SMVESpec(lambda x: -x, None, 0.0, 0.0, 0.0),
        Point(0.0), RuntimeError, r"^no draws for step 7, block 0$"),
}


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("failure", LANE_FAILURES)
def test_lane_failure_reaches_the_caller_as_in_one_lane(failure, lanes, monkeypatch,
                                                        no_leftovers):
    spec, sampler, kind, message = LANE_FAILURES[failure]
    if failure == "stream at step 7":
        monkeypatch.setattr(mckean_vlasov, "_stream", _stream_failing_at_step_7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from any lane
        with pytest.raises(kind, match=message) as caught:
            _in_lanes(spec, sampler, 57_344, 0.01, 0.2, 1, None, lanes)
    if failure == "blow-up in block 1":
        step = caught.value.args[0].rsplit(" ", 1)[1]
        assert 1 < int(step) < 20


def _b2_by_block(block_values):
    """A b2 that gives each row the value of its block in
    ``block_values`` (blocks of 16,384 rows), read off the row index
    that ``_row_index_sampler`` puts at step 1."""
    values = np.array(block_values)
    return lambda x, m: values[(x // 16_384).astype(int)]


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("norms", [(4.0, 3.0), (3.0, 4.0)])
def test_drift_bound_beats_a_blow_up_and_carries_the_largest_norm(norms, lanes,
                                                                 no_leftovers):
    # block 0 blows up at step 1; blocks 1 and 2, in different lanes at
    # two and three lanes, exceed D.  In two lanes, lane 0 checks block
    # 2 after block 0 failed.
    def b1(x):
        return np.full_like(x, np.inf) if x[0] < 16_384 else -x

    spec = SMVESpec(b1, _b2_by_block([0.0, *norms, 0.0]), 0.1, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DriftBoundError, match=r"^smve: \|b2\| = 4 exceeds D = 1$"):
            _in_lanes(spec, _row_index_sampler, 57_344, 0.01, 0.2, 1, None, lanes)


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("where", ["same block", "other block"])
def test_a_nan_interaction_hides_no_norm_over_the_bound(where, lanes, no_leftovers):
    # a NaN |b2| never counts, and never hides |b2| > D elsewhere in the
    # step: before the bound check moved into the blocks, a NaN anywhere
    # made the step's largest norm NaN, and the run ended in SimulationBlowUp
    def b2(x, m):
        out = np.where(x < 16_384, np.nan, 0.0)
        out[(x == 40_000) if where == "other block" else (x == 5)] = 5.0
        return out

    spec = SMVESpec(lambda x: -x, b2, 0.1, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DriftBoundError, match=r"^smve: \|b2\| = 5 exceeds D = 1$"):
            _in_lanes(spec, _row_index_sampler, 57_344, 0.01, 0.2, 1, None, lanes)


def test_more_lanes_than_cpus_at_a_short_switch_interval_match_one_lane(no_leftovers):
    # five lanes on the six blocks of a wide vh run, switching threads
    # every microsecond: a lost or early update of the positions, of the
    # step's mean or of a lane's failure slot would change the bytes
    spec, _ = _model("vh")
    sampler = Gauss(0.3, 1.0)
    want = _in_lanes(spec, sampler, 90_000, 0.01, 0.05, 3, None, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _in_lanes(spec, sampler, 90_000, 0.01, 0.05, 3, None, 5)
    finally:
        sys.setswitchinterval(interval)
    _same_runs([got], [want])


def test_interrupt_during_a_wide_run_leaves_no_lane_thread(monkeypatch):
    _use_cpus(monkeypatch, 3)

    def b1(x):
        time.sleep(0.002)
        return -x

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    spec = SMVESpec(b1, None, 0.0, 0.0, 0.0)
    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        # three blocks of 2 ms a step for 2,000 steps, were it not stopped
        with pytest.raises(KeyboardInterrupt):
            simulate(spec, Point(0.0), 40_000, 0.01, 20.0, 3, observe=len)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 5.0
    assert threading.active_count() == threads


def _traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WIDE = 200_000


def _use_cpus(monkeypatch, count):
    """Make ``simulate`` see ``count`` usable CPUs, so it steps a wide
    run in that many lanes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _wide_bound(particle_arrays: int, lanes: int = 1, interaction: bool = False) -> int:
    """What a run of WIDE particles may hold at its peak: x and at most
    five blocks per lane (the step's scratch, its noise and its
    finiteness mask, and b1's output and its |x| for one block), and a
    sixth, b2's output for that block, with an
    ``interaction``; never a particle-sized copy, drift or noise array."""
    blocks = 6 if interaction else 5
    return particle_arrays * 8 * WIDE + blocks * lanes * mckean_vlasov._BLOCK_BYTES


# (model, the particle arrays a wide run of it holds)
WIDE_MODELS = [
    ("probe", 1),  # x
    ("vh", 1),  # x; b2 gives one block at a time
]


def _wide_simulate_peak(model) -> int:
    if model == "vh":
        spec = make_vh_spec()
    else:
        spec = SMVESpec(radial_confinement_drift(1.0, 1.0), None, 0.0, 0.0, 0.0)
    sampler = Gauss(0.3, 1.0)
    return _traced_peak(lambda: simulate(spec, sampler, WIDE, 0.01, 0.05, 7, [0.05],
                                         observe=len))


@pytest.mark.parametrize("model, particle_arrays", WIDE_MODELS)
def test_wide_simulate_allocates_no_particle_sized_scratch(model, particle_arrays,
                                                           monkeypatch):
    _use_cpus(monkeypatch, 1)
    assert _wide_simulate_peak(model) <= _wide_bound(particle_arrays,
                                                     interaction=model == "vh")


@pytest.mark.parametrize("model, particle_arrays", WIDE_MODELS)
def test_wide_simulate_holds_five_blocks_per_lane(model, particle_arrays, monkeypatch):
    # and a sixth with an interaction
    _use_cpus(monkeypatch, 3)
    assert _wide_simulate_peak(model) <= _wide_bound(particle_arrays, lanes=3,
                                                     interaction=model == "vh")


def _five_start_peak() -> int:
    from nlmarkov.diagnostics import Binning

    # five starts of WIDE / 5 particles each, stepped as one run and
    # binned a block at a time, start by start
    k, n, binning = 5, WIDE // 5, Binning()
    starts = np.linspace(-1.0, 1.0, k)

    def sampler(rng, x):
        x.reshape(k, n)[:] = starts[:, None]

    def per_start(x):
        return [binning.masses(x[i * n:(i + 1) * n]) for i in range(k)]

    spec = SMVESpec(radial_confinement_drift(1.0, 1.0), None, 0.0, 0.0, 0.0)
    return _traced_peak(lambda: simulate(spec, sampler, WIDE, 0.01, 0.05, 101, [0.05],
                                         observe=per_start))


def test_five_start_wide_run_allocates_no_particle_sized_scratch(monkeypatch):
    _use_cpus(monkeypatch, 1)
    assert _five_start_peak() <= _wide_bound(1)


def test_five_start_wide_run_holds_five_blocks_per_lane(monkeypatch):
    _use_cpus(monkeypatch, 3)
    assert _five_start_peak() <= _wide_bound(1, lanes=3)


class _Stop(Exception):
    pass


def _peak_at_first_b1_call() -> int:
    peaks = []

    def b1(x):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _Stop

    spec = SMVESpec(b1, None, 0.0, 0.0, 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            simulate(spec, Gauss(0.3, 1.0), WIDE, 0.01, 0.05, 7, [0.05], observe=len)
    finally:
        tracemalloc.stop()
    return peaks[0]


def test_wide_run_starts_in_the_array_the_sampler_fills(monkeypatch):
    # at the first b1 call the run holds x, filled and checked in place,
    # and its three blocks: no copy of a sampler's output
    _use_cpus(monkeypatch, 1)
    assert _peak_at_first_b1_call() <= 8 * WIDE + 3 * mckean_vlasov._BLOCK_BYTES


def test_wide_run_in_lanes_starts_in_the_array_the_sampler_fills(monkeypatch):
    # and three blocks for each lane
    _use_cpus(monkeypatch, 3)
    assert _peak_at_first_b1_call() <= 8 * WIDE + 3 * 3 * mckean_vlasov._BLOCK_BYTES


def test_wide_run_lets_the_observer_read_x_in_place():
    # from b1's last call to the run's return, the run allocates b1's
    # output block and no copy of x for the observer
    last_call = 2 * len(mckean_vlasov._row_blocks(WIDE))  # two steps
    calls, held = [], []

    def b1(x):
        calls.append(1)
        if len(calls) == last_call:
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
        return -x

    spec = SMVESpec(b1, None, 0.0, 0.0, 0.0)
    tracemalloc.start()
    try:
        snaps = simulate(spec, Gauss(0.3, 1.0), WIDE, 0.01, 0.02, 7, [0.02],
                         observe=len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == last_call and len(snaps) == 1
    assert peak - held[0] <= 2 * mckean_vlasov._BLOCK_BYTES


@pytest.mark.parametrize("shape", [(1,), (7,), (100, 3), (1_001, 2)])
def test_rewound_stream_matches_a_new_generator(shape):
    generator = mckean_vlasov._stream(11, 1)
    for seed, tag in [(11, 1), (11, 2), (11, 999), (0, 2**63 + 5), (2**64 - 1, 2**64 - 1)]:
        # leave the generator mid-buffer, with a spare 32-bit half drawn
        generator.standard_normal(3)
        generator.random(dtype=np.float32)
        rewound = mckean_vlasov._stream(seed, tag, generator)
        key = np.array([seed, tag], dtype=np.uint64)
        fresh = Generator(Philox(key=key))
        assert _plain(rewound.bit_generator.state) == _plain(fresh.bit_generator.state)
        got = rewound.standard_normal(shape)
        assert got.tobytes() == fresh.standard_normal(shape).tobytes()


def _plain(state):
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return np.asarray(state).tolist()


# ---------------------------------------------------------------------------
# Independent runs in worker processes.

TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="worker processes need two usable CPUs")


class _Hang(Exception):
    pass


@pytest.fixture
def no_leftovers():
    """Fails the test if it leaves a worker process or a thread behind,
    and fails it, instead of hanging, after 60 s."""
    threads = threading.active_count()

    def expire(signum, frame):
        raise _Hang("simulate_runs did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def _same_runs(got, want):
    assert len(got) == len(want)
    for run, ref in zip(got, want):
        assert len(run) == len(ref)
        for (t, pos), (expected_t, expected) in zip(run, ref):
            assert t == expected_t
            assert pos.tobytes() == expected.tobytes()
            assert pos.shape == expected.shape


def _sequential(spec, runs, n, h, horizon, times):
    return [simulate(spec, sampler, n, h, horizon, seed, times, observe=_positions)
            for sampler, seed in runs]


def _sampler(name):
    if name == "point":
        return Point(0.5)
    if name == "gauss":
        return Gauss(0.3, 1.0)
    return Mix(-1.0, 2.0, 0.4)


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(["ou", "vh"]),
    runs=st.lists(st.tuples(st.sampled_from(["point", "gauss", "mix"]), st.integers(0, 3)),
                  min_size=1, max_size=5),
    n=st.sampled_from([100, 1_000]),
    steps=st.integers(1, 30),
)
@example(model="vh", runs=[("gauss", 1), ("gauss", 1), ("mix", 0)], n=1_000, steps=7)
@example(model="ou", runs=[("point", 2)], n=100, steps=1)
def test_simulate_runs_matches_simulate(model, runs, n, steps):
    threads = threading.active_count()
    spec, _ = _model(model)
    h = 0.05
    horizon = steps * h
    times = [0.0, (steps // 2) * h, horizon]
    pairs = [(_sampler(name), seed) for name, seed in runs]
    got = list(simulate_runs(spec, pairs, n, h, horizon, times, observe=_positions))
    _same_runs(got, _sequential(spec, pairs, n, h, horizon, times))
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def _two_runs():
    return make_vh_spec(), [(Gauss(0.0, 1.0), 4), (Point(1.0), 5)]


@TWO_CPUS
def test_runs_go_to_worker_processes(monkeypatch, no_leftovers):
    spec, runs = _two_runs()
    want = _sequential(spec, runs, 1_000, 0.01, 0.2, None)

    def in_process(*args, **kwargs):
        raise AssertionError("a run went through simulate in this process")

    monkeypatch.setattr(mckean_vlasov, "simulate", in_process)
    _same_runs(list(simulate_runs(spec, runs, 1_000, 0.01, 0.2, observe=_positions)), want)


def _counting_simulate(monkeypatch):
    calls = []
    real = mckean_vlasov.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mckean_vlasov, "simulate", counted)
    return calls


def test_one_cpu_runs_in_order_in_process(monkeypatch, no_leftovers):
    spec, runs = _two_runs()
    want = _sequential(spec, runs, 1_000, 0.01, 0.2, [0.1, 0.2])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = _counting_simulate(monkeypatch)
    _same_runs(list(simulate_runs(spec, runs, 1_000, 0.01, 0.2, [0.1, 0.2],
                                  observe=_positions)), want)
    assert len(calls) == 2


def test_live_threads_keep_the_runs_in_process(monkeypatch):
    spec, runs = _two_runs()
    want = _sequential(spec, runs, 1_000, 0.01, 0.2, None)
    calls = _counting_simulate(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = list(simulate_runs(spec, runs, 1_000, 0.01, 0.2, observe=_positions))
    finally:
        release.set()
        other.join()
    _same_runs(got, want)
    assert len(calls) == 2
    assert multiprocessing.active_children() == []


def test_bad_arguments_raise_before_any_run(no_leftovers):
    spec, runs = _two_runs()
    for kwargs in (dict(n_particles=50), dict(step_size=0.0),
                   dict(horizon=0.001), dict(snapshot_times=[2.0])):
        args = dict(n_particles=100, step_size=0.01, horizon=1.0) | kwargs
        with pytest.raises(ValueError):
            simulate_runs(spec, runs, **args, observe=_positions)
    assert list(simulate_runs(spec, [], 100, 0.01, 1.0, observe=_positions)) == []


def _late_blow_up_spec():
    # about 75 steps of 2 ms from 1e250 to overflow
    def b1(x):
        time.sleep(0.002)
        return 50.0 * x

    return SMVESpec(b1, None, 0.0, 0.0, 0.0, "late")


def _fails_at_once(rng, x):
    raise ValueError("no initial sample")


def test_first_failing_run_in_list_order_wins(no_leftovers):
    # run 0 blows up late; run 1 fails at once; run 2 would pass
    spec = _late_blow_up_spec()
    runs = [(Point(1e250), 1), (_fails_at_once, 2),
            (Point(0.0), 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SimulationBlowUp) as want:
            _sequential(spec, runs, 100, 0.1, 20.0, None)
        results = simulate_runs(spec, runs, 100, 0.1, 20.0, observe=_positions)
        with pytest.raises(SimulationBlowUp) as got:
            next(results)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("late: non-finite position at step ")


def test_runs_before_the_failure_are_yielded(no_leftovers):
    spec = make_ou_spec()
    runs = [(Point(0.0), 1), (_fails_at_once, 2), (Point(0.0), 3)]
    results = simulate_runs(spec, runs, 100, 0.01, 0.5, observe=_positions)
    _same_runs([next(results)], _sequential(spec, runs[:1], 100, 0.01, 0.5, None))
    with pytest.raises(ValueError, match="^no initial sample$"):
        next(results)


def test_worker_failure_keeps_its_type_and_message(no_leftovers):
    bad = SMVESpec(b1=lambda x: -x,
                   b2=lambda x, m: np.full_like(x, 5.0),
                   epsilon=0.1, bound_D=1.0, lipschitz_L=1.0)
    runs = [(Point(0.0), 1), (Point(0.0), 2)]
    with pytest.raises(DriftBoundError, match=r"^smve: \|b2\| = 5 exceeds D = 1$"):
        list(simulate_runs(bad, runs, 100, 0.01, 0.1, observe=_positions))


class _ObserverError(Exception):
    pass


def _failing_observer(x):
    raise _ObserverError(f"observer refused {len(x)} particles")


@TWO_CPUS
def test_observer_failure_in_a_worker_reaches_the_caller(monkeypatch, no_leftovers):
    def in_process(*args, **kwargs):
        raise AssertionError("a run went through simulate in this process")

    monkeypatch.setattr(mckean_vlasov, "simulate", in_process)
    spec, runs = _two_runs()
    with pytest.raises(_ObserverError, match="^observer refused 100 particles$"):
        list(simulate_runs(spec, runs, 100, 0.01, 0.1, observe=_failing_observer))


def test_observer_failure_in_a_wide_run_joins_every_lane(monkeypatch, no_leftovers):
    # the observer fails at the last snapshot, after lanes stepped blocks
    _use_cpus(monkeypatch, 3)
    calls = []

    def observe(x):
        calls.append(1)
        if len(calls) == 2:
            _failing_observer(x)

    with pytest.raises(_ObserverError, match="^observer refused 40000 particles$"):
        simulate(make_vh_spec(), Point(0.0), 40_000, 0.01, 0.05, 3, observe=observe)
    assert len(calls) == 2


@TWO_CPUS
def test_unpicklable_failure_becomes_a_runtime_error(no_leftovers):
    class LocalError(Exception):
        pass

    def sampler(rng, x):
        raise LocalError("cannot cross a pipe")

    runs = [(sampler, 1), (Point(0.0), 2)]
    with pytest.raises(RuntimeError, match="^LocalError: cannot cross a pipe$"):
        list(simulate_runs(make_ou_spec(), runs, 100, 0.01, 0.1, observe=_positions))


@TWO_CPUS
def test_killed_worker_raises_instead_of_hanging(no_leftovers):
    # the last worker started dies in its first run's sampler
    parent = os.getpid()

    def killed_in_worker(rng, x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    spec = make_ou_spec()
    runs = [(Point(0.0), 1), (killed_in_worker, 2), (Point(0.0), 3)]
    results = simulate_runs(spec, runs, 100, 0.01, 0.1, observe=_positions)
    _same_runs([next(results)], _sequential(spec, runs[:1], 100, 0.01, 0.1, None))
    with pytest.raises(RuntimeError, match=r"^particle run 1: worker process exited "
                                           r"with code -9 without reporting it$"):
        next(results)


def _slow_far_out_spec():
    # Brownian particles; a step takes 5 ms while their mean is above 500
    def b1(x):
        if x.mean() > 500:
            time.sleep(0.005)
        return np.zeros_like(x)

    return SMVESpec(b1, None, 0.0, 0.0, 0.0, "slow")


# runs 1 and 2 take 10 s each, runs 0 and 3 a few milliseconds
_FAST_AND_SLOW = [(Point(0.0), 1), (Point(1000.0), 2),
                  (Point(1000.0), 3), (Point(0.0), 4)]


def test_consumer_that_stops_early_leaves_no_worker(no_leftovers):
    results = simulate_runs(_slow_far_out_spec(), _FAST_AND_SLOW, 100, 0.01, 20.0,
                            observe=len)
    next(results)
    start = time.perf_counter()
    results.close()
    # the workers were terminated, not waited for
    assert time.perf_counter() - start < 5.0
    # and one that never starts
    simulate_runs(_slow_far_out_spec(), _FAST_AND_SLOW, 100, 0.01, 20.0,
                  observe=len).close()


def test_interrupt_while_waiting_leaves_no_worker(no_leftovers):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        with pytest.raises(KeyboardInterrupt):
            list(simulate_runs(_slow_far_out_spec(), _FAST_AND_SLOW, 100, 0.01, 20.0,
                               observe=len))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 5.0


class TestEpsilonZero:
    def test_frozen_values(self):
        assert epsilon_zero(0.1, 1.0, 1.0) == pytest.approx(0.05)
        # alpha caps at r when alpha exceeds it
        assert epsilon_zero(0.8, 0.5, 1.0) == pytest.approx(0.25)
        assert epsilon_zero(0.5, 1.0, 100.0) == pytest.approx(0.0025)
        assert epsilon_zero(1.0, 5.0, 2.0) == pytest.approx(0.25)

    def test_guards(self):
        with pytest.raises(ValueError):
            epsilon_zero(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            epsilon_zero(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            epsilon_zero(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            epsilon_zero(0.5, 1.0, 0.0)
