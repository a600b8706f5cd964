"""Tests for the simulation diagnostics: the Euler chain's laws on a
grid and the local overlap read from them, Lyapunov and decay
regressions, and the coupled-run bound check."""

import math
import os
import sys
import tracemalloc
import warnings
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from nlmarkov import cli, diagnostics, mckean_vlasov
from nlmarkov.diagnostics import (
    BOOTSTRAP_PAIRS,
    LOCAL_ALPHA_STARTS,
    Binning,
    DecayFitError,
    bootstrap_floor,
    estimate_local_alpha,
    fit_decay,
    girsanov_bound_check,
    girsanov_rate,
    lyapunov_diagnostic,
    mean_weight,
)
from nlmarkov.laws import Gauss, Point
from nlmarkov.mckean_vlasov import (
    SMVESpec,
    WeightFunction,
    make_ou_spec,
    make_vh_spec,
    ou_drift,
    radial_confinement_drift,
    simulate,
    simulate_runs,
)
from nlmarkov.reporting import NumericalFailure


def constant_snapshot(value, time, V=lambda x: x, n=50):
    """The (time, mean weight) pair of n particles at ``value``."""
    return (time, mean_weight(V, np.full(n, value)))


class TestBinning:
    def test_guards(self):
        with pytest.raises(ValueError):
            Binning(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Binning(0.0, 1.0, 0)
        for lower, upper in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                Binning(lower, upper, 10)

    def test_histogram_shares_the_grid(self):
        bn = Binning(-1.0, 1.0, 4)
        assert bn.masses(np.array([-0.9, 0.1, 0.9])).shape == (5,)
        assert bn.to_dict() == {"lower": -1.0, "upper": 1.0, "bins": 4}

    def test_points_scaled_past_the_float_range_are_outside_without_a_warning(self):
        # (1e308 + 10) / 0.1 overflowed with a RuntimeWarning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masses = Binning(-10.0, 10.0, 200).masses(np.array([[1e308], [-1e308], [0.0]]))
        assert masses[-1] == 2 / 3 and masses[100] == 1 / 3


def _ou_euler_alpha(h: float, steps: int, R: float) -> float:
    """The overlap of the ou Euler chain's laws from -R and R after
    ``steps`` steps of h: each is N(+-a R, s^2), with a = (1 - h)^steps
    and s^2 = h (1 - a^2) / (1 - (1 - h)^2)."""
    a = (1.0 - h) ** steps
    s = math.sqrt(h * (1.0 - a * a) / (1.0 - (1.0 - h) ** 2))
    return math.erfc(abs(a) * R / (s * math.sqrt(2.0)))


class TestEstimateLocalAlpha:
    def test_matches_gaussian_overlap_oracle(self):
        # Linear pull: the time-t law from x0 is N(x0 e^-t, (1-e^-2t)/2),
        # so the worst pair is (-R, R) and the overlap has a closed form.
        R, t = 1.0, 1.0
        sigma = math.sqrt((1.0 - math.exp(-2.0 * t)) / 2.0)
        alpha_exact = 2.0 * NormalDist().cdf(-2.0 * R * math.exp(-t) / (2.0 * sigma))
        est = estimate_local_alpha(ou_drift(), R=R, t=t, binning=Binning(-6.0, 6.0, 40))
        assert abs(est.alpha_hat - alpha_exact) < 0.05
        assert est.worst_pair == (-R, R)

    # (h, steps, R), with a binning wide enough for every law.  Once the
    # laws are all but disjoint both overlaps are rounding residues near
    # 0, so 1e-14 of rounding is allowed beside the tolerance.
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.001, 1.5), st.integers(1, 40), st.floats(0.01, 3.0))
    def test_ou_overlap_is_within_its_grid_tolerance_of_the_euler_chains(self, h, steps,
                                                                        R):
        est = estimate_local_alpha(ou_drift(), R=R, t=h * steps,
                                   binning=Binning(-30.0, 30.0, 600), step_size=h)
        exact = _ou_euler_alpha(h, steps, R)
        assert abs(est.alpha_hat - exact) <= est.grid_tolerance + 1e-14
        assert est.grid_dx == math.sqrt(h) / diagnostics.GRID_CELLS

    def test_vh_matches_a_monte_carlo_oracle(self):
        # The oracle steps 10^5 particles from each start through the same
        # Euler chain and bins them.  Its noise is the spread of the overlap
        # of multinomial(10^5) draws from the grid's binned laws: the
        # Monte Carlo alpha lies in their 0.5-99.5 percent band, widened by
        # the grid tolerance.
        b1, n, k = radial_confinement_drift(1.0, 1.0), 100_000, LOCAL_ALPHA_STARTS
        binning = Binning()
        est = estimate_local_alpha(b1, R=1.0, t=1.0, binning=binning)
        starts = np.linspace(-1.0, 1.0, k)

        def sampler(rng, x):
            x.reshape(k, n)[:] = starts[:, None]

        def per_start(x):
            return [binning.masses(x[i * n:(i + 1) * n]) for i in range(k)]

        probe = SMVESpec(b1, None, 0.0, 0.0, 0.0, "local-alpha-oracle")
        [(_, clouds)] = simulate(probe, sampler, k * n, 0.01, 1.0, 101, [1.0],
                                 observe=per_start)

        def alpha(masses):
            return 1.0 - max(Binning.tv(p, q) for i, p in enumerate(masses)
                             for q in masses[i + 1:]) / 2.0

        first, dx, laws = diagnostics.euler_laws(b1, starts, 0.01, 100)
        grid = [binning.grid_masses(first, dx, law) for law in laws]
        assert alpha(grid) == est.alpha_hat
        rng = np.random.default_rng(5)

        def cloud(p):
            p = np.clip(p, 0.0, None)  # interpolation may round a cell below 0
            return rng.multinomial(n, p / p.sum()) / n

        draws = [alpha([cloud(p) for p in grid]) for _ in range(200)]
        low, high = np.percentile(draws, [0.5, 99.5])
        assert low - est.grid_tolerance <= alpha(clouds) <= high + est.grid_tolerance

    def test_identical_starts_overlap_up_to_noise(self):
        # The two starts share a grid law, and the grid has no noise: the
        # overlap is exactly 1.
        est = estimate_local_alpha(ou_drift(), R=1.0, t=0.5,
                                   x_grid=np.array([0.3, 0.3]),
                                   binning=Binning(-6.0, 6.0, 20))
        assert est.alpha_hat == 1.0 and est.grid_tolerance == 0.0

    def test_runs_no_particles(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("a particle run was made")

        monkeypatch.setattr(mckean_vlasov, "simulate", unreached)
        monkeypatch.setattr(mckean_vlasov, "_euler", unreached)
        assert 0.0 < estimate_local_alpha(ou_drift(), R=1.0, t=1.0).alpha_hat < 1.0

    def test_guards(self):
        with pytest.raises(ValueError):
            estimate_local_alpha(ou_drift(), R=0.0, t=1.0)
        with pytest.raises(ValueError):
            estimate_local_alpha(ou_drift(), R=1.0, t=-1.0)
        with pytest.raises(ValueError, match="ball"):
            estimate_local_alpha(ou_drift(), R=1.0, t=1.0, x_grid=np.array([0.0, 2.0]))

    @pytest.mark.parametrize("x_grid", [np.zeros((2, 2)), np.zeros((2, 1, 1)),
                                        np.zeros((2, 1))], ids=["d-2", "3-d", "column"])
    def test_more_than_one_dimension_is_refused(self, monkeypatch, x_grid):
        # the starts are a flat array of numbers, as the particle positions are
        monkeypatch.setattr(diagnostics, "euler_laws", None)
        with pytest.raises(ValueError, match="one dimension only"):
            estimate_local_alpha(ou_drift(), R=1.0, t=1.0, x_grid=x_grid)

    @pytest.mark.parametrize("x_grid", [[0.0], []], ids=["one-start", "no-start"])
    def test_fewer_than_two_starts_are_refused_before_the_run(self, monkeypatch, x_grid):
        # with one start there is no pair to compare; the run used to be
        # made first, then max() failed over no pairs
        def unreached(*args, **kwargs):
            raise AssertionError("euler_laws was called")

        monkeypatch.setattr(diagnostics, "euler_laws", unreached)
        with pytest.raises(ValueError, match="x_grid needs two or more starts"):
            estimate_local_alpha(ou_drift(), R=1.0, t=1.0, x_grid=np.array(x_grid))


class TestEulerLaws:
    def test_mass_pushed_off_the_grid_is_a_numerical_failure_naming_the_step(self):
        # ou at h = 2.5 maps x to -1.5 x, so the laws leave any grid
        with pytest.raises(NumericalFailure, match=r"from -1 lost .* by step 8$"):
            diagnostics.euler_laws(ou_drift(), [-1.0, 1.0], 2.5, 200)

    def test_a_confined_law_keeps_its_mass(self):
        first, dx, laws = diagnostics.euler_laws(radial_confinement_drift(1.0, 1.0),
                                                 [-1.0, 0.25, 1.0], 0.01, 300)
        assert laws.shape[1] == 2 * round(-first / dx) + 1
        assert np.all(laws >= 0.0)
        assert np.abs(laws.sum(axis=1) - 1.0).max() <= 1e-12

    def test_a_start_between_nodes_is_split_linearly(self):
        # without drift, one step is the noise kernel around the start
        first, dx, [law] = diagnostics.euler_laws(lambda x: 0.0 * x, [0.0025], 0.01, 1)
        nodes = first + dx * np.arange(len(law))
        assert np.sum(nodes * law) == pytest.approx(0.0025, abs=1e-15)
        # the split's variance f (1 - f) dx^2 and the cells' dx^2 / 12
        variance = np.sum(nodes**2 * law) - 0.0025**2
        assert variance == pytest.approx(0.01 + 0.25 * 0.75 * dx**2 + dx**2 / 12, rel=1e-9)

    @pytest.mark.parametrize("starts", [2, 5])
    def test_a_propagation_holds_its_laws_and_eight_more_grid_arrays(self, starts):
        # the arrays the CLI budgets local-alpha's grid by, beside the laws;
        # 60,389 nodes, so that each array dwarfs the rest
        dx, half, _ = diagnostics.euler_grid(300.0, 0.02, 0.01)
        nodes, (a, b) = 2 * half + 1, cli.BUDGETS["grid-nodes"].cost
        peak = _peak(lambda: diagnostics.euler_laws(
            radial_confinement_drift(1.0, 1.0), np.linspace(-300.0, 300.0, starts),
            0.01, 2))
        assert 8 * (starts + 6) * nodes < peak <= (a + b * starts) * nodes

    def test_grid_reaches_past_the_noise_of_the_horizon(self):
        dx, half, taps = diagnostics.euler_grid(1.0, 1.0, 0.01)
        assert dx == 0.01 and half * dx >= 1.0 + 8.0 * (1.0 + 0.1)
        assert taps == len(diagnostics._noise_taps(diagnostics.GRID_CELLS)) == 161
        assert diagnostics.euler_grid(1e308, 1.0, 0.01)[1] == math.inf


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
       st.integers(-40, 40), st.integers(1, 30), st.integers(1, 5))
def test_grid_masses_split_each_cell_evenly(masses, offset, bins, cells_per_bin):
    # bins whose edges are cell boundaries take their cells' masses whole;
    # the overflow holds the rest of the law's mass
    law, dx = np.array(masses), 0.25
    first = offset * dx
    lower = first - dx / 2.0
    binning = Binning(lower, lower + bins * cells_per_bin * dx, bins)
    got = binning.grid_masses(first, dx, law)
    want = np.zeros(bins + 1)
    for j, m in enumerate(law):
        b = j // cells_per_bin
        want[min(b, bins)] += m
    assert got == pytest.approx(want, abs=1e-12)
    # half a cell past a bin edge puts half that cell in each bin
    shifted = Binning(lower + dx / 2.0, lower + dx / 2.0 + bins * dx, bins)
    halves = shifted.grid_masses(first, dx, np.eye(1, len(law), 0)[0])
    assert halves[0] == pytest.approx(0.5) and halves[-1] == pytest.approx(0.5)


def _peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHistogramArraysHeld:
    # Arrays of 2**18 + 1 floats (2 MB) dwarf the clouds of a few hundred
    # points and their blocks, so a peak counts the histogram arrays held
    # at once: the counts the smve CLI budgets --bins by.
    binning = Binning(bins=2**18)
    array = 8 * (2**18 + 1)
    slack = 2**20

    def test_a_cloud_distance_holds_both_masses_and_one_temporary(self):
        a, b = np.zeros(300), np.full(300, 5.0)
        peak = _peak(lambda: self.binning.tv(self.binning.masses(a),
                                             self.binning.masses(b)))
        assert 2 * self.array < peak <= 3 * self.array + self.slack

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    @pytest.mark.parametrize("floor", [0.5, -1.0], ids=["given", "bootstrap"])
    @pytest.mark.parametrize("action", ["decay", "girsanov-check"])
    def test_a_pair_of_runs_holds_their_masses_and_one_temporary(self, monkeypatch,
                                                                 tmp_path, action,
                                                                 floor, cpus):
        # the step decay and girsanov-check share, then the action's
        # reduction: both runs' masses, then one temporary of the distance
        # or the bootstrap; unpickling the second run from a worker holds a
        # third run's worth: the 3 s + 1 arrays the CLI budgets --bins by
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        c = {k: option.default for k, option in cli.OPTIONS["smve"][action].items()}
        key = "noise-floor" if action == "decay" else "allowance"
        c.update({"n": 300, "h": 0.01, "bins": 2**18, key: floor})
        args = SimpleNamespace(action=action, out=str(tmp_path))
        spec, times = make_ou_spec(), [0.01, 0.02, 0.03]
        seeds = (1, 2) if action == "decay" else (1, 1)

        def pair_and_reduction():
            _, run_a, run_b, given = cli._pair(
                args, c, spec, len(times), 0.03, times,
                [(Point(0.0), seeds[0]), (Point(1.0), seeds[1])], key)
            if action == "decay":
                fit_decay(run_a, run_b, given)
            else:
                girsanov_bound_check(run_a, run_b, 0.2, spec.epsilon,
                                     spec.lipschitz_L, given)

        peak = _peak(pair_and_reduction)
        held = 2 * len(times) + 1 if cpus == 1 else 3 * len(times)
        assert (held - 1) * self.array < peak <= held * self.array + self.slack

    def test_local_alpha_holds_every_starts_masses_and_one_temporary(self):
        peak = _peak(lambda: estimate_local_alpha(
            ou_drift(), R=1.0, t=0.02, binning=self.binning, step_size=0.01))
        held = LOCAL_ALPHA_STARTS + 1
        assert (held - 1) * self.array < peak <= held * self.array + self.slack


class TestLyapunovDiagnostic:
    # the fit reads V for its predicted rate; the series below are given as means
    V = WeightFunction(2.0, 1.0)

    def test_recovers_exact_affine_recursion(self):
        # Mean weights follow m' = 0.5 m + 1 exactly by construction.
        values = [10.0]
        for _ in range(4):
            values.append(0.5 * values[-1] + 1.0)
        snaps = [constant_snapshot(v, float(k)) for k, v in enumerate(values)]
        fit = lyapunov_diagnostic(snaps, self.V, lag=1.0)
        assert fit.gamma_hat == pytest.approx(0.5, abs=1e-12)
        assert fit.K_hat == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_rms < 1e-12
        assert not fit.degenerate
        assert fit.n_points == 5
        assert fit.predicted_gamma == self.V.predicted_gamma(1.0)

    def test_weight_function_supplies_predicted_rate(self):
        V = WeightFunction(2.0, 1.0)
        snaps = [constant_snapshot(float(10 - k), float(k), V) for k in range(4)]
        fit = lyapunov_diagnostic(snaps, V, lag=1.0)
        assert fit.predicted_gamma == pytest.approx(math.exp(-V.kappa * V.r / 4.0))

    def test_flat_series_is_degenerate(self):
        snaps = [constant_snapshot(3.0, float(k)) for k in range(4)]
        fit = lyapunov_diagnostic(snaps, self.V, lag=1.0)
        assert fit.degenerate
        assert math.isnan(fit.gamma_hat)
        assert fit.K_hat == pytest.approx(3.0)

    def test_off_lag_snapshots_are_ignored(self):
        snaps = [constant_snapshot(float(k), 0.5 * k) for k in range(5)]
        # Only times 0, 1, 2 sit on the lag-1 grid: enough to fit.
        fit = lyapunov_diagnostic(snaps, self.V, lag=1.0)
        assert fit.n_points == 3
        with pytest.raises(ValueError, match="at least 3"):
            lyapunov_diagnostic(snaps[:4], self.V, lag=2.0)

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            lyapunov_diagnostic([], self.V, lag=0.0)

    def test_mean_weight_past_the_float_range_is_a_numerical_failure(self):
        # V = exp(|x|) overflows at 1e30: the mean is inf, with no warning,
        # and the fit is refused naming the time instead of failing in LAPACK
        V = WeightFunction(4.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snaps = [constant_snapshot(v, float(k), V) for k, v in
                     enumerate([1.0, 2.0, 1e30, 3.0])]
        assert snaps[2][1] == math.inf
        with pytest.raises(NumericalFailure, match=r"^lyapunov: the mean weight at "
                                                   r"t = 2 is inf, over the 6\.7\d+e\+153 "
                                                   r"a fit can square$"):
            lyapunov_diagnostic(snaps, V, lag=1.0)
        with pytest.raises(NumericalFailure, match="t = 1 is nan"):
            lyapunov_diagnostic([(0.0, 1.0), (1.0, math.nan), (2.0, 1.0)], V, lag=1.0)

    def test_mean_weight_too_large_to_square_is_a_numerical_failure(self):
        # finite, but its square overflows: the fit once raised OverflowError
        most = math.sqrt(sys.float_info.max / 3)
        snaps = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert not lyapunov_diagnostic(snaps, self.V, lag=1.0).degenerate
        with pytest.raises(NumericalFailure, match="t = 1 is 1e\\+200, over the"):
            lyapunov_diagnostic([(0.0, 1.0), (1.0, 1e200), (2.0, 3.0)], self.V, lag=1.0)
        fit = lyapunov_diagnostic([(0.0, most), (1.0, most / 2), (2.0, most / 4)],
                                  self.V, lag=1.0)
        assert fit.gamma_hat == pytest.approx(0.5)


class TestFitDecay:
    # Ensembles concentrated in two far-apart bins: the histogram
    # distance is exactly twice the mismatched fraction, so the decay
    # rate is planted by the particle counts alone.
    binning = Binning(-10.0, 10.0, 50)

    @classmethod
    def two_bin(cls, n_far, time, n=1000):
        pos = np.full(n, 0.05)
        pos[:n_far] = 5.0
        return (time, cls.binning.masses(pos))

    def planted_runs(self, theta=0.7, steps=5):
        run_a = [self.two_bin(0, float(k)) for k in range(steps)]
        run_b = [
            self.two_bin(int(round(1000 * 0.8 * math.exp(-theta * k))), float(k))
            for k in range(steps)
        ]
        return run_a, run_b

    def test_recovers_planted_rate(self):
        run_a, run_b = self.planted_runs()
        fit = fit_decay(run_a, run_b)
        assert fit.theta == pytest.approx(0.7, abs=0.01)
        assert fit.theta_lower < fit.theta < fit.theta_upper
        assert fit.theta_lower > 0.6
        assert fit.n_used == 5
        assert fit.tv_values[0] == pytest.approx(1.6)

    def test_noise_floor_drops_points(self):
        run_a, run_b = self.planted_runs()
        fit = fit_decay(run_a, run_b, noise_floor=0.15)
        assert fit.n_used == 4
        assert fit.theta == pytest.approx(0.7, abs=0.01)

    def test_identical_runs_cannot_be_fit(self):
        run_a, _ = self.planted_runs()
        with pytest.raises(DecayFitError) as info:
            fit_decay(run_a, run_a)
        assert info.value.usable == 0
        assert all(v == 0.0 for v in info.value.tv_values)

    def test_mismatched_runs_rejected(self):
        run_a, run_b = self.planted_runs()
        with pytest.raises(ValueError, match="counts"):
            fit_decay(run_a, run_b[:-1])
        shifted = [self.two_bin(0, float(k) + 0.5) for k in range(5)]
        with pytest.raises(ValueError, match="times"):
            fit_decay(run_a, shifted)

    def test_to_dict_round_trip(self):
        run_a, run_b = self.planted_runs()
        d = fit_decay(run_a, run_b).to_dict()
        assert d["n_used"] == 5
        assert len(d["times"]) == len(d["tv_values"]) == 5


def _masses(*cells):
    """The cell masses of a hand-built snapshot, the overflow cell last."""
    return np.array(cells, dtype=float)


class TestGirsanovReduction:
    # Two runs built by hand: three cells and the overflow, masses in
    # binary fractions, so each distance is exact.
    run_a = [(0.0, _masses(0.5, 0.5, 0.0, 0.0)),
             (0.5, _masses(0.25, 0.25, 0.25, 0.25)),
             (1.0, _masses(0.0, 0.0, 1.0, 0.0))]
    run_b = [(0.0, _masses(0.5, 0.5, 0.0, 0.0)),
             (0.5, _masses(0.5, 0.0, 0.25, 0.25)),
             (1.0, _masses(0.0, 0.0, 0.5, 0.5))]

    def test_estimates_bounds_and_violations(self):
        # eps = 0.5, L = 1: the rate 4 eps^2 L^2 is 1
        rep = girsanov_bound_check(self.run_a, self.run_b, 0.25, 0.5, 1.0)
        assert rep.times == (0.0, 0.5, 1.0)
        assert rep.estimates == (0.0, 0.5, 1.0)
        assert rep.bounds == tuple(math.sqrt(2.0) * 0.25 * math.exp(t)
                                   for t in (0.0, 0.5, 1.0))
        assert rep.bounds[2] == pytest.approx(0.9610, abs=1e-4)
        assert rep.violations == ((1.0, 1.0, rep.bounds[2]),)
        assert not rep.passed
        assert (rep.allowance, rep.tv0, rep.epsilon, rep.lipschitz_L) == (0.0, 0.25, 0.5, 1.0)
        assert list(rep.csv_rows()) == [(t, est, b, b - est) for t, est, b in
                                        zip(rep.times, rep.estimates, rep.bounds)]

    def test_allowance_covers_an_estimate_up_to_bound_plus_allowance(self):
        rep = girsanov_bound_check(self.run_a, self.run_b, 0.25, 0.5, 1.0, 0.05)
        assert rep.passed and rep.allowance == 0.05
        # at tv0 = 0 the bound is 0: an estimate equal to bound + allowance
        # passes, one above it does not
        rep = girsanov_bound_check(self.run_a, self.run_b, 0.0, 0.5, 1.0, 0.5)
        assert rep.bounds == (0.0, 0.0, 0.0)
        assert rep.violations == ((1.0, 1.0, 0.0),)

    def test_refusals(self):
        with pytest.raises(ValueError, match="counts"):
            girsanov_bound_check(self.run_a, self.run_b[:-1], 0.2, 0.5, 1.0)
        shifted = [(t + 0.25, p) for t, p in self.run_b]
        with pytest.raises(ValueError, match="times"):
            girsanov_bound_check(self.run_a, shifted, 0.2, 0.5, 1.0)
        for tv0 in (-0.1, 2.5, math.nan):
            with pytest.raises(ValueError, match="tv0"):
                girsanov_bound_check(self.run_a, self.run_b, tv0, 0.5, 1.0)
        for allowance in (-0.1, math.nan):
            with pytest.raises(ValueError, match="allowance"):
                girsanov_bound_check(self.run_a, self.run_b, 0.2, 0.5, 1.0, allowance)
        with pytest.raises(ValueError, match="snapshot"):
            girsanov_bound_check([], [], 0.2, 0.5, 1.0)


class TestGirsanovBoundCheck:
    binning = Binning(-10.0, 10.0, 50)

    def check(self, spec, mu0, nu0, tv0, times):
        # the pair girsanov-check runs: both laws at one seed, to the last time
        run_a, run_b = simulate_runs(spec, [(mu0, 9), (nu0, 9)], 200, 0.01, max(times),
                                     times, observe=self.binning.masses)
        return girsanov_bound_check(run_a, run_b, tv0, spec.epsilon, spec.lipschitz_L)

    def test_identical_initials_pass_with_margin(self):
        # Same sampler and seed: the two runs coincide, the estimate is
        # zero, and the bound is sqrt(2) tv0 at every time.
        rep = self.check(make_ou_spec(), Point(0.0), Point(0.0), 0.2, [0.1, 0.2])
        assert rep.passed
        assert rep.estimates == (0.0, 0.0)
        assert rep.bounds[0] == pytest.approx(math.sqrt(2.0) * 0.2)
        rows = list(rep.csv_rows())
        assert rows[0] == (0.1, 0.0, rep.bounds[0], rep.bounds[0])

    def test_understated_tv0_is_caught(self):
        rep = self.check(make_ou_spec(), Point(-0.5), Point(0.5), 0.0, [0.1])
        assert not rep.passed
        t, est, bound = rep.violations[0]
        assert t == 0.1 and bound == 0.0 and est > 1.0

    def test_rate_is_finite_whenever_eps_times_l_is(self):
        assert girsanov_rate(0.05, 1.0) == 0.010000000000000002  # the defaults
        assert girsanov_rate(1e200, 1e-200) == pytest.approx(4.0)  # eps**2 overflows
        assert girsanov_rate(1e200, 1.0) == math.inf  # the rate itself overflows
        rep = self.check(make_vh_spec(D=1e-200, epsilon=1e200), Point(0.0), Point(0.0),
                         0.2, [0.1])
        assert rep.bounds[0] == pytest.approx(math.sqrt(2.0) * 0.2 * math.exp(0.4))

    def test_to_dict_has_passed_flag(self):
        rep = self.check(make_ou_spec(), Point(0.0), Point(0.0), 0.2, [0.1])
        d = rep.to_dict()
        assert d["passed"] is True
        assert d["violations"] == []


class TestSharedPairStep:
    # cli._pair, the step decay and girsanov-check share
    @pytest.mark.parametrize("action,key,nu_seed", [("decay", "noise-floor", 10),
                                                   ("girsanov-check", "allowance", 9)])
    def test_runs_the_pair_and_takes_the_floor(self, tmp_path, action, key, nu_seed):
        spec, times = make_ou_spec(), [0.1, 0.2]
        c = {k: option.default for k, option in cli.OPTIONS["smve"][action].items()}
        c.update({"n": 200, "h": 0.01, "seed": 9, "bins": 50})
        args = SimpleNamespace(action=action, out=str(tmp_path))
        runs = [(Point(0.0), 9), (Point(0.5), nu_seed)]
        want = [simulate(spec, law, 200, 0.01, 0.2, seed, times,
                         observe=Binning(-10.0, 10.0, 50).masses)
                for law, seed in runs]
        c[key] = -1.0
        out, run_a, run_b, floor = cli._pair(args, c, spec, 2, 0.2, times, runs, key)
        assert (out / "resolved_config.json").exists()
        for got, run in zip((run_a, run_b), want):
            assert [t for t, _ in got] == [t for t, _ in run] == times
            assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(got, run))
        # a negative floor is the bootstrap of the first run; any other is kept
        assert floor == bootstrap_floor(want[0], 200, 9) > 0.0
        for given in (0.0, 1):
            c[key] = given
            *_, floor = cli._pair(args, c, spec, 2, 0.2, times, runs, key)
            assert floor == given and type(floor) is type(given)


def _calibrated_floor(spec, times, n, seed, binning, pairs=5) -> float:
    """The oracle of the bootstrap floor: the 99th percentile of the
    histogram distances of ``pairs`` pairs of independent runs from
    point:0, at seeds seed + 1, seed + 2, ..., over the times past 0."""
    times = [t for t in times if t > 0.0]
    runs = simulate_runs(spec, [(Point(0.0), seed + k) for k in range(1, 2 * pairs + 1)],
                         n, 0.05, max(times), times, observe=binning.masses)
    distances = []
    for run_a in runs:
        run_b = next(runs)
        distances += [Binning.tv(p, q) for (_, p), (_, q) in zip(run_a, run_b)]
    return float(np.percentile(distances, 99.0))


class TestBootstrapFloor:
    binning = Binning(-10.0, 10.0, 50)
    times = [0.0, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("spec", [make_ou_spec(), make_vh_spec()],
                             ids=["ou", "vh"])
    def test_tracks_the_calibrated_floor(self, spec):
        # The oracle: ten runs of 2,000 particles against the bootstrap of
        # one such run.  Over seeds 1-8 on both presets the ratio read
        # 1.02-1.40, and 1.02-1.21 at the seeds below: the bootstrap of one
        # run errs on the cautious side, and the calibration's 99th
        # percentile of 15 distances is close to their maximum.
        ratios = []
        for seed in (1, 2, 3, 4):
            run = simulate(spec, Point(0.0), 2_000, 0.05, 2.0, seed, self.times,
                           observe=self.binning.masses)
            floor = bootstrap_floor(run, 2_000, seed)
            calibrated = _calibrated_floor(spec, self.times, 2_000, seed + 1000,
                                           self.binning)
            ratios.append(floor / calibrated)
        assert 1.0 <= min(ratios) and max(ratios) <= 1.25, ratios

    @pytest.mark.parametrize("chunk", [25, 7, 1])
    def test_matches_one_pair_at_a_time(self, monkeypatch, chunk):
        # the reference: each pair drawn on its own, over the cells of
        # positive mass, from the (seed, 2**64 - 1) stream, and numpy's
        # percentile; chunks of any size draw the same numbers
        monkeypatch.setattr(diagnostics, "_BOOTSTRAP_CHUNK", chunk)
        run = simulate(make_vh_spec(), Gauss(2.0, 1.0), 1_000, 0.05, 2.0, 5, self.times,
                       observe=self.binning.masses)
        rng = Generator(Philox(key=np.array([5, 2**64 - 1], dtype=np.uint64)))
        distances = []
        for _, p in run[1:]:
            for _ in range(BOOTSTRAP_PAIRS):
                a, b = rng.multinomial(1_000, p[p > 0], size=2)
                distances.append(np.abs(a - b).sum() / 1_000)
        assert bootstrap_floor(run, 1_000, 5) == np.percentile(distances, 99.0)

    def test_needs_a_positive_time(self):
        run = simulate(make_ou_spec(), Point(0.0), 200, 0.05, 0.1, 1, [0.0],
                       observe=self.binning.masses)
        with pytest.raises(ValueError, match="positive time"):
            bootstrap_floor(run, 200, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=500))
def test_percentile_99_is_numpys(samples):
    want = np.percentile(samples, 99.0)
    assert diagnostics._percentile_99(np.array(samples)) == want
