"""The three sharpness constructions: period-2 oscillation, a continuum
of fixed points, and the integer chain whose stationarity equations are
self-contradictory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov.counterexamples import (
    EXACT_TOL,
    verify_continuum,
    verify_no_invariant_recursion,
    verify_oscillation,
)
from nlmarkov.ergodicity import evolve, find_invariant
from nlmarkov.kernels import continuum_kernel, oscillating_kernel
from nlmarkov.measures import DiscreteMeasure, weighted_tv_distance
from nlmarkov.reporting import report_document


def replay(kernel, mu0, steps):
    """The orbit from mu0 as rows, one kernel evaluation per step."""
    w = [mu0.weights]
    for _ in range(steps):
        w.append((w[-1][None, :] @ kernel.matrix(w[-1]))[0])
    return np.array(w)


def document(kind, report):
    """The report document that ``nlmarkov counterexample kind`` writes."""
    return report_document(f"counterexample/{kind}", report.parameters,
                           report.claims, report.details)


def tv_distance(p, q):
    """d_tv between two two-state measures: the weighted distance at unit weight."""
    return weighted_tv_distance(p, q, np.ones(2))


# ---------------------------------------------------------------------------
# oscillation


def test_oscillation_reports_pass():
    for gamma in (0.1, 0.4, 0.8):
        lo = gamma / 2
        report = verify_oscillation(gamma, a=lo + 0.01)
        assert report.passed, [c.name for c in report.claims if not c.passed]


def test_oscillation_symmetric_start_is_the_fixed_point():
    report = verify_oscillation(0.4, a=0.5)
    assert report.passed


def test_oscillation_period_two_exactly():
    # independent replay of the claim through evolve
    gamma, a = 0.4, 0.25
    traj = evolve(oscillating_kernel(gamma), DiscreteMeasure.two_point(a), 20)
    pi = DiscreteMeasure.two_point(0.5)
    for n in range(19):
        assert tv_distance(traj.weights[n], traj.weights[n + 2]) == 0.0
        assert tv_distance(traj.weights[n], pi) == pytest.approx(
            2 * abs(a - 0.5), abs=1e-15
        )


@pytest.mark.parametrize("gamma, a, n_steps", [
    (0.4, 0.3, 50), (0.1, 0.06, 7), (0.8, 0.5, 2), (0.5, 0.75, 33),
])
def test_oscillation_report_matches_a_step_by_step_replay(gamma, a, n_steps):
    # The trajectory and the fixed-point search each stop stepping at the
    # orbit's 2-cycle.
    kernel = oscillating_kernel(gamma)
    mu0, swapped = DiscreteMeasure.two_point(a), DiscreteMeasure.two_point(1.0 - a)
    w = replay(kernel, mu0, n_steps)
    doc = document("oscillation", verify_oscillation(gamma, a, n_steps))
    period, dist = doc["claims"][0]["witness"], doc["claims"][1]["witness"]
    assert period["worst_deviation"] == max(
        tv_distance(x, mu0 if k % 2 == 0 else swapped) for k, x in enumerate(w))
    assert dist["worst_deviation"] == max(
        abs(tv_distance(x, DiscreteMeasure.two_point(0.5)) - dist["target"]) for x in w)
    assert doc["details"]["trajectory_head"] == w[:6].tolist()
    fp = find_invariant(kernel, mu0, max_iter=64)
    search = doc["claims"][4]["witness"]
    assert search["converged"] == fp.converged
    assert search.get("cycle_period", fp.cycle_period) == fp.cycle_period
    assert search.get("iterations", fp.iterations) == fp.iterations


def test_oscillation_parameter_guards():
    with pytest.raises(ValueError):
        verify_oscillation(0.0, 0.25)
    with pytest.raises(ValueError):
        verify_oscillation(0.4, 0.1)  # outside [gamma/2, 1-gamma/2]
    with pytest.raises(ValueError):
        verify_oscillation(0.4, 0.95)


def test_oscillation_document_shape():
    doc = document("oscillation", verify_oscillation(0.4, 0.3))
    assert doc["kind"] == "counterexample/oscillation"
    assert doc["passed"] is True
    assert doc["schema"].startswith("nlmarkov.report/")
    assert all({"name", "passed", "witness"} <= set(c) for c in doc["claims"])


# ---------------------------------------------------------------------------
# continuum of invariant measures


def test_continuum_report_passes():
    report = verify_continuum(0.2, 0.8)
    assert report.passed, [c.name for c in report.claims if not c.passed]
    lo, hi = report.details["invariant_interval"]
    assert (lo, hi) == (pytest.approx(0.125), pytest.approx(0.875))


def test_continuum_custom_samples():
    report = verify_continuum(0.2, 0.8, a_samples=(0.125, 0.3, 0.5, 0.7, 0.875))
    assert report.passed


@pytest.mark.parametrize("samples", [
    None, (0.125, 0.3, 0.5, 0.7, 0.875), (0.3, 0.3, 0.6), (0.875, 0.125), (0.4,),
])
def test_continuum_pairs_match_a_step_by_step_replay(samples):
    # Each start is stepped once and read by both pairs it belongs to.
    kernel = continuum_kernel(0.2, 0.8)
    report = verify_continuum(0.2, 0.8, a_samples=samples, n_steps=60)
    a = sorted(report.parameters["a_samples"])
    runs = [replay(kernel, DiscreteMeasure.two_point(x), 60) for x in a]
    want = 0.0
    for a1, a2, w1, w2 in zip(a, a[1:], runs, runs[1:]):
        target = 2.0 * abs(a1 - a2)
        want = max(want, max(abs(tv_distance(x, y) - target) for x, y in zip(w1, w2)))
    assert report.claims[1].witness["worst_deviation"] == want


def test_continuum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_continuum(0.5, 0.4)
    with pytest.raises(ValueError):
        verify_continuum(0.2, 0.8, a_samples=(0.05,))  # outside the interval


# ---------------------------------------------------------------------------
# no invariant measure


def test_no_invariant_recursion_passes_on_grid():
    for alpha in (0.05, 0.15, 0.3):
        for lam in (0.5, 0.7, 0.95):
            report = verify_no_invariant_recursion(alpha, lam)
            assert report.passed, (alpha, lam)
            assert not report.details["boundary_case"]


def test_no_invariant_solved_masses_are_zero():
    report = verify_no_invariant_recursion(0.3, 0.6, n_max=50)
    assert max(abs(m) for m in report.details["solved_boundary_masses"]) <= 1e-12
    assert len(report.details["solved_boundary_masses"]) == 49


def test_no_invariant_boundary_lambda_one():
    report = verify_no_invariant_recursion(0.3, 1.0)
    assert report.passed
    assert report.details["boundary_case"]
    # the boundary claim exhibits a stationary law instead of a contradiction
    assert any("stationary inputs exist" in c.name for c in report.claims)


def quadratic_recursion(alpha, lam, n_max):
    """The balance at each n = 2..n_max, its profile rebuilt and summed
    at each n, as the replay once solved it: the solved masses, their
    largest modulus and the largest crossing margin."""
    solved, worst_abs, worst_margin = [], 0.0, -np.inf
    for n in range(2, n_max + 1):
        f_prev = float((alpha * (1.0 - lam) ** np.arange(n - 1)).sum())
        mu_n = (alpha * (1.0 - lam) ** (n - 1) + lam * f_prev - alpha) / (1.0 - lam)
        solved.append(mu_n)
        worst_abs = max(worst_abs, abs(mu_n))
        worst_margin = max(worst_margin, lam * (f_prev + mu_n) - alpha)
    return solved, worst_abs, worst_margin


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.9), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(2, 2000))
def test_no_invariant_running_sum_matches_the_quadratic_oracle(alpha, share, n_max):
    lam = alpha + share * (1.0 - alpha)  # in [alpha, 1)
    if not alpha < lam < 1.0:
        return
    report = verify_no_invariant_recursion(alpha, lam, n_max)
    solved, worst_abs, worst_margin = quadratic_recursion(alpha, lam, n_max)
    # Each value sums the profile's roundings, at most eps alpha each, over
    # 1 - lam.  Past about 36 / lam terms the profile is below eps times its
    # sum, so the two orders of summation part by at most that many
    # roundings: within EXACT_TOL unless lam is near 1 or near 0.
    terms = min(n_max, 40.0 / lam)
    rounding = terms * np.finfo(float).eps * alpha / (1.0 - lam)
    assert np.max(np.abs(np.subtract(report.details["solved_boundary_masses"], solved))) \
        <= rounding
    if rounding <= EXACT_TOL:
        assert np.allclose(report.details["solved_boundary_masses"], solved, rtol=0,
                           atol=EXACT_TOL)
    # so each claim agrees with the oracle's unless its value is within
    # that rounding of the tolerance
    for claim, value in zip(report.claims[2:], (worst_abs, worst_margin)):
        if abs(value - EXACT_TOL) > rounding:
            assert claim.passed == (value <= EXACT_TOL)


@pytest.mark.parametrize("alpha, lam", [(0.9, 0.999999), (0.2, 0.8)])
def test_no_invariant_claims_allow_the_rounding_of_their_computation(alpha, lam):
    # at lam = 0.999999 the solved masses are residues of about 1e-10, and
    # the replay falsified itself against EXACT_TOL alone
    report = verify_no_invariant_recursion(alpha, lam)
    assert report.passed
    rounding = min(50, 40.0 / lam) * np.finfo(float).eps * alpha / (1.0 - lam)
    for claim in report.claims[2:]:
        assert claim.witness["tolerance"] == pytest.approx(EXACT_TOL + rounding)
    worst = report.claims[2].witness["worst_abs_solution"]
    assert worst <= EXACT_TOL + rounding and (worst > EXACT_TOL) == (lam > 0.99)


def test_no_invariant_guards():
    with pytest.raises(ValueError):
        verify_no_invariant_recursion(0.6, 0.3)
    with pytest.raises(ValueError):
        verify_no_invariant_recursion(0.3, 0.6, n_max=1)
