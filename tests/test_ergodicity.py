"""Chain evolution, fixed points, contraction sweeps, rate reports and
the weighted-metric certifier.

Oracles: linear kernels evolve by plain matrix powers; the stock
two-state Markov example has stationary law (4/7, 3/7); the birth-death
matrix with V = 2^i satisfies QV <= 0.8 V + 2 with certified factor
lambda_w = 0.72 at beta = 2 over the grid used below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov.ergodicity import (
    CertificationError,
    DriftConditionError,
    certify_hm_contraction,
    check_contraction_inequality,
    check_rate,
    evolve,
    find_invariant,
    rate_bound,
    verify_invariant,
)
from nlmarkov.kernels import (
    ErgodicityCertificate,
    KernelValidationError,
    NonlinearKernel,
    birth_death_jitter_matrix,
    certify,
    continuum_kernel,
    markov_example_kernel,
    markov_kernel,
    mixture_kernel,
    no_invariant_kernel,
    oscillating_kernel,
)
from nlmarkov.measures import DiscreteMeasure, weighted_tv_distance

MIX_Q = np.array([[0.8, 0.2], [0.1, 0.9]])


def random_pairs(n, size, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# evolve


def test_evolve_matches_matrix_powers():
    q = np.array([[0.7, 0.3], [0.4, 0.6]])
    k = markov_kernel(q)
    mu0 = DiscreteMeasure(np.array([1.0, 0.0]))
    traj = evolve(k, mu0, 20)
    assert traj.steps == 20
    for n in (0, 1, 5, 20):
        want = mu0.weights @ np.linalg.matrix_power(q, n)
        assert np.allclose(traj.measures[n].weights, want, atol=1e-14)


def test_evolve_preserves_mass_over_long_runs():
    k = no_invariant_kernel(0.3, 0.6, 40)
    traj = evolve(k, DiscreteMeasure.dirac(0, 40), 150)
    for n, mu in enumerate(traj.measures):
        assert abs(mu.weights.sum() - 1.0) <= 1e-12 * (n + 1)


def test_evolve_records_step_distances():
    k = markov_example_kernel()
    traj = evolve(k, DiscreteMeasure(np.array([1.0, 0.0])), 5)
    assert len(traj.step_distances) == 5
    # first step: (1,0) -> (0.7,0.3) moves 0.6 in total variation
    assert traj.step_distances[0] == pytest.approx(0.6)
    rows = list(traj.csv_rows())
    assert rows[0][0] == 0 and rows[0][-1] == 0.0
    assert rows[1][-1] == pytest.approx(0.6)
    assert traj.final is traj.measures[-1]


def test_evolve_input_guards():
    k = markov_example_kernel()
    with pytest.raises(ValueError):
        evolve(k, DiscreteMeasure.uniform(2), -1)
    with pytest.raises(ValueError):
        evolve(k, DiscreteMeasure.uniform(3), 5)


def test_evolve_rejects_non_stochastic_kernel():
    rows = np.array([[0.6, 0.6], [0.5, 0.5]])
    bad = NonlinearKernel(2, lambda w: np.broadcast_to(rows, (len(w), 2, 2)), "bad")
    with pytest.raises(KernelValidationError, match="step 0"):
        evolve(bad, DiscreteMeasure.uniform(2), 3)


# ---------------------------------------------------------------------------
# fixed points


def test_find_invariant_markov_example():
    # pi solves pi = pi Q: (4/7, 3/7)
    fp = find_invariant(markov_example_kernel())
    assert fp.converged
    assert np.allclose(fp.measure.weights, [4 / 7, 3 / 7], atol=1e-9)
    assert fp.residual < 1e-10


def test_find_invariant_immediate_fixed_point():
    k = continuum_kernel(0.2, 0.8)
    fp = find_invariant(k, DiscreteMeasure.two_point(0.5))
    assert fp.converged and fp.iterations == 0


def test_find_invariant_reports_cycles():
    fp = find_invariant(
        oscillating_kernel(0.4), DiscreteMeasure.two_point(0.3), max_iter=64
    )
    assert not fp.converged
    assert fp.measure is None
    assert fp.cycle_period == 2
    assert len(fp.tail) == 10
    assert fp.residual > 0.1


def test_find_invariant_guards():
    k = markov_example_kernel()
    with pytest.raises(ValueError):
        find_invariant(k, tol=0.0)
    with pytest.raises(ValueError):
        find_invariant(k, max_iter=0)
    with pytest.raises(ValueError):
        find_invariant(k, DiscreteMeasure.uniform(3))


def test_verify_invariant_values():
    k = continuum_kernel(0.2, 0.8)
    for a in (0.3, 0.5, 0.7):
        assert verify_invariant(k, DiscreteMeasure.two_point(a)) < 1e-15
    # a outside [alpha/(2 lam), 1 - alpha/(2 lam)] = [0.125, 0.875] moves
    assert verify_invariant(k, DiscreteMeasure.two_point(0.05)) > 1e-3


# ---------------------------------------------------------------------------
# contraction inequality


def test_contraction_inequality_holds_for_certified_mixture():
    k = mixture_kernel(MIX_Q, 0.2)
    cert = certify(k)
    chk = check_contraction_inequality(
        k, cert.alpha_hat, cert.lambda_hat, random_pairs(1000, 2, seed=42)
    )
    assert chk.passed
    assert chk.n_pairs == 1000
    assert chk.n_violations == 0
    assert chk.max_excess <= 1e-10


def test_contraction_inequality_detects_false_claims():
    k = mixture_kernel(MIX_Q, 0.2)
    # claiming alpha = 0.9 is far beyond the kernel's true overlap
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    chk = check_contraction_inequality(k, 0.9, 0.2, pairs)
    assert not chk.passed
    assert chk.n_violations == 1
    assert chk.worst_pair == ([1.0, 0.0], [0.0, 1.0])
    assert chk.max_excess > 1.0


def contraction_oracle(kernel, alpha, lam, pairs, tol=1e-10):
    """The contraction check as a loop over pairs, one kernel evaluation
    per measure; ``worst_pair`` is the first pair with the largest excess."""
    n_viol, max_excess, worst = 0, -np.inf, None
    for mu, nu in pairs:
        d = float(np.abs(mu - nu).sum())
        lhs = float(np.abs(mu @ kernel.matrix(mu) - nu @ kernel.matrix(nu)).sum())
        rhs = d * (1.0 - alpha + lam) - lam * d * d / 2.0
        excess = lhs - rhs
        if excess > max_excess:
            max_excess, worst = excess, [mu.tolist(), nu.tolist()]
        n_viol += excess > tol
    return {"n_pairs": len(pairs), "n_violations": n_viol,
            "max_excess": max_excess, "worst_pair": worst, "tolerance": tol,
            "passed": n_viol == 0}


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from([
        mixture_kernel(MIX_Q, 0.2),
        mixture_kernel(birth_death_jitter_matrix(), 0.3),
        continuum_kernel(0.2, 0.8),
        oscillating_kernel(0.4),
        no_invariant_kernel(0.3, 0.6, 6),
    ]),
    alpha=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 1.0),
    n_pairs=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_contraction_check_matches_per_pair_loop(kernel, alpha, lam, n_pairs, seed):
    # random claims (alpha, lam) make some pairs violate and others not
    pairs = random_pairs(n_pairs, kernel.space_size, seed)
    got = check_contraction_inequality(kernel, alpha, lam, pairs).to_dict()
    assert got == contraction_oracle(kernel, alpha, lam, pairs)


def test_contraction_check_takes_discrete_measures_and_rejects_bad_pairs():
    k = mixture_kernel(MIX_Q, 0.2)
    pairs = [(DiscreteMeasure.two_point(0.2), DiscreteMeasure.two_point(0.9))]
    arrays = [(mu.weights, nu.weights) for mu, nu in pairs]
    assert (check_contraction_inequality(k, 0.5, 0.2, pairs).to_dict()
            == contraction_oracle(k, 0.5, 0.2, arrays))
    empty = check_contraction_inequality(k, 0.5, 0.2, [])
    assert (empty.n_pairs, empty.worst_pair, empty.passed) == (0, None, True)
    with pytest.raises(ValueError):
        check_contraction_inequality(k, 0.5, 0.2, [(np.ones(3) / 3, np.ones(3) / 3)])


def test_contraction_check_to_dict():
    k = markov_example_kernel()
    d = check_contraction_inequality(k, 0.7, 0.0, random_pairs(10, 2, 1)).to_dict()
    assert d["passed"] is True
    assert d["n_pairs"] == 10


# ---------------------------------------------------------------------------
# rate bounds


def fast_cert(alpha, lam):
    return ErgodicityCertificate(alpha, lam, "fast", grid_resolution=50)


def test_rate_bound_fast_values():
    c = fast_cert(0.7, 0.0)
    assert rate_bound(c, 0) == 2.0
    assert rate_bound(c, 1) == pytest.approx(0.6)
    assert rate_bound(c, 2) == pytest.approx(0.18)


def test_rate_bound_slow_values():
    c = ErgodicityCertificate(0.5, 0.5, "slow", grid_resolution=50)
    assert rate_bound(c, 1) == pytest.approx(4.0)
    assert rate_bound(c, 4) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="n = 0"):
        rate_bound(c, 0)


def test_rate_bound_rejections():
    with pytest.raises(ValueError):
        rate_bound(fast_cert(0.7, 0.0), -1)
    with pytest.raises(ValueError):
        rate_bound(ErgodicityCertificate(0.2, 0.8, "uncertified", 50), 3)
    # internally inconsistent certificate
    with pytest.raises(ValueError):
        rate_bound(ErgodicityCertificate(0.2, 0.8, "fast", 50), 3)
    with pytest.raises(ValueError):
        rate_bound(ErgodicityCertificate(0.0, 0.0, "slow", 50), 3)


def test_check_rate_markov_example_two_hundred_steps():
    k = markov_example_kernel()
    cert = certify(k)
    mu0 = DiscreteMeasure(np.array([1.0, 0.0]))
    report = check_rate(k, cert, mu0, steps=200)
    assert report.passed and not report.falsified
    assert len(report.violations) == 0
    assert report.first_step == 0
    assert len(report.distances) == 201
    assert report.bounds[0] == 2.0
    assert np.allclose(report.invariant, [4 / 7, 3 / 7], atol=1e-9)
    # the measured distance must actually decay, not just sit under the bound
    assert report.distances[0] == pytest.approx(6 / 7)
    assert report.distances[10] < 1e-4


def test_check_rate_slow_regime_starts_at_step_one():
    k = mixture_kernel(np.full((2, 2), 0.5), 0.5)
    cert = certify(k)
    assert cert.regime == "slow"
    report = check_rate(k, cert, DiscreteMeasure(np.array([1.0, 0.0])), steps=50)
    assert report.passed
    assert report.first_step == 1
    assert len(report.distances) == 50
    rows = list(report.csv_rows())
    assert rows[0][0] == 1
    assert rows[0][2] == pytest.approx(rate_bound(cert, 1))


def test_check_rate_requires_certified_regime():
    k = continuum_kernel(0.2, 0.8)
    cert = certify(k)
    with pytest.raises(ValueError):
        check_rate(k, cert, DiscreteMeasure.uniform(2), 10)


def test_check_rate_flags_unreachable_fixed_point():
    # a permutation matrix admits no reachable fixed point from a vertex,
    # so a (bogus) fast certificate must come back falsified
    k = markov_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), "swap")
    bogus = fast_cert(0.5, 0.0)
    report = check_rate(k, bogus, DiscreteMeasure(np.array([1.0, 0.0])), steps=5)
    assert report.falsified
    assert not report.passed
    assert report.distances == ()


def test_rate_report_round_trip():
    k = markov_example_kernel()
    report = check_rate(k, certify(k), DiscreteMeasure.uniform(2), steps=10)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["first_step"] == 0
    assert len(d["distances"]) == 11
    assert d["certificate"]["regime"] == "fast"


# ---------------------------------------------------------------------------
# weighted-metric certifier


V5 = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
BETAS = [0.125, 0.25, 0.5, 1.0, 2.0]


def test_hm_certifier_birth_death():
    q = birth_death_jitter_matrix()
    cert = certify_hm_contraction(
        q, V5, gamma=0.8, K=2.0, alpha_local=0.1, beta_grid=BETAS,
        test_pairs=random_pairs(50, 5, seed=9), label="bd",
    )
    assert cert.lambda_w == pytest.approx(0.72, abs=1e-12)
    assert cert.beta == 2.0
    assert cert.lambda_w < 1.0
    assert cert.sublevel_threshold == pytest.approx(40.0)
    assert cert.sublevel_states == (0, 1, 2, 3, 4)
    assert cert.n_test_pairs == 50
    assert cert.to_dict()["kernel"] == "bd"


def test_hm_certificate_bounds_fresh_random_pairs():
    # independent re-check of the certified inequality through the
    # measures module
    q = birth_death_jitter_matrix()
    cert = certify_hm_contraction(q, V5, 0.8, 2.0, 0.1, BETAS)
    f = 1.0 + cert.beta * V5
    for mu, nu in random_pairs(200, 5, seed=31):
        lhs = weighted_tv_distance(mu @ q, nu @ q, f)
        rhs = cert.lambda_w * weighted_tv_distance(mu, nu, f)
        assert lhs <= rhs + 1e-10


def test_hm_test_pairs_report_the_first_failing_pair():
    # (e_x, 0) carries unequal mass, so the measure-pair bound need not
    # hold: at beta = 2 it fails for x = 0..3 and holds for x = 4.
    q = birth_death_jitter_matrix()
    eye, zero = np.eye(5), np.zeros(5)
    pairs = [(eye[0] * 0.5 + eye[4] * 0.5, eye[2]), (eye[4], zero),
             (eye[1], zero), (eye[0], zero)]
    with pytest.raises(CertificationError, match=r"lhs = 8\.88\d*, rhs = 6\.48"):
        certify_hm_contraction(q, V5, 0.8, 2.0, 0.1, BETAS, test_pairs=pairs)


def test_hm_drift_failure_names_the_state():
    q = birth_death_jitter_matrix()
    with pytest.raises(DriftConditionError, match="state 3"):
        certify_hm_contraction(q, V5, gamma=0.5, K=2.0, alpha_local=0.1,
                               beta_grid=[1.0])


def test_hm_overlap_check_on_sublevel_set():
    q = birth_death_jitter_matrix()
    # worst row pair separation is 1.8, i.e. overlap exactly 0.1;
    # claiming 0.15 must be rejected
    with pytest.raises(ValueError, match="overlap"):
        certify_hm_contraction(q, V5, 0.8, 2.0, alpha_local=0.15, beta_grid=[1.0])


def test_hm_no_certifiable_beta():
    q = np.array([[0.85, 0.05, 0.10], [0.05, 0.05, 0.90], [0.0, 0.0, 1.0]])
    with pytest.raises(CertificationError, match="no beta"):
        certify_hm_contraction(
            q, np.array([1.0, 1.0, 8.0]), gamma=0.8, K=6.5,
            alpha_local=0.1, beta_grid=[1.0],
        )


def test_hm_input_guards():
    q = birth_death_jitter_matrix()
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5[:4], 0.8, 2.0, 0.1, [1.0])
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5 * 0.1, 0.8, 2.0, 0.1, [1.0])  # V < 1
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5, 1.2, 2.0, 0.1, [1.0])
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5, 0.8, -1.0, 0.1, [1.0])
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5, 0.8, 2.0, 1.5, [1.0])
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5, 0.8, 2.0, 0.1, [])
    with pytest.raises(ValueError):
        certify_hm_contraction(q, V5, 0.8, 2.0, 0.1, [-1.0])
    bad = q.copy()
    bad[0, 0] += 0.1
    with pytest.raises(ValueError):
        certify_hm_contraction(bad, V5, 0.8, 2.0, 0.1, [1.0])
