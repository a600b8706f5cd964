"""Chain evolution, fixed points, contraction sweeps, rate reports and
the weighted-metric certifier.

Oracles: linear kernels evolve by plain matrix powers; the stock
two-state Markov example has stationary law (4/7, 3/7); the birth-death
matrix with V = 2^i satisfies QV <= 0.8 V + 2 with certified factor
lambda_w = 0.72 at beta = 2 over the grid used below.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov import ergodicity, kernels
from nlmarkov.ergodicity import (
    MAX_CYCLE_PERIOD,
    CertificationError,
    DriftConditionError,
    FixedPointResult,
    RateReport,
    _check_iterate,
    _step,
    certify_hm_contraction,
    check_contraction_inequality,
    check_rate,
    evolve,
    find_invariant,
    rate_bound,
    verify_invariant,
)
from nlmarkov.kernels import ROW_SUM_TOL, row_faults
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
from nlmarkov.kernel_spec import compile_kernel_spec
from nlmarkov.measures import MASS_TOL, DiscreteMeasure, weighted_tv_distance

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
        assert np.allclose(traj.weights[n], want, atol=1e-14)


def test_evolve_preserves_mass_over_long_runs():
    k = no_invariant_kernel(0.3, 0.6, 40)
    traj = evolve(k, DiscreteMeasure.dirac(0, 40), 150)
    for n, w in enumerate(traj.weights):
        assert abs(w.sum() - 1.0) <= 1e-12 * (n + 1)


def test_evolve_records_step_distances():
    k = markov_example_kernel()
    traj = evolve(k, DiscreteMeasure(np.array([1.0, 0.0])), 5)
    assert len(traj.step_distances) == 5
    # first step: (1,0) -> (0.7,0.3) moves 0.6 in total variation
    assert traj.step_distances[0] == pytest.approx(0.6)
    rows = list(traj.csv_rows())
    assert rows[0][0] == 0 and rows[0][-1] == 0.0
    assert rows[1][-1] == pytest.approx(0.6)


def test_evolve_input_guards():
    k = markov_example_kernel()
    with pytest.raises(ValueError):
        evolve(k, DiscreteMeasure.uniform(2), -1)
    with pytest.raises(ValueError):
        evolve(k, DiscreteMeasure.uniform(3), 5)


def test_evolve_rejects_non_stochastic_kernel():
    rows = np.array([[0.6, 0.6], [0.5, 0.5]])
    bad = NonlinearKernel(2, lambda w: np.broadcast_to(rows, (len(w), 2, 2)), "bad")
    # the step to w_1 is step 1, as in trajectory.csv
    with pytest.raises(KernelValidationError, match="at step 1$"):
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
    assert fp.residual > 0.1


def test_find_invariant_guards():
    k = markov_example_kernel()
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


def tile_bytes(n):
    """kernels.TILE_BYTES of one measure's kernel matrix a tile, of three
    (an odd count, so a tile splits a pair), and of a whole batch."""
    return (1, 3 * 8 * n * n, 2**62)


@st.composite
def mixture_batches(draw):
    """A mixture kernel of 2-6 states, its well-mixing base, 1-60 measure
    pairs, and test pairs of the base's certifier, some of less mass."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = 0.5 * rng.dirichlet(np.ones(n), size=n) + 0.5 / n
    kernel = mixture_kernel(q, draw(st.floats(0.0, 1.0)))
    pairs = random_pairs(draw(st.integers(1, 60)), n, int(rng.integers(2**32)))
    masses = rng.choice([1.0, 0.5], size=(len(pairs), 2))
    return q, kernel, pairs, [(a * mu, b * nu) for (mu, nu), (a, b) in zip(pairs, masses)]


@settings(max_examples=60, deadline=None)
@given(batch=mixture_batches(), alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0))
def test_batched_steps_do_not_depend_on_the_tile(batch, alpha, lam):
    q, kernel, pairs, hm_pairs = batch
    n = kernel.space_size
    stack = np.array(pairs).reshape(-1, n)
    seen = set()
    for tile in tile_bytes(n):
        with mock.patch.object(kernels, "TILE_BYTES", tile):
            # V = 1 certifies a factor of at most 1/2 on this base; a pair
            # of less mass can fail the check, whose message is compared
            hm = outcome(certify_hm_contraction, q, np.ones(n), 0.5, 1.0, 0.25,
                         [0.5, 1.0], test_pairs=hm_pairs)
            seen.add((repr(check_contraction_inequality(kernel, alpha, lam, pairs).to_dict()),
                      repr(hm[1].to_dict()) if hm[0] == "ok" else hm,
                      _step(kernel, stack, 0).tobytes()))
    assert len(seen) == 1


def test_a_faulty_row_in_the_last_tile_raises_the_same_error():
    base = mixture_kernel(birth_death_jitter_matrix(), 0.3)
    pairs = random_pairs(50, 5, seed=4)
    marker, calls = pairs[-1][1], [0]

    def rows(w):  # pure per row: only the last measure's rows break
        calls[0] += 1
        mats = base.row_builder(w)
        mats[(w == marker).all(axis=1), 0, 0] += 0.5
        return mats

    kernel = NonlinearKernel(5, rows, "planted")
    for tile, tiles in zip(tile_bytes(5), (100, 34, 1)):
        calls[0] = 0
        with mock.patch.object(kernels, "TILE_BYTES", tile):
            with pytest.raises(KernelValidationError) as exc:
                check_contraction_inequality(kernel, 0.5, 0.2, pairs)
        assert str(exc.value) == "planted: non-stochastic rows at step 0"
        assert calls[0] == tiles  # the fault lies in the last tile


def test_pairs_convert_as_numpy_reads_them():
    k = mixture_kernel(MIX_Q, 0.2)
    arrays = random_pairs(7, 2, seed=5)
    forms = [
        arrays,
        [[mu.tolist(), nu.tolist()] for mu, nu in arrays],
        [([1, 0], [0, 1]), ((0, 1), (1, 0))],
        [(DiscreteMeasure(mu), DiscreteMeasure(nu)) for mu, nu in arrays],
        np.array(arrays),
    ]
    for pairs in forms:
        want = np.asarray(pairs, dtype=float).reshape(len(pairs), 2, 2)
        assert ergodicity._pair_weights(pairs, 2).tobytes() == want.tobytes()
        assert (check_contraction_inequality(k, 0.5, 0.2, pairs).to_dict()
                == check_contraction_inequality(k, 0.5, 0.2, list(want)).to_dict())
    mu, nu = arrays[0]
    for pairs in ([(mu,)], [(mu, nu), (nu,)], [(mu, nu, mu), (nu,)],
                  [(np.ones(3) / 3, np.ones(1))], [(mu, nu), (np.ones(3) / 3, np.ones(1))]):
        with pytest.raises(ValueError):  # numpy refuses each of them too
            np.asarray(pairs, dtype=float).reshape(len(pairs), 2, 2)
        with pytest.raises(ValueError):
            check_contraction_inequality(k, 0.5, 0.2, pairs)


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
    report = check_rate(cert, evolve(k, mu0, 200))
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
    report = check_rate(cert, evolve(k, DiscreteMeasure(np.array([1.0, 0.0])), 50))
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
        check_rate(cert, evolve(k, DiscreteMeasure.uniform(2), 10))


def test_check_rate_flags_unreachable_fixed_point():
    # a permutation matrix admits no reachable fixed point from a vertex,
    # so a (bogus) fast certificate must come back falsified
    k = markov_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), "swap")
    bogus = fast_cert(0.5, 0.0)
    traj = evolve(k, DiscreteMeasure(np.array([1.0, 0.0])), 5)
    report = check_rate(bogus, traj)
    assert report.falsified
    assert not report.passed
    assert report.distances == ()
    # the failed search leaves the trajectory it searched on from intact
    assert traj.weights.tolist() == [[1.0, 0.0], [0.0, 1.0]] * 3


def test_rate_report_round_trip():
    k = markov_example_kernel()
    report = check_rate(certify(k), evolve(k, DiscreteMeasure.uniform(2), 10))
    d = report.to_dict()
    assert d["passed"] is True
    assert d["first_step"] == 0
    assert len(d["distances"]) == 11
    assert d["certificate"]["regime"] == "fast"


# ---------------------------------------------------------------------------
# One orbit per start.  The loops below step the chain with one kernel
# call per step and never read a repeated iterate by index: evolve,
# find_invariant and check_rate must match them bit for bit, failures
# included.


def reference_measure(kernel, w, k, tol):
    """Iterate k of an orbit as a measure; off the simplex, the kernel's
    failure naming the iterate."""
    try:
        return DiscreteMeasure(w, tol=tol)
    except ValueError as exc:
        raise KernelValidationError(
            f"{kernel.label}: iterate {k} left the simplex: {exc}") from None


def reference_evolve(kernel, mu0, steps):
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if mu0.size != kernel.space_size:
        raise ValueError("initial measure does not match kernel state space")
    measures, dists, w = [mu0], [], mu0.weights
    for k in range(steps):
        nxt = _step(kernel, w, k + 1)
        dists.append(float(np.abs(nxt - w).sum()))
        measures.append(reference_measure(kernel, nxt, k + 1, MASS_TOL * (k + 2)))
        w = nxt
    return measures, dists


def reference_find_invariant(kernel, mu0=None, tol=1e-10, max_iter=100_000):
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    mu0 = mu0 or DiscreteMeasure.uniform(kernel.space_size)
    w = mu0.weights
    resid0 = float(np.abs(_step(kernel, w, 1) - w).sum())
    if resid0 < tol:
        return FixedPointResult(True, mu0, 0, resid0)
    tail = [w]
    for k in range(1, max_iter + 1):
        nxt = _step(kernel, w, k)
        succ = float(np.abs(nxt - w).sum())
        if succ < tol:
            resid = float(np.abs(_step(kernel, nxt, k + 1) - nxt).sum())
            if resid < tol:
                pi = reference_measure(kernel, nxt, k, MASS_TOL * (k + 2))
                return FixedPointResult(True, pi, k, resid)
        w = nxt
        tail.append(w)
        if len(tail) > 10 + MAX_CYCLE_PERIOD:
            tail.pop(0)
    period = None
    last = tail[-1]
    for p in range(1, MAX_CYCLE_PERIOD + 1):
        if len(tail) > p and np.abs(last - tail[-1 - p]).sum() < max(tol, 1e-9):
            period = p
            break
    resid = float(np.abs(_step(kernel, last, max_iter + 1) - last).sum())
    return FixedPointResult(False, None, max_iter, resid, period)


def reference_check_rate(kernel, certificate, mu0, steps, max_iter=100_000,
                         numerical_floor=1e-12, tol=1e-10):
    if certificate.regime not in ("fast", "slow"):
        raise ValueError("rate check needs a fast or slow certificate")
    fp_tol = tol if certificate.regime == "slow" else min(tol, numerical_floor / 100.0)
    # the trajectory first: an iterate off the simplex raises before the search
    measures, _ = reference_evolve(kernel, mu0, steps)
    fp = reference_find_invariant(kernel, mu0, tol=fp_tol, max_iter=max_iter)
    if not fp.converged:
        return RateReport(kernel.label, certificate, (), (), numerical_floor, (),
                          True, None, fp.iterations)
    pi = fp.measure.weights
    first = 0 if certificate.regime == "fast" else 1
    distances, bounds, violations = [], [], []
    for n, mu in enumerate(measures):
        if n < first:
            continue
        d = float(np.abs(mu.weights - pi).sum())
        b = rate_bound(certificate, n)
        distances.append(d)
        bounds.append(b)
        if d > max(b, numerical_floor):
            violations.append((n, d, b))
    return RateReport(kernel.label, certificate, tuple(distances), tuple(bounds),
                      numerical_floor, tuple(violations), False, tuple(pi.tolist()),
                      fp.iterations, first)


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the failure itself is what is compared
        return type(exc), str(exc)


def measure_bits(measures):
    return [(m.weights.tobytes(), m.tol) for m in measures]


def fixed_point_bits(fp):
    measure = None if fp.measure is None else measure_bits([fp.measure])
    return (fp.converged, measure, fp.iterations, np.float64(fp.residual).tobytes(),
            fp.cycle_period)


def assert_same_trajectory(got, want):
    if want[0] != "ok":
        assert got == want
        return
    traj, (measures, dists) = got[1], want[1]
    assert traj.weights.tobytes() == np.stack([m.weights for m in measures]).tobytes()
    assert traj.weights.shape == (len(measures), measures[0].size)
    assert np.array(traj.step_distances).tobytes() == np.array(dists).tobytes()
    assert list(traj.csv_rows()) == [
        (k, *m.weights.tolist(), dists[k - 1] if k else 0.0)
        for k, m in enumerate(measures)
    ]


def assert_same_fixed_point(got, want):
    if want[0] != "ok":
        assert got == want
    else:
        assert got[0] == "ok", got
        assert fixed_point_bits(got[1]) == fixed_point_bits(want[1])


def assert_same_rate(got, want):
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    # repr tells every float's bits apart, -0.0 from 0.0 included
    assert repr(got[1].to_dict()) == repr(want[1].to_dict())
    if not want[1].falsified:
        assert np.array(got[1].distances).tobytes() == np.array(want[1].distances).tobytes()


def random_stochastic(n, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(n), size=n)


def clamped_spec(n, seed):
    """Off-diagonal entries max(min(c + s*nu(k), hi), lo), each diagonal 1
    minus the rest of its row: clamps put kinks in the orbit."""
    rng = np.random.default_rng(seed)
    cap = 1.0 / (n - 1)
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                lo, hi = sorted(rng.uniform(0.0, cap, 2).tolist())
                c, slope = float(rng.uniform(lo, hi)), float(rng.uniform(-2, 2))
                k = int(rng.integers(1, n + 1))
                entries[i][j] = f"max(min({c!r} + {slope!r}*nu({k}), {hi!r}), {lo!r})"
        entries[i][i] = " - ".join(["1", *(f"({entries[i][j]})" for j in range(n) if j != i)])
    return compile_kernel_spec(json.dumps(
        {"space_size": n, "label": f"spec{seed}", "entries": entries}))


SWAP = markov_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), "swap")


@st.composite
def chains(draw):
    """(kernel, mu0): a random mixture or clamped spec kernel, a kernel
    whose orbits jump onto a fixed point, cycle or stand still, or one
    whose orbits do not repeat within a few hundred steps; from a random
    start, a vertex, the uniform law or a two-point law."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["mixture", "spec", "rank-one", "swap", "oscillating",
                                 "continuum", "no-invariant"]))
    if kind == "rank-one":
        # every row is one law: the orbit jumps onto its fixed point
        row = np.random.default_rng(seed).dirichlet(np.ones(draw(st.integers(2, 4))))
        kernel = markov_kernel(np.tile(row, (row.size, 1)), "rank-one")
    elif kind == "mixture":
        n = draw(st.integers(2, 5))
        kernel = mixture_kernel(random_stochastic(n, seed), draw(st.floats(0.0, 1.0)))
    elif kind == "spec":
        kernel = clamped_spec(draw(st.integers(2, 4)), seed)
    elif kind == "swap":
        kernel = SWAP
    elif kind == "oscillating":
        kernel = oscillating_kernel(draw(st.sampled_from([0.2, 0.4, 0.5])))
    elif kind == "continuum":
        kernel = continuum_kernel(0.2, 0.8)
    else:
        kernel = no_invariant_kernel(0.3, 0.6, draw(st.sampled_from([8, 30, 50])))
    n = kernel.space_size
    start = draw(st.sampled_from(["random", "vertex", "uniform", "two-point"]))
    if start == "random":
        mu0 = DiscreteMeasure(np.random.default_rng(seed + 1).dirichlet(np.ones(n)))
    elif start == "vertex":
        mu0 = DiscreteMeasure.dirac(draw(st.integers(0, n - 1)), n)
    elif start == "two-point" and n == 2:
        mu0 = DiscreteMeasure.two_point(draw(st.sampled_from([0.05, 0.125, 0.3, 0.5, 0.7])))
    else:
        mu0 = DiscreteMeasure.uniform(n)
    return kernel, mu0


@settings(max_examples=80, deadline=None)
@given(
    chain=chains(),
    steps=st.integers(0, 80),
    tol=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-6, 1e-3]),
    max_iter=st.integers(1, 120),
    regime=st.sampled_from(["fast", "slow"]),
)
def test_orbit_matches_the_step_by_step_loops(chain, steps, tol, max_iter, regime):
    kernel, mu0 = chain
    got = outcome(evolve, kernel, mu0, steps)
    assert_same_trajectory(got, outcome(reference_evolve, kernel, mu0, steps))
    want_fp = outcome(reference_find_invariant, kernel, mu0, tol, max_iter)
    with mock.patch.object(ergodicity, "DEFAULT_TOL", tol):
        got_fp = outcome(find_invariant, kernel, mu0, max_iter)
    assert_same_fixed_point(got_fp, want_fp)
    cert = (fast_cert(0.6, 0.1) if regime == "fast"
            else ErgodicityCertificate(0.5, 0.5, "slow", grid_resolution=50))
    # check_rate searches up to DEFAULT_MAX_ITER steps; a smaller bound
    # keeps the reference loop short on orbits that never converge
    with mock.patch.object(ergodicity, "DEFAULT_MAX_ITER", max_iter):
        rate = outcome(check_rate, cert, got[1]) if got[0] == "ok" else got
    assert_same_rate(rate, outcome(reference_check_rate, kernel, cert, mu0, steps, max_iter))
    # the search ran on along the trajectory's orbit and left its iterates as they were
    assert_same_trajectory(got, outcome(reference_evolve, kernel, mu0, steps))


def test_fixed_point_search_reads_a_closed_orbit_by_index():
    mu0 = DiscreteMeasure.dirac(0, 2)
    assert_same_fixed_point(outcome(find_invariant, SWAP, mu0, max_iter=10_000),
                            outcome(reference_find_invariant, SWAP, mu0, max_iter=10_000))


def test_rate_check_reads_its_trajectory_after_a_search_past_the_window():
    # check_rate searches the trajectory's orbit on to its fixed point at
    # step 26, past the steps + 1 stored iterates and, for few steps, the
    # ring behind them, before it reads the trajectory from the stored ones.
    kernel, mu0, cert = markov_example_kernel(), DiscreteMeasure.uniform(2), fast_cert(0.6, 0.1)
    for steps in (0, 1, 5, 13, 40):
        traj = outcome(evolve, kernel, mu0, steps)
        rate = outcome(check_rate, cert, traj[1])
        assert_same_rate(rate, outcome(reference_check_rate, kernel, cert, mu0, steps))
        assert_same_trajectory(traj, outcome(reference_evolve, kernel, mu0, steps))


def test_a_second_rate_check_past_the_window_raises():
    # The first search wrote iterates past w_20 over the ring's slots: a
    # second one must not build its report from them.
    kernel, mu0, cert = markov_example_kernel(), DiscreteMeasure.uniform(2), fast_cert(0.6, 0.1)
    traj = evolve(kernel, mu0, 1)
    assert check_rate(cert, traj).fixed_point_iterations == 26
    for _ in range(2):
        with pytest.raises(IndexError, match="left the orbit's window"):
            check_rate(cert, traj)


def test_an_orbit_refuses_an_iterate_that_has_left_its_window():
    # Searched to its fixed point at step 26, an orbit storing 6 iterates
    # has written later ones over w_6 ... w_9 in its ring: reading those
    # again, or searching again, raises instead of returning other bits.
    orbit = ergodicity._Orbit(markov_example_kernel(), DiscreteMeasure.uniform(2), 6)
    assert orbit.fixed_point(1e-14, 1_000).iterations == 26
    assert orbit.size == 10 + ergodicity._WINDOW
    for read in (lambda: orbit.at(6), lambda: orbit.distance(9),
                 lambda: orbit.fixed_point(1e-14, 500)):
        with pytest.raises(IndexError, match="left the orbit's window"):
            read()
    measures, _ = reference_evolve(markov_example_kernel(), DiscreteMeasure.uniform(2), 10)
    assert orbit.at(5).tobytes() == measures[5].weights.tobytes()
    assert orbit.at(10).tobytes() == measures[10].weights.tobytes()


def test_row_sums_have_the_bits_of_one_dimensional_sums():
    # Trajectories, rate distances and the iterate checks sum rows of
    # (m, n) arrays where the step-by-step loops summed 1-D arrays.
    rng = np.random.default_rng(3)
    for n in (2, 5, 8, 9, 16, 30, 50, 129, 1000):
        a = rng.dirichlet(np.ones(n), size=40) * rng.choice([1e-3, 1.0, 1e5], size=(40, 1))
        b = rng.dirichlet(np.ones(n), size=40)
        rows = np.abs(a - b).sum(axis=1)
        assert rows.tobytes() == np.array([float(np.abs(x - y).sum()) for x, y in zip(a, b)]).tobytes()
        assert a.sum(axis=1).tobytes() == np.array([float(x.sum()) for x in a]).tobytes()
    for m in (30, 50):
        k = no_invariant_kernel(0.3, 0.6, m)
        mu0 = DiscreteMeasure.dirac(0, m)
        assert_same_trajectory(outcome(evolve, k, mu0, 120), outcome(reference_evolve, k, mu0, 120))


def matrix_calls(monkeypatch):
    """Count NonlinearKernel.matrix calls on single measures."""
    count = [0]
    original = NonlinearKernel.matrix

    def counted(self, nu):
        count[0] += np.ndim(nu) == 1
        return original(self, nu)

    monkeypatch.setattr(NonlinearKernel, "matrix", counted)
    return count


def test_fixed_point_search_stops_stepping_a_cycle(monkeypatch):
    calls = matrix_calls(monkeypatch)
    fp = find_invariant(SWAP, DiscreteMeasure.dirac(0, 2), max_iter=100_000)
    assert calls[0] <= 3
    assert (fp.converged, fp.iterations, fp.cycle_period, fp.residual) == (False, 100_000, 2, 2.0)


def test_fixed_point_search_keeps_a_bounded_window():
    # an irrational rotation of the first weight never repeats, so the
    # search steps all max_iter times and must not keep its iterates
    def rows(w):
        a = (w[:, :1] + 0.6180339887498949) % 1.0
        return np.repeat(np.concatenate([a, 1.0 - a], axis=1)[:, None], 2, axis=1)

    k = NonlinearKernel(2, rows, "rotation")
    tracemalloc.start()
    try:
        fp = find_invariant(k, max_iter=5_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not fp.converged and fp.iterations == 5_000
    assert peak < 40_000  # 5,000 iterates of 2 floats would take 80 kB


def bump_kernel(delta, where):
    """Q = [[0.7, 0.3], [0.4, 0.6]] with ``delta`` added to entry (0, 0)
    wherever the first weight is below ``where``: from (1, 0) the orbit
    1, 0.7, 0.61, 0.583, ... crosses 0.6 at its third iterate."""
    q = np.array([[0.7, 0.3], [0.4, 0.6]])

    def rows(w):
        mats = np.repeat(q[None], len(w), axis=0)
        mats[:, 0, 0] += np.where(w[:, 0] < where, delta, 0.0)
        return mats

    return NonlinearKernel(2, rows, "bump")


def negative_kernel():
    """Rows sum to 1 with a negative entry inside the row check's
    tolerance, so an iterate can carry a negative weight."""
    q = np.array([[1.0 + 1e-11, -1e-11], [0.4, 0.6]])
    return NonlinearKernel(2, lambda w: np.repeat(q[None], len(w), axis=0), "negative")


@pytest.mark.parametrize("kernel, pattern", [
    (bump_kernel(0.5, 0.6), "non-stochastic rows at step"),   # row check, mid-run
    (bump_kernel(5e-11, 2.0), "weights sum to"),              # mass drifts every step
    (negative_kernel(), "nonnegative"),
])
def test_failures_match_the_step_by_step_loops(kernel, pattern):
    mu0 = DiscreteMeasure.dirac(0, 2)
    for steps in (2, 20):
        got = outcome(evolve, kernel, mu0, steps)
        assert_same_trajectory(got, outcome(reference_evolve, kernel, mu0, steps))
    assert got[0] is KernelValidationError and pattern in got[1]
    for max_iter in (2, 3, 100):
        assert_same_fixed_point(outcome(find_invariant, kernel, mu0, max_iter=max_iter),
                                outcome(reference_find_invariant, kernel, mu0, max_iter=max_iter))
    cert = fast_cert(0.6, 0.1)
    with mock.patch.object(ergodicity, "DEFAULT_MAX_ITER", 200):
        rate = outcome(lambda: check_rate(cert, evolve(kernel, mu0, 20)))
    assert_same_rate(rate, outcome(reference_check_rate, kernel, cert, mu0, 20, 200))


@st.composite
def planted_stacks(draw):
    """(B, n, n) stacks of stochastic rows, B = 0 included, with entries
    planted around the row check's tolerance and past the float range."""
    n, b = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.dirichlet(np.ones(n), size=(b, n)) if b else np.empty((0, n, n))
    tol = ROW_SUM_TOL * n
    planted = st.sampled_from([
        -0.5 * tol, -tol, -2.0 * tol, -0.1, np.nan, np.inf, -np.inf,
        0.5 * tol, 0.99 * tol, 1.01 * tol, 2.0 * tol, 1e300])
    for _ in range(draw(st.integers(0, 3)) if b else 0):
        i, j, k = (draw(st.integers(0, size - 1)) for size in (b, n, n))
        value = draw(planted)
        if draw(st.booleans()):  # a drift: the row sum moves by value
            # inf planted onto -inf makes a NaN, which numpy warns of
            with np.errstate(invalid="ignore"):
                mats[i, j, k] += value
        else:
            mats[i, j, k] = value
    return mats


@settings(max_examples=300, deadline=None)
@given(mats=planted_stacks())
def test_a_step_refuses_exactly_the_stacks_with_a_faulty_row(mats):
    n = mats.shape[-1]
    kernel = NonlinearKernel(n, lambda w: mats, "planted")
    # a row planted with both infinities sums to NaN, which numpy warns of
    with np.errstate(invalid="ignore"):
        faulty = bool(row_faults(mats, ROW_SUM_TOL * n)[2].any())
        try:
            _step(kernel, np.full((len(mats), n), 1.0 / n), 1)
            refused = False
        except KernelValidationError:
            refused = True
    assert refused == faulty


def raised(f):
    try:
        f()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       planted=st.lists(st.tuples(st.integers(0, 5), st.one_of(
           st.floats(allow_nan=True, allow_infinity=True),
           st.sampled_from([-0.0, -1e-300, 5e-324, 1e-12, 3e-12, 1e308]))), max_size=3),
       steps=st.integers(0, 10**6))
def test_the_iterate_check_raises_what_a_measure_raises(n, seed, planted, steps):
    w = np.random.default_rng(seed).dirichlet(np.ones(n))
    for i, value in planted:
        # a small value is added, so the sum drifts near the tolerance
        w[i % n] = w[i % n] + value if abs(value) < 1e-6 else value
    tol = MASS_TOL * (steps + 1)
    kernel = markov_kernel(np.eye(n), "probe")
    # the check's own sum may overflow on such weights, which no stepped
    # iterate holds; what it raises is compared here
    with np.errstate(over="ignore"):
        want = raised(lambda: DiscreteMeasure(w, tol=tol))
        got = raised(lambda: _check_iterate(kernel, w, steps, tol))
    # the measure's failure, as the kernel's, naming the iterate
    assert got == (want and (KernelValidationError,
                             f"probe: iterate {steps} left the simplex: {want[1]}"))


def test_orbit_compares_bytes_not_values():
    # w_1 = (0.0, 1.0) equals w_0 = (-0.0, 1.0) but is not the same
    # input: this kernel sends them to different laws
    def rows(w):
        row = np.where(np.signbit(w[:, :1]), [0.0, 1.0], [0.5, 0.5])
        return np.repeat(row[:, None], 2, axis=1)

    k = NonlinearKernel(2, rows, "sign-of-zero")
    mu0 = DiscreteMeasure(np.array([-0.0, 1.0]))
    got = outcome(evolve, k, mu0, 4)
    assert_same_trajectory(got, outcome(reference_evolve, k, mu0, 4))
    assert got[1].weights[2].tolist() == [0.5, 0.5]
    assert_same_fixed_point(outcome(find_invariant, k, mu0, max_iter=5),
                            outcome(reference_find_invariant, k, mu0, max_iter=5))


def test_a_repeat_of_the_start_is_checked_as_a_later_iterate():
    # mu_0 passed its own looser tolerance; as iterate 1 it must pass 2e-12
    mu0 = DiscreteMeasure(np.array([0.5, 0.5 + 1e-9]), tol=1e-6)
    identity = markov_kernel(np.eye(2), "identity")
    got = outcome(evolve, identity, mu0, 5)
    assert_same_trajectory(got, outcome(reference_evolve, identity, mu0, 5))
    assert got[0] is KernelValidationError and "within 2e-12" in got[1]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hm_certifier_refuses_a_non_finite_matrix_entry(bad):
    q = birth_death_jitter_matrix()
    q[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix rows must be probability vectors$"):
        certify_hm_contraction(q, V5, 0.8, 2.0, 0.1, BETAS)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hm_certifier_refuses_a_non_finite_weight(bad):
    V = V5.copy()
    V[3] = bad
    with pytest.raises(ValueError, match="^V must be finite and at least 1 everywhere$"):
        certify_hm_contraction(birth_death_jitter_matrix(), V, 0.8, 2.0, 0.1, BETAS)


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
