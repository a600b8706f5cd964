"""Acceptance suite: ten end-to-end criteria, one test each.

Every criterion prints a single pass/fail line (visible through pytest's
capture) and writes a JSON report into a session directory.  The last
criterion reruns the other nine with identical seeds into a second
directory and insists every report file comes back byte-identical.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from nlmarkov.counterexamples import (
    verify_continuum,
    verify_no_invariant_recursion,
    verify_oscillation,
)
from nlmarkov.diagnostics import (
    Binning,
    bootstrap_floor,
    estimate_local_alpha,
    fit_decay,
    girsanov_bound_check,
    lyapunov_diagnostic,
    mean_weight,
)
from nlmarkov.ergodicity import (
    certify_hm_contraction,
    check_contraction_inequality,
    check_rate,
    evolve,
)
from nlmarkov.kernels import (
    birth_death_jitter_matrix,
    certify,
    markov_example_kernel,
    mixture_kernel,
)
from nlmarkov.laws import Gauss, Mix, Point
from nlmarkov.measures import (
    DiscreteMeasure,
    weighted_tv_distance,
)
from nlmarkov.mckean_vlasov import (
    WeightFunction,
    epsilon_zero,
    make_ou_spec,
    make_vh_spec,
    ou_drift,
    radial_confinement_drift,
    simulate,
    simulate_runs,
)
from nlmarkov.reporting import Claim, report_document, write_json_report

EXACT_TOL = 1e-12
PAIR_TOL = 1e-10

OSCILLATION_GAMMAS = (0.1, 0.4, 0.8)
CONTINUUM_SAMPLES = (0.125, 0.3, 0.5, 0.7, 0.875)
GRID_ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.25)
GRID_LAMS = (0.35, 0.5, 0.65, 0.8, 0.95)

MIX_Q2 = np.array([[0.7, 0.3], [0.4, 0.6]])
MIX_LAM = 0.2
V5 = 2.0 ** np.arange(1, 6)  # 2, 4, 8, 16, 32
BETA_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)

BINNING = Binning(-10.0, 10.0, 50)
N_PARTICLES = 10_000
STEP = 0.01
GIRSANOV_EPSILONS = (0.0, 0.01, 0.05)
GIRSANOV_TIMES = (0.5, 1.0, 2.0)
MERGE_TIMES = tuple(float(k) for k in range(0, 21, 2))


def blended_q5() -> np.ndarray:
    # the raw birth-death rows overlap too little for lam = 0.2, so mix
    # in a uniform component to lift the Dobrushin coefficient
    return 0.5 * np.full((5, 5), 0.2) + 0.5 * birth_death_jitter_matrix()


def random_pairs(n, size, seed):
    """n pairs of uniform random measures on ``size`` states, as an
    (n, 2, size) array: the draws of 2n single dirichlet calls, in order."""
    return np.random.default_rng(seed).dirichlet(np.ones(size), size=(n, 2))


@pytest.fixture(scope="session")
def outdirs(tmp_path_factory):
    return (
        tmp_path_factory.mktemp("acceptance-main"),
        tmp_path_factory.mktemp("acceptance-rerun"),
    )


def announce(capsys, number, label, ok, elapsed):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d} {label}: {status} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion runners: deterministic, each writes one report file


def run_criterion_01(out):
    claims = []
    for gamma in OSCILLATION_GAMMAS:
        for a in np.linspace(gamma / 2.0, 1.0 - gamma / 2.0, 5):
            rep = verify_oscillation(gamma, float(a), n_steps=100)
            claims.append(
                Claim(
                    f"gamma={gamma:g} a={float(a):.6g}: period 2 at distance 2|a-1/2|",
                    rep.passed,
                    {"target_distance": 2.0 * abs(float(a) - 0.5)},
                )
            )
    doc = report_document(
        "acceptance/oscillating-example",
        {"gammas": list(OSCILLATION_GAMMAS), "a_per_gamma": 5,
         "n_steps": 100, "tolerance": EXACT_TOL},
        claims,
    )
    write_json_report(out / "criterion_01.json", doc)
    return doc


def run_criterion_02(out):
    rep = verify_continuum(0.2, 0.8, a_samples=CONTINUUM_SAMPLES, n_steps=100)
    doc = report_document(
        "acceptance/continuum-of-invariants",
        {"alpha": 0.2, "lam": 0.8, "a_samples": list(CONTINUUM_SAMPLES),
         "n_steps": 100, "tolerance": EXACT_TOL},
        rep.claims,
    )
    write_json_report(out / "criterion_02.json", doc)
    return doc


def run_criterion_03(out):
    claims = []
    for alpha in GRID_ALPHAS:
        for lam in GRID_LAMS:
            rep = verify_no_invariant_recursion(alpha, lam, n_max=50)
            worst = max(abs(m) for m in rep.details["solved_boundary_masses"])
            claims.append(
                Claim(
                    f"alpha={alpha:g} lam={lam:g}: boundary mass vanishes",
                    rep.passed and worst <= EXACT_TOL,
                    {"worst_solved_mass": worst},
                )
            )
    doc = report_document(
        "acceptance/no-invariant-grid",
        {"alphas": list(GRID_ALPHAS), "lams": list(GRID_LAMS),
         "n_max": 50, "tolerance": EXACT_TOL},
        claims,
    )
    write_json_report(out / "criterion_03.json", doc)
    return doc


def run_criterion_04(out):
    claims = []
    for label, q, size, seed in (
        ("2-state", MIX_Q2, 2, 42),
        ("5-state", blended_q5(), 5, 43),
    ):
        kernel = mixture_kernel(q, MIX_LAM)
        cert = certify(kernel)
        claims.append(
            Claim(
                f"{label} mixture is grid-certified with lambda_hat <= alpha_hat",
                cert.lambda_hat <= cert.alpha_hat,
                {"alpha_hat": cert.alpha_hat, "lambda_hat": cert.lambda_hat,
                 "regime": cert.regime},
            )
        )
        chk = check_contraction_inequality(
            kernel, cert.alpha_hat, cert.lambda_hat,
            random_pairs(10_000, size, seed), tol=PAIR_TOL,
        )
        claims.append(
            Claim(
                f"{label} contraction inequality holds on 10^4 random pairs",
                chk.passed and chk.n_violations == 0,
                {"n_pairs": chk.n_pairs, "n_violations": chk.n_violations,
                 "max_excess": chk.max_excess},
            )
        )
    doc = report_document(
        "acceptance/contraction-inequality",
        {"lam": MIX_LAM, "pairs_per_kernel": 10_000, "tolerance": PAIR_TOL},
        claims,
    )
    write_json_report(out / "criterion_04.json", doc)
    return doc


def run_criterion_05(out):
    claims = []
    cases = (
        ("2-state mixture", mixture_kernel(MIX_Q2, MIX_LAM)),
        ("5-state mixture", mixture_kernel(blended_q5(), MIX_LAM)),
        ("linear markov example", markov_example_kernel()),
    )
    for label, kernel in cases:
        cert = certify(kernel)
        rate = check_rate(cert, evolve(kernel, DiscreteMeasure.dirac(0, kernel.space_size), 200))
        claims.append(
            Claim(
                f"{label}: distances stay within 2(1-(alpha_hat-lambda_hat))^n",
                rate.passed and not rate.violations,
                {"violations": len(rate.violations),
                 "alpha_hat": cert.alpha_hat, "lambda_hat": cert.lambda_hat},
            )
        )
        if label == "linear markov example":
            # lambda_hat = 0, so the certified curve must equal the
            # classical 2(1-alpha)^n bound term by term
            expected = [2.0 * (1.0 - cert.alpha_hat) ** n for n in range(201)]
            worst = max(abs(b - e) for b, e in zip(rate.bounds, expected))
            claims.append(
                Claim(
                    "markov bound reduces to 2(1-alpha)^n",
                    cert.lambda_hat == 0.0 and worst <= 1e-15,
                    {"worst_gap": worst},
                )
            )
    doc = report_document(
        "acceptance/rate-bounds",
        {"steps": 200, "initial": "dirac at state 0"},
        claims,
    )
    write_json_report(out / "criterion_05.json", doc)
    return doc


def run_criterion_06(out):
    q = birth_death_jitter_matrix()
    pairs = random_pairs(1000, 5, 99)
    cert = certify_hm_contraction(
        q, V5, gamma=0.8, K=2.0, alpha_local=0.1, beta_grid=BETA_GRID,
        test_pairs=pairs, tol=PAIR_TOL, label="birth-death",
    )
    # independent re-check of the weighted contraction on the same pairs
    f = 1.0 + cert.beta * V5
    worst_excess = max(
        weighted_tv_distance(mu @ q, nu @ q, f)
        - cert.lambda_w * weighted_tv_distance(mu, nu, f)
        for mu, nu in pairs
    )
    drift = q @ V5
    claims = [
        Claim("drift Q V <= 0.8 V + 2 holds at every state",
              bool(np.all(drift <= 0.8 * V5 + 2.0 + 1e-12)),
              {"drift": drift.tolist()}),
        Claim("certified lambda_w is below one",
              cert.lambda_w < 1.0,
              {"lambda_w": cert.lambda_w, "beta": cert.beta}),
        Claim("weighted contraction holds on 10^3 fresh pairs",
              cert.n_test_pairs == 1000 and worst_excess <= PAIR_TOL,
              {"worst_excess": worst_excess}),
    ]
    doc = report_document(
        "acceptance/hm-certifier",
        {"V": V5.tolist(), "gamma": 0.8, "K": 2.0, "alpha_local": 0.1,
         "beta_grid": list(BETA_GRID), "tolerance": PAIR_TOL},
        claims,
        details=cert.to_dict(),
    )
    write_json_report(out / "criterion_06.json", doc)
    return doc


def run_criterion_07(out):
    [(_, s2)] = simulate(make_ou_spec(), Point(0.0), N_PARTICLES, STEP, 10.0,
                         seed=2026, snapshot_times=[10.0],
                         observe=lambda x: float(np.var(x, ddof=1)))
    se = s2 * math.sqrt(2.0 / (N_PARTICLES - 1))
    z = abs(s2 - 0.5) / se

    sigma = math.sqrt((1.0 - math.exp(-2.0)) / 2.0)
    alpha_exact = float(2.0 * NormalDist().cdf(-2.0 * math.exp(-1.0) / (2.0 * sigma)))
    overlap = estimate_local_alpha(ou_drift(), R=1.0, t=1.0, step_size=STEP)
    alpha_hat = overlap.alpha_hat
    # The Euler chain's law from x0 after k steps is N(a x0, s^2), with
    # a = (1 - h)^k and s^2 = h (1 - a^2) / (1 - (1 - h)^2); the worst
    # pair of starts is (-1, 1).
    a = (1.0 - STEP) ** round(1.0 / STEP)
    s = math.sqrt(STEP * (1.0 - a * a) / (1.0 - (1.0 - STEP) ** 2))
    alpha_euler = math.erfc(a / (s * math.sqrt(2.0)))
    claims = [
        Claim("stationary variance is within 3 standard errors of 1/2",
              z <= 3.0,
              {"variance": s2, "std_error": se, "z": z}),
        Claim("local overlap estimate is within 0.05 of the Gaussian oracle",
              abs(alpha_hat - alpha_exact) <= 0.05,
              {"alpha_hat": alpha_hat, "alpha_exact": alpha_exact,
               "abs_diff": abs(alpha_hat - alpha_exact)}),
        Claim("local overlap is within its grid tolerance of the Euler chain's",
              abs(alpha_hat - alpha_euler) <= overlap.grid_tolerance,
              {"alpha_hat": alpha_hat, "alpha_euler": alpha_euler,
               "abs_diff": abs(alpha_hat - alpha_euler),
               "grid_tolerance": overlap.grid_tolerance, "grid_dx": overlap.grid_dx}),
    ]
    doc = report_document(
        "acceptance/ou-anchor",
        {"n_particles": N_PARTICLES, "step": STEP, "horizon": 10.0,
         "seed": 2026, "R": 1.0, "t": 1.0},
        claims,
    )
    write_json_report(out / "criterion_07.json", doc)
    return doc


def run_criterion_08(out):
    mu0 = Mix(-0.5, 0.5, 0.5)
    nu0 = Mix(-0.5, 0.5, 0.6)
    claims = []
    details = {}
    for eps in GIRSANOV_EPSILONS:
        spec = make_vh_spec(epsilon=eps)
        # the coupled pair at one seed, and the allowance the bootstrap floor
        # of the mu0 run, as girsanov-check takes them
        run_a, run_b = simulate_runs(spec, [(mu0, 500), (nu0, 500)], N_PARTICLES, STEP,
                                     max(GIRSANOV_TIMES), list(GIRSANOV_TIMES),
                                     observe=BINNING.masses)
        rep = girsanov_bound_check(run_a, run_b, 0.2, spec.epsilon, spec.lipschitz_L,
                                   bootstrap_floor(run_a, N_PARTICLES, 500))
        claims.append(
            Claim(
                f"eps={eps:g}: estimates stay under sqrt(2) tv0 e^(4 eps^2 L^2 t)",
                rep.passed,
                {"estimates": list(rep.estimates), "bounds": list(rep.bounds),
                 "allowance": rep.allowance},
            )
        )
        details[f"eps={eps:g}"] = rep.to_dict()
    doc = report_document(
        "acceptance/girsanov-bound",
        {"tv0": 0.2, "epsilons": list(GIRSANOV_EPSILONS),
         "times": list(GIRSANOV_TIMES), "n_particles": N_PARTICLES,
         "step": STEP, "binning": BINNING.to_dict(),
         "lipschitz_L": make_vh_spec().lipschitz_L},
        claims,
        details=details,
    )
    write_json_report(out / "criterion_08.json", doc)
    return doc


def run_criterion_09(out):
    spec = make_vh_spec()  # r = M = D = 1, eps = 0.05
    V = WeightFunction(1.0, 1.0)
    # each snapshot observed as its cell masses and its mean weight
    observe = lambda x: (BINNING.masses(x), mean_weight(V, x))
    obs_a = simulate(spec, Point(0.0), N_PARTICLES, STEP, 20.0, seed=900,
                     snapshot_times=list(MERGE_TIMES), observe=observe)
    obs_b = simulate(spec, Gauss(2.0, 1.0), N_PARTICLES, STEP, 20.0, seed=901,
                     snapshot_times=list(MERGE_TIMES), observe=observe)
    run_a, run_b = ([(t, masses) for t, (masses, _) in obs] for obs in (obs_a, obs_b))
    tv_final = BINNING.tv(run_a[-1][1], run_b[-1][1])
    fit = fit_decay(run_a, run_b, noise_floor=0.05)
    lyap = lyapunov_diagnostic([(t, m) for t, (_, m) in obs_b], V, lag=2.0)
    # the computed overlap of the confinement's Euler chain from the unit
    # ball over unit time, as smve local-alpha reads it at its defaults
    alpha_local = estimate_local_alpha(radial_confinement_drift(1.0, 1.0), 1.0, 1.0,
                                       Binning(), step_size=STEP).alpha_hat
    eps_zero = epsilon_zero(alpha_local, 1.0, 1.0)
    claims = [
        Claim("interaction strength is inside the smallness regime",
              spec.epsilon <= eps_zero,
              {"epsilon": spec.epsilon, "epsilon_zero": eps_zero,
               "alpha_local": alpha_local}),
        Claim("ensembles merge: histogram TV below 0.05 at T=20",
              tv_final < 0.05,
              {"tv_final": tv_final}),
        Claim("fitted decay rate is positive at the 95 percent level",
              fit.theta > 0.0 and fit.theta_lower > 0.0,
              {"theta": fit.theta, "theta_lower": fit.theta_lower,
               "theta_upper": fit.theta_upper, "n_used": fit.n_used}),
        Claim("mean weight contracts per lag",
              (not lyap.degenerate) and lyap.gamma_hat < 1.0,
              {"gamma_hat": lyap.gamma_hat,
               "predicted_gamma": lyap.predicted_gamma}),
    ]
    doc = report_document(
        "acceptance/vh-merge",
        {"r": 1.0, "M": 1.0, "D": 1.0, "epsilon": 0.05,
         "n_particles": N_PARTICLES, "step": STEP, "horizon": 20.0,
         "times": list(MERGE_TIMES), "binning": BINNING.to_dict(),
         "noise_floor": 0.05, "seeds": [900, 901]},
        claims,
        details={"tv_values": list(fit.tv_values)},
    )
    write_json_report(out / "criterion_09.json", doc)
    return doc


RUNNERS = (
    run_criterion_01, run_criterion_02, run_criterion_03,
    run_criterion_04, run_criterion_05, run_criterion_06,
    run_criterion_07, run_criterion_08, run_criterion_09,
)


def run_and_check(runner, out, budget, capsys, number, label):
    t0 = time.perf_counter()
    doc = runner(out)
    elapsed = time.perf_counter() - t0
    ok = doc["passed"] and elapsed < budget
    announce(capsys, number, label, ok, elapsed)
    failed = [c["name"] for c in doc["claims"] if not c["passed"]]
    assert doc["passed"], f"failed claims: {failed}"
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget:g}s"
    return doc


# ---------------------------------------------------------------------------


def test_criterion_01_oscillating_example(outdirs, capsys):
    run_and_check(run_criterion_01, outdirs[0], 1.0, capsys, 1,
                  "two-state oscillation at constant distance")


def test_criterion_02_continuum_of_invariant_measures(outdirs, capsys):
    run_and_check(run_criterion_02, outdirs[0], 1.0, capsys, 2,
                  "continuum of invariant mixtures")


def test_criterion_03_no_invariant_measure_grid(outdirs, capsys):
    run_and_check(run_criterion_03, outdirs[0], 1.0, capsys, 3,
                  "stationarity recursion forces zero boundary mass")


def test_criterion_04_contraction_inequality(outdirs, capsys):
    run_and_check(run_criterion_04, outdirs[0], 10.0, capsys, 4,
                  "two-measure contraction on random pairs")


def test_criterion_05_rate_bounds(outdirs, capsys):
    run_and_check(run_criterion_05, outdirs[0], 5.0, capsys, 5,
                  "certified rate bounds over 200 steps")


def test_criterion_06_weighted_contraction_certifier(outdirs, capsys):
    run_and_check(run_criterion_06, outdirs[0], 5.0, capsys, 6,
                  "drift plus local overlap certifier")


def test_criterion_07_ou_analytic_anchor(outdirs, capsys):
    run_and_check(run_criterion_07, outdirs[0], 120.0, capsys, 7,
                  "linear-pull diffusion analytic anchor")


def test_criterion_08_girsanov_growth_bound(outdirs, capsys):
    run_and_check(run_criterion_08, outdirs[0], 300.0, capsys, 8,
                  "coupled-run growth bound across epsilons")


def test_criterion_09_vh_ensemble_merge(outdirs, capsys):
    run_and_check(run_criterion_09, outdirs[0], 600.0, capsys, 9,
                  "confined ensembles merge exponentially")


def test_criterion_10_deterministic_reruns(outdirs, capsys):
    main, rerun = outdirs
    t0 = time.perf_counter()
    for runner in RUNNERS:
        runner(rerun)
    names_main = sorted(p.name for p in main.glob("criterion_*.json"))
    names_rerun = sorted(p.name for p in rerun.glob("criterion_*.json"))
    same_names = names_main == names_rerun and len(names_main) == 9
    diffs = [
        name for name in names_rerun
        if not same_names or (main / name).read_bytes() != (rerun / name).read_bytes()
    ]
    ok = same_names and not diffs
    announce(capsys, 10, "byte-identical reports on rerun", ok,
             time.perf_counter() - t0)
    assert same_names, (names_main, names_rerun)
    assert not diffs, f"reports differ between runs: {diffs}"
