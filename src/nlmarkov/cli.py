"""Command line front end.

Three subcommands:

    nlmarkov chain ...            grid certificate + trajectory + rate check
    nlmarkov counterexample ...   one of the three sharpness verifiers
    nlmarkov smve ...             particle runs and their diagnostics

Every run writes ``resolved_config.json`` (all defaults materialized)
and a ``report.json`` in the shared schema, plus CSV tables where
applicable, into --out (or $NLMARKOV_OUT, or ./nlmarkov-out).  Outputs
carry no timestamps and floats are printed in full precision, so a
rerun with the same configuration is byte-identical.

Exit codes: 0 all claims hold, 1 a certified claim was falsified,
2 usage or configuration error, 3 numerical failure (a particle run
blew up or its interaction exceeded its declared bound).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .counterexamples import (
    verify_continuum,
    verify_no_invariant_recursion,
    verify_oscillation,
)
from .diagnostics import (
    Binning,
    DecayFitError,
    calibrate_tv_allowance,
    estimate_local_alpha,
    fit_decay,
    girsanov_bound_check,
    lyapunov_diagnostic,
)
from .ergodicity import check_rate, evolve
from .kernel_spec import KernelSpecError, load_kernel_spec
from .kernels import (
    KernelValidationError,
    MeasureGrid,
    birth_death_jitter_matrix,
    certify,
    continuum_kernel,
    default_resolution,
    markov_example_kernel,
    mixture_kernel,
    no_invariant_kernel,
    oscillating_kernel,
    validate,
)
from .measures import DiscreteMeasure
from .mckean_vlasov import (
    DriftBoundError,
    SimulationBlowUp,
    gaussian_sampler,
    make_ou_spec,
    make_vh_spec,
    make_weight_function,
    point_mass_sampler,
    radial_confinement_drift,
    simulate,
    simulate_runs,
    two_point_mixture_sampler,
)
from .reporting import Claim, report_document, write_csv, write_json_report


class UsageError(Exception):
    pass


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("NLMARKOV_OUT") or "nlmarkov-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _merge(defaults: dict, config: dict, args, keys) -> dict:
    """Defaults, overridden by config file entries, overridden by flags
    given on the command line.  A config value for a numeric field must
    have its default's type (a float field also takes an int; a bool is
    never a number); it is kept as given, not coerced."""
    resolved = dict(defaults)
    for k, v in config.items():
        if k not in defaults:
            raise UsageError(f"unknown config field {k!r}")
        kind = type(defaults[k])
        if kind in (int, float) and type(v) not in (int, kind):
            raise UsageError(
                f"config field {k!r} must be {kind.__name__}, got {v!r}")
    resolved.update(config)
    for k in keys:
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            resolved[k] = v
    return resolved


def _floats(value, field: str) -> list:
    if isinstance(value, (list, tuple)):
        try:
            return [float(v) for v in value]
        except (TypeError, ValueError):
            raise UsageError(f"{field} must hold numbers, got {value!r}")
    try:
        return [float(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"{field} must be comma-separated numbers, got {value!r}")


def _sampler(desc, field: str):
    """Initial law mini-language: point:x | gauss:mean,std | mix:x0,x1,w0."""
    if callable(desc):
        return desc
    text = str(desc)
    kind, _, rest = text.partition(":")
    vals = _floats(rest, field) if rest else []
    try:
        if kind == "point" and len(vals) == 1:
            return point_mass_sampler(vals[0])
        if kind == "gauss" and len(vals) == 2:
            return gaussian_sampler(vals[0], vals[1])
        if kind == "mix" and len(vals) == 3:
            return two_point_mixture_sampler(vals[0], vals[1], vals[2])
    except ValueError as exc:
        raise UsageError(f"{field}: {exc}")
    raise UsageError(
        f"{field} must be point:x, gauss:mean,std or mix:x0,x1,w0; got {text!r}"
    )


# ---------------------------------------------------------------------------
# chain


_STOCK_Q5 = birth_death_jitter_matrix()


def _build_kernel(resolved: dict, spec_text: str | None):
    kind = resolved["kernel"]
    if kind == "oscillating":
        return oscillating_kernel(resolved["gamma"])
    if kind == "continuum":
        return continuum_kernel(resolved["alpha"], resolved["lam"])
    if kind == "markov-example":
        return markov_example_kernel()
    if kind == "mixture":
        q = np.array([[0.7, 0.3], [0.4, 0.6]]) if resolved["space"] == 2 else _STOCK_Q5
        return mixture_kernel(q, resolved["mix-lam"])
    if kind == "no-invariant":
        return no_invariant_kernel(
            resolved["alpha"], resolved["lam"], resolved["truncation"]
        )
    if kind == "custom":
        if spec_text is None:
            raise UsageError("kernel custom requires --kernel-file")
        return load_kernel_spec(spec_text)
    raise UsageError(f"unknown kernel {kind!r}")


def _run_chain(args) -> int:
    defaults = {
        "kernel": "markov-example",
        "gamma": 0.5,
        "alpha": 0.2,
        "lam": 0.8,
        "mix-lam": 0.2,
        "space": 2,
        "truncation": 50,
        "kernel-file": "",
        "mu0": "",
        "steps": 200,
        "resolution": 0,
    }
    resolved = _merge(defaults, _load_config(args.config), args,
                      ["kernel", "gamma", "alpha", "lam", "mix-lam", "space",
                       "truncation", "kernel-file", "mu0", "steps",
                       "resolution"])
    if resolved["steps"] < 1:
        raise UsageError("steps must be positive")
    if resolved["space"] not in (2, 5):
        raise UsageError("space must be 2 or 5")

    # The report names a kernel file by its basename and the sha256 of
    # its bytes, so it does not depend on where the file lives;
    # resolved_config.json keeps the path as given.
    spec_text = provenance = None
    if resolved["kernel"] == "custom" and resolved["kernel-file"]:
        path = Path(resolved["kernel-file"])
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read kernel file: {exc}")
        spec_text = raw.decode("utf-8")
        provenance = {"name": path.name, "sha256": hashlib.sha256(raw).hexdigest()}
    try:
        kernel = _build_kernel(resolved, spec_text)
    except (ValueError, KernelSpecError) as exc:
        raise UsageError(str(exc))

    resolution = resolved["resolution"] or default_resolution(kernel.space_size)
    resolved["resolution"] = resolution
    out = _out_dir(args)
    write_json_report(out / "resolved_config.json",
                      {"command": "chain", **resolved})

    grid = MeasureGrid(kernel.space_size, resolution)
    try:
        validation = validate(kernel, grid)
    except KernelValidationError as exc:
        if resolved["kernel"] == "custom":
            raise UsageError(str(exc))
        print(f"kernel validation failed: {exc}", file=sys.stderr)
        return 1

    cert = certify(kernel, grid)
    mu0 = (
        DiscreteMeasure(np.array(_floats(resolved["mu0"], "mu0")))
        if resolved["mu0"]
        else DiscreteMeasure.uniform(kernel.space_size)
    )
    if mu0.size != kernel.space_size:
        raise UsageError("mu0 length does not match the kernel state space")

    traj = evolve(kernel, mu0, int(resolved["steps"]))
    write_csv(
        out / "trajectory.csv",
        ["n", *[f"p{i + 1}" for i in range(kernel.space_size)], "step_tv"],
        traj.csv_rows(),
        "trajectory",
    )

    claims = [
        Claim("kernel rows are stochastic on the grid", True, validation),
    ]
    exit_code = 0
    details = {"certificate": cert.to_dict()}
    if cert.regime in ("fast", "slow"):
        rate = check_rate(kernel, cert, mu0, int(resolved["steps"]))
        write_csv(out / "rate.csv", ["n", "measured", "bound", "margin"],
                  rate.csv_rows(), "rate-report")
        write_json_report(out / "rate_report.json", rate.to_dict())
        claims.append(
            Claim(
                "measured distances stay within the certified bound",
                rate.passed,
                {"violations": len(rate.violations), "falsified": rate.falsified},
            )
        )
        if not rate.passed:
            exit_code = 1
    parameters = {**resolved, "kernel-file": provenance} if provenance else resolved
    doc = report_document("chain", parameters, claims, details)
    write_json_report(out / "report.json", doc)
    print(f"regime: {cert.regime} (alpha_hat={cert.alpha_hat:.6g}, "
          f"lambda_hat={cert.lambda_hat:.6g}) -> {out}")
    return exit_code


# ---------------------------------------------------------------------------
# counterexample


def _run_counterexample(args) -> int:
    defaults = {
        "gamma": 0.5,
        "a": 0.3,
        "alpha": 0.2,
        "lam": 0.8,
        "steps": 50,
        "n-max": 50,
    }
    resolved = _merge(defaults, _load_config(args.config), args,
                      ["gamma", "a", "alpha", "lam", "steps", "n-max"])
    kind = args.which
    out = _out_dir(args)
    write_json_report(out / "resolved_config.json",
                      {"command": f"counterexample/{kind}", **resolved})
    try:
        if kind == "oscillation":
            report = verify_oscillation(
                resolved["gamma"], resolved["a"], int(resolved["steps"])
            )
        elif kind == "continuum":
            report = verify_continuum(
                resolved["alpha"], resolved["lam"], n_steps=int(resolved["steps"])
            )
        else:
            report = verify_no_invariant_recursion(
                resolved["alpha"], resolved["lam"], int(resolved["n-max"])
            )
    except ValueError as exc:
        raise UsageError(str(exc))
    write_json_report(out / "report.json", report.to_document())
    status = "reproduced" if report.passed else "FALSIFIED"
    print(f"counterexample {kind}: {status} -> {out}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# smve


def _smve_spec(resolved: dict):
    if resolved["preset"] == "ou":
        return make_ou_spec()
    if resolved["preset"] == "vh":
        return make_vh_spec(
            r=resolved["r"],
            M=resolved["m-ball"],
            D=resolved["d-bound"],
            epsilon=resolved["epsilon"],
        )
    raise UsageError(f"unknown preset {resolved['preset']!r}")


def _run_smve(args) -> int:
    defaults = {
        "preset": "vh",
        "r": 1.0,
        "m-ball": 1.0,
        "d-bound": 1.0,
        "epsilon": 0.05,
        "n": 10_000,
        "h": 0.01,
        "horizon": 20.0,
        "times": "",
        "seed": 7,
        "bins": 200,
        "bin-lo": -10.0,
        "bin-hi": 10.0,
        "mu0": "point:0",
        "nu0": "gauss:2,1",
        "tv0": 0.2,
        "noise-floor": -1.0,
        "allowance": -1.0,
        "calibration-pairs": 5,
        "radius": 1.0,
        "t": 1.0,
        "n-sims": 100_000,
        "x-grid": "",
        "lag": 1.0,
    }
    resolved = _merge(defaults, _load_config(args.config), args, list(defaults))
    action = args.action
    if resolved["h"] <= 0:
        raise UsageError("h must be positive")
    if resolved["n"] < 100:
        raise UsageError("n must be at least 100")
    if resolved["epsilon"] < 0:
        raise UsageError("epsilon must be nonnegative")

    out = _out_dir(args)
    write_json_report(out / "resolved_config.json",
                      {"command": f"smve/{action}", **resolved})

    binning = Binning(resolved["bin-lo"], resolved["bin-hi"], int(resolved["bins"]))
    spec = _smve_spec(resolved)
    seed = int(resolved["seed"])
    n, h, horizon = int(resolved["n"]), float(resolved["h"]), float(resolved["horizon"])
    times = _floats(resolved["times"], "times") if resolved["times"] else None

    if action == "simulate":
        snaps = simulate(spec, _sampler(resolved["mu0"], "mu0"), n, h, horizon,
                         seed, times or [0.0, horizon])
        rows = []
        for s in snaps:
            x = s.positions[:, 0]
            rows.append((s.time, float(x.mean()), float(x.var(ddof=1)),
                         float(x.min()), float(x.max())))
        write_csv(out / "snapshots.csv",
                  ["time", "mean", "variance", "min", "max"], rows, "snapshots")
        doc = report_document("smve/simulate", resolved,
                              [Claim("run completed without blow-up", True,
                                     {"snapshots": len(snaps)})])
        write_json_report(out / "report.json", doc)
        print(f"simulated {n} particles to t={horizon:g} -> {out}")
        return 0

    if action == "decay":
        times = times or np.linspace(0.0, horizon, 21).tolist()
        mu = _sampler(resolved["mu0"], "mu0")
        nu = _sampler(resolved["nu0"], "nu0")
        floor = resolved["noise-floor"]
        if floor < 0:
            floor = calibrate_tv_allowance(
                spec, mu, times, n, h, seed + 1000, binning,
                n_pairs=int(resolved["calibration-pairs"]))
        run_a, run_b = simulate_runs(spec, [(mu, seed), (nu, seed + 1)], n, h,
                                     horizon, times)
        try:
            fit = fit_decay(run_a, run_b, binning, floor)
        except DecayFitError as exc:
            doc = report_document(
                "smve/decay", resolved,
                [Claim("enough distance points above the noise floor", False,
                       {"usable": exc.usable, "noise_floor": floor,
                        "tv_values": exc.tv_values})])
            write_json_report(out / "report.json", doc)
            print(f"decay fit rejected: {exc}", file=sys.stderr)
            return 1
        claims = [
            Claim("fitted decay rate is positive", fit.theta > 0,
                  {"theta": fit.theta}),
            Claim("decay rate is positive at the 95 percent level",
                  fit.theta_lower > 0,
                  {"theta_lower": fit.theta_lower, "theta_upper": fit.theta_upper}),
        ]
        doc = report_document("smve/decay", resolved, claims,
                              {"fit": fit.to_dict(), "noise_floor": floor})
        write_json_report(out / "report.json", doc)
        write_csv(out / "decay.csv", ["time", "tv"],
                  zip(fit.times, fit.tv_values), "decay")
        ok = all(c.passed for c in claims)
        print(f"theta = {fit.theta:.6g} [{fit.theta_lower:.6g}, "
              f"{fit.theta_upper:.6g}] -> {out}")
        return 0 if ok else 1

    if action == "girsanov-check":
        times = times or [0.5, 1.0, 2.0]
        mu = _sampler(resolved["mu0"], "mu0")
        nu = _sampler(resolved["nu0"], "nu0")
        allowance = resolved["allowance"]
        if allowance < 0:
            allowance = calibrate_tv_allowance(
                spec, mu, times, n, h, seed + 1000, binning,
                n_pairs=int(resolved["calibration-pairs"]))
        report = girsanov_bound_check(
            spec, mu, nu, resolved["tv0"], times, n, h, seed, binning, allowance)
        doc = report_document(
            "smve/girsanov-check", resolved,
            [Claim("coupled runs stay within the coupling bound",
                   report.passed,
                   {"violations": [list(v) for v in report.violations],
                    "allowance": allowance})],
            {"report": report.to_dict()})
        write_json_report(out / "report.json", doc)
        write_csv(out / "girsanov.csv", ["time", "estimate", "bound", "margin"],
                  report.csv_rows(), "girsanov-check")
        print(f"girsanov check: {'ok' if report.passed else 'VIOLATED'} -> {out}")
        return 0 if report.passed else 1

    if action == "local-alpha":
        b1 = (radial_confinement_drift(resolved["r"], resolved["m-ball"])
              if resolved["preset"] == "vh" else (lambda x: -x))
        x_grid = (np.array(_floats(resolved["x-grid"], "x-grid"))
                  if resolved["x-grid"] else None)
        try:
            alpha_hat = estimate_local_alpha(
                b1, resolved["radius"], resolved["t"], int(resolved["n-sims"]),
                binning, x_grid, step_size=h, seed=seed)
        except ValueError as exc:
            raise UsageError(str(exc))
        doc = report_document(
            "smve/local-alpha", resolved,
            [Claim("local overlap estimate is positive", alpha_hat > 0,
                   {"alpha_hat": alpha_hat})])
        write_json_report(out / "report.json", doc)
        print(f"alpha_hat({resolved['radius']:g}, {resolved['t']:g}) "
              f"= {alpha_hat:.6g} -> {out}")
        return 0 if alpha_hat > 0 else 1

    if action == "lyapunov":
        lag = float(resolved["lag"])
        if lag <= 0:
            raise UsageError("lag must be positive")
        k_max = int(horizon / lag)
        if k_max < 2:
            raise UsageError("horizon must cover at least two lags")
        snap_times = [k * lag for k in range(k_max + 1)]
        snaps = simulate(spec, _sampler(resolved["nu0"], "nu0"), n, h, horizon,
                         seed, snap_times)
        V = make_weight_function(resolved["r"], resolved["m-ball"])
        fit = lyapunov_diagnostic(snaps, V, lag)
        ok = fit.degenerate or (fit.gamma_hat < 1.0)
        doc = report_document(
            "smve/lyapunov", resolved,
            [Claim("mean weight contracts per lag", ok, fit.to_dict())])
        write_json_report(out / "report.json", doc)
        print(f"gamma_hat = {fit.gamma_hat:.6g} "
              f"(predicted {fit.predicted_gamma:.6g}) -> {out}")
        return 0 if ok else 1

    raise UsageError(f"unknown action {action!r}")


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nlmarkov",
        description="nonlinear Markov chain certificates and mean-field diagnostics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default $NLMARKOV_OUT)")

    p = sub.add_parser("chain", help="certify a kernel and check its rate bound")
    common(p)
    p.add_argument("--kernel", choices=["oscillating", "continuum", "markov-example",
                                        "mixture", "no-invariant", "custom"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lam", type=float, help="measure sensitivity parameter")
    p.add_argument("--mix-lam", type=float, dest="mix_lam")
    p.add_argument("--space", type=int, choices=[2, 5])
    p.add_argument("--truncation", type=int)
    p.add_argument("--kernel-file", dest="kernel_file")
    p.add_argument("--mu0", help="comma-separated initial weights")
    p.add_argument("--steps", type=int)
    p.add_argument("--resolution", type=int)
    p.set_defaults(run=_run_chain)

    p = sub.add_parser("counterexample", help="replay one sharpness construction")
    p.add_argument("which", choices=["oscillation", "continuum", "no-invariant"])
    common(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.set_defaults(run=_run_counterexample)

    p = sub.add_parser("smve", help="mean-field particle runs and diagnostics")
    p.add_argument("action", choices=["simulate", "decay", "girsanov-check",
                                      "local-alpha", "lyapunov"])
    common(p)
    p.add_argument("--preset", choices=["ou", "vh"])
    p.add_argument("--r", type=float)
    p.add_argument("--m-ball", type=float, dest="m_ball")
    p.add_argument("--d-bound", type=float, dest="d_bound")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--times", help="comma-separated snapshot times")
    p.add_argument("--seed", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--bin-lo", type=float, dest="bin_lo")
    p.add_argument("--bin-hi", type=float, dest="bin_hi")
    p.add_argument("--mu0", help="point:x | gauss:mean,std | mix:x0,x1,w0")
    p.add_argument("--nu0", help="same mini-language as --mu0")
    p.add_argument("--tv0", type=float)
    p.add_argument("--noise-floor", type=float, dest="noise_floor")
    p.add_argument("--allowance", type=float)
    p.add_argument("--calibration-pairs", type=int, dest="calibration_pairs")
    p.add_argument("--radius", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--n-sims", type=int, dest="n_sims")
    p.add_argument("--x-grid", dest="x_grid")
    p.add_argument("--lag", type=float)
    p.set_defaults(run=_run_smve)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationBlowUp, DriftBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
