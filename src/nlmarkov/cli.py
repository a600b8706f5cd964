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
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

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
from .kernel_spec import compile_kernel_spec
from .kernels import (
    KernelValidationError,
    MeasureGrid,
    birth_death_jitter_matrix,
    certify,
    continuum_kernel,
    default_resolution,
    largest_resolution,
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


class Option(NamedTuple):
    """One command-line option.  Its default also fixes its type; with
    ``choices``, flag and config values must be one of them."""

    default: object
    help: str | None = None
    choices: tuple | None = None


# The base chains of ``chain --kernel mixture``, by ``--space``.
_MIXTURE_BASES = {2: np.array([[0.7, 0.3], [0.4, 0.6]]), 5: birth_death_jitter_matrix()}

# The stock kernels of ``chain --kernel``, built from the resolved options.
_KERNELS = {
    "oscillating": lambda c: oscillating_kernel(c["gamma"]),
    "continuum": lambda c: continuum_kernel(c["alpha"], c["lam"]),
    "markov-example": lambda c: markov_example_kernel(),
    "mixture": lambda c: mixture_kernel(_MIXTURE_BASES[c["space"]], c["mix-lam"]),
    "no-invariant": lambda c: no_invariant_kernel(c["alpha"], c["lam"], c["truncation"]),
}

# Every option of every command, declared once: in this order they
# become the command's flags and the keys of resolved_config.json.
OPTIONS = {
    "chain": {
        "kernel": Option("markov-example", choices=(*_KERNELS, "custom")),
        "gamma": Option(0.5),
        "alpha": Option(0.2),
        "lam": Option(0.8, "measure sensitivity parameter"),
        "mix-lam": Option(0.2),
        "space": Option(2, choices=tuple(_MIXTURE_BASES)),
        "truncation": Option(50),
        "kernel-file": Option(""),
        "mu0": Option("", "comma-separated initial weights"),
        "steps": Option(200),
        "resolution": Option(0),
    },
    "counterexample": {
        "gamma": Option(0.5),
        "a": Option(0.3),
        "alpha": Option(0.2),
        "lam": Option(0.8),
        "steps": Option(50),
        "n-max": Option(50),
    },
    "smve": {
        "preset": Option("vh", choices=("ou", "vh")),
        "r": Option(1.0),
        "m-ball": Option(1.0),
        "d-bound": Option(1.0),
        "epsilon": Option(0.05),
        "n": Option(10_000),
        "h": Option(0.01),
        "horizon": Option(20.0),
        "times": Option("", "comma-separated snapshot times"),
        "seed": Option(7),
        "bins": Option(200),
        "bin-lo": Option(-10.0),
        "bin-hi": Option(10.0),
        "mu0": Option("point:0", "point:x | gauss:mean,std | mix:x0,x1,w0"),
        "nu0": Option("gauss:2,1", "same mini-language as --mu0"),
        "tv0": Option(0.2),
        "noise-floor": Option(-1.0),
        "allowance": Option(-1.0),
        "calibration-pairs": Option(5),
        "radius": Option(1.0),
        "t": Option(1.0),
        "n-sims": Option(100_000),
        "x-grid": Option(""),
        "lag": Option(1.0),
    },
}


def _resolve(args) -> dict:
    """The command's options: defaults, overridden by --config file
    entries, overridden by flags given on the command line.  A config
    value must have its option's type (a float field also takes an
    int; a bool is never a number) and be one of its choices; it is
    kept as given, not coerced."""
    options, config = OPTIONS[args.command], {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    for k, v in config.items():
        if k not in options:
            raise ValueError(f"unknown config field {k!r}")
        kind, choices = type(options[k].default), options[k].choices
        if kind in (int, float) and type(v) not in (int, kind):
            raise ValueError(
                f"config field {k!r} must be {kind.__name__}, got {v!r}")
        if choices and v not in choices:
            raise ValueError(f"config field {k!r} must be one of "
                             f"{', '.join(map(str, choices))}; got {v!r}")
    resolved = {k: option.default for k, option in options.items()}
    resolved.update(config)
    for k in options:
        v = getattr(args, k.replace("-", "_"))
        if v is not None:
            resolved[k] = v
    return resolved


def _begin(args, command: str, resolved: dict) -> Path:
    """Create the output directory and write resolved_config.json."""
    out = Path(args.out or os.environ.get("NLMARKOV_OUT") or "nlmarkov-out")
    out.mkdir(parents=True, exist_ok=True)
    write_json_report(out / "resolved_config.json", {"command": command, **resolved})
    return out


def _finish(out: Path, doc: dict, line: str, file=None) -> int:
    """Every run ends here: write report.json, print the run's one line
    (to stdout unless ``file`` is given) and return 0 if every claim
    passed, else 1."""
    write_json_report(out / "report.json", doc)
    print(line, file=file)
    return 0 if doc["passed"] else 1


def _floats(value, field: str) -> list:
    if isinstance(value, (list, tuple)):
        try:
            return [float(v) for v in value]
        except (TypeError, ValueError):
            raise ValueError(f"{field} must hold numbers, got {value!r}")
    try:
        return [float(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"{field} must be comma-separated numbers, got {value!r}")


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
        raise ValueError(f"{field}: {exc}")
    raise ValueError(
        f"{field} must be point:x, gauss:mean,std or mix:x0,x1,w0; got {text!r}"
    )


# ---------------------------------------------------------------------------
# chain


# The largest (G, n, n) float64 stack of kernel matrices a chain run
# may build: validation evaluates the kernel on the whole grid at once.
GRID_BUDGET_BYTES = 2**30


def _run_chain(args, resolved: dict) -> int:
    if resolved["steps"] < 1:
        raise ValueError("steps must be positive")
    if resolved["resolution"] < 0:
        raise ValueError("resolution must be positive, or 0 for the default")

    # The report names a kernel file by its basename and the sha256 of
    # its bytes, so it does not depend on where the file lives;
    # resolved_config.json keeps the path as given.
    provenance = None
    if resolved["kernel"] != "custom":
        kernel = _KERNELS[resolved["kernel"]](resolved)
    elif not resolved["kernel-file"]:
        raise ValueError("kernel custom requires --kernel-file")
    else:
        path = Path(resolved["kernel-file"])
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read kernel file: {exc}")
        provenance = {"name": path.name, "sha256": hashlib.sha256(raw).hexdigest()}
        kernel = compile_kernel_spec(raw.decode("utf-8"))

    n = kernel.space_size
    resolution = resolved["resolution"] or default_resolution(n)
    size = math.comb(resolution + n - 1, n - 1)
    if size * n * n * 8 > GRID_BUDGET_BYTES:
        fits = largest_resolution(n, GRID_BUDGET_BYTES // (8 * n * n))
        raise ValueError(
            f"resolution {resolution} gives {size} grid measures, whose ({size}, {n}, "
            f"{n}) matrix stack exceeds the {GRID_BUDGET_BYTES >> 30} GiB budget; "
            f"the largest resolution that fits is {fits}")
    resolved["resolution"] = resolution
    grid = MeasureGrid(n, resolution)
    # A custom kernel is validated here only, on the chain's own grid; a
    # failure is a usage error, as KernelValidationError is a ValueError.
    try:
        validation = validate(kernel, grid)
    except KernelValidationError as exc:
        if resolved["kernel"] == "custom":
            raise
        print(f"kernel validation failed: {exc}", file=sys.stderr)
        return 1
    out = _begin(args, "chain", resolved)

    cert = certify(kernel, grid)
    mu0 = (
        DiscreteMeasure(np.array(_floats(resolved["mu0"], "mu0")))
        if resolved["mu0"]
        else DiscreteMeasure.uniform(kernel.space_size)
    )
    if mu0.size != kernel.space_size:
        raise ValueError("mu0 length does not match the kernel state space")

    traj = evolve(kernel, mu0, resolved["steps"])
    write_csv(
        out / "trajectory.csv",
        ["n", *[f"p{i + 1}" for i in range(kernel.space_size)], "step_tv"],
        traj.csv_rows(),
        "trajectory",
    )

    claims = [
        Claim("kernel rows are stochastic on the grid", True, validation),
    ]
    details = {"certificate": cert.to_dict()}
    if cert.regime in ("fast", "slow"):
        rate = check_rate(kernel, cert, mu0, resolved["steps"])
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
    parameters = {**resolved, "kernel-file": provenance} if provenance else resolved
    return _finish(out, report_document("chain", parameters, claims, details),
                   f"regime: {cert.regime} (alpha_hat={cert.alpha_hat:.6g}, "
                   f"lambda_hat={cert.lambda_hat:.6g}) -> {out}")


# ---------------------------------------------------------------------------
# counterexample

# Tables hold no library function: each is called by its module-global
# name, so a benchmark span or a test double that replaces it is seen.
_REPLAYS = {
    "oscillation": lambda c: verify_oscillation(c["gamma"], c["a"], c["steps"]),
    "continuum": lambda c: verify_continuum(c["alpha"], c["lam"], n_steps=c["steps"]),
    "no-invariant": lambda c: verify_no_invariant_recursion(
        c["alpha"], c["lam"], c["n-max"]),
}


def _run_counterexample(args, resolved: dict) -> int:
    kind = args.which
    out = _begin(args, f"counterexample/{kind}", resolved)
    report = _REPLAYS[kind](resolved)
    status = "reproduced" if report.passed else "FALSIFIED"
    return _finish(out, report.to_document(), f"counterexample {kind}: {status} -> {out}")


# ---------------------------------------------------------------------------
# smve


def _run_smve(args, c: dict) -> int:
    if c["h"] <= 0:
        raise ValueError("h must be positive")
    if c["n"] < 100:
        raise ValueError("n must be at least 100")
    if c["epsilon"] < 0:
        raise ValueError("epsilon must be nonnegative")
    out = _begin(args, f"smve/{args.action}", c)
    binning = Binning(c["bin-lo"], c["bin-hi"], c["bins"])
    spec = make_ou_spec() if c["preset"] == "ou" else make_vh_spec(
        r=c["r"], M=c["m-ball"], D=c["d-bound"], epsilon=c["epsilon"])
    times = _floats(c["times"], "times") if c["times"] else None
    return _SMVE_RUNNERS[args.action](c, out, spec, binning, float(c["h"]),
                                      float(c["horizon"]), times)


def _smve_simulate(c: dict, out: Path, spec, binning, h, horizon, times) -> int:
    snaps = simulate(spec, _sampler(c["mu0"], "mu0"), c["n"], h, horizon, c["seed"],
                     times or [0.0, horizon])
    rows = []
    for s in snaps:
        x = s.positions[:, 0]
        rows.append((s.time, float(x.mean()), float(x.var(ddof=1)),
                     float(x.min()), float(x.max())))
    write_csv(out / "snapshots.csv",
              ["time", "mean", "variance", "min", "max"], rows, "snapshots")
    doc = report_document("smve/simulate", c,
                          [Claim("run completed without blow-up", True,
                                 {"snapshots": len(snaps)})])
    return _finish(out, doc, f"simulated {c['n']} particles to t={horizon:g} -> {out}")


def _calibrated(c: dict, key: str, spec, mu, times, h, binning) -> float:
    """``c[key]``, or the calibrated noise floor of ``mu`` if negative."""
    if c[key] >= 0:
        return c[key]
    return calibrate_tv_allowance(spec, mu, times, c["n"], h, c["seed"] + 1000,
                                  binning, n_pairs=c["calibration-pairs"])


def _smve_decay(c: dict, out: Path, spec, binning, h, horizon, times) -> int:
    times = times or np.linspace(0.0, horizon, 21).tolist()
    mu = _sampler(c["mu0"], "mu0")
    nu = _sampler(c["nu0"], "nu0")
    floor = _calibrated(c, "noise-floor", spec, mu, times, h, binning)
    run_a, run_b = simulate_runs(spec, [(mu, c["seed"]), (nu, c["seed"] + 1)],
                                 c["n"], h, horizon, times)
    try:
        fit = fit_decay(run_a, run_b, binning, floor)
    except DecayFitError as exc:
        doc = report_document(
            "smve/decay", c,
            [Claim("enough distance points above the noise floor", False,
                   {"usable": exc.usable, "noise_floor": floor,
                    "tv_values": exc.tv_values})])
        return _finish(out, doc, f"decay fit rejected: {exc}", sys.stderr)
    claims = [
        Claim("fitted decay rate is positive", fit.theta > 0,
              {"theta": fit.theta}),
        Claim("decay rate is positive at the 95 percent level",
              fit.theta_lower > 0,
              {"theta_lower": fit.theta_lower, "theta_upper": fit.theta_upper}),
    ]
    write_csv(out / "decay.csv", ["time", "tv"],
              zip(fit.times, fit.tv_values), "decay")
    doc = report_document("smve/decay", c, claims,
                          {"fit": fit.to_dict(), "noise_floor": floor})
    return _finish(out, doc, f"theta = {fit.theta:.6g} [{fit.theta_lower:.6g}, "
                             f"{fit.theta_upper:.6g}] -> {out}")


def _smve_girsanov_check(c: dict, out: Path, spec, binning, h, horizon, times) -> int:
    times = times or [0.5, 1.0, 2.0]
    mu = _sampler(c["mu0"], "mu0")
    nu = _sampler(c["nu0"], "nu0")
    allowance = _calibrated(c, "allowance", spec, mu, times, h, binning)
    report = girsanov_bound_check(spec, mu, nu, c["tv0"], times, c["n"], h,
                                  c["seed"], binning, allowance)
    write_csv(out / "girsanov.csv", ["time", "estimate", "bound", "margin"],
              report.csv_rows(), "girsanov-check")
    doc = report_document(
        "smve/girsanov-check", c,
        [Claim("coupled runs stay within the coupling bound",
               report.passed,
               {"violations": [list(v) for v in report.violations],
                "allowance": allowance})],
        {"report": report.to_dict()})
    return _finish(out, doc,
                   f"girsanov check: {'ok' if report.passed else 'VIOLATED'} -> {out}")


def _smve_local_alpha(c: dict, out: Path, spec, binning, h, horizon, times) -> int:
    b1 = (radial_confinement_drift(c["r"], c["m-ball"])
          if c["preset"] == "vh" else (lambda x: -x))
    x_grid = np.array(_floats(c["x-grid"], "x-grid")) if c["x-grid"] else None
    alpha_hat = estimate_local_alpha(b1, c["radius"], c["t"], c["n-sims"],
                                     binning, x_grid, step_size=h, seed=c["seed"])
    doc = report_document(
        "smve/local-alpha", c,
        [Claim("local overlap estimate is positive", alpha_hat > 0,
               {"alpha_hat": alpha_hat})])
    return _finish(out, doc, f"alpha_hat({c['radius']:g}, {c['t']:g}) "
                             f"= {alpha_hat:.6g} -> {out}")


def _smve_lyapunov(c: dict, out: Path, spec, binning, h, horizon, times) -> int:
    lag = float(c["lag"])
    if lag <= 0:
        raise ValueError("lag must be positive")
    k_max = int(horizon / lag)
    if k_max < 2:
        raise ValueError("horizon must cover at least two lags")
    snap_times = [k * lag for k in range(k_max + 1)]
    snaps = simulate(spec, _sampler(c["nu0"], "nu0"), c["n"], h, horizon,
                     c["seed"], snap_times)
    V = make_weight_function(c["r"], c["m-ball"])
    fit = lyapunov_diagnostic(snaps, V, lag)
    ok = fit.degenerate or (fit.gamma_hat < 1.0)
    doc = report_document(
        "smve/lyapunov", c,
        [Claim("mean weight contracts per lag", ok, fit.to_dict())])
    return _finish(out, doc, f"gamma_hat = {fit.gamma_hat:.6g} "
                             f"(predicted {fit.predicted_gamma:.6g}) -> {out}")


_SMVE_RUNNERS = {
    "simulate": _smve_simulate,
    "decay": _smve_decay,
    "girsanov-check": _smve_girsanov_check,
    "local-alpha": _smve_local_alpha,
    "lyapunov": _smve_lyapunov,
}


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nlmarkov",
        description="nonlinear Markov chain certificates and mean-field diagnostics",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, help_text, positional, run in (
        ("chain", "certify a kernel and check its rate bound", None, _run_chain),
        ("counterexample", "replay one sharpness construction",
         ("which", _REPLAYS), _run_counterexample),
        ("smve", "mean-field particle runs and diagnostics",
         ("action", _SMVE_RUNNERS), _run_smve),
    ):
        p = sub.add_parser(command, help=help_text)
        if positional:
            p.add_argument(positional[0], choices=list(positional[1]))
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default $NLMARKOV_OUT)")
        for name, option in OPTIONS[command].items():
            p.add_argument(f"--{name}", type=type(option.default),
                           choices=option.choices, help=option.help)
        p.set_defaults(run=run)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, _resolve(args))
    except (ValueError, SimulationBlowUp, DriftBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a ValueError is a usage error; the other two are numerical failures
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
