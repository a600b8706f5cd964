"""Command line front end.

Three subcommands:

    nlmarkov chain ...            grid certificate + trajectory + rate check
    nlmarkov counterexample ...   one of the three sharpness verifiers
    nlmarkov smve ACTION ...      particle runs and their diagnostics

Each command, and each smve action, takes only the options it reads
(``OPTIONS``); girsanov-check derives tv0 from --mu0 and --nu0.

Every run writes ``resolved_config.json`` (all defaults materialized)
and a ``report.json`` in the shared schema, plus CSV tables where
applicable, into --out (or $NLMARKOV_OUT, or ./nlmarkov-out).  Outputs
carry no timestamps and floats are printed in full precision, so a
rerun with the same configuration is byte-identical.

``import nlmarkov.cli`` loads the chain half (kernels, ergodicity,
counterexamples, measures), laws and reporting, with numpy; ``chain
--kernel custom`` imports kernel_spec and hashlib, and an smve action
the particle half (mckean_vlasov, diagnostics, and numpy.random through
them), when it runs.

The CLI sets OPENBLAS_THREAD_TIMEOUT to 4 before it imports numpy,
unless the environment already sets it: an idle OpenBLAS worker then
spins 2^4 cycles, not the default 2^28 (about 0.1 s of CPU a process),
while the BLAS products keep their threads.  It takes effect when this
module is the first to load numpy (the console script, ``python -m
nlmarkov.cli``); set the variable to keep another value.

Exit codes: 0 all claims hold, 1 a certified claim was falsified,
2 usage or configuration error, 3 numerical failure (a particle run
blew up or its interaction exceeded its declared bound, a stock kernel
failed validation, or a chain orbit met a non-stochastic row).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

# OpenBLAS reads this once, when numpy loads it: idle workers spin 2^4 cycles, not 2^28
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from .counterexamples import (
    check_alpha_lam,
    check_replay,
    verify_continuum,
    verify_no_invariant_recursion,
    verify_oscillation,
)
from .ergodicity import check_rate, evolve
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
from . import laws
from .measures import DiscreteMeasure
from .reporting import (Claim, NumericalFailure, report_document, write_csv,
                        write_json_report)


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

# Every smve option, and so every smve flag, declared once.
_SMVE = {
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
    "mu0": Option("point:0", laws.FORMS),
    "nu0": Option("gauss:2,1", laws.FORMS),
    "noise-floor": Option(-1.0, "negative: the bootstrap floor of the mu0 run"),
    "allowance": Option(-1.0, "negative: the bootstrap floor of the mu0 run"),
    "radius": Option(1.0),
    "t": Option(1.0),
    "x-grid": Option(""),
    "lag": Option(1.0),
}
_MODEL = "preset r m-ball d-bound epsilon"  # the SMVESpec
_BINNING = "bins bin-lo bin-hi"


def _smve_table(*names: str, **defaults) -> dict:
    """The smve options named in ``names`` (space-separated), in order;
    ``defaults`` overrides some of their defaults for one action."""
    return {k: _SMVE[k]._replace(default=defaults.get(k, _SMVE[k].default))
            for k in " ".join(names).split()}


# Every option of every command, declared once in _SMVE or here: in
# this order they become the command's flags and the keys of
# resolved_config.json; an smve action's table holds the keys of its own.
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
        "simulate": _smve_table(_MODEL, "n h horizon times seed mu0"),
        "decay": _smve_table(_MODEL, "n h horizon times seed", _BINNING,
                             "mu0 nu0 noise-floor"),
        "girsanov-check": _smve_table(_MODEL, "n h times seed", _BINNING,
                                      "mu0 nu0 allowance",
                                      nu0="mix:0,2,0.9"),  # TV 0.2 from point:0
        "local-alpha": _smve_table("preset r m-ball h seed", _BINNING,
                                   "radius t x-grid"),
        "lyapunov": _smve_table(_MODEL, "n h horizon seed nu0 lag"),
    },
}


def _resolve(args) -> dict:
    """The options of the command, or of its smve action: defaults,
    overridden by --config file entries, overridden by flags given on
    the command line.  A flag or config field outside that table is
    refused.  A config value must have its option's type (a float
    field also takes an int; a bool is never a number) and be one of
    its choices; it is kept as given, not coerced.  No float option
    may be NaN or infinite."""
    options, name, config = OPTIONS[args.command], args.command, {}
    if args.command == "smve":
        options, name = options[args.action], f"smve {args.action}"
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
            raise ValueError(f"unknown config field {k!r} for {name}")
        kind, choices = type(options[k].default), options[k].choices
        if kind in (int, float) and type(v) not in (int, kind):
            raise ValueError(
                f"config field {k!r} must be {kind.__name__}, got {v!r}")
        if choices and v not in choices:
            raise ValueError(f"config field {k!r} must be one of "
                             f"{', '.join(map(str, choices))}; got {v!r}")
    resolved = {k: option.default for k, option in options.items()}
    resolved.update(config)
    for k in _SMVE if args.command == "smve" else options:
        v = getattr(args, k.replace("-", "_"))
        if v is not None and k not in options:
            raise ValueError(f"unknown option --{k} for {name}")
        if v is not None:
            resolved[k] = v
    for k, v in resolved.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"--{k} must be finite, got {v}")
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


# ---------------------------------------------------------------------------
# budgets


class Budget(NamedTuple):
    """A row of BUDGETS: ``_check`` refuses a run that needs more than
    ``limit`` ``unit``.  An item costs ``cost`` units; a pair (a, b)
    costs a + b k, at k states, start laws or particles."""

    limit: int
    unit: str
    cost: float | tuple


# Every size and work limit of the CLI.  A bytes row counts the arrays a
# run holds at once: 1 GiB of them.
BUDGETS = {
    # the (G, n, n) float64 stack of kernel matrices that validation and
    # both sweeps hold, 8 bytes an entry
    "kernel-stack": Budget(2**30, "bytes", 8),
    # the lambda sweep's n^2 entries for each of its C(R + n - 2, n - 1)
    # n (n - 1) / 2 neighbour pairs, 2.3-3.5 ns an entry in L2-sized tiles
    # (2-CPU x86 host: R = 1 at n = 100-299, n = 50 at R = 2-3); whole
    # no-invariant runs near the limit took 10.6-10.8 s (--truncation 299)
    # and 12.5-12.6 s (--resolution 3)
    "sweep": Budget(4 * 10**9, "pair-entries", 1),
    # 25 + 10 n floats a step for n states: the orbit row, Python floats and
    # the CSV lines (tracemalloc over 10^5 steps measured 340, 462, 730 and
    # 1,596 bytes at n = 2, 5, 10, 20)
    "chain-step": Budget(2**30, "bytes", (200, 80)),
    # a chain step, replay step or no-invariant entry takes at most 15 us
    # (2x10^6 chain steps at 2 states: 28 s on a 2-CPU x86 host) and 21
    # floats (tracemalloc: 96 or 136 bytes a replay step, 166 an entry)
    "rows": Budget(2 * 10**6, "rows", 1),
    # a particle or a bin (and the overflow cell), in each array held at once
    "particles": Budget(2**30, "bytes", 8),
    "bins": Budget(2**30, "bytes", 8),
    # an Euler step of n particles costs n + 1000 particle-steps, its own
    # overhead about 1,000 (2-CPU x86 host: 30-36 us a step at n = 100, 28 ns
    # a particle-step at n = 10^4 and 37 at 10^5), so the largest admitted
    # run takes about an hour at any n
    "particle-steps": Budget(10**11, "particle-steps", (1000, 1)),
    # a node, in each start law and 8 more grid-sized arrays of a propagation
    "grid-nodes": Budget(2**30, "bytes", (64, 8)),
    # nodes times taps over the steps and laws at dx (2 dx adds a quarter):
    # 1.6 x 10^8 at the defaults, 5 laws, 100 steps, 1,961 nodes, 161 taps
    "cell-taps": Budget(10**11, "cell-taps", 1),
    # a lag's snapshot time, listed, planned, observed and fitted (tracemalloc
    # measured 201 bytes a lag between 5,000 and 25,000 lags at n = 100)
    "snapshot-times": Budget(2**30, "bytes", 208),
}


def _check(what: str, needs: dict, c: dict | None = None, key: str = "") -> None:
    """Refuse a run that needs more of a row of BUDGETS than its limit;
    ``needs`` maps rows to the run's need, and ``what`` names the options
    that set it with their --.  If one option c[key] sets it, each need is
    a nondecreasing function of its value, and the largest positive value
    that fits every row is named, or that none does."""
    def over(v) -> list:
        return [row for row, need in needs.items()
                if (need(v) if key else need) > BUDGETS[row].limit]

    value, fits = c[key] if key else None, ""
    if not over(value):
        return
    if key:
        lo, hi = 0, value
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (lo, mid - 1) if over(mid) else (mid, hi)
        value, fits = lo + 1, (f"; the largest --{key} that fits is {lo}" if lo
                               else f"; no --{key} fits")
    budget = BUDGETS[row := over(value)[0]]
    need = needs[row](c[key]) if key else needs[row]
    if isinstance(need, int) and need.bit_length() > 14_000:  # past int's 4,300 digits
        from decimal import Decimal
        need = Decimal(need)
    limit = (f"{budget.limit >> 30} GiB" if budget.unit == "bytes"
             else f"{budget.limit:g} {budget.unit}")
    raise ValueError(f"{what} needs {need if isinstance(need, int) else f'{need:.6g}'} "
                     f"{budget.unit}, over the budget of {limit}{fits}")


# ---------------------------------------------------------------------------
# chain


def _check_kernel(c: dict) -> None:
    """Refuse out-of-range options of the stock kernel c["kernel"], named
    with their --, before it is built; its constructor checks them too."""
    kind = c["kernel"]
    if kind == "oscillating" and not 0.0 < c["gamma"] < 1.0:
        raise ValueError(f"--gamma must lie in (0, 1), got {c['gamma']:g}")
    if kind == "mixture" and not 0.0 <= c["mix-lam"] <= 1.0:
        raise ValueError(f"--mix-lam must lie in [0, 1], got {c['mix-lam']:g}")
    if kind in ("continuum", "no-invariant"):
        check_alpha_lam(c)
    if kind == "no-invariant" and c["truncation"] < 3:
        raise ValueError(f"--truncation must be at least 3, got {c['truncation']}")


def _run_chain(args, resolved: dict) -> int:
    _positive(resolved, "steps")
    if resolved["resolution"] < 0:
        raise ValueError(f"--resolution must be positive, or 0 for the default, got "
                         f"{resolved['resolution']}")

    # The report names a kernel file by its basename and the sha256 of
    # its bytes, so it does not depend on where the file lives;
    # resolved_config.json keeps the path as given.
    provenance = None
    if resolved["kernel"] != "custom":
        _check_kernel(resolved)
        kernel = _KERNELS[resolved["kernel"]](resolved)
    elif not resolved["kernel-file"]:
        raise ValueError("kernel custom requires --kernel-file")
    else:
        import hashlib

        from .kernel_spec import compile_kernel_spec

        path = Path(resolved["kernel-file"])
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read kernel file: {exc}")
        provenance = {"name": path.name, "sha256": hashlib.sha256(raw).hexdigest()}
        kernel = compile_kernel_spec(raw.decode("utf-8"))

    n = kernel.space_size
    (a, b), stack = BUDGETS["chain-step"].cost, BUDGETS["kernel-stack"].cost
    if resolved["kernel"] == "no-invariant":  # its coarsest grid holds n^3 entries
        _check(f"--truncation {n} at --resolution 1",
               {"kernel-stack": lambda v: stack * v**3,
                "sweep": lambda v: v**3 * (v - 1) // 2}, resolved, "truncation")
    _check(f"--steps {resolved['steps']} at {n} states",
           {"chain-step": lambda v: (a + b * n) * v, "rows": lambda v: v},
           resolved, "steps")
    resolved["resolution"] = resolved["resolution"] or default_resolution(n)
    source = f" of --kernel-file {resolved['kernel-file']}" if provenance else ""
    _check(f"--resolution {resolved['resolution']} at {n} states{source}",
           {"kernel-stack": lambda v: stack * n * n * math.comb(v + n - 1, n - 1),
            "sweep": lambda v: n**3 * (n - 1) // 2 * math.comb(v + n - 2, n - 1)},
           resolved, "resolution")
    grid = MeasureGrid(n, resolved["resolution"])
    # A custom kernel is validated here only, on the chain's own grid, and
    # its failure is a usage error.  A stock kernel's failure, like a row
    # fault met along an orbit later on, is a numerical failure.
    try:
        validation = validate(kernel, grid)
    except KernelValidationError as exc:
        if resolved["kernel"] == "custom":
            raise ValueError(str(exc)) from None
        raise KernelValidationError(f"kernel validation failed: {exc}") from None
    if not resolved["mu0"]:
        mu0 = DiscreteMeasure.uniform(n)
    else:
        weights = np.array(laws.floats(resolved["mu0"], "--mu0"))
        try:
            mu0 = DiscreteMeasure(weights)
        except ValueError as exc:
            raise ValueError(f"--mu0: {exc}")
    if mu0.size != n:
        raise ValueError(f"--mu0 has {mu0.size} weights for the kernel's {n} states")
    out = _begin(args, "chain", resolved)

    cert = certify(kernel, grid)

    # The rate check steps the orbit once and hands its trajectory back.
    # The trajectory is written first: a failure of the rate check is
    # raised after it, unless stepping the trajectory itself fails first.
    rate = failure = None
    if cert.regime in ("fast", "slow"):
        try:
            rate = check_rate(kernel, cert, mu0, resolved["steps"])
        except ValueError as exc:
            failure = exc
    traj = rate.trajectory if rate is not None else None
    if traj is None:
        traj = evolve(kernel, mu0, resolved["steps"])
    write_csv(out / "trajectory.csv", ["n", *[f"p{i + 1}" for i in range(n)], "step_tv"],
              traj.csv_rows(), "trajectory")
    if failure is not None:
        raise failure

    claims = [Claim("kernel rows are stochastic on the grid", True, validation)]
    details = {"certificate": cert}
    if rate is not None:
        write_csv(out / "rate.csv", ["n", "measured", "bound", "margin"],
                  rate.csv_rows(), "rate-report")
        write_json_report(out / "rate_report.json", rate)
        claims.append(Claim("measured distances stay within the certified bound",
                            rate.passed, {"violations": len(rate.violations),
                                          "falsified": rate.falsified}))
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
    check_replay(kind, resolved)
    key = "n-max" if kind == "no-invariant" else "steps"
    _check(f"--{key} {resolved[key]}", {"rows": lambda v: v}, resolved, key)
    out = _begin(args, f"counterexample/{kind}", resolved)
    report = _REPLAYS[kind](resolved)
    status = "reproduced" if report.passed else "FALSIFIED"
    doc = report_document(f"counterexample/{kind}", report.parameters, report.claims,
                          report.details)
    return _finish(out, doc, f"counterexample {kind}: {status} -> {out}")


# ---------------------------------------------------------------------------
# smve


def _run_smve(args, c: dict) -> int:
    """Run the smve action.  The particle half (mckean_vlasov, diagnostics
    and, through them, numpy.random) is imported by the functions below
    when they run, so a chain or counterexample run never loads it."""
    _positive(c, "h")
    return _SMVE_RUNNERS[args.action](args, c)


def _on_grid(c: dict, key: str, value: float) -> None:
    """Refuse ``value`` of option ``key`` unless it is a whole number of
    --h steps, since a run's steps and snapshots fall on that grid."""
    steps = value / c["h"]
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * abs(steps):
        raise ValueError(f"--{key} {value:g} is not a whole number of --h {c['h']:g} steps")


def _positive(c: dict, *keys: str) -> None:
    """Refuse each option of ``keys`` that is not positive."""
    for key in keys:
        if not c[key] > 0:
            raise ValueError(f"--{key} must be positive, got {c[key]:g}")


def _times(c: dict, default: list) -> list:
    """The snapshot times of --times, each on the step grid and within
    [0, --horizon] (or nonnegative, without --horizon), or ``default``.
    An action whose floor option (--noise-floor or --allowance) is
    negative bootstraps it from a snapshot at a positive time, so its
    --times need one; the defaults have one unless --horizon, checked
    later, is not positive."""
    times = laws.floats(c["times"], "--times")
    last = c["horizon"] / c["h"] if "horizon" in c else math.inf
    for t in times:
        _on_grid(c, "times", t)
        if not 0 <= round(t / c["h"]) <= last + 0.5:
            raise ValueError(f"--times {t:g} lies outside [0, --horizon {c['horizon']:g}]"
                             if "horizon" in c else f"--times {t:g} is negative")
    for floor in ("noise-floor", "allowance"):
        if c.get(floor, 0) < 0 and times and not max(times) > 0:
            raise ValueError(f"--times needs a positive time for the bootstrap floor of a "
                             f"negative --{floor}")
    return times or default


def _spec(c: dict, horizon: float, times, runs: int = 1, extra: int = 0):
    """The model options' particle system and its runs' snapshot count,
    once they, --horizon and n are checked.  n is budgeted by the
    particle arrays the action holds at once in this process: x, and
    ``extra`` temporaries of its observer; forked workers hold an x
    each.  The ``runs`` runs' particle-steps are budgeted too."""
    from .mckean_vlasov import _plan, make_ou_spec, make_vh_spec

    if c["n"] < 100:
        raise ValueError(f"--n must be at least 100, got {c['n']}")
    if c["epsilon"] < 0:
        raise ValueError(f"--epsilon must be nonnegative, got {c['epsilon']:g}")
    if c["preset"] == "vh":
        _positive(c, "r", "m-ball", "d-bound")
    if "horizon" in c:
        _on_grid(c, "horizon", horizon)
        if horizon < c["h"]:
            raise ValueError(f"--horizon {horizon:g} must cover at least one --h "
                             f"{c['h']:g} step")
    n_steps, snaps = _plan(c["n"], float(c["h"]), horizon, times)
    _check(f"{1 + extra} array{'s' * bool(extra)} of --n {c['n']} particles",
           {"particles": lambda v: BUDGETS["particles"].cost * (1 + extra) * v}, c, "n")
    a, b = BUDGETS["particle-steps"].cost
    _check(f"{runs} run{'s' * (runs > 1)} of --n {c['n']} particles to "
           f"--{'horizon' if 'horizon' in c else 'times'} {horizon:g} at --h {c['h']:g}",
           {"particle-steps": runs * (a + b * c["n"]) * float(n_steps)})
    return make_ou_spec() if c["preset"] == "ou" else make_vh_spec(
        r=c["r"], M=c["m-ball"], D=c["d-bound"], epsilon=c["epsilon"]), len(snaps)


def _smve_simulate(args, c: dict) -> int:
    from .mckean_vlasov import simulate

    def moments(x):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            return float(x.mean()), float(x.var(ddof=1)), float(x.min()), float(x.max())

    mu, horizon = laws.parse(c["mu0"], "--mu0"), float(c["horizon"])
    times = _times(c, [0.0, horizon])
    spec, _ = _spec(c, horizon, times, extra=1)  # the variance's temporary
    out = _begin(args, "smve/simulate", c)
    snaps = simulate(spec, mu, c["n"], float(c["h"]), horizon, c["seed"], times,
                     observe=moments)
    for t, m in snaps:
        if not all(map(math.isfinite, m)):
            raise NumericalFailure(f"{spec.label}: the mean or variance at t = {t:g} is "
                                   f"past the float range")
    write_csv(out / "snapshots.csv", ["time", "mean", "variance", "min", "max"],
              [(t, *m) for t, m in snaps], "snapshots")
    doc = report_document("smve/simulate", c,
                          [Claim("run completed without blow-up", True,
                                 {"snapshots": len(snaps)})])
    return _finish(out, doc, f"simulated {c['n']} particles to t={horizon:g} -> {out}")


def _binning(c: dict, held: int):
    """The action's binning, its ``held`` arrays of --bins + 1 floats budgeted.
    A pair of runs of s snapshots holds 3 s + 1: both runs' masses, a
    third run's worth while the second is unpickled from a worker, and a
    temporary of the distance or the bootstrap."""
    from .diagnostics import Binning

    _positive(c, "bins")
    if not c["bin-lo"] < c["bin-hi"]:
        raise ValueError(f"--bin-lo {c['bin-lo']:g} must lie below --bin-hi "
                         f"{c['bin-hi']:g}")
    _check(f"{held} histogram arrays of --bins {c['bins']} + 1 floats",
           {"bins": lambda v: BUDGETS["bins"].cost * held * (v + 1)}, c, "bins")
    return Binning(c["bin-lo"], c["bin-hi"], c["bins"])


def _smve_decay(args, c: dict) -> int:
    from .diagnostics import DecayFitError, bootstrap_floor, fit_decay
    from .mckean_vlasov import simulate_runs

    mu, nu = laws.parse(c["mu0"], "--mu0"), laws.parse(c["nu0"], "--nu0")
    horizon = float(c["horizon"])
    times = _times(c, np.linspace(0.0, horizon, 21).tolist())
    spec, snaps = _spec(c, horizon, times, runs=2)
    binning = _binning(c, 3 * snaps + 1)
    out = _begin(args, "smve/decay", c)
    run_a, run_b = simulate_runs(spec, [(mu, c["seed"]), (nu, c["seed"] + 1)],
                                 c["n"], float(c["h"]), horizon, times,
                                 observe=binning.masses)
    floor = c["noise-floor"]
    if floor < 0:
        floor = bootstrap_floor(run_a, c["n"], c["seed"])
    try:
        fit = fit_decay(run_a, run_b, floor)
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
                          {"fit": fit, "noise_floor": floor})
    return _finish(out, doc, f"theta = {fit.theta:.6g} [{fit.theta_lower:.6g}, "
                             f"{fit.theta_upper:.6g}] -> {out}")


def _smve_girsanov_check(args, c: dict) -> int:
    from .diagnostics import girsanov_bound_check, girsanov_rate

    mu, nu = laws.parse(c["mu0"], "--mu0"), laws.parse(c["nu0"], "--nu0")
    times = _times(c, [0.5, 1.0, 2.0])
    _on_grid(c, "times", max(times))  # the default times too: the run's last step
    spec, snaps = _spec(c, max(*times, c["h"]), times, runs=2)
    t = max(times)
    # the bound's largest exponent, as girsanov_bound_check computes it
    if not girsanov_rate(spec.epsilon, spec.lipschitz_L) * t <= math.log(sys.float_info.max):
        raise ValueError(f"--epsilon {c['epsilon']:g}, --d-bound {c['d-bound']:g} and --times "
                         f"up to {t:g} put exp(4 eps^2 D^2 t) past the float range")
    binning, tv0 = _binning(c, 3 * snaps + 1), laws.tv(mu, nu)
    out = _begin(args, "smve/girsanov-check", c)
    report = girsanov_bound_check(spec, mu, nu, tv0, times, c["n"], float(c["h"]),
                                  c["seed"], binning,
                                  None if c["allowance"] < 0 else c["allowance"])
    write_csv(out / "girsanov.csv", ["time", "estimate", "bound", "margin"],
              report.csv_rows(), "girsanov-check")
    doc = report_document(
        "smve/girsanov-check", c,
        [Claim("coupled runs stay within the coupling bound",
               report.passed,
               {"violations": report.violations,
                "allowance": report.allowance})],
        {"report": report})
    return _finish(out, doc,
                   f"girsanov check: {'ok' if report.passed else 'VIOLATED'} -> {out}")


def _smve_local_alpha(args, c: dict) -> int:
    """The overlap of the start laws, computed on a grid: --seed is
    recorded but unused, since nothing is sampled."""
    from .diagnostics import LOCAL_ALPHA_STARTS, estimate_local_alpha, euler_grid
    from .mckean_vlasov import ou_drift, radial_confinement_drift

    b1 = ou_drift()
    if c["preset"] == "vh":
        _positive(c, "r", "m-ball")
        b1 = radial_confinement_drift(c["r"], c["m-ball"])
    _positive(c, "radius", "t")
    x_grid = np.array(laws.floats(c["x-grid"], "--x-grid")) if c["x-grid"] else None
    starts = LOCAL_ALPHA_STARTS if x_grid is None else len(x_grid)
    if starts < 2 or x_grid is not None and np.any(np.abs(x_grid) > c["radius"] + 1e-12):
        raise ValueError(f"--x-grid needs two or more starts in the --radius "
                         f"{c['radius']:g} ball, got {c['x-grid']!r}")
    _on_grid(c, "t", c["t"])
    binning = _binning(c, starts + 1)
    reach = c["radius"] if x_grid is None else float(np.max(np.abs(x_grid)))
    _, half, taps = euler_grid(reach, c["t"], c["h"])
    nodes, steps, (a, b) = 2 * half + 1, round(c["t"] / c["h"]), BUDGETS["grid-nodes"].cost
    _check(f"a grid of {nodes:.6g} nodes and {taps} taps for {starts} laws through "
           f"{steps:.6g} steps at --radius {c['radius']:g}, --t {c['t']:g} and --h "
           f"{c['h']:g}", {"grid-nodes": (a + b * starts) * nodes,
                           "cell-taps": starts * steps * nodes * taps})
    out = _begin(args, "smve/local-alpha", c)
    overlap = estimate_local_alpha(b1, c["radius"], c["t"], binning, x_grid,
                                   step_size=float(c["h"]))
    doc = report_document("smve/local-alpha", c, [
        Claim("local overlap estimate is positive", overlap.alpha_hat > 0, overlap)])
    return _finish(out, doc, f"alpha_hat({c['radius']:g}, {c['t']:g}) "
                             f"= {overlap.alpha_hat:.6g} (grid tolerance "
                             f"{overlap.grid_tolerance:.2g}) -> {out}")


def _smve_lyapunov(args, c: dict) -> int:
    from .diagnostics import lyapunov_diagnostic, mean_weight
    from .mckean_vlasov import WeightFunction, simulate

    nu, horizon, lag = laws.parse(c["nu0"], "--nu0"), float(c["horizon"]), float(c["lag"])
    _positive(c, "lag")
    lags = horizon / lag
    if lags < 2:
        raise ValueError(f"--horizon {horizon:g} must cover at least two --lag {lag:g} "
                         f"lags")
    # the snapshot times are listed before any other check
    _check(f"a list of {lags + 1:.6g} snapshot times for --horizon {horizon:g} at "
           f"--lag {lag:g}",
           {"snapshot-times": BUDGETS["snapshot-times"].cost * (lags + 1)})
    _on_grid(c, "lag", lag)  # the snapshots one lag apart fall on steps one lag apart
    times = [k * lag for k in range(int(lags) + 1)]
    spec, _ = _spec(c, horizon, times, extra=1)  # the weights of a snapshot
    _positive(c, "r", "m-ball")
    V = WeightFunction(c["r"], c["m-ball"])
    if V.kappa * V.M > math.log(sys.float_info.max):
        raise ValueError(f"--m-ball {c['m-ball']:g} puts exp(kappa M) past the float range")
    out = _begin(args, "smve/lyapunov", c)
    snaps = simulate(spec, nu, c["n"], float(c["h"]), horizon, c["seed"], times,
                     observe=lambda x: mean_weight(V, x))
    fit = lyapunov_diagnostic(snaps, V, lag)
    ok = fit.degenerate or (fit.gamma_hat < 1.0)
    doc = report_document("smve/lyapunov", c,
                          [Claim("mean weight contracts per lag", ok, fit)])
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
        for name, option in (_SMVE if command == "smve" else OPTIONS[command]).items():
            p.add_argument(f"--{name}", type=type(option.default),
                           choices=option.choices, help=option.help)
        p.set_defaults(run=run)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, _resolve(args))
    except (ValueError, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a ValueError is a usage error, but a kernel's non-stochastic row
        # is a numerical failure, as is a particle run's blow-up or
        # exceeded interaction bound
        usage = isinstance(exc, ValueError) and not isinstance(exc, KernelValidationError)
        return 2 if usage else 3


if __name__ == "__main__":
    sys.exit(main())
