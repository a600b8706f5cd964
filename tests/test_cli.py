"""End-to-end tests of the command line front end: exit codes, output
files, config precedence, and byte-identical reruns."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlmarkov
from nlmarkov import cli, ergodicity, kernels, laws, mckean_vlasov
from nlmarkov.cli import main
from nlmarkov.measures import weighted_tv_distance
from nlmarkov.mckean_vlasov import DriftBoundError


def read_json(path):
    return json.loads(path.read_text())


def step_calls(monkeypatch):
    """Count ergodicity._step calls: the chain steps its orbits there."""
    calls, step = [0], ergodicity._step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(ergodicity, "_step", counted)
    return calls


class TestChain:
    def test_default_run_writes_certificate_and_rate_files(self, tmp_path):
        out = tmp_path / "run"
        assert main(["chain", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"resolved_config.json", "trajectory.csv",
                         "report.json", "rate.csv", "rate_report.json"}
        rep = read_json(out / "report.json")
        assert rep["kind"] == "chain" and rep["passed"]
        assert rep["details"]["certificate"]["regime"] == "fast"
        cfg = read_json(out / "resolved_config.json")
        assert cfg["kernel"] == "markov-example"
        assert cfg["resolution"] > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["chain", "--kernel", "mixture", "--mix-lam", "0.2", "--steps", "50"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name

    def test_uncertified_kernel_skips_rate_check(self, tmp_path):
        out = tmp_path / "osc"
        assert main(["chain", "--kernel", "oscillating", "--gamma", "0.4",
                     "--steps", "20", "--out", str(out)]) == 0
        assert not (out / "rate.csv").exists()
        rep = read_json(out / "report.json")
        assert rep["details"]["certificate"]["regime"] == "uncertified"

    def test_custom_kernel_file(self, tmp_path):
        kernel = {
            "space_size": 2,
            "entries": [["0.7", "0.3"], ["0.4", "0.6"]],
        }
        kfile = tmp_path / "kernel.json"
        kfile.write_text(json.dumps(kernel))
        out = tmp_path / "run"
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--steps", "20", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["details"]["certificate"]["regime"] == "fast"

    @pytest.mark.parametrize(
        "entry",
        ["nu(1e400)", "(" * 2000 + "0.5" + ")" * 2000, "-" * 3000 + "0.5"],
        ids=["index-overflow", "deep-parentheses", "deep-unary-minus"],
    )
    def test_malformed_kernel_entry_is_usage_error(self, tmp_path, capsys, entry):
        kfile = tmp_path / "kernel.json"
        kfile.write_text(json.dumps(
            {"space_size": 2, "entries": [[entry, "0.5"], ["0.5", "0.5"]]}))
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_kernel_file_is_named_by_basename_and_digest(self, tmp_path):
        # the same spec read from two directories gives the same report
        text = json.dumps({"space_size": 2, "entries": [["0.7", "0.3"], ["0.4", "0.6"]]})
        reports = []
        for place in ("one", "two/deeper"):
            kfile = tmp_path / place / "kernel.json"
            kfile.parent.mkdir(parents=True)
            kfile.write_text(text)
            out = tmp_path / place / "run"
            assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                         "--steps", "20", "--out", str(out)]) == 0
            assert read_json(out / "resolved_config.json")["kernel-file"] == str(kfile)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["parameters"]["kernel-file"] == {
            "name": "kernel.json",
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    def test_unreadable_kernel_file_is_usage_error(self, tmp_path, capsys):
        for path in (tmp_path / "nosuch.json", tmp_path):
            assert main(["chain", "--kernel", "custom", "--kernel-file", str(path),
                         "--out", str(tmp_path / "run")]) == 2
            err = capsys.readouterr().err
            assert "cannot read kernel file" in err and str(path) in err

    def test_custom_without_file_is_usage_error(self, tmp_path):
        assert main(["chain", "--kernel", "custom",
                     "--out", str(tmp_path / "x")]) == 2

    def test_mu0_length_mismatch_is_usage_error(self, tmp_path):
        assert main(["chain", "--mu0", "0.2,0.3,0.5",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["--mu0=1e308,1e308"],
        ["--kernel", "mixture", "--space", "5", "--mu0=1e308,1e308,0,0,0"],
    ])
    def test_mu0_that_sums_past_the_float_range_is_named_without_a_warning(
            self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["chain", *argv, "--out", str(tmp_path / "x")])
        assert code == 2 and not (tmp_path / "x").exists()
        assert capsys.readouterr().err == (
            "error: --mu0: weights sum to inf, not 1 within 1e-12\n")
        assert caught == []

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 50, "kernel": "markov-example",
                                   "gamma": 1}))
        out = tmp_path / "run"
        assert main(["chain", "--config", str(cfg), "--steps", "10",
                     "--out", str(out)]) == 0
        resolved = read_json(out / "resolved_config.json")
        assert resolved["steps"] == 10  # flag beats config
        assert resolved["kernel"] == "markov-example"
        # a float field takes an int, recorded as given, not coerced
        assert type(resolved["gamma"]) is int

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        # "workers" selected a thread pool that no longer exists
        for field in ("no_such_field", "workers"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({field: 1}))
            assert main(["chain", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2
            assert f"unknown config field {field!r}" in capsys.readouterr().err

    def test_config_values_must_match_field_types(self, tmp_path, capsys):
        # a string or a bool is not an int; nothing is coerced or written
        for value in ("200", True, 200.0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"steps": value}))
            out = tmp_path / "x"
            assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 2
            assert "config field 'steps' must be int" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        (["chain"], "kernel", "bogus"),
        (["chain"], "space", 3),
        (["smve", "simulate"], "preset", "bogus"),
    ])
    def test_config_values_must_be_among_choices(self, tmp_path, capsys,
                                                 command, field, value):
        # checked with the types, before the output directory is made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "x"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config field {field!r} must be one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        (["smve", "simulate"], "r", 10**400),
        (["smve", "local-alpha"], "t", 10**400),
        (["smve", "decay"], "epsilon", -10**400),
    ], ids=["simulate-r", "local-alpha-t", "decay-epsilon"])
    def test_config_ints_past_the_float_range_are_refused(self, tmp_path, capsys,
                                                          command, field, value):
        # a float field keeps an int as given: r / m-ball and t ended in an
        # OverflowError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "x"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --{field} must be finite, got {value}\n"
        assert not out.exists()

    def test_custom_kernel_is_validated_once_on_the_chain_grid(self, tmp_path,
                                                                monkeypatch):
        calls, validate = [], kernels.validate

        def counted(kernel, grid=None):
            calls.append(grid)
            return validate(kernel, grid)

        for module in (kernels, cli):
            monkeypatch.setattr(module, "validate", counted)
        kfile = tmp_path / "kernel.json"
        kfile.write_text(json.dumps(
            {"space_size": 2, "entries": [["0.7", "0.3"], ["0.4", "0.6"]]}))
        out = tmp_path / "run"
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--resolution", "7", "--steps", "5", "--out", str(out)]) == 0
        assert [grid.resolution for grid in calls] == [7]
        witness = read_json(out / "report.json")["claims"][0]["witness"]
        assert witness["grid_points"] == 8

    def test_grid_over_memory_budget_is_refused(self, tmp_path, capsys):
        # G = C(53, 49) = 292,825 measures: a (G, 50, 50) stack of 5.9 GB
        out = tmp_path / "x"
        assert main(["chain", "--kernel", "no-invariant", "--resolution", "4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --resolution 4 at 50 states needs 5856500000 bytes, over "
                       "the budget of 1 GiB; the largest --resolution that fits is 3\n")
        assert not out.exists()

    def test_bad_kernel_choice_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["chain", "--kernel", "bogus", "--out", str(tmp_path / "x")])

    def test_nonpositive_steps_rejected(self, tmp_path):
        assert main(["chain", "--steps", "0", "--out", str(tmp_path / "x")]) == 2

    # Q = [[0.7, 0.3], [0.4, 0.6]] with a bump on entry (1, 1) that only
    # the orbit from the uniform law meets, at its fourth iterate, between
    # grid points: the kernel validates and certifies fast.
    BUMP = {"space_size": 2, "label": "bump", "entries": [
        ["0.7 + max(0, 0.001 - max(nu(1) - 0.571, 0.571 - nu(1)))", "0.3"],
        ["0.4", "0.6"]]}

    # Each run steps its one orbit up to the failing step 5 and no further.
    @pytest.mark.parametrize("steps, step, trajectory_written, stepped", [
        (200, 5, False, 5),  # the trajectory fails first
        (3, 5, True, 5),     # it is written; the fixed-point search fails next
    ])
    def test_first_failure_of_a_chain_run(self, tmp_path, capsys, monkeypatch, steps,
                                          step, trajectory_written, stepped):
        calls = step_calls(monkeypatch)
        kfile = tmp_path / "bump.json"
        kfile.write_text(json.dumps(self.BUMP))
        out = tmp_path / "run"
        # a row fault met along an orbit is a numerical failure
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--steps", str(steps), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: bump: non-stochastic rows at step {step}\n"
        assert (out / "trajectory.csv").exists() == trajectory_written
        assert not (out / "report.json").exists()
        assert calls[0] == stepped

    # Rows within the row check's 1e-10 of stochastic pass validation and
    # every step, but the orbit's mass drifts by 5e-11 a step, past the
    # iterate check's MASS_TOL * (n + 1).
    @pytest.mark.parametrize("entries, iterate, fault", [
        ([["0.50000000005", "0.5"], ["0.5", "0.50000000005"]], 1,
         "weights sum to 1.00000000005, not 1 within 2e-12"),
        ([["1.00000000005", "0-0.00000000005"], ["0.5", "0.5"]], 33,
         "weights must be nonnegative"),
    ], ids=["drift", "negative"])
    def test_an_iterate_off_the_simplex_exits_3_naming_it(self, tmp_path, capsys,
                                                          entries, iterate, fault):
        kfile = tmp_path / "drift.json"
        kfile.write_text(json.dumps({"space_size": 2, "entries": entries}))
        out = tmp_path / "run"
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: custom: iterate {iterate} left the simplex: {fault}\n")
        assert not (out / "report.json").exists()

    def test_an_orbit_off_the_simplex_at_its_first_iterate_takes_one_step(
            self, tmp_path, capsys, monkeypatch):
        # the trajectory fails at its first iterate, before any fixed-point
        # search: not 10^5 steps
        calls = step_calls(monkeypatch)
        kfile = tmp_path / "drift.json"
        kfile.write_text(json.dumps(
            {"space_size": 2, "entries": [["0.50000000005", "0.5"], ["0.5", "0.50000000005"]]}))
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == (
            "error: custom: iterate 1 left the simplex: weights sum to 1.00000000005, "
            "not 1 within 2e-12\n")
        assert calls[0] == 1

    def test_stock_kernel_that_fails_validation_exits_3(self, tmp_path, capsys,
                                                        monkeypatch):
        # no stock kernel's parameters reach a faulty row: stand one in
        faulty = kernels.NonlinearKernel(
            2, lambda w: np.full((len(w), 2, 2), 0.6), "faulty")
        monkeypatch.setitem(cli._KERNELS, "markov-example", lambda c: faulty)
        out = tmp_path / "run"
        assert main(["chain", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: kernel validation failed: faulty: row 0 sums to 1.2 at nu=[0.0, 1.0]\n")
        assert not out.exists()

    def test_custom_kernel_that_fails_validation_exits_2(self, tmp_path, capsys):
        kfile = tmp_path / "heavy.json"
        kfile.write_text(json.dumps(
            {"space_size": 2, "label": "heavy", "entries": [["0.7", "0.4"], ["0.4", "0.6"]]}))
        out = tmp_path / "run"
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: heavy: row 0 sums to 1.1")
        assert not out.exists()

    @pytest.mark.parametrize("entries, fault", [
        ([["1e308*10", "0-1e308*10"], ["0.5", "0.5"]], "negative entry in row 0"),
        ([["1e999-1e999", "0.5"], ["0.5", "0.5"]], "row 0 sums to nan"),
        ([["1e308", "1e308"], ["0.5", "0.5"]], "row 0 sums to inf"),
    ], ids=["overflow", "inf-minus-inf", "sum-overflow"])
    def test_custom_kernel_past_the_float_range_exits_2_without_a_warning(
            self, tmp_path, capsys, entries, fault):
        kfile = tmp_path / "huge.json"
        kfile.write_text(json.dumps({"space_size": 2, "entries": entries}))
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: custom: {fault} at nu=[0.0, 1.0]\n"
        assert not out.exists()


SPEC5 = Path(__file__).resolve().parents[1] / "bench" / "spec5.json"


@pytest.mark.parametrize("argv, most", [
    (["chain"], 40),
    (["chain", "--kernel", "mixture"], 50),
    (["chain", "--kernel", "custom", "--kernel-file", str(SPEC5)], 10),
    (["counterexample", "oscillation"], 10),
    (["counterexample", "continuum"], 20),
])
def test_each_orbit_is_stepped_once(tmp_path, monkeypatch, argv, most):
    # The trajectory, the fixed-point search and the rate check share one
    # orbit per start, which stops calling the kernel once it repeats.
    calls = [0]
    original = kernels.NonlinearKernel.matrix

    def counted(self, nu):
        calls[0] += np.ndim(nu) == 1
        return original(self, nu)

    monkeypatch.setattr(kernels.NonlinearKernel, "matrix", counted)
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    assert 0 < calls[0] <= most


class TestCounterexample:
    def test_oscillation_reproduces(self, tmp_path):
        out = tmp_path / "osc"
        assert main(["counterexample", "oscillation", "--gamma", "0.4",
                     "--a", "0.3", "--steps", "40", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["kind"] == "counterexample/oscillation"
        assert rep["passed"]

    def test_no_invariant_requires_alpha_below_lam(self, tmp_path):
        assert main(["counterexample", "no-invariant", "--alpha", "0.9",
                     "--lam", "0.2", "--out", str(tmp_path / "x")]) == 2

    def test_no_invariant_near_lam_one_reproduces(self, tmp_path):
        # each solved mass is a residue of about 1e-10 there, past
        # EXACT_TOL but within the rounding its claims now allow: it
        # exited 1, FALSIFIED
        out = tmp_path / "noinv"
        assert main(["counterexample", "no-invariant", "--alpha", "0.9",
                     "--lam", "0.999999", "--out", str(out)]) == 0
        claims = read_json(out / "report.json")["claims"]
        assert claims[2]["witness"]["worst_abs_solution"] > 1e-12
        assert all(c["witness"]["tolerance"] > 1e-12 for c in claims[2:])

    def test_continuum_runs(self, tmp_path):
        out = tmp_path / "cont"
        assert main(["counterexample", "continuum", "--alpha", "0.2",
                     "--lam", "0.8", "--out", str(out)]) == 0
        assert read_json(out / "report.json")["passed"]


# Each out-of-range replay parameter, with its message: each exited 2
# only after resolved_config.json, naming its parameter without the --.
BAD_REPLAYS = {
    "gamma": (["oscillation", "--gamma", "2"], "--gamma must lie in (0, 1), got 2"),
    "a": (["oscillation", "--a", "0"],
          "--a must lie in [gamma/2, 1 - gamma/2] = [0.25, 0.75], got 0"),
    "oscillation-steps": (["oscillation", "--steps", "1"],
                          "--steps must be at least 2, got 1"),
    "continuum-steps": (["continuum", "--steps=-1"], "--steps must be nonnegative, got -1"),
    "alpha": (["continuum", "--alpha", "0.9"],
              "--alpha and --lam need 0 < alpha < lam <= 1, got 0.9 and 0.8"),
    "lam": (["no-invariant", "--lam", "2"],
            "--alpha and --lam need 0 < alpha < lam <= 1, got 0.2 and 2"),
    "n-max": (["no-invariant", "--n-max", "1"], "--n-max must be at least 2, got 1"),
}


@pytest.mark.parametrize("case", BAD_REPLAYS)
def test_replay_parameters_are_named_before_any_output(tmp_path, capsys, case):
    argv, message = BAD_REPLAYS[case]
    out = tmp_path / "x"
    assert main(["counterexample", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Refusals the CLI fuzzer (tests/test_cli_fuzz.py) found naming their
# option without its --, or naming none: the bins and bin bounds, and
# the smve horizon that covers no step, in the library's words.  And a
# stock kernel's parameters, which its constructor named without their
# -- (mixture's "lam" is --mix-lam), and a --truncation whose coarsest
# grid is over the budget, which was blamed on --resolution (600) or
# --steps (10^30), each said to fit at 0; --truncation 512, whose grid
# fits, wrote resolved_config.json and then swept for minutes.  A need
# past int's 4,300 decimal digits failed to print, naming nothing.
UNNAMED = {
    "finite": (["chain", "--gamma", "nan"], "--gamma must be finite, got nan"),
    "chain-steps": (["chain", "--steps", "0"], "--steps must be positive, got 0"),
    "resolution": (["chain", "--resolution=-1"],
                   "--resolution must be positive, or 0 for the default, got -1"),
    "n": (["smve", "simulate", "--n", "0"], "--n must be at least 100, got 0"),
    "epsilon": (["smve", "decay", "--epsilon=-1"], "--epsilon must be nonnegative, got -1"),
    "horizon": (["smve", "simulate", "--horizon", "0"],
                "--horizon 0 must cover at least one --h 0.01 step"),
    "bins": (["smve", "local-alpha", "--bins", "0"], "--bins must be positive, got 0"),
    "bin-lo": (["smve", "girsanov-check", "--bin-lo", "1e30"],
               "--bin-lo 1e+30 must lie below --bin-hi 10"),
    "lags": (["smve", "lyapunov", "--lag", "1e30"],
             "--horizon 20 must cover at least two --lag 1e+30 lags"),
    "mix-lam": (["chain", "--kernel", "mixture", "--mix-lam", "2"],
                "--mix-lam must lie in [0, 1], got 2"),
    "gamma": (["chain", "--kernel", "oscillating", "--gamma", "2"],
              "--gamma must lie in (0, 1), got 2"),
    "truncation": (["chain", "--kernel", "no-invariant", "--truncation", "2"],
                   "--truncation must be at least 3, got 2"),
    "alpha-lam": (["chain", "--kernel", "continuum", "--alpha", "0.9"],
                  "--alpha and --lam need 0 < alpha < lam <= 1, got 0.9 and 0.8"),
    "truncation-grid": (["chain", "--kernel", "no-invariant", "--truncation", "512"],
                        "--truncation 512 at --resolution 1 needs 34292629504 pair-entries, "
                        "over the budget of 4e+09 pair-entries; the largest --truncation "
                        "that fits is 299"),
    "truncation-steps": (["chain", "--kernel", "no-invariant", "--truncation", str(10**30)],
                         f"--truncation {10**30} at --resolution 1 needs "
                         f"{10**90 * (10**30 - 1) // 2} pair-entries, over the budget of "
                         f"4e+09 pair-entries; the largest --truncation that fits is 299"),
    "need-digits": (["chain", "--kernel", "no-invariant", "--resolution", str(10**308)],
                    f"--resolution {10**308} at 50 states needs 3.28795e+15033 bytes, over "
                    f"the budget of 1 GiB; the largest --resolution that fits is 3"),
}


@pytest.mark.parametrize("case", UNNAMED)
def test_usage_errors_name_their_option(tmp_path, capsys, case):
    argv, message = UNNAMED[case]
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class _Began(Exception):
    pass


def _no_begin(*args):
    raise _Began


def _assert_largest_fits(capsys, monkeypatch, out, argv, key, fits):
    """A run whose --key is far past its budget is refused at once, naming
    ``fits`` as the largest --key that fits; one more exits 2 with one
    error line and no output directory, and ``fits`` itself reaches
    _begin."""
    start = time.perf_counter()
    assert main([*argv, f"--{key}", str(10**18), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.endswith(
        f"; the largest --{key} that fits is {fits}\n")
    assert main([*argv, f"--{key}", str(fits + 1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"--{key} " in err
    assert not out.exists()
    monkeypatch.setattr(cli, "_begin", _no_begin)
    with pytest.raises(_Began):
        main([*argv, f"--{key}", str(fits), "--out", str(out)])


# The nodes of local-alpha's grid at its defaults, euler_grid(1, 1, 0.01),
# on which its 5 laws take 100 steps of 161 taps
NODES = 2 * 980 + 1

# One run at the boundary of each row of cli.BUDGETS.  A keyed row gives
# the option it sizes and the largest value of it that fits, and may give
# a limit to set the row to, so that a run at the boundary stays small.
# The others give every option a refusal names, and what the run needs,
# to which the test sets the row's limit.
BOUNDARIES = {
    "kernel-stack": (["chain", "--kernel", "mixture"], "resolution", 10, 8 * 4 * 11),
    # 2 states: one neighbour pair of 4 entries at each of R grid measures
    "sweep": (["chain", "--kernel", "mixture"], "resolution", 10, 4 * 10),
    "chain-step": (["chain", "--kernel", "no-invariant"], "steps", 2**30 // 4200),
    "rows": (["counterexample", "no-invariant"], "n-max", 2 * 10**6),
    "particles": (["smve", "simulate", "--horizon", "0.01"], "n", 2**30 // 16),
    "bins": (["smve", "local-alpha"], "bins", 2**30 // 48 - 1),
    "particle-steps": (["smve", "simulate", "--n", "1000", "--horizon", "5e5"],
                       "--n --horizon --h", 10**11),
    "grid-nodes": (["smve", "local-alpha"], "--radius --t --h", 8 * 13 * NODES),
    "cell-taps": (["smve", "local-alpha"], "--radius --t --h", 5 * 100 * 161 * NODES),
    "snapshot-times": (["smve", "lyapunov", "--horizon", "2", "--lag", "1"],
                       "--horizon --lag", 208 * 3),
}


def test_every_budget_row_has_a_boundary_case():
    assert BOUNDARIES.keys() == cli.BUDGETS.keys()


@pytest.mark.parametrize("row", BOUNDARIES)
def test_budget_row_is_exact_at_its_boundary(tmp_path, capsys, monkeypatch, row):
    argv, key, need, *limit = BOUNDARIES[row]
    out = tmp_path / "x"
    if not key.startswith("--"):
        if limit:
            monkeypatch.setitem(cli.BUDGETS, row, cli.BUDGETS[row]._replace(limit=limit[0]))
        _assert_largest_fits(capsys, monkeypatch, out, argv, key, need)
        return
    monkeypatch.setitem(cli.BUDGETS, row, cli.BUDGETS[row]._replace(limit=need - 1))
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f" {cli.BUDGETS[row].unit}, over the budget of " in err
    assert all(f"{flag} " in err for flag in key.split())
    assert not out.exists()
    monkeypatch.setitem(cli.BUDGETS, row, cli.BUDGETS[row]._replace(limit=need))
    monkeypatch.setattr(cli, "_begin", _no_begin)
    with pytest.raises(_Began):
        main([*argv, "--out", str(out)])


# The rows each chain-side run steps and writes, and their largest count
# that fits: unbudgeted, the first three ended in an _ArrayMemoryError
# traceback after resolved_config.json, and the last ran on, quadratic in
# --n-max while the recursion rebuilt its profile at each n.
CHAIN_SIZES = {
    "chain": (["chain"], "steps", 2 * 10**6),
    "oscillation": (["counterexample", "oscillation"], "steps", 2 * 10**6),
    "continuum": (["counterexample", "continuum"], "steps", 2 * 10**6),
    "no-invariant": (["counterexample", "no-invariant"], "n-max", 2 * 10**6),
}


@pytest.mark.parametrize("run", CHAIN_SIZES)
def test_chain_side_sizes_over_their_budget_are_refused(tmp_path, capsys, monkeypatch,
                                                       run):
    _assert_largest_fits(capsys, monkeypatch, tmp_path / "x", *CHAIN_SIZES[run])


def test_truncation_budget_is_exact_at_its_boundary(tmp_path, capsys, monkeypatch):
    # 8,000 bytes hold the 10 point masses of 10 states
    monkeypatch.setitem(cli.BUDGETS, "kernel-stack",
                        cli.BUDGETS["kernel-stack"]._replace(limit=8 * 10**3))
    _assert_largest_fits(capsys, monkeypatch, tmp_path / "x",
                         ["chain", "--kernel", "no-invariant", "--resolution", "1"],
                         "truncation", 10)


def test_a_kernel_file_no_grid_fits_is_named(tmp_path, capsys, monkeypatch):
    # a stack of 3 point masses needs 216 bytes; the refusal said the
    # largest --resolution that fits is 0, which means the default, and
    # did not name the file
    monkeypatch.setitem(cli.BUDGETS, "kernel-stack",
                        cli.BUDGETS["kernel-stack"]._replace(limit=215))
    kfile = tmp_path / "kernel.json"
    kfile.write_text(json.dumps({"space_size": 3, "entries": [["0.5", "0.25", "0.25"]] * 3}))
    out = tmp_path / "x"
    for given, resolution in ((0, kernels.default_resolution(3)), (2, 2)):
        assert main(["chain", "--kernel", "custom", "--kernel-file", str(kfile),
                     "--resolution", str(given), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --resolution {resolution} at 3 states of --kernel-file {kfile} needs "
            f"{8 * 9 * math.comb(resolution + 2, 2)} bytes, over the budget of 0 GiB; "
            f"no --resolution fits\n")
    assert not out.exists()


def test_chain_step_budget_grows_with_the_state_count(tmp_path, capsys):
    # 5 states: 25 + 10 * 5 floats a step, so the memory row binds first
    out = tmp_path / "x"
    assert main(["chain", "--kernel", "mixture", "--space", "5", "--steps", "10000000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --steps 10000000 at 5 states needs 6000000000 bytes, over the budget of "
        f"1 GiB; the largest --steps that fits is {2**30 // (8 * 75)}\n")
    assert not out.exists()


def test_chain_side_defaults_are_far_from_their_budgets():
    chain, replay = cli.OPTIONS["chain"], cli.OPTIONS["counterexample"]
    states = chain["truncation"].default  # the largest stock kernel's
    a, b = cli.BUDGETS["chain-step"].cost
    assert 100 * chain["steps"].default * (a + b * states) < cli.BUDGETS["chain-step"].limit
    for steps in (chain["steps"], replay["steps"], replay["n-max"]):
        assert 100 * steps.default < cli.BUDGETS["rows"].limit


class TestSmve:
    def test_simulate_writes_snapshot_table(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["smve", "simulate", "--preset", "ou", "--mu0", "point:0",
                     "--n", "200", "--h", "0.05", "--horizon", "0.2",
                     "--seed", "1", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"resolved_config.json", "report.json", "snapshots.csv"}
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0].startswith("# nlmarkov.csv/1")
        assert lines[1] == "time,mean,variance,min,max"

    def test_decay_fits_planted_separation(self, tmp_path):
        out = tmp_path / "decay"
        assert main(["smve", "decay", "--preset", "ou",
                     "--mu0", "point:-2", "--nu0", "point:2",
                     "--n", "500", "--h", "0.02", "--horizon", "3",
                     "--times", "0,1,2,3", "--bins", "50",
                     "--noise-floor", "0.05", "--seed", "3",
                     "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["passed"]
        assert rep["details"]["fit"]["theta"] > 0.5
        assert (out / "decay.csv").exists()

    def test_decay_rejects_when_everything_is_noise(self, tmp_path):
        out = tmp_path / "decay"
        # identical initial laws: every distance sits below the floor
        assert main(["smve", "decay", "--preset", "ou",
                     "--mu0", "point:0", "--nu0", "point:0",
                     "--n", "200", "--h", "0.05", "--horizon", "1",
                     "--times", "0,0.5,1", "--bins", "50",
                     "--noise-floor", "0.9", "--seed", "3",
                     "--out", str(out)]) == 1
        rep = read_json(out / "report.json")
        assert not rep["passed"]
        assert rep["claims"][0]["witness"]["usable"] < 3

    def test_girsanov_check_passes_with_allowance(self, tmp_path):
        out = tmp_path / "g"
        assert main(["smve", "girsanov-check", "--preset", "ou",
                     "--mu0", "mix:-0.5,0.5,0.5", "--nu0", "mix:-0.5,0.5,0.6",
                     "--times", "0.5,1", "--n", "500",
                     "--h", "0.02", "--bins", "50", "--allowance", "0.1",
                     "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["passed"]
        assert (out / "girsanov.csv").exists()

    def test_girsanov_violation_exits_one(self, tmp_path):
        # exact tv0 = 0.0052 gives a bound of 0.00735 at t=0.5, but the
        # 200-particle split rounds to one differing particle: 0.010
        out = tmp_path / "g"
        assert main(["smve", "girsanov-check", "--preset", "ou",
                     "--mu0", "mix:-0.5,0.5,0.5", "--nu0", "mix:-0.5,0.5,0.5026",
                     "--times", "0.5", "--n", "200",
                     "--h", "0.05", "--bins", "50", "--allowance", "0",
                     "--seed", "3", "--out", str(out)]) == 1
        rep = read_json(out / "report.json")
        assert not rep["passed"]
        assert rep["details"]["report"]["tv0"] == 0.0052

    def test_girsanov_check_passes_at_its_defaults(self, tmp_path):
        # point:0 against mix:0,2,0.9: the exact initial TV is 0.2
        out = tmp_path / "g"
        assert main(["smve", "girsanov-check", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["passed"]
        assert rep["details"]["report"]["tv0"] == 0.2

    def test_local_alpha_smoke(self, tmp_path):
        out = tmp_path / "la"
        assert main(["smve", "local-alpha", "--preset", "ou", "--radius", "1",
                     "--t", "0.5", "--bins", "20",
                     "--bin-lo", "-6", "--bin-hi", "6", "--h", "0.02",
                     "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        witness = rep["claims"][0]["witness"]
        assert 0 < witness["alpha_hat"] <= 1
        assert 0 <= witness["grid_tolerance"] < 0.01
        assert witness["grid_dx"] == math.sqrt(0.02) / 10
        assert witness["worst_pair"] == [-1.0, 1.0]

    def test_lyapunov_contracts(self, tmp_path):
        out = tmp_path / "ly"
        assert main(["smve", "lyapunov", "--preset", "vh", "--nu0", "gauss:2,1",
                     "--n", "300", "--h", "0.05", "--horizon", "4",
                     "--lag", "1", "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["claims"][0]["witness"]["gamma_hat"] < 1.0

    def test_blow_up_exits_three_with_one_error_line(self, tmp_path):
        # an interaction of strength 2e308 on a stable Euler step: simulate
        # steps in this process; in decay the mu0 run blows up in the
        # caller, which forks the nu0 run where there are two CPUs.  A fresh
        # interpreter, because pytest records numpy's warnings instead of
        # printing them: no overflow warning may precede the one error line.
        src = str(Path(nlmarkov.__file__).resolve().parents[1])
        for action in ("simulate", "decay"):
            done = subprocess.run(
                [sys.executable, "-m", "nlmarkov.cli", "smve", action, "--epsilon", "2",
                 "--d-bound", "1e308", "--horizon", "1", "--out", str(tmp_path / action)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
            assert done.returncode == 3
            assert done.stderr == ("error: vh(r=1,M=1,D=1e+308,eps=2): non-finite "
                                   "position at step 3\n")

    @pytest.mark.parametrize("action", ["simulate", "decay", "girsanov-check", "lyapunov"])
    @pytest.mark.parametrize("argv, lip", [
        (["--preset", "ou", "--h", "5", "--horizon", "500"], "1"),
        (["--preset", "ou", "--h", "1", "--horizon", "2"], "1"),
        (["--r", "2", "--m-ball", "0.5", "--h", "0.25", "--horizon", "2"],
         "--r 2 / --m-ball 0.5"),
    ], ids=["ou-h5", "ou-h1", "vh-edge"])
    def test_unstable_euler_step_is_refused_before_any_output(self, tmp_path, capsys,
                                                               action, argv, lip):
        # the ou run at h = 5 exited 0 with positions of 3.7e60 at t = 500;
        # h Lip(b1) = 1 is refused too
        h = argv[argv.index("--h") + 1]
        if action == "girsanov-check":
            argv = [a.replace("--horizon", "--times") for a in argv]
        if action == "lyapunov":
            argv = [*argv, "--lag", h]
        out = tmp_path / "x"
        assert main(["smve", action, *argv, "--out", str(out)]) == 2
        preset = "ou" if "ou" in argv else "vh"
        hlip = float(h) if preset == "ou" else 1
        assert capsys.readouterr().err == (
            f"error: --h {h} at --preset {preset} has h Lip(b1) = {hlip:g}, not below 1, "
            f"so the Euler step is unstable (Lip(b1) = {lip})\n")
        assert not out.exists()

    def test_stable_euler_steps_below_the_bound_run(self, tmp_path):
        # just below h Lip(b1) = 1 on each preset
        assert main(["smve", "simulate", "--preset", "ou", "--h", "0.5", "--n", "100",
                     "--horizon", "1", "--out", str(tmp_path / "ou")]) == 0
        assert main(["smve", "simulate", "--r", "2", "--m-ball", "0.5", "--h", "0.2",
                     "--n", "100", "--horizon", "1", "--out", str(tmp_path / "vh")]) == 0

    @pytest.mark.parametrize("option", ["--d-bound", "--epsilon"])
    def test_simulate_moments_past_the_float_range_exit_three(self, tmp_path, capsys,
                                                              option):
        # the positions stay finite, but their variance overflowed with a
        # RuntimeWarning, and the run wrote it as inf
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smve", "simulate", option, "1e308", "--n", "100",
                         "--horizon", "0.1", "--out", str(out)]) == 3
        assert capsys.readouterr().err.endswith(
            ": the mean or variance at t = 0.1 is past the float range\n")
        assert not (out / "snapshots.csv").exists()

    @pytest.mark.parametrize("option", ["--d-bound", "--epsilon"])
    def test_lyapunov_weight_overflow_exits_three_with_one_error_line(self, tmp_path,
                                                                      option):
        # V = exp(kappa |x|) overflowed, and np.polyfit failed in LAPACK:
        # DLASCL lines and RuntimeWarnings, then exit 2 naming no option
        src = str(Path(nlmarkov.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "nlmarkov.cli", "smve", "lyapunov", option, "1e30",
             "--n", "100", "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 3
        assert done.stderr == ("error: lyapunov: the mean weight at t = 1 is inf, over "
                               "the 2.92582e+153 a fit can square\n")

    def test_drift_bound_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def exceeded(*args, **kwargs):
            raise DriftBoundError("vh: |b2| = 5 exceeds D = 1")

        monkeypatch.setattr(mckean_vlasov, "simulate", exceeded)
        assert main(["smve", "simulate", "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == "error: vh: |b2| = 5 exceeds D = 1\n"

    def test_other_runtime_errors_are_not_numerical_failures(self, tmp_path, monkeypatch):
        # such as a forked child that died without reporting its run
        def died(*args, **kwargs):
            raise RuntimeError("the second particle run's process exited with code -9")

        monkeypatch.setattr(mckean_vlasov, "simulate", died)
        with pytest.raises(RuntimeError, match="process exited with code -9"):
            main(["smve", "simulate", "--out", str(tmp_path / "run")])

    def test_usage_errors(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["smve", "simulate", "--mu0", "bogus", "--out", out]) == 2
        assert main(["smve", "simulate", "--h", "0", "--out", out]) == 2
        assert main(["smve", "simulate", "--n", "50", "--out", out]) == 2
        assert main(["smve", "lyapunov", "--lag", "0", "--out", out]) == 2
        assert main(["smve", "lyapunov", "--horizon", "1", "--lag", "1",
                     "--out", out]) == 2

    @pytest.mark.parametrize("action, extra, held", [
        ("decay", [], 64),  # three runs' worth of 21 snapshots, and a temporary
        ("girsanov-check", [], 10),  # three runs' worth of 3 snapshots, and one
        ("local-alpha", [], 6),
        ("local-alpha", ["--x-grid=-1,1"], 3),
    ], ids=["decay", "girsanov-check", "local-alpha", "local-alpha-two-starts"])
    def test_bins_over_the_memory_budget_are_refused(self, tmp_path, capsys,
                                                     monkeypatch, action, extra, held):
        # nothing past the check runs, so nothing is binned or allocated
        fits = 2**30 // (8 * held) - 1
        _assert_largest_fits(capsys, monkeypatch, tmp_path / "x", ["smve", action, *extra],
                             "bins", fits)

    @pytest.mark.parametrize("action, extra, key, held", [
        # short runs, so that the largest n that fits is within the step budget
        ("simulate", ["--horizon", "1"], "n", 2),  # x and the variance's temporary
        ("simulate", ["--horizon", "1", "--times", "0,0.5"], "n", 2),
        ("decay", ["--horizon", "1"], "n", 1),  # x, observed as its cell masses
        ("girsanov-check", [], "n", 1),
        ("lyapunov", ["--horizon", "2"], "n", 2),  # x and its weights
    ], ids=["simulate", "simulate-late-snapshot", "decay", "girsanov-check",
            "lyapunov"])
    def test_particles_over_the_memory_budget_are_refused(self, tmp_path, capsys,
                                                          monkeypatch, action, extra,
                                                          key, held):
        # nothing past the check runs, so no particle array is allocated
        _assert_largest_fits(capsys, monkeypatch, tmp_path / "x", ["smve", action, *extra],
                             key, 2**30 // (8 * held))

    def test_lyapunov_snapshots_over_the_memory_budget_are_refused(self, tmp_path,
                                                                   capsys):
        out = tmp_path / "x"
        start = time.perf_counter()
        assert main(["smve", "lyapunov", "--horizon", "1e9", "--lag", "1e-3",
                     "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: a list of 1e+12 snapshot times for --horizon 1e+09 at --lag 0.001 "
            "needs 2.08e+14 bytes, over the budget of 1 GiB\n")
        assert not out.exists()

    def test_lyapunov_lag_off_the_step_grid_is_refused(self, tmp_path, capsys):
        # lag 0.001 at h 0.01 would put every snapshot on step 0
        out = tmp_path / "x"
        assert main(["smve", "lyapunov", "--lag", "0.001", "--h", "0.01",
                     "--horizon", "0.05", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --lag 0.001 is not a whole number of --h 0.01 steps\n")
        assert not out.exists()
        assert main(["smve", "lyapunov", "--lag", "0.015", "--h", "0.01",
                     "--horizon", "0.05", "--out", str(out)]) == 2
        assert main(["smve", "lyapunov", "--lag", "0.3", "--h", "0.1", "--n", "100",
                     "--horizon", "0.6", "--out", str(out)]) in (0, 1)

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--horizon", "0.015"], "--horizon 0.015"),
        (["decay", "--horizon", "2.005"], "--horizon 2.005"),
        (["lyapunov", "--horizon", "3.001"], "--horizon 3.001"),
        (["local-alpha", "--t", "0.015"], "--t 0.015"),
        (["simulate", "--horizon", "0.05", "--times", "0,0.025"], "--times 0.025"),
        (["girsanov-check", "--times", "0.5,1.005"], "--times 1.005"),
    ], ids=["simulate", "decay", "lyapunov", "local-alpha", "times", "girsanov-times"])
    def test_time_off_the_step_grid_is_refused(self, tmp_path, capsys, argv, message):
        # simulate --horizon 0.015 at h 0.01 would run to t = 0.02
        out = tmp_path / "x"
        assert main(["smve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {message} is not a whole number of --h 0.01 steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--times=-1,1"], "--times -1 lies outside [0, --horizon 20]"),
        (["simulate", "--times=30"], "--times 30 lies outside [0, --horizon 20]"),
        (["decay", "--horizon", "2", "--times", "0,2.01"],
         "--times 2.01 lies outside [0, --horizon 2]"),
        (["girsanov-check", "--times=-1,1"], "--times -1 is negative"),
    ], ids=["simulate-negative", "simulate-past-horizon", "decay-past-horizon",
            "girsanov-negative"])
    def test_times_out_of_range_are_named(self, tmp_path, capsys, argv, message):
        # each was refused as "snapshot times must lie within [0, horizon]"
        out = tmp_path / "x"
        assert main(["smve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_step_count_past_the_float_range_is_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["smve", "simulate", "--horizon", "1e308", "--h", "1e-300",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --horizon 1e+308 is not a whole number of --h 1e-300 steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--horizon", "1e30"],
         "1 run of --n 10000 particles to --horizon 1e+30 at --h 0.01 needs 1.1e+36"),
        (["decay", "--horizon", "1e30"],
         "2 runs of --n 10000 particles to --horizon 1e+30 at --h 0.01 needs 2.2e+36"),
        (["girsanov-check", "--times", "0.5,1e30"],
         "2 runs of --n 10000 particles to --times 1e+30 at --h 0.01 needs 2.2e+36"),
        (["lyapunov", "--horizon", "1e30", "--lag", "1e29"],
         "1 run of --n 10000 particles to --horizon 1e+30 at --h 0.01 needs 1.1e+36"),
        # a step of n particles costs n + 1000 particle-steps, so 10^11 fit
        # 1000 particles through 5 x 10^7 steps
        (["simulate", "--n", "1001", "--horizon", "5e5"],
         "1 run of --n 1001 particles to --horizon 500000 at --h 0.01 needs 1.0005e+11"),
        # 10^9 steps of 100 particles, about 10 hours of per-step overhead,
        # were admitted as 10^11 particle-steps
        (["simulate", "--n", "100", "--horizon", "1e7"],
         "1 run of --n 100 particles to --horizon 1e+07 at --h 0.01 needs 1.1e+12"),
    ], ids=["simulate", "decay", "girsanov-check", "lyapunov", "simulate-just-past",
            "simulate-narrow-long"])
    def test_runs_over_the_step_budget_are_refused_before_any_output(
            self, tmp_path, capsys, argv, message):
        # each ran on, after making its output directory, with no end in sight
        out = tmp_path / "x"
        assert main(["smve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {message} particle-steps, over the budget of 1e+11 particle-steps\n")
        assert not out.exists()

    def test_runs_at_the_step_budget_are_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_begin", _no_begin)
        with pytest.raises(_Began):
            main(["smve", "simulate", "--n", "1000", "--horizon", "5e5",
                  "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("argv, message", [
        (["--x-grid", "0"], "--x-grid needs two or more starts in the --radius 1 ball, "
                            "got '0'"),
        (["--x-grid", ","], "--x-grid needs two or more starts in the --radius 1 ball, "
                            "got ','"),
        (["--x-grid=-1,2"], "--x-grid needs two or more starts in the --radius 1 ball, "
                            "got '-1,2'"),
        (["--radius", "0"], "--radius must be positive, got 0"),
        (["--radius=-1"], "--radius must be positive, got -1"),
        (["--t", "0"], "--t must be positive, got 0"),
        (["--t=-1"], "--t must be positive, got -1"),
    ], ids=["one-start", "no-start", "start-outside", "radius-0", "radius-negative",
            "t-0", "t-negative"])
    def test_local_alpha_options_are_checked_before_any_output(self, tmp_path, capsys,
                                                               argv, message):
        out = tmp_path / "x"
        assert main(["smve", "local-alpha", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # an OverflowError traceback from the step count of 2 / 1e-320
        (["girsanov-check", "--h", "1e-320"],
         "--times 2 is not a whole number of --h 9.99989e-321 steps"),
        # refused late: every time rounded to step 0, and the bootstrap
        # found no snapshot at a positive time
        (["girsanov-check", "--h", "1e30"],
         "--times 2 is not a whole number of --h 1e+30 steps"),
        (["girsanov-check", "--times", "0"],
         "--times needs a positive time for the bootstrap floor of a negative "
         "--allowance"),
        # decay stepped both systems to t = 20, then its bootstrap found no
        # snapshot at a positive time, naming no option
        *[(["decay", f"--times={times}"],
           "--times needs a positive time for the bootstrap floor of a negative "
           "--noise-floor") for times in ("0", "-0", "0,0")],
        # decay's default times are all 0 at --horizon 0: named as a horizon
        (["decay", "--horizon", "0"], "--horizon 0 must cover at least one --h 0.01 step"),
        *[([action, "--d-bound", "0"], "--d-bound must be positive, got 0")
          for action in ("simulate", "decay", "girsanov-check", "lyapunov")],
        (["lyapunov", "--preset", "ou", "--r", "0"], "--r must be positive, got 0"),
        (["local-alpha", "--m-ball=-1"], "--m-ball must be positive, got -1"),
    ], ids=["girsanov-tiny-h", "girsanov-huge-h", "girsanov-time-0", "decay-time-0",
            "decay-time-minus-0", "decay-times-0-0", "decay-horizon-0", "simulate-d-bound",
            "decay-d-bound", "girsanov-d-bound", "lyapunov-d-bound", "lyapunov-r",
            "local-alpha-m-ball"])
    def test_model_and_time_options_are_named_before_any_output(self, tmp_path, capsys,
                                                                argv, message):
        out = tmp_path / "x"
        assert main(["smve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # A Gauss law whose draws overflow printed numpy's overflow warning,
    # then exited 2 with "points must be finite", naming no option, after
    # resolved_config.json was written
    @pytest.mark.parametrize("action, option", [
        ("simulate", "mu0"), ("decay", "mu0"), ("decay", "nu0"),
        ("girsanov-check", "mu0"), ("girsanov-check", "nu0"), ("lyapunov", "nu0")])
    def test_a_gauss_law_whose_draws_overflow_is_named_before_any_output(
            self, tmp_path, capsys, action, option):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smve", action, f"--{option}", "gauss:0,1e308",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --{option}: mean 0 and std 1e+308 put mean + std * z past the "
            f"float range for |z| up to 13\n")
        assert not out.exists()

    def test_local_alpha_grids_over_their_budgets_are_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            # --radius 1e308 printed numpy's overflow warnings, then exited 2
            # after the output directory was made
            warnings.simplefilter("error")
            assert main(["smve", "local-alpha", "--radius", "1e308",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: a grid of inf nodes and 161 taps for 5 laws through 100 steps at "
            "--radius 1e+308, --t 1 and --h 0.01 needs inf bytes, over the budget of "
            "1 GiB\n")
        assert main(["smve", "local-alpha", "--t", "1e30", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: a grid of 1.6e+18 nodes and 161 taps for 5 laws through 1e+32 steps "
            "at --radius 1, --t 1e+30 and --h 0.01 needs 1.664e+20 bytes, over the "
            "budget of 1 GiB\n")
        assert main(["smve", "local-alpha", "--radius", "30", "--t", "30", "--h", "1e-4",
                     "--x-grid=-30,30", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: a grid of 147797 nodes and 161 taps for 2 laws through 300000 steps "
            "at --radius 30, --t 30 and --h 0.0001 needs 1.42772e+13 cell-taps, over the "
            "budget of 1e+11 cell-taps\n")
        assert not out.exists()

    def test_local_alpha_defaults_are_far_from_the_grid_budgets(self):
        from nlmarkov.diagnostics import euler_grid

        _, half, taps = euler_grid(1.0, 1.0, 0.01)
        nodes, (a, b) = 2 * half + 1, cli.BUDGETS["grid-nodes"].cost
        assert nodes == NODES and taps == 161
        assert 100 * 5 * 100 * nodes * taps < cli.BUDGETS["cell-taps"].limit
        assert 100 * (a + 5 * b) * nodes < cli.BUDGETS["grid-nodes"].limit

    def test_local_alpha_law_off_the_grid_exits_three_with_one_error_line(self, tmp_path):
        # ou at h = 2.5 maps x to -1.5 x.  A fresh interpreter, because
        # pytest records numpy's warnings instead of printing them.
        src = str(Path(nlmarkov.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "nlmarkov.cli", "smve", "local-alpha", "--preset", "ou",
             "--h", "2.5", "--t", "500", "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 3
        assert done.stderr == (
            "error: the Euler chain's law from -1 lost 2.29e-06 of its mass off the grid "
            "[-192.583, 192.583] by step 8\n")

    def test_local_alpha_report_is_the_same_at_any_seed_and_cpu_count(self, tmp_path,
                                                                     monkeypatch):
        # --seed is recorded, but nothing is sampled
        reports = []
        for seed, cpus in ((1, {0}), (7, {0, 1}), (11, {0, 1, 2})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / str(seed)
            assert main(["smve", "local-alpha", "--seed", str(seed),
                         "--out", str(out)]) == 0
            doc = read_json(out / "report.json")
            assert doc["parameters"].pop("seed") == seed
            reports.append(doc)
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["claims"][0]["witness"]["alpha_hat"] == pytest.approx(
            0.5622374, abs=1e-7)

    @pytest.mark.parametrize("argv, message", [
        (["girsanov-check", "--epsilon", "1e30"],
         "--epsilon 1e+30, --d-bound 1 and --times up to 2 put exp(4 eps^2 D^2 t) "
         "past the float range"),
        (["girsanov-check", "--d-bound", "1e308"],
         "--epsilon 0.05, --d-bound 1e+308 and --times up to 2 put exp(4 eps^2 D^2 t) "
         "past the float range"),
        # 4 * 2.1^2 * 40 = 705.6 is in range; 4 * 2.1^2 * 41 = 723.2 is not
        (["girsanov-check", "--epsilon", "2.1", "--times", "0.5,41"],
         "--epsilon 2.1, --d-bound 1 and --times up to 41 put exp(4 eps^2 D^2 t) "
         "past the float range"),
        (["lyapunov", "--m-ball", "1e30"],
         "--m-ball 1e+30 puts exp(kappa M) past the float range"),
        # kappa = 1 at r = 4: M = 709 is in range, 710 is not
        (["lyapunov", "--r", "4", "--m-ball", "710"],
         "--m-ball 710 puts exp(kappa M) past the float range"),
    ], ids=["girsanov-epsilon", "girsanov-d-bound", "girsanov-times", "lyapunov",
            "lyapunov-just-past"])
    def test_bounds_past_the_float_range_are_refused_before_any_output(
            self, tmp_path, capsys, argv, message):
        # each was an OverflowError traceback after resolved_config.json
        out = tmp_path / "x"
        assert main(["smve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bounds_just_inside_the_float_range_run(self, tmp_path, monkeypatch):
        class Began(Exception):
            pass

        def began(*args):
            raise Began

        monkeypatch.setattr(cli, "_begin", began)
        for argv in (["girsanov-check", "--epsilon", "2.1", "--times", "0.5,40"],
                     ["lyapunov", "--r", "4", "--m-ball", "709"]):
            with pytest.raises(Began):
                main(["smve", *argv, "--out", str(tmp_path / "x")])

    def test_girsanov_check_runs_with_a_finite_rate_of_huge_factors(self, tmp_path):
        # eps = 1e200 and D = 1e-200 give the rate 4 (eps D)^2 = 4, although
        # eps^2 alone overflows
        out = tmp_path / "x"
        assert main(["smve", "girsanov-check", "--epsilon", "1e200", "--d-bound", "1e-200",
                     "--n", "100", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["details"]["report"]["bounds"][-1] == pytest.approx(
            math.sqrt(2.0) * 0.2 * math.exp(4.0 * 2.0))

    def test_times_on_the_step_grid_are_accepted(self, tmp_path):
        # 0.07 / 0.01 is 7.000000000000001 in floats
        out = tmp_path / "x"
        assert main(["smve", "simulate", "--n", "100", "--horizon", "0.07",
                     "--times", "0,0.03,0.07", "--out", str(out)]) == 0
        rows = (out / "snapshots.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 3 * 0.01, 7 * 0.01]

    def test_float_bins_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bins": 2.5}))
        out = tmp_path / "x"
        assert main(["smve", "decay", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config field 'bins' must be int" in capsys.readouterr().err
        assert not out.exists()

    def test_sampler_mini_language_errors(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["smve", "simulate", "--mu0", "gauss:0", "--out", out]) == 2
        assert main(["smve", "simulate", "--mu0", "mix:0,1,1.5", "--out", out]) == 2
        assert main(["smve", "simulate", "--mu0", "point:a,b", "--out", out]) == 2


# Runs whose particle arrays (2.4 MB each at WIDE floats) dwarf the rest
# of what they hold, with the count of those arrays that the smve budget
# refuses an oversized n by: x, and a temporary of simulate's and
# lyapunov's observers.
WIDE = 300_000
PARTICLE_RUNS = {
    "simulate": (["simulate", "--horizon", "0.05"], "n", 2),
    "simulate-ou": (["simulate", "--preset", "ou", "--horizon", "0.05"], "n", 2),
    "simulate-late-snapshot": (["simulate", "--horizon", "0.05", "--times", "0,0.02"],
                               "n", 2),
    "decay": (["decay", "--horizon", "0.1"], "n", 1),
    "girsanov-check": (["girsanov-check", "--times", "0.01,0.02,0.03"], "n", 1),
    "lyapunov": (["lyapunov", "--horizon", "0.1", "--lag", "0.02"], "n", 2),
}


@pytest.mark.parametrize("run", PARTICLE_RUNS)
def test_particle_budget_counts_the_arrays_a_run_holds(tmp_path, capsys, monkeypatch,
                                                        run):
    argv, key, held = PARTICLE_RUNS[run]
    # the runs go in order in this process, as they do on one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["smve", *argv, f"--{key}", str(10**12), "--out",
                 str(tmp_path / "big")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {held} array{'s' * (held > 1)} of --n ")
    tracemalloc.start()
    try:
        main(["smve", *argv, f"--{key}", str(WIDE), "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = 8 * WIDE
    assert (held - 1) * array < peak <= held * array + 2**21


# A small run of each smve action, in options of its own table, with
# the number of options that table holds.
SMALL_SMVE_RUNS = {
    "simulate": (11, ["--preset", "ou", "--n", "100", "--h", "0.1", "--horizon", "0.2"]),
    "decay": (16, ["--preset", "ou", "--n", "100", "--h", "0.1", "--horizon", "0.2",
                   "--bins", "20", "--noise-floor", "0.05"]),
    "girsanov-check": (15, ["--preset", "ou", "--n", "100", "--h", "0.1",
                            "--times", "0.1", "--bins", "20", "--allowance", "0.5"]),
    "local-alpha": (11, ["--preset", "ou", "--t", "0.1", "--h", "0.05", "--bins", "20"]),
    "lyapunov": (11, ["--preset", "ou", "--n", "100", "--h", "0.1", "--horizon", "0.2",
                      "--lag", "0.1"]),
}


@pytest.mark.parametrize("action", SMALL_SMVE_RUNS)
def test_smve_action_records_exactly_its_own_options(tmp_path, action):
    size, argv = SMALL_SMVE_RUNS[action]
    table = cli.OPTIONS["smve"][action]
    assert len(table) == size
    out = tmp_path / "run"
    assert main(["smve", action, *argv, "--out", str(out)]) in (0, 1)
    assert read_json(out / "resolved_config.json").keys() == {"command", *table}
    assert read_json(out / "report.json")["parameters"].keys() == table.keys()


@pytest.mark.parametrize("action", SMALL_SMVE_RUNS)
def test_smve_action_refuses_other_actions_options(tmp_path, capsys, action):
    name = next(k for k in cli._SMVE if k not in cli.OPTIONS["smve"][action])
    value = cli._SMVE[name].default
    out = tmp_path / "x"
    assert main(["smve", action, f"--{name}", str(value), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown option --{name} for smve {action}\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    assert main(["smve", action, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown config field {name!r} for smve {action}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, table", [
    (["chain"], cli.OPTIONS["chain"]),
    (["counterexample"], cli.OPTIONS["counterexample"]),
    (["smve"], cli._SMVE),
    *[(["smve", action], table) for action, table in cli.OPTIONS["smve"].items()],
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_help_lists_every_flag_of_the_table(capsys, argv, table):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: nlmarkov {argv[0]} [-h]")
    flags = {line.split()[0] for line in text.splitlines() if line.startswith("  --")}
    assert {f"--{k}" for k in ("config", "out", *table)} <= flags


@pytest.mark.parametrize("argv", [[], ["nope"]])
def test_no_command_exits_2_with_the_top_level_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nlmarkov [-h] {chain,counterexample,smve} ...\n")
    assert "nlmarkov: error: " in err


def test_the_parser_holds_the_flags_of_the_named_command_only(capsys):
    parser = cli._build_parser("counterexample")
    assert parser.parse_args(["counterexample", "continuum", "--steps", "3"]).steps == 3
    for argv in (["chain", "--steps", "3"], ["smve", "simulate"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    capsys.readouterr()


def test_tv0_is_no_longer_an_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["smve", "girsanov-check", "--tv0", "0.2", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, option", [
    (["smve", "simulate", "--mu0", "gauss:0,nan"], "mu0"),
    (["smve", "simulate", "--mu0", "gauss:nan,1"], "mu0"),
    (["smve", "simulate", "--mu0", "point:inf"], "mu0"),
    (["smve", "simulate", "--times", "nan"], "times"),
    (["smve", "girsanov-check", "--nu0", "gauss:0,inf"], "nu0"),
    (["smve", "local-alpha", "--x-grid", "0,-inf"], "x-grid"),
    (["chain", "--mu0", "nan,1"], "mu0"),
    (["smve", "simulate", "--h", "nan"], "h"),
    (["smve", "simulate", "--horizon", "inf"], "horizon"),
    (["smve", "decay", "--bin-lo", "nan"], "bin-lo"),
    (["chain", "--gamma=-inf"], "gamma"),
])
def test_non_finite_values_are_refused_before_any_output(tmp_path, capsys, argv, option):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # a number is refused by cli._resolve, a law text by laws: each names its flag
    assert err.startswith(f"error: --{option} must ") and "finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, options", [
    # weights that sum to 1.1, three weights for two states, and law
    # texts of no form
    (["chain", "--mu0", "0.5,0.6"], ["--mu0"]),
    (["chain", "--mu0", "0.5,0.25,0.25"], ["--mu0"]),
    (["smve", "simulate", "--mu0", "gauss:0"], ["--mu0"]),
    (["smve", "decay", "--nu0", "point:1,2"], ["--nu0"]),
])
def test_bad_initial_laws_are_named_before_any_output(tmp_path, capsys, argv, options):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {options[0]}")
    assert all(option in err for option in options)
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_mix_weight_exponent_over_4300_is_refused_at_once(tmp_path, capsys):
    # Fraction expands a decimal exponent into an integer: 1e-9999999
    # would take far longer than a second
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["smve", "simulate", "--mu0", "mix:0,1,1e-9999999",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: --mu0: weight0 '1e-9999999' has an exponent over 4300 in magnitude\n")
    assert not out.exists()
    assert laws.parse("mix:0,1,1e-300", "mu0").w0 == Fraction(1, 10**300)
    assert laws.parse("mix:0,1,1e-4300", "mu0").w0 == Fraction(1, 10**4300)


def _law_tv(a, b):
    return laws.tv(laws.parse(a, "a"), laws.parse(b, "b"))


def _atoms(desc):
    """Atom masses of a point or mix law, in floats."""
    kind, _, rest = desc.partition(":")
    vals = [float(v) for v in rest.split(",")]
    masses = [1.0] if kind == "point" else [vals[2], 1.0 - vals[2]]
    atoms = {}
    for x, m in zip(vals, masses):
        atoms[x] = atoms.get(x, 0.0) + m
    return atoms


_POSITIONS = st.sampled_from([-1.5, -0.5, 0.0, 0.5, 2.0])
_ATOMIC_LAWS = st.one_of(
    st.builds("point:{!r}".format, _POSITIONS),
    st.builds("mix:{!r},{!r},{!r}".format, _POSITIONS, _POSITIONS,
              st.floats(0.0, 1.0)),
)
_GAUSS_LAWS = st.builds("gauss:{!r},{!r}".format, st.floats(-3.0, 3.0),
                        st.floats(0.5, 3.0))
_LAWS = st.one_of(_ATOMIC_LAWS, _GAUSS_LAWS)


@settings(max_examples=200, deadline=None)
@given(_LAWS, _LAWS)
def test_law_tv_is_a_symmetric_distance_in_0_2(a, b):
    tv = _law_tv(a, b)
    assert 0.0 <= tv <= 2.0
    assert tv == _law_tv(b, a)
    assert _law_tv(a, a) == 0.0
    if (a.startswith("gauss")) != (b.startswith("gauss")):
        assert tv == 2.0


@settings(max_examples=100, deadline=None)
@given(_ATOMIC_LAWS, _ATOMIC_LAWS)
def test_law_tv_of_atoms_is_tv_distance(a, b):
    pa, pb = _atoms(a), _atoms(b)
    support = sorted(pa.keys() | pb.keys())
    expected = weighted_tv_distance([pa.get(x, 0.0) for x in support],
                                    [pb.get(x, 0.0) for x in support], np.ones(len(support)))
    assert _law_tv(a, b) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(_GAUSS_LAWS, _GAUSS_LAWS)
def test_law_tv_of_gauss_laws_is_the_integral_of_density_differences(a, b):
    (m1, s1), (m2, s2) = ([float(v) for v in d[6:].split(",")] for d in (a, b))
    reach = 12.0 * max(s1, s2)
    x = np.linspace(min(m1, m2) - reach, max(m1, m2) + reach, 400_001)

    def phi(m, s):
        return np.exp(-0.5 * ((x - m) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))

    integral = np.trapezoid(np.abs(phi(m1, s1) - phi(m2, s2)), x)
    assert _law_tv(a, b) == pytest.approx(integral, abs=1e-6)


def _gauss(m, s):
    return f"gauss:{m!r},{s!r}"


_MEANS = st.integers(-3000, 3000).map(lambda i: i / 1000)
_STDS = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(_MEANS, _STDS, _MEANS, _STDS, st.integers(-1000, 1000))
@example(0.0, 1.0, 0.0, 2.0, -532)  # stds near 1e-160 and 2e-160
@example(0.0, 1e-3, 0.0, 1.0, -987)  # both variances underflow to 0
@example(-2.5, 1e-3, 2.5, 1e-3, 1000)  # equal stds, means 5,000 stds apart
def test_gauss_law_tv_is_scale_free_and_matches_normal_dist(m1, s1, m2, s2, k):
    tv = _law_tv(_gauss(m1, s1), _gauss(m2, s2))
    scaled = [math.ldexp(v, k) for v in (m1, s1, m2, s2)]
    assert _law_tv(_gauss(*scaled[:2]), _gauss(*scaled[2:])) == tv
    # NormalDist.overlap cancels in s2^2 - s1^2 when the stds nearly agree
    if s1 == s2 or abs(s1 - s2) >= 1e-3 * max(s1, s2):
        overlap = NormalDist(m1, s1).overlap(NormalDist(m2, s2))
        assert tv == pytest.approx(2.0 * (1.0 - overlap), rel=0, abs=4e-15)


def test_a_gauss_law_is_parsed_only_if_its_draws_stay_finite():
    # mean + std * z stays in the float range for every |z| up to 13, a
    # bound on numpy's standard normal draws
    for text in ("gauss:1e308,1", "gauss:-1.7e308,1e305", "gauss:0,1e307"):
        law = laws.parse(text, "--mu0")
        assert all(map(math.isfinite, (law.mean + 13 * law.std, law.mean - 13 * law.std)))
    for text in ("gauss:0,1e308", "gauss:1.79e308,1e306", "gauss:-1e308,1e307"):
        with pytest.raises(ValueError, match=r"^--mu0: mean \S+ and std \S+ put mean "
                                             r"\+ std \* z past the float range"):
            laws.parse(text, "--mu0")


def test_gauss_law_tv_of_a_vanishing_std_is_2():
    assert _law_tv("gauss:0,1e-300", "gauss:0,1") == 2.0
    assert _law_tv("gauss:0,5e-324", "gauss:0,1e300") == 2.0
    assert _law_tv("gauss:-1e308,1", "gauss:1e308,2") == 2.0


_ANY_POSITION = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ANY_WEIGHT = st.one_of(st.floats(0.0, 1.0).map(repr),
                        st.decimals(0, 1, allow_nan=False).map(str))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds("point:{}".format, _ANY_POSITION),
                 st.builds("mix:{},{},{}".format, _ANY_POSITION, _ANY_POSITION,
                           _ANY_WEIGHT)),
       st.integers(1, 5000))
@example("mix:0,2,0.333333333333333333", 10_000)
@example("mix:0,2,1e-5", 10_000)
@example("mix:0,1,0.1_5", 10)
# 0.1176203451407811 * 1101 is just under 129.5, but rounds to 129.5 in floats
@example("mix:0,1,0.1176203451407811", 1101)
def test_filled_cloud_is_within_tv_1_over_n_of_its_law(desc, n):
    # the round(w0 n) split puts at most half a particle off w0 n
    law = laws.parse(desc, "law")
    x = np.full(n, np.nan)
    law(np.random.default_rng(0), x)
    values, counts = np.unique(x, return_counts=True)
    cloud = laws.Point(float(values[0])) if len(values) == 1 else laws.Mix(
        float(values[0]), float(values[1]), Fraction(int(counts[0]), n))
    assert laws.tv(law, cloud) <= 1 / n


class TestOutputDirResolution:
    def test_env_var_is_honored(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("NLMARKOV_OUT", str(target))
        assert main(["counterexample", "oscillation", "--gamma", "0.4",
                     "--a", "0.3", "--steps", "10"]) == 0
        assert (target / "report.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLMARKOV_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        assert main(["counterexample", "oscillation", "--gamma", "0.4",
                     "--a", "0.3", "--steps", "10", "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


# Small decay and girsanov-check runs that take their noise floor from
# the bootstrap of their mu0 run.
FLOOR_RUNS = {
    "decay": ["decay", "--n", "1000", "--h", "0.05", "--horizon", "2", "--bins", "50"],
    "girsanov-check": ["girsanov-check", "--n", "1000", "--h", "0.05", "--bins", "50"],
}


@pytest.mark.parametrize("action", FLOOR_RUNS)
def test_noise_floor_costs_no_particle_run(tmp_path, monkeypatch, action):
    # in this process, as on one CPU: the two runs the action compares
    # are all it steps
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    real = mckean_vlasov.simulate

    def counted(*args, **kwargs):
        calls.append(args[5])  # the seed
        return real(*args, **kwargs)

    monkeypatch.setattr(mckean_vlasov, "simulate", counted)
    assert main(["smve", *FLOOR_RUNS[action], "--seed", "3",
                 "--out", str(tmp_path / "x")]) == 0
    assert calls == ([3, 4] if action == "decay" else [3, 3])


@pytest.mark.parametrize("action", FLOOR_RUNS)
def test_noise_floor_is_the_same_at_one_worker_and_two(tmp_path, monkeypatch, action):
    reports = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / str(len(cpus))
        assert main(["smve", *FLOOR_RUNS[action], "--seed", "3", "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    floor = (doc["details"]["noise_floor"] if action == "decay"
             else doc["claims"][0]["witness"]["allowance"])
    assert 0.0 < floor < 1.0


def test_smve_runs_do_not_load_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on its first call, and its memory
    # stays: no noise floor may take that path
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from nlmarkov.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    main(argv.split())\n"
            "print('numpy.ma' in sys.modules)")
    runs = [" ".join(["smve", *argv, "--out", str(tmp_path / argv[0])])
            for argv in FLOOR_RUNS.values()]
    done = subprocess.run([sys.executable, "-c", code, *runs], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "False"


# The particle half, and the random numbers only it draws: an smve action
# imports them when it runs.  (numpy before 2.0 loads numpy.random itself.)
PARTICLE_MODULES = ("numpy.random", "nlmarkov.mckean_vlasov", "nlmarkov.diagnostics")


# What a fresh interpreter that imports the entry point must not load
# beyond what numpy loads: scipy, since numpy is the only runtime
# dependency; concurrent.futures, which nothing the CLI runs needs and
# which would add about 8 ms to every start; multiprocessing, which no
# run needs (simulate_pair forks its child with os.fork); hashlib and
# kernel_spec, which only chain --kernel custom needs (about 7 ms); and
# the particle modules.
@pytest.mark.parametrize("module", ["scipy", "concurrent.futures", "multiprocessing",
                                    "hashlib", "nlmarkov.kernel_spec",
                                    *PARTICLE_MODULES])
def test_cli_import_does_not_load(module):
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = (f"import sys, numpy; before = {module!r} in sys.modules\n"
            f"import nlmarkov.cli; print({module!r} in sys.modules and not before)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_narrow_smve_runs_do_not_load_the_thread_pool(tmp_path):
    # a one-block run steps in the calling thread alone: only a wide run
    # imports concurrent.futures, which loads logging (about 11 ms); a
    # pair of runs forks its child with os.fork, not multiprocessing
    # (8-11 ms and about 0.7 MB)
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from nlmarkov.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    assert main(argv.split()) == 0, argv\n"
            "print([m for m in ('concurrent.futures', 'logging', 'multiprocessing')\n"
            "       if m in sys.modules])")
    runs = [f"smve simulate --out {tmp_path / 'simulate'}",
            f"smve decay --horizon 2 --out {tmp_path / 'decay'}",
            f"smve girsanov-check --out {tmp_path / 'girsanov-check'}"]
    done = subprocess.run([sys.executable, "-c", code, *runs], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "[]"


def _spin_env(spin):
    """The environment of a fresh CLI interpreter with OPENBLAS_THREAD_TIMEOUT
    set to ``spin``, or unset if it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(nlmarkov.__file__).resolve().parents[1])
    return env if spin is None else {**env, "OPENBLAS_THREAD_TIMEOUT": spin}


@pytest.mark.parametrize("spin, seen", [(None, "4"), ("28", "28")], ids=["unset", "kept"])
def test_cli_import_sets_the_openblas_spin_before_numpy_loads(spin, seen):
    # an idle OpenBLAS worker spun 2^28 cycles, about 0.1 s of CPU, in every
    # CLI process; OpenBLAS reads the variable once, as numpy loads it
    code = ("import os, sys\n"
            "class Watch:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Watch())\n"
            "import nlmarkov.cli")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_spin_env(spin))
    assert done.stdout.splitlines()[0] == seen


def test_outputs_do_not_depend_on_the_openblas_spin(tmp_path):
    runs = {"spec5": ["chain", "--kernel", "custom", "--kernel-file", str(SPEC5)],
            "oscillation": ["counterexample", "oscillation"],
            "simulate": ["smve", "simulate"]}
    for spin in ("28", None):
        for name, argv in runs.items():
            subprocess.run([sys.executable, "-m", "nlmarkov.cli", *argv,
                            "--out", str(tmp_path / str(spin) / name)],
                           capture_output=True, check=True, env=_spin_env(spin))
    files = sorted(p.relative_to(tmp_path / "28") for p in (tmp_path / "28").rglob("*.*"))
    assert len(files) == 10
    for f in files:
        assert (tmp_path / "28" / f).read_bytes() == (tmp_path / "None" / f).read_bytes(), f


def test_only_an_smve_run_loads_the_particle_modules(tmp_path):
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = ("import sys, numpy\n"
            f"modules = [m for m in {PARTICLE_MODULES!r} if m not in sys.modules]\n"
            "from nlmarkov.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    assert main(argv.split()) == 0, argv\n"
            "    loaded = [m in sys.modules for m in modules]\n"
            "    print('all' if all(loaded) else 'some' if any(loaded) else 'none',\n"
            "          file=sys.stderr)")
    runs = ["chain", "counterexample oscillation", "counterexample continuum",
            "counterexample no-invariant", "smve local-alpha"]
    argv = [f"{run} --out {tmp_path / str(i)}" for i, run in enumerate(runs)]
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = done.stderr.splitlines()
    assert loaded == ["none"] * 4 + ["all"]


def test_names_the_benchmark_tracer_reads_still_exist():
    # bench/tracer.py counts the items of its spans through these result
    # attributes and parameter names; a rename would silently empty them
    import inspect

    from nlmarkov.ergodicity import check_contraction_inequality, evolve, find_invariant
    from nlmarkov.measures import DiscreteMeasure
    from nlmarkov.mckean_vlasov import simulate

    kernel, mu = kernels.markov_example_kernel(), DiscreteMeasure.uniform(2)
    assert evolve(kernel, mu, 3).steps == 3
    assert find_invariant(kernel, mu).iterations >= 1
    pairs = [[mu.weights, DiscreteMeasure.dirac(0, 2).weights]]
    assert check_contraction_inequality(kernel, 0.1, 0.1, pairs).n_pairs == 1
    params = inspect.signature(simulate).parameters
    assert {"n_particles", "horizon", "step_size"} <= params.keys()
    for sweep in (kernels.estimate_alpha, kernels.estimate_lambda):
        assert list(inspect.signature(sweep).parameters) == ["kernel", "grid"]
    assert kernels.MeasureGrid.default(2).size == 51
