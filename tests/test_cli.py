"""End-to-end tests of the command line front end: exit codes, output
files, config precedence, and byte-identical reruns."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlmarkov
from nlmarkov import cli, kernel_spec, kernels
from nlmarkov.cli import main
from nlmarkov.mckean_vlasov import DriftBoundError


def read_json(path):
    return json.loads(path.read_text())


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

    def test_custom_kernel_is_validated_once_on_the_chain_grid(self, tmp_path,
                                                                monkeypatch):
        calls, validate = [], kernels.validate

        def counted(kernel, grid=None):
            calls.append(grid)
            return validate(kernel, grid)

        for module in (kernels, kernel_spec, cli):
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
        assert err.startswith("error: resolution 4 gives 292825 grid measures")
        assert err.endswith("the largest resolution that fits is 3\n")
        assert not out.exists()

    def test_bad_kernel_choice_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["chain", "--kernel", "bogus", "--out", str(tmp_path / "x")])

    def test_nonpositive_steps_rejected(self, tmp_path):
        assert main(["chain", "--steps", "0", "--out", str(tmp_path / "x")]) == 2


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

    def test_continuum_runs(self, tmp_path):
        out = tmp_path / "cont"
        assert main(["counterexample", "continuum", "--alpha", "0.2",
                     "--lam", "0.8", "--out", str(out)]) == 0
        assert read_json(out / "report.json")["passed"]


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
                     "--tv0", "0.2", "--times", "0.5,1", "--n", "500",
                     "--h", "0.02", "--bins", "50", "--allowance", "0.1",
                     "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["passed"]
        assert (out / "girsanov.csv").exists()

    def test_girsanov_violation_exits_one(self, tmp_path):
        out = tmp_path / "g"
        assert main(["smve", "girsanov-check", "--preset", "ou",
                     "--mu0", "point:-0.5", "--nu0", "point:0.5",
                     "--tv0", "0", "--times", "0.5", "--n", "200",
                     "--h", "0.05", "--bins", "50", "--allowance", "0",
                     "--seed", "3", "--out", str(out)]) == 1
        assert not read_json(out / "report.json")["passed"]

    def test_local_alpha_smoke(self, tmp_path):
        out = tmp_path / "la"
        assert main(["smve", "local-alpha", "--preset", "ou", "--radius", "1",
                     "--t", "0.5", "--n-sims", "200", "--bins", "20",
                     "--bin-lo", "-6", "--bin-hi", "6", "--h", "0.02",
                     "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert 0 < rep["claims"][0]["witness"]["alpha_hat"] <= 1

    def test_lyapunov_contracts(self, tmp_path):
        out = tmp_path / "ly"
        assert main(["smve", "lyapunov", "--preset", "vh", "--nu0", "gauss:2,1",
                     "--n", "300", "--h", "0.05", "--horizon", "4",
                     "--lag", "1", "--seed", "3", "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["claims"][0]["witness"]["gamma_hat"] < 1.0

    def test_blow_up_exits_three_with_one_error_line(self, tmp_path):
        # simulate steps with its noise thread; in decay the first
        # calibration run blows up, in a worker process where there are
        # two CPUs.  A fresh interpreter, because pytest records numpy's
        # warnings instead of printing them: no overflow warning may
        # precede the one error line.
        src = str(Path(nlmarkov.__file__).resolve().parents[1])
        for action in ("simulate", "decay"):
            done = subprocess.run(
                [sys.executable, "-m", "nlmarkov.cli", "smve", action, "--preset", "ou",
                 "--h", "5", "--horizon", "5000", "--out", str(tmp_path / action)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
            assert done.returncode == 3
            assert done.stderr == "error: ou: non-finite position at step 512\n"

    def test_drift_bound_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def exceeded(*args, **kwargs):
            raise DriftBoundError("vh: |b2| = 5 exceeds D = 1")

        monkeypatch.setattr(cli, "simulate", exceeded)
        assert main(["smve", "simulate", "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == "error: vh: |b2| = 5 exceeds D = 1\n"

    def test_usage_errors(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["smve", "simulate", "--mu0", "bogus", "--out", out]) == 2
        assert main(["smve", "simulate", "--h", "0", "--out", out]) == 2
        assert main(["smve", "simulate", "--n", "50", "--out", out]) == 2
        assert main(["smve", "lyapunov", "--lag", "0", "--out", out]) == 2
        assert main(["smve", "lyapunov", "--horizon", "1", "--lag", "1",
                     "--out", out]) == 2

    def test_float_bins_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bins": 2.5}))
        out = tmp_path / "x"
        assert main(["smve", "simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config field 'bins' must be int" in capsys.readouterr().err
        assert not out.exists()

    def test_sampler_mini_language_errors(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["smve", "simulate", "--mu0", "gauss:0", "--out", out]) == 2
        assert main(["smve", "simulate", "--mu0", "mix:0,1,1.5", "--out", out]) == 2
        assert main(["smve", "simulate", "--mu0", "point:a,b", "--out", out]) == 2


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


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that
    # imports the entry point must not pull scipy in
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = "import sys, nlmarkov.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_cli_import_does_not_load_concurrent_futures():
    # the particle simulator's noise worker is a bare threading.Thread;
    # concurrent.futures would add about 8 ms to every CLI start
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = "import sys, nlmarkov.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_cli_import_does_not_load_multiprocessing():
    # simulate_runs imports multiprocessing when it first forks workers
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    code = "import sys, nlmarkov.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
