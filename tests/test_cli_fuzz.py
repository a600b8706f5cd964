"""A fuzzer of the command line, generated from ``cli.OPTIONS``.

Each example runs the chain at one stock kernel, a counterexample
replay or an smve action at its defaults with one numeric option, one
chain --mu0 weight list, or one smve law, --times or --x-grid text, set
to an adversarial value, in a child process of its own (2 GB of address
space beyond what it inherits, 15 s), and checks what every run
promises: exit 0, 1, 2 or 3; no traceback and no numpy warning on
stderr; an exit 2 names the option with its -- and leaves no output
directory; an exit 0 or 1 writes report.json.

The examples fork the test process, which has imported the package
already, and call ``cli.main`` in the child.  One example of each run
goes through ``python -m nlmarkov.cli`` instead, so the interpreter's
own path (its warning filters, ``sys.exit``) stays covered.

Tier-1 runs a derandomized profile of FUZZ_EXAMPLES examples; set
NLMARKOV_FUZZ_EXAMPLES to run more, drawn afresh:

    NLMARKOV_FUZZ_EXAMPLES=400 python -m pytest tests/test_cli_fuzz.py
"""

import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nlmarkov
from nlmarkov import cli

FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "1e30")
INTS = ("0", "-1", str(10**30), str(10**308))
# laws at the edge of the float range or of their parameters' ranges,
# and lists of times or starts at 0, past every horizon or not finite
LAWS = ("gauss:0,1e308", "gauss:1e308,1", "point:1e308", "mix:0,1e308,0.5",
        "gauss:0,1e-320", "gauss:0,0", "mix:0,1,1e-320", "mix:0,1,2")
LISTS = ("0", "-0", "0,0", "1e308", "-1e308", "1e-320", "nan", "0,1e308")
TEXTS = {"mu0": LAWS, "nu0": LAWS, "times": LISTS, "x-grid": LISTS}
# chain --mu0 weight lists: sums past the float range, non-finite,
# negative or subnormal weights, and the wrong number of states
WEIGHTS = ("1e308,1e308", "1e308,1e308,0,0,0", "nan,1", "inf,0", "-1,2",
           "1e-320,1", "0,0", "1")

FUZZ_EXAMPLES = 40
ADDRESS_SPACE = 2 * 2**30
TIMEOUT_S = 15


def _runs():
    """The argv prefix and the option table of the chain at each stock
    kernel, of each replay and of each smve action."""
    for command, table in cli.OPTIONS.items():
        if command == "smve":
            for action, options in table.items():
                yield ("smve", action), options
        elif command == "counterexample":
            for which in cli._REPLAYS:
                yield ("counterexample", which), table
        else:
            for kernel in cli._KERNELS:
                yield (command, "--kernel", kernel), table


# Every numeric option a run reads, and every text option of TEXTS an
# smve action reads, with its adversarial values
CASES = [(prefix, key, FLOATS if isinstance(option.default, float) else INTS)
         for prefix, table in _runs() for key, option in table.items()
         if type(option.default) in (int, float) and not option.choices]
CASES += [(prefix, key, TEXTS[key]) for prefix, table in _runs()
          if prefix[0] == "smve" for key in table if key in TEXTS]
CASES += [(prefix, "mu0", WEIGHTS) for prefix, _ in _runs() if prefix[0] == "chain"]


def _limit(inherited: int = 0):
    """Cap this process's address space at ADDRESS_SPACE beyond the
    ``inherited`` bytes it maps already."""
    size = inherited + ADDRESS_SPACE
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def _mapped() -> int:
    """Bytes of address space this process maps (VmSize), 0 where
    /proc/self/status does not say."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _interpreted(argv: list) -> tuple:
    """Exit code and stderr of ``python -m nlmarkov.cli`` on ``argv``,
    or None for the code if it runs past TIMEOUT_S."""
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nlmarkov.cli", *argv],
            capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit,
            env={**os.environ, "PYTHONPATH": src})
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stderr


def _run_main(argv: list, stdout: int, stderr: int) -> int:
    """In a forked child: ``cli.main(argv)`` with fds 1 and 2 on the given
    files, ADDRESS_SPACE beyond what the test process mapped, every
    warning written to stderr as the interpreter writes it, and a
    traceback and exit code 1 for an exception that escapes."""
    os.dup2(stdout, 1)
    os.dup2(stderr, 2)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", closefd=False)
    _limit(_mapped())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    for w in caught:
        sys.stderr.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    sys.stdout.flush()
    sys.stderr.flush()
    return code if isinstance(code, int) else 1


def _forked(argv: list) -> tuple:
    """Exit code and stderr of ``cli.main(argv)`` in a forked child, or
    None for the code if the child runs past TIMEOUT_S and is killed."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if pid == 0:  # the child leaves here, never through pytest
            code = 1
            try:
                code = _run_main(argv, out.fileno(), err.fileno())
            finally:
                os._exit(code)
        deadline = time.monotonic() + TIMEOUT_S
        while not (reaped := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return None, ""
            time.sleep(0.002)
        err.seek(0)
        return os.waitstatus_to_exitcode(reaped[1]), err.read().decode(errors="replace")


def violations(prefix, key, value, fork: bool = True) -> list:
    """Run the CLI on ``prefix`` with --key set to ``value`` in a child
    process, forked or a fresh interpreter, and return the promises it
    broke."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [*prefix, f"--{key}={value}", "--out", str(out)]
        code, err = (_forked if fork else _interpreted)(argv)
        if code is None:
            return [f"no exit within {TIMEOUT_S} s"]
        broken = []
        if code not in (0, 1, 2, 3):
            broken.append(f"exit {code}")
        if "Traceback" in err or "Warning" in err:
            broken.append("a traceback or a warning on stderr")
        if code == 2 and out.exists():
            broken.append("exit 2 left an output directory")
        if code == 2 and not re.search(f"--{key}(?![\\w-])", err):
            broken.append(f"exit 2 names no --{key}")
        if code in (0, 1) and not (out / "report.json").is_file():
            broken.append(f"exit {code} wrote no report.json")
    return [f"{' '.join(prefix)} --{key}={value}: {b}\n{err}" for b in broken]


def _examples() -> dict:
    more = os.environ.get("NLMARKOV_FUZZ_EXAMPLES")
    return {"max_examples": int(more or FUZZ_EXAMPLES), "derandomize": not more}


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], **_examples())
@given(st.sampled_from(CASES).flatmap(
    lambda case: st.tuples(st.just(case[:2]), st.sampled_from(case[2]))))
def test_an_adversarial_option_keeps_the_cli_promises(example):
    (prefix, key), value = example
    assert violations(prefix, key, value) == []


# The first adversarial value of each run's first case
INTERPRETED = {}
for _prefix, _key, _values in CASES:
    INTERPRETED.setdefault(_prefix, (_key, _values[0]))


@pytest.mark.parametrize("prefix", sorted(INTERPRETED), ids=" ".join)
def test_an_adversarial_option_keeps_the_cli_promises_in_a_fresh_interpreter(prefix):
    key, value = INTERPRETED[prefix]
    assert violations(prefix, key, value, fork=False) == []


def test_every_run_has_numeric_options_to_fuzz():
    # the chain at five stock kernels, three replays and five smve actions
    assert len({prefix for prefix, _, _ in CASES}) == 13
