"""A fuzzer of the command line, generated from ``cli.OPTIONS``.

Each example runs the chain at one stock kernel, a counterexample
replay or an smve action at its defaults with one numeric option, or
one smve law, --times or --x-grid text, set to an adversarial value, in
a child process of its own (2 GB of address space, 15 s), and checks
what every run promises: exit 0, 1, 2 or 3; no traceback and no numpy
warning on stderr; an exit 2 names the option with its -- and leaves no
output directory; an exit 0 or 1 writes report.json.

Tier-1 runs a derandomized profile of FUZZ_EXAMPLES examples; set
NLMARKOV_FUZZ_EXAMPLES to run more, drawn afresh:

    NLMARKOV_FUZZ_EXAMPLES=400 python -m pytest tests/test_cli_fuzz.py
"""

import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

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


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def violations(prefix, key, value) -> list:
    """Run the CLI on ``prefix`` with --key set to ``value`` in a child
    process and return the promises it broke."""
    src = str(Path(nlmarkov.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nlmarkov.cli", *prefix, f"--{key}={value}",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit,
                env={**os.environ, "PYTHONPATH": src})
        except subprocess.TimeoutExpired:
            return [f"no exit within {TIMEOUT_S} s"]
        code, err, broken = done.returncode, done.stderr, []
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


def test_every_run_has_numeric_options_to_fuzz():
    # the chain at five stock kernels, three replays and five smve actions
    assert len({prefix for prefix, _, _ in CASES}) == 13
