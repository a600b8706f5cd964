"""Workload table shared by the benchmark runner (run.py) and its child
process (child.py).

Each op is ``(name, kind, argv, oracle)``:

* ``kind`` is ``"cli"`` (run as ``nlmarkov.cli.main(argv + ["--out", dir])``)
  or ``"lib"`` (the contraction check, which no CLI path reaches);
* ``argv`` for ``smve`` ops gets ``--seed <workload seed>`` appended;
* ``oracle`` names the kernels whose certificate the pairwise reference
  sweep in ``oracle.py`` recomputes, as ``(kernel, resolution)`` pairs;
  for the contraction op these are also the kernels it checks.

This module imports numpy only, never nlmarkov, so run.py stays
independent of the code it measures.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SPEC5 = BENCH_DIR / "spec5.json"

MIX_LAM = 0.2
Q2 = np.array([[0.7, 0.3], [0.4, 0.6]])
CONTRACTION_PAIRS = 10_000
CONTRACTION_TOL = 1e-10


def birth_death_q5() -> np.ndarray:
    """The CLI's stock 5-state base matrix (birth-death 0.7/0.2/0.1,
    blended with a 0.1 uniform jitter), written out independently."""
    q = np.zeros((5, 5))
    for i in range(5):
        q[i, max(i - 1, 0)] += 0.7
        q[i, i] += 0.2
        q[i, min(i + 1, 4)] += 0.1
    return 0.9 * q + 0.1 / 5


def blended_q5() -> np.ndarray:
    """5-state base of the contraction op: half uniform, half stock,
    the same base as the acceptance gate's contraction criterion."""
    return 0.5 * np.full((5, 5), 0.2) + 0.5 * birth_death_q5()


WORKLOADS = {
    # Grid sweeps dominate: 5 states at R=10 (1,001 measures, the 2 GB
    # pairwise alpha block), a JSON-spec kernel evaluated through Python
    # closures, and 30 states where pairwise blocks beat 2^(n-1) sign
    # vectors.  No particle code runs.
    "certify-grid": [
        ("chain-mixture5-r10", "cli",
         ["chain", "--kernel", "mixture", "--space", "5", "--resolution", "10"],
         [("mixture5", 10)]),
        ("chain-spec5", "cli",
         ["chain", "--kernel", "custom", "--kernel-file", str(SPEC5)],
         [("spec5", 8)]),
        ("chain-noinv-t30-r1", "cli",
         ["chain", "--kernel", "no-invariant", "--truncation", "30",
          "--resolution", "1"],
         [("noinv30", 1)]),
    ],
    # Small-n chain stepping: one kernel evaluation per step, tens of
    # thousands of them.  Only the 5-state certify touches a big grid.
    "chain-replay": [
        ("counterexample-oscillation", "cli", ["counterexample", "oscillation"], []),
        ("counterexample-continuum", "cli", ["counterexample", "continuum"], []),
        ("counterexample-no-invariant", "cli", ["counterexample", "no-invariant"], []),
        ("chain-default", "cli", ["chain"], [("markov2", 50)]),
        ("chain-mixture2", "cli", ["chain", "--kernel", "mixture"], [("mixture2", 50)]),
        ("contraction-pairs", "lib", [], [("mixture2", 50), ("blend5", 8)]),
    ],
    # Particle systems: decay's twelve narrow, long runs beside
    # local-alpha's one wide, short run.  No kernel code runs.
    "particles": [
        ("smve-decay", "cli", ["smve", "decay"], []),
        ("smve-girsanov-check", "cli", ["smve", "girsanov-check"], []),
        ("smve-local-alpha", "cli", ["smve", "local-alpha"], []),
    ],
}


def op_span(name: str, kind: str) -> str:
    """Name of the traced span around one op."""
    return f"{'lib' if kind == 'lib' else 'cli.main'}.{name}"


def op_argv(argv: list, seed: int) -> list:
    """The op's CLI arguments with the workload seed applied."""
    return [*argv, "--seed", str(seed)] if argv[:1] == ["smve"] else list(argv)


def contraction_pairs(size: int, seed: int) -> list:
    """Seeded random measure pairs for the contraction op."""
    rng = np.random.default_rng([seed, size])
    ones = np.ones(size)
    return [(rng.dirichlet(ones), rng.dirichlet(ones))
            for _ in range(CONTRACTION_PAIRS)]
