"""Spans around nlmarkov's public functions, installed from outside the
package.

``cli.py`` binds names with ``from .x import y``, so a span must replace
the function object in every nlmarkov module that holds it, not only in
the module that defines it.  Methods are replaced on their class.  A
name the tracer cannot find is recorded in ``absent`` instead of
raising, so a later rename shows up in the results rather than breaking
the benchmark.

A span's self time is its duration minus the durations of the spans it
directly contains.  Counts (calls, items) are deterministic for a given
input and are compared across traced runs by run.py.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter

import numpy as np


def _grid_size(bound, result):
    grid = bound.get("grid")
    if grid is None:
        from nlmarkov.kernels import MeasureGrid
        grid = MeasureGrid.default(bound["kernel"].space_size)
    return grid.size


def _particle_steps(bound, result):
    return int(bound["n_particles"]) * int(round(bound["horizon"] / bound["step_size"]))


# (module, attribute, items per call as f(bound arguments, result), options)
TARGETS = [
    ("kernels", "estimate_alpha", _grid_size, {"memory": True}),
    ("kernels", "estimate_lambda", _grid_size, {"memory": True}),
    ("kernels", "NonlinearKernel.matrix", None, {"distinct": True}),
    ("kernels", "validate", None, {}),
    ("kernel_spec", "load_kernel_spec", None, {}),
    ("ergodicity", "evolve", lambda b, r: r.steps, {}),
    ("ergodicity", "find_invariant", lambda b, r: r.iterations, {}),
    ("ergodicity", "check_contraction_inequality", lambda b, r: r.n_pairs, {}),
    ("ergodicity", "check_rate", None, {}),
    ("counterexamples", "verify_oscillation", None, {}),
    ("counterexamples", "verify_continuum", None, {}),
    ("counterexamples", "verify_no_invariant_recursion", None, {}),
    ("mckean_vlasov", "simulate", _particle_steps, {}),
    ("mckean_vlasov", "SMVESpec.drift", None, {}),
    ("diagnostics", "calibrate_tv_allowance", None, {}),
    ("diagnostics", "estimate_local_alpha", None, {}),
    ("diagnostics", "girsanov_bound_check", None, {}),
    ("diagnostics", "fit_decay", None, {}),
    ("measures", "histogram_of", lambda b, r: b["ensemble"].n_samples, {}),
    ("measures", "tv_between_histograms", None, {}),
    ("reporting", "write_json_report", None, {}),
    ("reporting", "write_csv", None, {}),
    ("cli", "main", None, {}),
]

SPANS = [f"{module}.{attr.split('.')[-1]}" for module, attr, _, _ in TARGETS]
CALIBRATION = "diagnostics.calibrate_tv_allowance"


class Span:
    __slots__ = ("calls", "total_s", "self_s", "items", "peak_mb")

    def __init__(self):
        self.calls, self.total_s, self.self_s, self.items, self.peak_mb = 0, 0.0, 0.0, 0, 0.0


class Tracer:
    """Collects span statistics for one child process."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.stack: list = []  # [name, time covered by direct children]
        self.absent: list[str] = []
        self.distinct: set = set()
        self.calibration_items = 0

    def span(self, name: str, fn, items=None, memory=False, distinct=False):
        """Wrap ``fn`` so each call records one span named ``name``."""
        stat = self.spans.setdefault(name, Span())
        signature = inspect.signature(fn) if items is not None else None
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            if distinct:
                nu = args[1] if len(args) > 1 else kwargs["nu"]
                w = np.asarray(getattr(nu, "weights", nu), dtype=float)
                self.distinct.add((args[0].label, w.tobytes()))
            in_calibration = any(f[0] == CALIBRATION for f in stack)
            frame = [name, 0.0]
            stack.append(frame)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    stat.peak_mb = max(stat.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                stack.pop()
            n = 0
            if items is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n = items(bound.arguments, result)
                if in_calibration:
                    self.calibration_items += n
            elapsed = perf_counter() - start
            stat.calls += 1
            stat.items += n
            stat.total_s += elapsed
            stat.self_s += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            return result

        return wrapper

    def install(self):
        """Replace every target in every loaded nlmarkov module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "nlmarkov" or k.startswith("nlmarkov.")) and m is not None]
        for name, (mod_name, attr, items, opts) in zip(SPANS, TARGETS):
            owner = sys.modules.get(f"nlmarkov.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(member) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.span(name, original, items, **opts)
            if owner_name:
                setattr(owner, member, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def table(self) -> dict:
        return {k: {f: getattr(s, f) for f in Span.__slots__}
                for k, s in self.spans.items()}
