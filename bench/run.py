#!/usr/bin/env python3
"""nlmarkov benchmark runner.

    python3 bench/run.py --workload certify-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run of the workload is a
fresh child process (bench/child.py) that imports ``nlmarkov.cli`` from
``src/`` and calls its ops one after another: a closed loop with one
client, one child at a time.  A child is started while it is expected
to end within ``--seconds``, and at least three are, so a workload whose
child takes longer than a third of ``--seconds`` runs longer.  Every
end-to-end metric is the median over the children:

    wall_s        wall time of the ops in a child, import excluded
    setup_s       time to import nlmarkov.cli (import-only children
                  plus the workload children)
    peak_rss_mb   the child's ru_maxrss, from os.wait4
    cpu_s         the child's user + system CPU time
    passed_share  ops that exit 0 with a passing report, of all attempted

With ``--trace 1`` two more children run with spans around the
package's public functions (tracer.py) and under ``-X importtime``; the
per-layer metrics come from them.  Their call and item counts must
agree exactly.

Output checks: each op's report.json exists, has the report schema and
agrees with the exit code; its digest is the same in every child of
the run; chain certificates match the pairwise reference sweep in
oracle.py within 1e-12.  An op counts as failed when any of these does
not hold or it raises.  A falsified claim (exit 1 with a report that
says so) is the program's verdict, not a failure: it lowers
passed_share.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, with the
machine block, op digests and headline values, go to
bench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import BENCH_DIR, WORKLOADS, op_span

MIN_CHILDREN = 3
TRACED_CHILDREN = 2
SETUP_CHILDREN = 5
HARD_LIMIT_S = 165.0
ORACLE_TOL = 1e-12
TIME_FIELDS = ("self_s", "total_s", "peak_mb")
COUNT_FIELDS = ("calls", "items")


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
    }


class Runner:
    """Starts children one at a time and reaps them with os.wait4."""

    def __init__(self, root: Path, out: Path, seed: int, deadline: float):
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env = {**os.environ, "PYTHONPATH": path}
        self.out, self.seed, self.deadline = out, seed, deadline
        self.count = 0

    @property
    def expired(self) -> bool:
        return time.monotonic() > self.deadline

    def child(self, workload: str, trace: bool = False) -> dict:
        self.count += 1
        work = self.out / f"child-{self.count}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = work / "result.json"
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
               str(BENCH_DIR / "child.py"), str(result), workload, str(self.seed),
               "1" if trace else "0"]
        try:
            with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
                proc = subprocess.Popen(cmd, cwd=work, env=self.env, stdout=out, stderr=err)
                pid = 0
                try:
                    while time.monotonic() <= self.deadline:
                        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                        if pid:
                            break
                        time.sleep(0.02)
                finally:
                    if not pid:  # past the deadline or interrupted: stop the child
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                timed_out = not pid
                proc.returncode = os.waitstatus_to_exitcode(status)
            stderr = (work / "stderr").read_text(errors="replace")
            if timed_out:
                return {"crashed": f"killed at the run's {HARD_LIMIT_S:g} s limit"}
            if proc.returncode != 0 or not result.is_file():
                tail = "\n".join(stderr.splitlines()[-5:])
                return {"crashed": f"exit {proc.returncode}: {tail}"}
            doc = json.loads(result.read_text())
            doc["rss_mb"] = usage.ru_maxrss / 1024.0
            doc["cpu_s"] = usage.ru_utime + usage.ru_stime
            if trace:
                doc["imports"] = import_times(stderr)
            return doc
        finally:
            shutil.rmtree(work, ignore_errors=True)


def import_times(stderr: str) -> dict:
    """Seconds spent importing each top-level package, summed over the
    self times that ``-X importtime`` prints."""
    totals = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        totals[top] = totals.get(top, 0.0) + int(fields[0]) / 1e6
    return totals


def oracle_values(workload: str) -> dict:
    """{op name: [(kernel, alpha_hat, lambda_hat)]} from the pairwise sweep."""
    from oracle import certificate
    return {name: [(kernel, *certificate(kernel, r)) for kernel, r in refs]
            for name, _, _, refs in WORKLOADS[workload] if refs}


def matches_oracle(op: dict, kind: str, refs: list) -> bool:
    for kernel, alpha, lam in refs:
        prefix = f"{kernel}." if kind == "lib" else ""
        for key, want in (("alpha_hat", alpha), ("lambda_hat", lam)):
            got = op["headlines"].get(prefix + key)
            if not isinstance(got, float) or abs(got - want) > ORACLE_TOL:
                return False
    return True


def check_ops(children: list, kinds: dict, oracle: dict) -> tuple:
    """Count op outcomes over all children and list the failed checks."""
    attempted = passed = failed = 0
    problems = []
    first = {}
    for child in children:
        if "crashed" in child:
            attempted += len(kinds)
            failed += len(kinds)
            problems.append(f"child crashed: {child['crashed']}")
            continue
        for op in child["ops"]:
            attempted += 1
            name = op["name"]
            ref = first.setdefault(name, op)
            if op["outcome"] == "broken":
                problem = op["reason"]
            elif op["digest"] != ref.get("digest"):
                problem = "report digest differs between children"
            elif not matches_oracle(op, kinds[name], oracle.get(name, [])):
                problem = "certificate differs from the pairwise oracle"
            else:
                passed += op["outcome"] == "passed"
                continue
            failed += 1
            problems.append(f"{name}: {problem}")
    return attempted, passed, failed, problems, first


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(spec: list, traced: list, untraced_wall: float) -> tuple:
    """Per-layer metrics from the traced children, and any count that
    differs between them."""
    from tracer import SPANS
    target_spans = set(SPANS)
    known = target_spans | {op_span(name, kind) for ops in WORKLOADS.values()
                            for name, kind, _, _ in ops}
    unstable = []
    base = traced[0]
    for child in traced[1:]:
        for span, stat in base["spans"].items():
            other = child["spans"].get(span, {})
            for field in COUNT_FIELDS:
                if stat[field] != other.get(field):
                    unstable.append(f"{span}.{field}")
        for key in ("distinct_matrix_inputs", "calibration_items"):
            if base[key] != child[key]:
                unstable.append(key)

    def median_of(fn):
        return statistics.median(fn(c) for c in traced)

    def stat(child, span, field):
        return child["spans"].get(span, {}).get(field, 0)

    values = {}
    for entry in spec:
        name = entry["name"]
        if name.startswith("import."):
            pkg = name.split(".")[1].removesuffix("_s")
            values[name] = median_of(lambda c: c["imports"].get(pkg, 0.0))
        elif name == "trace.overhead":
            values[name] = median_of(lambda c: c["wall_s"]) / untraced_wall
        elif name == "trace.coverage":
            values[name] = median_of(
                lambda c: sum(s["self_s"] for k, s in c["spans"].items() if k in target_spans)
                / c["wall_s"])
        elif name == "diagnostics.calibration_share":
            steps = stat(base, "mckean_vlasov.simulate", "items")
            values[name] = base["calibration_items"] / steps if steps else 0.0
        elif name == "kernels.matrix.distinct_share":
            calls = stat(base, "kernels.matrix", "calls")
            values[name] = base["distinct_matrix_inputs"] / calls if calls else 0.0
        else:
            span, field = name.rsplit(".", 1)
            if span not in known or field not in TIME_FIELDS + COUNT_FIELDS:
                raise SystemExit(f"BENCHMARK.json names unknown per-layer metric {name}")
            if field in TIME_FIELDS:
                values[name] = median_of(lambda c: stat(c, span, field))
            else:
                values[name] = stat(base, span, field)
    return values, unstable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "nlmarkov" / "cli.py").is_file():
        print(f"error: no nlmarkov source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    started = time.monotonic()
    out = BENCH_DIR / "out"
    runner = Runner(root, out, args.seed, started + HARD_LIMIT_S)
    kinds = {name: kind for name, kind, _, _ in WORKLOADS[args.workload]}

    oracle = oracle_values(args.workload)
    problems = []
    untraced, traced, setup = [], [], []
    runner.child("-")  # compiles bytecode and warms the file cache; not counted
    for _ in range(SETUP_CHILDREN):
        doc = runner.child("-")
        if "setup_s" in doc:
            setup.append(doc["setup_s"])
    # start a child only if it is expected to end within --seconds
    loop_start = time.monotonic()
    while not runner.expired and (len(untraced) < MIN_CHILDREN or (
            (time.monotonic() - loop_start) * (len(untraced) + 1) / len(untraced)
            <= args.seconds)):
        untraced.append(runner.child(args.workload))
    for _ in range(TRACED_CHILDREN if args.trace else 0):
        traced.append(runner.child(args.workload, trace=True))
    # a child the time limit left unstarted counts as one that crashed
    untraced += [{"crashed": "not started: time limit"}] * (MIN_CHILDREN - len(untraced))

    attempted, passed, failed, op_problems, first = check_ops(untraced + traced, kinds, oracle)
    problems += op_problems
    ok_untraced = [c for c in untraced if "crashed" not in c]
    ok_traced = [c for c in traced if "crashed" not in c]
    setup += [c["setup_s"] for c in ok_untraced]

    samples = {
        "wall_s": [c["wall_s"] for c in ok_untraced],
        "setup_s": setup,
        "peak_rss_mb": [c["rss_mb"] for c in ok_untraced],
        "cpu_s": [c["cpu_s"] for c in ok_untraced],
    }
    e2e = {name: statistics.median(v) for name, v in samples.items() if v}
    e2e["passed_share"] = passed / attempted if attempted else 0.0
    layers, unstable = {}, []
    if args.trace and len(ok_traced) == TRACED_CHILDREN and "wall_s" in e2e:
        layers, unstable = layer_metrics(bench["per_layer"], ok_traced, e2e["wall_s"])
        problems += [f"count differs between traced children: {u}" for u in unstable]
        absent = sorted({a for c in ok_traced for a in c["absent"]})
    else:
        absent = []
        if args.trace:
            problems.append("traced children did not complete")

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": (layers if args.trace else e2e).get(m["name"], 0.0),
                           "unit": m["unit"]} for m in spec}
    correct = not problems and len(ok_untraced) >= MIN_CHILDREN
    not_passing = attempted - passed

    host = machine()
    print(f"workload {args.workload}  seed {args.seed}  children {len(untraced)}"
          f" untraced + {len(traced)} traced  setup samples {len(setup)}")
    print("  machine " + ", ".join(f"{k} {v}" for k, v in host.items()))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, values in samples.items():
        if values:
            q1, q3 = quartiles(values)
            print(f"  {name:<13} {e2e[name]:12.6g} {units[name]:<6} median of {len(values)}"
                  f"  (quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'passed_share':<13} {e2e['passed_share']:12.6g} {units['passed_share']:<6}"
          f" {passed} of {attempted} ops exit 0 with a passing report")
    print(f"  {'failed_share':<13} {not_passing / max(attempted, 1):12.6g} share "
          f" {not_passing} of {attempted} ops do not pass; {failed} of them are failed checks")
    for name, op in first.items():
        heads = ", ".join(f"{k}={v}" for k, v in sorted(op.get("headlines", {}).items()))
        print(f"  op {name:<28} {op['outcome']:<9} exit {op['exit']}"
              f"  {op.get('digest', '-')[:16]}  {heads}")
    for name, value in layers.items():
        print(f"  layer {name:<50} {value:.6g}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if absent:
        print(f"  absent from the program: {', '.join(absent)}")

    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": host, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": samples, "end_to_end": e2e, "per_layer": layers, "absent": absent,
        "ops": {name: {k: op.get(k) for k in ("outcome", "exit", "digest", "headlines")}
                for name, op in first.items()},
        "oracle": oracle,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
