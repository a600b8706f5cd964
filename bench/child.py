"""One run of a workload in a fresh interpreter.

    python3 bench/child.py RESULT WORKLOAD SEED TRACE

times ``import nlmarkov.cli`` (the set-up time), then runs the
workload's ops one after another, timing each, and checks each op's
output.  With TRACE=1 it first installs spans (tracer.py) around the
package's public functions.  WORKLOAD ``-`` only imports.  Op outputs
go under the current directory; the result is written to RESULT as
JSON.
"""

import sys
import time

_start = time.perf_counter()
import nlmarkov.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import Q2, WORKLOADS, blended_q5, contraction_pairs, op_argv, op_span  # noqa: E402
from workloads import CONTRACTION_PAIRS, CONTRACTION_TOL, MIX_LAM  # noqa: E402

REPORT_SCHEMA = "nlmarkov.report/1"
HEADLINE_KEYS = ("alpha_hat", "lambda_hat", "regime", "theta", "allowance", "noise_floor")
CONTRACTION_BASES = {"mixture2": Q2, "blend5": blended_q5()}


def headlines(doc) -> dict:
    """First occurrence of each headline key among the claims and details,
    depth first over sorted keys."""
    found = {}

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                if key in HEADLINE_KEYS and key not in found:
                    found[key] = node[key]
                walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk([doc.get("claims"), doc.get("details")])
    return found


def check_report(out: Path, code) -> dict:
    """Outcome of a CLI op from its exit code and report.json."""
    path = out / "report.json"
    if not path.is_file():
        return {"outcome": "broken", "reason": f"exit {code}, no report.json"}
    raw = path.read_bytes()
    doc = json.loads(raw)
    entry = {"digest": hashlib.sha256(raw).hexdigest(), "headlines": headlines(doc)}
    if doc.get("schema") != REPORT_SCHEMA:
        return {**entry, "outcome": "broken", "reason": f"schema {doc.get('schema')!r}"}
    passed = doc.get("passed")
    if code == 0 and passed is True:
        return {**entry, "outcome": "passed"}
    if code == 1 and passed is False:
        return {**entry, "outcome": "falsified"}
    return {**entry, "outcome": "broken",
            "reason": f"exit {code} with report passed={passed!r}"}


def contraction_op(kernels: list, seed: int):
    """Criterion-4-shaped check: certify each mixture kernel, then test the
    one-step contraction inequality on seeded random pairs.  Returns the op
    callable (timed) and its result checker (untimed)."""
    from nlmarkov import ergodicity, kernels as nk

    inputs = [(name, CONTRACTION_BASES[name],
               contraction_pairs(CONTRACTION_BASES[name].shape[0], seed))
              for name, _ in kernels]
    results = {}

    def run():
        for name, q, pairs in inputs:
            kernel = nk.mixture_kernel(q, MIX_LAM)
            cert = nk.certify(kernel)
            chk = ergodicity.check_contraction_inequality(
                kernel, cert.alpha_hat, cert.lambda_hat, pairs, tol=CONTRACTION_TOL)
            results[name] = {"alpha_hat": cert.alpha_hat, "lambda_hat": cert.lambda_hat,
                             "regime": cert.regime, "check": chk.to_dict()}
        return 0

    def check(code):
        raw = json.dumps(results, sort_keys=True).encode()
        heads = {f"{name}.{key}": value for name, r in results.items()
                 for key, value in r.items() if key in HEADLINE_KEYS}
        ok = all(r["check"]["passed"] and r["check"]["n_pairs"] == CONTRACTION_PAIRS
                 for r in results.values())
        return {"digest": hashlib.sha256(raw).hexdigest(), "headlines": heads,
                "outcome": "passed" if ok else "falsified"}

    return run, check


def cli_op(argv: list, out: Path):
    def run():
        try:
            return nlmarkov.cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code

    return run, lambda code: check_report(out, code)


def main() -> int:
    result_path, workload, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    result = {"setup_s": SETUP_S}
    if workload != "-":
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        ops, wall = [], 0.0
        for name, kind, argv, oracle in WORKLOADS[workload]:
            if kind == "lib":
                run, check = contraction_op(oracle, seed)
            else:
                run, check = cli_op(op_argv(argv, seed), Path(name))
            if tracer is not None:
                run = tracer.span(op_span(name, kind), run)
            start = time.perf_counter()
            try:
                code, error = run(), None
            except Exception as exc:  # the op crashed: record it, run the rest
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            wall += elapsed
            entry = ({"outcome": "broken", "reason": error} if error is not None
                     else check(code))
            ops.append({"name": name, "exit": code, **entry})
        result.update(wall_s=wall, ops=ops)
        if tracer is not None:
            result.update(spans=tracer.table(), absent=tracer.absent,
                          distinct_matrix_inputs=len(tracer.distinct),
                          calibration_items=tracer.calibration_items)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
