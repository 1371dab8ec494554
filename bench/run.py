"""fracgreen benchmark: one command per workload, metrics by name and unit.

    python3 bench/run.py --workload verify-n3-s0.5 --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy. With ``--trace 0`` the run
repeats the workload until ``--seconds`` have passed (at least once) and
reports the end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once under the outside-in layer tracer and reports the
per-layer metrics. Every operation is checked against reference.json. The
last line of standard output is the result object; the line before it is the
environment record. Both, and the traced spans, are also written to
``.bench_out/`` in the checkout. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from fracgreen import ProblemParams, QuadratureSpec
ProblemParams.from_gamma({dim}, {order}, 0.8 * ({dim} - 2 * {order}) / 2)
QuadratureSpec()
print(time.perf_counter() - t0)
"""


def setup_seconds(dim: int, order: float) -> float:
    """Median over fresh interpreters of import plus parameter set-up."""
    code = _SETUP_CODE.format(src=str(SRC), dim=dim, order=order)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    # a checkout without git metadata: identify it by its library sources
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "openblas_threads": _openblas_threads(),
        "commit": _commit(), "seed": seed,
    }


def run_rep(workload, inputs, refs, tag):
    """One repetition; an exception fails every reference operation."""
    from workloads import Rep, _op
    try:
        return workload.run(inputs, OUT, tag)
    except Exception as ex:
        msg = f"{type(ex).__name__}: {ex}"
        return Rep([_op(name, error=msg)
                    for name in workload.expected_ops(inputs, refs)],
                   msg.encode())


def judge_rep(workload, inputs, rep, refs, tally):
    from fracgreen import QuadratureSpec
    from workloads import judge
    seen = set()
    for op in rep.ops:
        seen.add(op["name"])
        failed, correct = judge(op, refs.get(op["name"]),
                                QuadratureSpec().rel_tol)
        tally["attempted"] += 1
        tally["failed"] += failed
        tally["correct"] &= correct
    # an expected operation that went missing counts as failed
    missing = len(set(workload.expected_ops(inputs, refs)) - seen)
    tally["attempted"] += missing
    tally["failed"] += missing
    tally["correct"] &= missing == 0


def measure(workload, inputs, refs, seconds, tally):
    setup = setup_seconds(workload.dim, workload.order)
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run_rep(workload, inputs, refs, "untraced")
        walls.append(time.perf_counter() - t0)
        judge_rep(workload, inputs, rep, refs, tally)
        if time.perf_counter() - start >= seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return end_to_end_metrics(walls, setup, peak_kib, tally), {"walls": walls}


def end_to_end_metrics(walls, setup, peak_kib, tally) -> dict:
    """Every end-to-end metric, by name, with its unit."""
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "ok_frac": {"value": 1.0 - tally["failed"] / tally["attempted"],
                    "unit": "fraction"},
    }


def measure_traced(workload, inputs, refs, seed, tally):
    from trace_layers import Tracer
    t0 = time.perf_counter()
    plain = run_rep(workload, inputs, refs, "untraced")
    wall_plain = time.perf_counter() - t0
    judge_rep(workload, inputs, plain, refs, tally)
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        traced = run_rep(workload, inputs, refs, "traced")
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    judge_rep(workload, inputs, traced, refs, tally)
    identical = plain.report == traced.report
    tally["correct"] &= identical
    metrics = tracer.layer_metrics(wall_traced / wall_plain - 1.0)
    return metrics, {"wall_untraced": wall_plain, "wall_traced": wall_traced,
                     "reports_identical": identical,
                     "spans": len(tracer.start)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fracgreen" / "__init__.py").is_file():
        print(f"error: no fracgreen sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fracgreen
    if Path(fracgreen.__file__).resolve().parent != SRC / "fracgreen":
        print(f"error: imported {fracgreen.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    refs = json.loads((HERE / "reference.json").read_text())[workload.name]
    OUT.mkdir(exist_ok=True)
    inputs = workload.inputs(args.seed)
    tally = {"attempted": 0, "failed": 0, "correct": True}
    if args.trace:
        metrics, detail = measure_traced(workload, inputs, refs, args.seed,
                                         tally)
    else:
        metrics, detail = measure(workload, inputs, refs, args.seconds,
                                  tally)
    env = environment(args.seed)
    result = {"correct": bool(tally["correct"]),
              "attempted": int(tally["attempted"]),
              "failed": int(tally["failed"]), "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace,
              "inputs": inputs, "environment": env, "detail": detail,
              "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
