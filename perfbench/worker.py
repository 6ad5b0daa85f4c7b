"""One workload in a fresh process; started by run.py, not by hand.

Imports qtwist from <root>/src, builds the workload's inputs, and then
(unless --setup-only) runs passes until --seconds would be exceeded,
checking every op's report against the snapshot.  Prints one JSON line.

With --trace 1 the set-up is traced, then untraced passes run for the
first half of the time and traced passes for the second half, so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import gate

HERE = os.path.dirname(os.path.abspath(__file__))


def now() -> float:
    # system-wide clock, so run.py can time this process from its spawn
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(ops, snapshot, tally) -> float:
    """Run every op once; returns the summed op time."""
    total = 0.0
    for key, op in ops:
        t0 = time.perf_counter()
        try:
            report = op()
        except Exception as exc:  # an op that raises is a failed op
            report, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        total += dt
        tally["op_times"].append(dt)
        tally["attempted"] += 1
        if report is not None:
            problems = gate.check(report, snapshot.get(key))
        if problems:
            tally["failed"] += 1
            if len(tally["failures"]) < 20:
                tally["failures"].append({"op": key, "problems": problems[:5]})
    return total


def timed_passes(run, deadline) -> list[float]:
    """Start another pass only while it is expected to end by the deadline."""
    passes = []
    while True:
        passes.append(run())
        if now() + statistics.median(passes) > deadline:
            return passes


def layer_metrics(tracer, setup, marks, root) -> dict:
    """Every per-layer metric BENCHMARK.json lists, from the traced passes."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    names.remove("trace.overhead_s")
    unknown = [m for m in names if not tracer.known(m)]
    if unknown:
        raise SystemExit(f"per-layer metrics the tracer cannot produce: {unknown}")
    summary = tracer.summary(setup, marks)
    return {m: summary.get(m, 0.0) for m in names}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path[:0] = [src, HERE]
    import qtwist

    if not os.path.abspath(qtwist.__file__).startswith(os.path.join(src, "")):
        sys.stderr.write(f"qtwist imported from {qtwist.__file__}, not from {src}\n")
        return 3
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        before = tracer.mark()
    ops = workloads.build(args.workload, args.seed)
    ready = now()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    snapshot = gate.load().get(args.workload, {})
    tally = {"op_times": [], "attempted": 0, "failed": 0, "failures": []}
    out = {"ready": ready, "ops_per_pass": len(ops)}
    if tracer is None:
        out["passes"] = timed_passes(lambda: run_pass(ops, snapshot, tally), ready + args.seconds)
    else:
        setup = (before, tracer.mark())
        tracer.uninstall()
        out["passes"] = timed_passes(lambda: run_pass(ops, snapshot, tally), ready + args.seconds / 2)
        tracer.install()
        marks = []

        def traced_pass():
            a = tracer.mark()
            wall = run_pass(ops, snapshot, tally)
            marks.append((a, tracer.mark()))
            return wall

        out["traced_passes"] = timed_passes(traced_pass, ready + args.seconds)
        tracer.uninstall()
        layers = layer_metrics(tracer, setup, marks, args.root)
        layers["trace.overhead_s"] = statistics.median(out["traced_passes"]) - statistics.median(
            out["passes"]
        )
        out["layers"] = layers
        tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.json.gz"))
    out.update(tally)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["machine"] = machine()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
