"""The qtwist benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload torus_sweep --seed 0 --seconds 50 --trace 0

Run it from anywhere; the program under test is <root>/src, where <root> is
the directory that holds perfbench/.  The workload runs in a fresh worker
process (worker.py).  With --trace 0 it also starts SETUP_RUNS - 1 workers
that only set up, half before the measuring worker and half after it, so
set-up time is a median over the run, and prints the end-to-end metrics;
with --trace 1 it prints the per-layer metrics of a traced run.  Metric
names and units come from <root>/BENCHMARK.json.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The full record (the machine; in a git checkout, the commit and the
uncommitted changes under src; the raw pass and op times) goes to
perfbench/out/<workload>-seed<seed>-trace<t>.json, and the spans of a
traced run to perfbench/out/spans-<workload>-seed<seed>.json.gz.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("torus_sweep", "crossed_dual", "suite_mix")
SETUP_RUNS = 11
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git(*args: str) -> str | None:
    """A git command's output at the root, or None outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker to completion; adds its set-up time to its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0))), PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    start = now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - start
    return res


def op_medians(times: list[float], per_pass: int) -> list[float]:
    """Each op's median time over the passes (every pass runs the same ops
    in the same order).  On a busy machine a short op's time can move by a
    third from one pass to the next; its median over the passes moves less."""
    return [statistics.median(times[i::per_pass]) for i in range(per_pass)]


def tail(samples: list[float], per_pass: int) -> tuple[float, float | None, int]:
    """(value, percentile, samples above it) for the highest TAIL_LADDER
    percentile with at least TAIL_BEYOND samples above it.  A fixed ladder
    keeps the percentile, and so the op it lands on, the same when a run
    fits one pass more.  With too few samples for any rung, the median
    time of the slowest op, with percentile None."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_LADDER:
        i = math.ceil(p / 100 * n) - 1
        if n - 1 - i >= TAIL_BEYOND:
            return s[i], p, n - 1 - i
    return max(op_medians(samples, per_pass)), None, 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = now() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qtwist", "__init__.py")):
        raise SystemExit(f"no qtwist source under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        res = spawn(args, deadline)
        values, wanted = res["layers"], bench["per_layer"]
        setups = [res["setup_s"]]
    else:
        before = SETUP_RUNS // 2
        setups = [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(before)]
        res = spawn(args, deadline)
        setups.append(res["setup_s"])
        setups += [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1 - before)]
        tail_s, tail_pct, beyond = tail(res["op_times"], res["ops_per_pass"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["passes"]),
            "op_p50_s": statistics.median(op_medians(res["op_times"], res["ops_per_pass"])),
            "op_tail_s": tail_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        wanted = bench["end_to_end"]
        res["op_tail"] = {"percentile": tail_pct, "samples": len(res["op_times"]), "beyond": beyond}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git("rev-parse", "HEAD"),
        "src_changes": git("status", "--porcelain", "src"),
        "machine": res.pop("machine"),
        "metrics": metrics,
        "setup_runs_s": setups,
        "fail_ratio": res["failed"] / res["attempted"],
        **{k: v for k, v in res.items() if k not in ("layers", "ready", "setup_s")},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{tag}  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        op_tail = res["op_tail"]
        if op_tail["percentile"] is None:
            print(f"{tag}  op_tail_s is the slowest op's median; {op_tail['samples']} op times are too few for p75")
        else:
            print(
                f"{tag}  op_tail_s is p{op_tail['percentile']:g} of {op_tail['samples']} op times,"
                f" {op_tail['beyond']} above it"
            )
    print(f"{tag}  ops {res['attempted']}, failed {res['failed']}")
    for failure in res["failures"]:
        print(f"{tag}  FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
