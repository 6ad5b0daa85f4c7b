"""Run the benchmark on several seeds and summarise its spread.

    python3 perfbench/proof.py --seeds 1-10 --out perfbench/results/baseline.json

For each workload run.py knows (suite_mix too, which BENCHMARK.json does
not list), runs run.py once per seed with tracing off, then once traced on
the first seed.  For every end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  The output file keeps every run's full record, machine
details included, so it serves as a results file for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    line = json.loads(res.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    if not line["correct"]:
        sys.stderr.write(res.stdout)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {w["name"] for w in bench["workloads"]}

    doc = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in WORKLOADS:
        runs = [run(name, s, bench["run_seconds"], 0) for s in args.seeds]
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values,
            }
            print(f"{name:<13} {m['name']:<12} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound {m['bound']}  ({'ok' if spread <= m['bound'] / 3 else 'WIDE'})"
                  f"{'' if name in listed else '  not in BENCHMARK.json'}")
        entry = {
            "summary": summary,
            "runs": runs,
            "failed": sum(r["failed"] for r in runs),
            "traced": run(name, args.seeds[0], bench["run_seconds"], 1),
        }
        doc["workloads"][name] = entry
        print(f"{name:<13} failed ops {entry['failed']} of {sum(r['attempted'] for r in runs)}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
