"""The report-snapshot gate.

``snapshot.json`` holds the reports qtwist gave when the benchmark was
defined: every torus_sweep, crossed_dual and suite_mix report (the seed
only reorders a workload's ops) and the ``run_suite(0, 4)`` report.  A later report
passes the gate when its verdicts, dims and every other non-float field
are identical and every float (residuals, tolerances) is within
``RESIDUAL_TOL`` of the stored value.

A failing gate means the program changed its answers.  Never rewrite the
snapshot to make it pass: ``--write`` refuses to replace an existing file.

    PYTHONPATH=src python3 perfbench/gate.py --write
"""

from __future__ import annotations

import json
import math
import os
import sys

RESIDUAL_TOL = 1e-12
SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshot.json")
SUITE_KEY = "run_suite(0, 4)"


def compare(new, old, path: str = "report") -> list[str]:
    """Every difference between two reports that the gate does not allow."""
    if old is None or isinstance(old, (bool, str)) or isinstance(new, bool):
        return [] if type(new) is type(old) and new == old else [f"{path}: {new!r} != {old!r}"]
    if isinstance(old, int) and isinstance(new, int):
        return [] if new == old else [f"{path}: {new} != {old}"]
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        if math.isfinite(old) and math.isfinite(new):
            ok = abs(new - old) <= RESIDUAL_TOL
        else:
            ok = new == old or (math.isnan(new) and math.isnan(old))
        return [] if ok else [f"{path}: {new!r} differs from {old!r} by more than {RESIDUAL_TOL}"]
    if isinstance(old, dict) and isinstance(new, dict):
        out = [f"{path}.{k}: missing" for k in old if k not in new]
        out += [f"{path}.{k}: unexpected" for k in new if k not in old]
        for k in old:
            if k in new:
                out += compare(new[k], old[k], f"{path}.{k}")
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(new) != len(old):
            return [f"{path}: length {len(new)} != {len(old)}"]
        return [p for i, (a, b) in enumerate(zip(new, old)) for p in compare(a, b, f"{path}[{i}]")]
    return [f"{path}: {type(new).__name__} != {type(old).__name__}"]


def check(report: dict, golden: dict | None) -> list[str]:
    """Problems with one op's report: a false verdict, no golden report, or a
    snapshot mismatch."""
    problems = [f"verdict {k} is false" for k, v in report.get("verdicts", {}).items() if not v]
    if not report.get("passed", False):
        problems.append("report not passed")
    if golden is None:
        return problems + ["no golden report in the snapshot"]
    return problems + compare(report, golden)


def load(path: str = SNAPSHOT) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _roundtrip(report):
    return json.loads(json.dumps(report))


def write(path: str = SNAPSHOT) -> None:
    import workloads
    from qtwist.cli import run_suite

    if os.path.exists(path):
        raise SystemExit(f"{path} exists; the snapshot is never regenerated in place")
    snap = {}
    for name in workloads.WORKLOADS:
        snap[name] = {key: _roundtrip(op()) for key, op in workloads.build(name, 0)}
    snap[SUITE_KEY] = _roundtrip(run_suite(0, 4))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    write()
