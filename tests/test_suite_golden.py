"""run_suite(0, 10) against its stored report.

The order-10 suite builds 24 instances on carriers up to 100 x 100 and
runs the dense form of every table routine (closure certificate, marking
reports, product maps), which the order-4 report in
perfbench/snapshot.json does not reach.  The comparison is the snapshot
gate's (perfbench/gate.py): dims, verdicts and every other non-float
value identical, every float within 1e-12.

The stored report, tests/data/suite_seed0_order10.json, was written by
json.dump(run_suite(0, 10), fh, sort_keys=True, indent=1, default=float).
"""

import importlib.util
import json
from pathlib import Path

from qtwist.cli import run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "suite_seed0_order10.json"

# perfbench/gate.py loaded by path, so no module of perfbench/ shadows another
_spec = importlib.util.spec_from_file_location("perfbench_gate", ROOT / "perfbench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _stored() -> dict:
    return json.loads(GOLDEN.read_text())


def test_order_ten_suite_matches_its_stored_report():
    got = json.loads(json.dumps(run_suite(0, 10), sort_keys=True, default=float))
    assert len(got["instances"]) == 24
    assert gate.compare(got, _stored()) == []


def test_the_comparison_bites():
    moved = _stored()
    inst = moved["instances"][3]
    key = next(k for k, v in inst["residuals"].items() if isinstance(v, float))
    inst["residuals"][key] += 2 * gate.RESIDUAL_TOL
    inst["dims"][next(iter(inst["dims"]))] += 1
    inst["verdicts"][next(iter(inst["verdicts"]))] ^= True
    assert len(gate.compare(moved, _stored())) == 3
