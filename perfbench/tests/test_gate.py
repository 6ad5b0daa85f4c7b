"""The report-snapshot gate passes today's reports and bites on perturbed ones.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import gate  # noqa: E402
import workloads  # noqa: E402
from qtwist.cli import run_suite  # noqa: E402

SNAP = gate.load()


def _first(workload):
    key = sorted(SNAP[workload])[0]
    return SNAP[workload][key]


REPORTS = {name: _first(name) for name in workloads.WORKLOADS}
REPORTS[gate.SUITE_KEY] = SNAP[gate.SUITE_KEY]["instances"][0]


def _leaf(report, section, kind):
    """Path to the first leaf of the given type in report[section]."""
    for k, v in report[section].items():
        if type(v) is kind:
            return section, k
    raise AssertionError(f"no {kind.__name__} in {section}")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_stored_snapshot_passes_itself(name):
    golden = REPORTS[name]
    assert gate.check(copy.deepcopy(golden), golden) == []


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_flipped_verdict_fails(name):
    golden = REPORTS[name]
    bad = copy.deepcopy(golden)
    section, key = _leaf(bad, "verdicts", bool)
    bad[section][key] = not bad[section][key]
    assert gate.compare(bad, golden)
    assert gate.check(bad, golden)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_residual_moved_by_1e9_fails(name):
    golden = REPORTS[name]
    bad = copy.deepcopy(golden)
    section, key = _leaf(bad, "residuals", float)
    bad[section][key] += 1e-9
    assert gate.check(bad, golden)
    # a move inside the tolerance passes
    ok = copy.deepcopy(golden)
    ok[section][key] += 1e-13
    assert gate.check(ok, golden) == []


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_dim_off_by_one_fails(name):
    golden = REPORTS[name]
    bad = copy.deepcopy(golden)
    section, key = _leaf(bad, "dims", int)
    bad[section][key] += 1
    assert gate.check(bad, golden)


def test_missing_and_extra_fields_fail():
    golden = REPORTS["torus_sweep"]
    bad = copy.deepcopy(golden)
    bad["residuals"].pop(next(iter(bad["residuals"])))
    bad["extra"] = 1
    assert len(gate.compare(bad, golden)) == 2


@pytest.mark.parametrize("name", ["crossed_dual", "suite_mix", "torus_sweep"])
def test_live_reports_match_snapshot(name):
    ops = workloads.build(name, 0)
    if name == "torus_sweep":
        # n = 6 alone takes most of the sweep; the benchmark checks it every pass
        ops = [op for op in ops if "n=6" not in op[0]]
    if name == "crossed_dual":
        ops = [op for op in ops if "(2, 2)" not in op[0]]
    assert ops
    for key, op in ops:
        assert gate.check(op(), SNAP[name][key]) == [], key


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_every_op_of_every_seed_has_a_golden_report(seed):
    for name in workloads.WORKLOADS:
        keys = [key for key, _ in workloads.build(name, seed)]
        assert len(keys) == len(set(keys)) == len(SNAP[name])
        assert set(keys) == set(SNAP[name]), name


def test_report_without_golden_fails():
    assert gate.check(copy.deepcopy(REPORTS["torus_sweep"]), None)


def test_live_suite_report_matches_snapshot():
    assert gate.compare(run_suite(0, 4), SNAP[gate.SUITE_KEY]) == []


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        assert list(json.load(fh)) == names
