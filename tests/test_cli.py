"""Tests for the command line front end: specs, presets, suite, exit codes."""

import json

import numpy as np
import pytest

from qtwist import cli
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.coact import ad_grading
from qtwist.qgroup import MAX_MODEL_ORDER

Z2 = FinAbGroup((2,))


M2_SPEC = {
    "group_g": {"cycles": [2]},
    "group_h": {"cycles": [2]},
    "bicharacter": {"exponents": [[1]]},
    "algebra_c": {"preset": "group_algebra"},
    "algebra_d": {"preset": "group_algebra"},
}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify


def test_verify_m2_spec_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, M2_SPEC)])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["iso_found"] is True
    assert report["dims"]["dim"] == 4
    assert report["tolerance"]["eps_eq"] == 1e-8


def test_verify_perturbed_bicharacter_fails_with_residual(tmp_path, capsys):
    spec = dict(M2_SPEC)
    spec["bicharacter"] = {
        "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-0.9, 0.1]]]
    }
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["residuals"]["bicharacter_equations"] > 0.05


def test_verify_exact_value_table_passes(tmp_path, capsys):
    chi = Bicharacter(Z2, Z2, ((1,),))
    table = chi.value_table()
    spec = dict(M2_SPEC)
    spec["bicharacter"] = {
        "values": [[cli.encode_complex(v) for v in row] for row in table]
    }
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["bicharacter_equations"] < 1e-12


def test_verify_malformed_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"group_g": {\n')
    code, _, err = run_cli(capsys, ["verify", str(path)])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "parse"
    assert diag["line"] == 2


def test_verify_missing_field_exits_2(tmp_path, capsys):
    spec = dict(M2_SPEC)
    del spec["bicharacter"]
    code, _, err = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 2
    assert "bicharacter" in json.loads(err)["message"]


def forbid_enumeration(monkeypatch):
    # an oversized group must be refused before its elements are listed
    def enumerated(self):
        raise AssertionError(f"elements of {self.cycles} were enumerated")

    monkeypatch.setattr(FinAbGroup, "elements", enumerated)


def test_verify_group_above_model_order_exits_2(tmp_path, capsys, monkeypatch):
    forbid_enumeration(monkeypatch)
    spec = dict(M2_SPEC)
    spec["group_g"] = {"cycles": [17]}
    code, _, err = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "spec"
    assert "group_g" in diag["message"] and "17" in diag["message"]


def test_verify_huge_group_exits_2_without_enumerating(tmp_path, capsys, monkeypatch):
    forbid_enumeration(monkeypatch)
    spec = dict(M2_SPEC)
    spec["group_h"] = {"cycles": [10**12]}
    code, _, err = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "spec"
    assert "group_h" in diag["message"]


def test_verify_over_size_budget_exits_2(tmp_path, capsys, monkeypatch):
    # a budget below the M2 instance's coaction images stands in for a large spec
    monkeypatch.setattr("qtwist.matspan.MAX_DENSE_ENTRIES", 10)
    code, _, err = run_cli(capsys, ["verify", write_spec(tmp_path, M2_SPEC)])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "params"
    assert "dense coaction images" in diag["message"]


def test_verify_product_table_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    # between the M2 instance's largest Weyl-leg product table (64 entries)
    # and its covariant first leg's (4 generators of 4 x 4: 256)
    monkeypatch.setattr("qtwist.matspan.MAX_DENSE_ENTRIES", 100)
    code, _, err = run_cli(capsys, ["verify", write_spec(tmp_path, M2_SPEC)])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "params"
    assert "product table of 4 4x4 matrices: 256 complex entries" in diag["message"]


def test_verify_invalid_matrix_grading_exits_2(tmp_path, capsys):
    spec = dict(M2_SPEC)
    spec["algebra_c"] = {
        "preset": "matrix",
        "basis": {"0": [[[0.0, 1.0], [0.0, 0.0]]]},
    }
    code, _, err = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 2
    assert "multiplicative grading" in json.loads(err)["message"]


def test_verify_matrix_preset_and_witness_options(tmp_path, capsys):
    m2_basis = {
        "0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        "1": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    for witness in ("composite", "amplified"):
        spec = dict(M2_SPEC)
        spec["algebra_d"] = {"preset": "matrix", "basis": m2_basis}
        spec["options"] = {"witness": witness}
        code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
        assert code == 0
        report = json.loads(out)
        assert report["dims"]["dim"] == 8
        assert report["inputs"]["witness"] == witness


def test_verify_function_algebra_preset(tmp_path, capsys):
    spec = dict(M2_SPEC)
    spec["algebra_d"] = {"preset": "function_algebra"}
    code, out, _ = run_cli(capsys, ["verify", write_spec(tmp_path, spec)])
    assert code == 0
    assert json.loads(out)["dims"]["dim"] == 4


def test_verify_csv_emission(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["verify", write_spec(tmp_path, M2_SPEC), "--emit", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,key,value"
    assert any(line.startswith("verdicts,") for line in lines)


# ---------------------------------------------------------------------------
# examples


def test_example_torus_dimension_and_center(capsys):
    code, out, _ = run_cli(capsys, ["example", "torus", "--n", "4", "--k", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 16
    assert report["center_dim"] == 1


def test_example_torus_k0_center(capsys):
    code, out, _ = run_cli(capsys, ["example", "torus", "--n", "4", "--k", "0"])
    assert code == 0
    assert json.loads(out)["center_dim"] == 16


def test_example_torus_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, ["example", "torus", "--n", "1", "--k", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "params"


@pytest.mark.parametrize("n", [26, 10**6])
def test_example_torus_over_size_budget_exits_2(capsys, monkeypatch, n):
    # the estimate must refuse the torus before any pair product is formed;
    # n = 26 is the first size it refuses (twice six arrays of 26^5 entries)
    def reached(*args):
        raise AssertionError("pair products were allocated")

    monkeypatch.setattr("qtwist.boxtimes._gathered_pairs", reached)
    code, _, err = run_cli(capsys, ["example", "torus", "--n", str(n), "--k", "1"])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "params"
    assert f"torus n={n}" in diag["message"] and "complex entries" in diag["message"]


def test_example_skew_prints_generators(capsys):
    code, out, _ = run_cli(capsys, ["example", "skew"])
    assert code == 0
    report = json.loads(out)
    gens = report["generators"]
    assert gens["g1"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    assert gens["g2"] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    assert report["matrix_model"]["verdicts"]["matrix_algebra_iso"]


def test_example_unknown_preset_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["example", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# suite


def test_suite_deterministic_and_covers_dim_law():
    r1 = cli.run_suite(seed=3, max_order=3)
    r2 = cli.run_suite(seed=3, max_order=3)
    s1 = json.dumps(r1, sort_keys=True, default=float)
    s2 = json.dumps(r2, sort_keys=True, default=float)
    assert s1 == s2
    assert r1["passed"]
    assert r1["summary"]["dim_law_instances"] >= 20
    assert r1["commutation_controls"]["passed"]
    assert r1["commutation_controls"]["conjugate_pair_commutators"] < 1e-12
    assert r1["commutation_controls"]["same_pair_commutators"] > 0.1


def test_suite_small_cap_covers_skew_case():
    report = cli.run_suite(seed=0, max_order=2)
    assert report["passed"]
    skew = [
        r
        for r in report["instances"]
        if r["group_g"] == [2] and r["bicharacter"] == [[1]]
    ]
    assert skew


def test_suite_cli_exit_zero(capsys):
    code, out, _ = run_cli(capsys, ["suite", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("max_order", [MAX_MODEL_ORDER + 1, 10**9])
def test_suite_max_order_above_model_bound_exits_2(capsys, monkeypatch, max_order):
    # refused before the group catalog or any instance is built
    def reached(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "full_verify", reached)
    code, out, err = run_cli(capsys, ["suite", "--max-order", str(max_order)])
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "params"
    assert f"--max-order {max_order} exceeds {MAX_MODEL_ORDER}" in diag["message"]


def test_suite_writes_reproducer_on_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failing = {
        "passed": False,
        "summary": {"failures": [0]},
        "instances": [
            {
                "group_g": [2],
                "group_h": [2],
                "bicharacter": [[1]],
                "spec_c": {"preset": "group_algebra"},
                "spec_d": {"preset": "group_algebra"},
            }
        ],
    }
    monkeypatch.setattr(cli, "run_suite", lambda seed, max_order: failing)
    code, _, err = run_cli(capsys, ["suite"])
    assert code == 1
    assert cli.REPRODUCER_PATH in err
    spec = json.loads((tmp_path / cli.REPRODUCER_PATH).read_text())
    # the reproducer is itself a loadable construction spec
    c, d, chi, res, witness, tol = cli.load_spec(spec, None)
    assert c.dim == 2 and d.dim == 2
    assert chi.exponents == ((1,),)


# ---------------------------------------------------------------------------
# spec plumbing round trips


def test_grading_spec_round_trip_for_matrix_preset():
    graded = ad_grading(Z2, [(0,), (1,)])
    spec = cli.grading_spec("matrix_units", graded)
    rebuilt = cli.parse_algebra(spec, Z2, "algebra_c", cli.DEFAULT_TOL)
    assert rebuilt.dim == 4
    assert sorted(rebuilt.degrees()) == sorted(graded.degrees())


def test_decode_complex_forms():
    assert cli.decode_complex(2, "x") == 2 + 0j
    assert cli.decode_complex([1.5, -2.0], "x") == 1.5 - 2j
    with pytest.raises(cli.SpecError):
        cli.decode_complex("nope", "x")
    with pytest.raises(cli.SpecError):
        cli.decode_complex([1.0], "x")


def test_snap_bicharacter_recovers_exponents():
    chi = Bicharacter(FinAbGroup((4,)), FinAbGroup((4,)), ((3,),))
    snapped, residual = cli.snap_bicharacter(
        FinAbGroup((4,)), FinAbGroup((4,)), chi.value_table()
    )
    assert snapped.exponents == ((3,),)
    assert residual < 1e-12
