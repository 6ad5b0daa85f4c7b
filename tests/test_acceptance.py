"""Acceptance battery: one test per shipping criterion, at pinned tolerances.

Each test asserts exactly the advertised property (dimension counts,
residual bounds, certificate existence, runtime caps) so the -v listing
reads as a one-line pass/fail verdict per criterion.
"""

import time
from math import gcd

import numpy as np
import pytest

from qtwist import (
    build_model,
    build_via_heisenberg,
    canonical_heisenberg,
    commutation_check,
    span_basis,
)
from qtwist import qgroup
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.apps import (
    cocycle_conjugacy,
    dual_coaction,
    finite_torus,
    graded_module,
    inner_coaction_examples,
    module_boxtimes,
    modules_examples,
    reduced_crossed_product,
    skew_tensor,
    tensor_structure_residual,
)
from qtwist.cli import run_suite
from qtwist.coact import (
    ad_grading,
    corep_unitary,
    delta_grading,
    hilbert_grading,
    trivial_grading,
)
from qtwist.heis import conjugate_pair
from qtwist.qgroup import indicators, translations

from dense_oracle import center, dense_algebra, find_generator_isomorphism

Z2 = FinAbGroup((2,))
CHI2 = Bicharacter(Z2, Z2, ((1,),))

MATRIX_UNITS_2 = []
for a in range(2):
    for b in range(2):
        m = np.zeros((2, 2), dtype=np.complex128)
        m[a, b] = 1.0
        MATRIX_UNITS_2.append(m)


@pytest.fixture(scope="module")
def suite():
    t0 = time.perf_counter()
    report = run_suite(seed=0, max_order=4)
    return report, time.perf_counter() - t0


def test_criterion_01_quantum_group_axioms():
    qgroup._build_cached.cache_clear()
    t0 = time.perf_counter()
    for cycles in ((2,), (3,), (4,), (5,), (6,), (2, 2)):
        rep = build_model(FinAbGroup(cycles)).report
        assert rep["passed"], cycles
        assert rep["max_residual"] < 1e-10, cycles
        assert rep["pentagon"] == 0.0
        assert rep["pentagon_matrix"] < 1e-10
        assert rep["coassociativity"] < 1e-10
        assert rep["comult_w_equation"] < 1e-10
        assert rep["antipode_involutive"] < 1e-10
        assert rep["antipode_flips_comult"] < 1e-10
        assert rep["first_leg_slices_span_algebra"]
        assert rep["second_leg_slices_span_functions"]
        assert rep["podles_ok"]
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_m2_golden_example():
    res = skew_tensor(delta_grading(Z2), delta_grading(Z2))
    assert res.passed
    x = res.objects["product"]
    assert x.dim == 4
    from qtwist import product_center_dim

    assert product_center_dim(x) == 1
    assert center(dense_algebra(x)).dim == 1
    lam = translations(Z2)
    u = x.element_matrix(x.iota_c_apply(lam[(1,)]))
    v = x.element_matrix(x.iota_d_apply(lam[(1,)]))
    eye = np.eye(x.ambient_dim)
    for w in (u, v):
        assert np.linalg.norm(w - w.conj().T) < 1e-10
        assert np.linalg.norm(w @ w.conj().T - eye) < 1e-10
    assert np.linalg.norm(u @ v + v @ u) < 1e-10
    m2 = span_basis(MATRIX_UNITS_2)
    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    iso = find_generator_isomorphism(dense_algebra(x), [u, v], m2, [sz, sx])
    assert iso is not None
    assert iso.report["multiplicativity"] < 1e-10


def test_criterion_03_dimension_law(suite):
    report, _ = suite
    instances = report["instances"]
    assert report["summary"]["dim_law_instances"] >= 20
    for rec in instances:
        assert rec["verdicts"]["dim_law"], rec["group_g"]
        assert rec["dims"]["dim"] == rec["dims"]["expected"]
        assert FinAbGroup(tuple(rec["group_g"])).order <= 4
        assert FinAbGroup(tuple(rec["group_h"])).order <= 4


def test_criterion_04_heisenberg_pair_independence(suite):
    report, _ = suite
    # equivalence maps are certified at eps_eq = 1e-8 inside the suite
    checked = [r["pair_independence"] for r in report["instances"] if "pair_independence" in r]
    assert len(checked) >= 5
    for alt in checked:
        assert alt["composite"] and alt["amplified"]


def test_criterion_05_two_route_agreement(suite):
    report, _ = suite
    for rec in report["instances"]:
        assert rec["verdicts"]["routes_equivalent"], rec["group_g"]


def test_criterion_06_rieffel_identification(suite):
    report, _ = suite
    for rec in report["instances"]:
        assert rec["verdicts"]["rieffel_match"]
        assert rec["residuals"]["rieffel_structure"] <= 1e-10
        assert rec["residuals"]["rieffel_associativity"] < 1e-12


def test_criterion_07_finite_torus_classification():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for k in range(n):
            res = finite_torus(n, k)
            assert res.passed, (n, k)
            dims = res.report["dims"]
            assert dims["dim"] == n * n
            assert dims["center"] == gcd(k, n) ** 2
            if gcd(k, n) == 1:
                assert res.report["verdicts"]["matrix_algebra_iso"], (n, k)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_crossed_products():
    for cycles in ((2,), (3,), (2, 2)):
        G = FinAbGroup(cycles)
        res = reduced_crossed_product(delta_grading(G))
        assert res.passed, cycles
        assert res.report["verdicts"]["equivalence_found"]
        assert res.report["dims"]["dim"] == G.order * G.order
        # the regular pair generates the full matrix algebra
        xb = res.objects["boxtimes"]
        lam, ind = translations(G), indicators(G)
        fam1 = [
            xb.element_matrix(xb.iota_c_apply(lam[g])) for g in G.elements()
        ] + [xb.element_matrix(xb.iota_d_apply(ind[h])) for h in G.elements()]
        n = G.order
        full = span_basis(
            [
                np.outer(np.eye(n)[a], np.eye(n)[b]).astype(np.complex128)
                for a in range(n)
                for b in range(n)
            ]
        )
        fam2 = [lam[g] for g in G.elements()] + [ind[h] for h in G.elements()]
        assert find_generator_isomorphism(dense_algebra(xb), fam1, full, fam2) is not None
        dual = dual_coaction(xb)
        assert dual.passed, cycles
        assert dual.report["verdicts"]["coaction_passed"]


def test_criterion_09_cocycle_theorems():
    res = inner_coaction_examples()
    assert res.passed
    v = res.report["verdicts"]
    assert v["both_inner_iso"] and v["untwisted_is_tensor"]
    assert v["left_inner_iso"] and v["left_untwisted_is_tensor"]
    assert v["twisted_is_m4"]
    # third inner instance, over Z/3 with a two-component corepresentation
    Z3 = FinAbGroup((3,))
    chi3 = Bicharacter(Z3, Z3, ((1,),))
    u = corep_unitary(hilbert_grading(Z3, [(0,), (1,)]), build_model(Z3))
    third = cocycle_conjugacy(
        trivial_grading(Z3, MATRIX_UNITS_2), u, delta_grading(Z3), None, chi3
    )
    assert third.passed
    assert third.report["verdicts"]["iso_found"]
    assert tensor_structure_residual(third.objects["x1"]) < 1e-8


def test_criterion_10_graded_modules():
    res = modules_examples()
    assert res.passed
    v = res.report["verdicts"]
    assert v["column_passed"] and v["composition_passed"]
    assert v["trivial_module_is_algebra"]
    # second nontrivial instance: M2-column against the free rank-one module
    col = graded_module(
        ad_grading(Z2, [(0,), (1,)]),
        {(0,): [[[1.0, 0.0]]], (1,): [[[0.0, 1.0]]]},
    )
    free = graded_module(
        delta_grading(Z2),
        {(0,): [np.eye(2)], (1,): [[[0.0, 1.0], [1.0, 0.0]]]},
    )
    mixed = module_boxtimes(col, free, CHI2)
    assert mixed.passed
    dims = mixed.report["dims"]
    assert dims["k_ef"] == dims["k_e"] * dims["k_f"]
    assert mixed.report["verdicts"]["compacts_match"]
    assert mixed.report["verdicts"]["exchange"]


def test_criterion_11_commutation_theorem():
    from qtwist import is_anti_heisenberg

    for cycles in ((2,), (3,), (4,)):
        G = FinAbGroup(cycles)
        chi = Bicharacter(G, G, ((1,),))
        p = canonical_heisenberg(chi)
        assert commutation_check(p, conjugate_pair(p)) < 1e-12
        if cycles == (2,):
            # order-2 values are real, so the pair is its own
            # anti-Heisenberg partner and the commutators vanish too
            ok, _ = is_anti_heisenberg(p, chi)
            assert ok
            assert commutation_check(p, p) < 1e-12
        else:
            ok, _ = is_anti_heisenberg(p, chi)
            assert not ok
            assert commutation_check(p, p) > 0.1


def test_criterion_12_suite_runtime(suite):
    report, elapsed = suite
    assert report["passed"]
    assert elapsed < 60.0
