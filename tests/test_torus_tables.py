"""finite_torus on the product's own coordinates, against the dense oracle.

The Weyl, unitary and order residuals come from coordinate tensors and the
center from the commutator tensor's row norms; dense_oracle's
dense_torus_checks forms u and v as ambient matrices and takes an SVD.  A
one-term table whose commutator columns collide must take the SVD.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import apps, boxtimes, coact, matspan
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.apps import _torus_checks, finite_torus, inner_coaction_examples
from qtwist.boxtimes import build_from_markings, heisenberg_markings, product_center_dim
from qtwist.coact import delta_grading
from qtwist.matspan import DEFAULT_TOL, BudgetError, OneTerm, dense_table

TORI = [(n, k) for n in range(2, 7) for k in range(n)]
# the tori with a matrix model, n = 2..12
MODEL_TORI = [(n, k) for n in range(2, 13) for k in range(n) if math.gcd(k, n) == 1]


@pytest.mark.parametrize("n,k", TORI)
def test_torus_checks_match_dense_oracle(n, k):
    res = finite_torus(n, k)
    x = res.objects["product"]
    want = oracle.dense_torus_checks(n, k, product=x)
    oracle.assert_reports_match(res.report, want.report)
    assert res.passed and want.passed
    # the coordinate generators are the oracle's dense ones
    assert np.array_equal(x.element_matrix(res.objects["u"]), want.objects["u"])
    assert np.array_equal(x.element_matrix(res.objects["v"]), want.objects["v"])


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3)])
def test_dense_oracle_builds_the_same_torus(n, k):
    oracle.assert_reports_match(finite_torus(n, k).report, oracle.dense_torus_checks(n, k).report)


@pytest.mark.parametrize("n,k", TORI)
def test_center_row_norms_match_svd_on_tori(n, k, monkeypatch):
    x = finite_torus(n, k).objects["product"]
    want = oracle.svd_center_dim(x)
    assert want == math.gcd(k, n) ** 2

    def no_svd(*args, **kwargs):
        raise AssertionError("the one-hot torus table took the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert product_center_dim(x) == want


def test_center_keeps_the_svd_on_inner_coaction_products(monkeypatch):
    res = inner_coaction_examples()
    products = [
        res.objects["both"].objects["x1"],
        res.objects["both"].objects["x2"],
        res.objects["left"].objects["x1"],
    ]
    want = [oracle.svd_center_dim(x) for x in products]
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert [product_center_dim(x) for x in products] == want
    assert len(calls) == len(products)


def test_center_takes_the_svd_when_commutator_columns_collide(monkeypatch):
    # f_1 f_0 - f_0 f_1 and f_2 f_0 - f_0 f_2 are both multiples of f_2:
    # commutator rows 1 and 2 share a column, so the rank is 2 and the
    # row norms (three non-zero) would miss the one-dimensional center
    idx = np.array([[0, 2, 2], [2, 1, 0], [2, 0, 2]])
    val = np.ones((3, 3), dtype=complex)
    val[0, 1], val[0, 2] = -1.0, 1j
    table = OneTerm(idx, val, 3)
    x = SimpleNamespace(structure_table=table, structure=dense_table(table))
    want = oracle.svd_center_dim(x)
    assert want == 1
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert product_center_dim(x) == want
    assert calls == [1]


@pytest.mark.parametrize("n,k", TORI)
def test_wrong_phase_fails_on_both_sides(n, k):
    # the torus of k checked as the torus of k + 1: omega is wrong
    x = finite_torus(n, k).objects["product"]
    wrong = (k + 1) % n
    got = _torus_checks(x, n, wrong, DEFAULT_TOL)
    want = oracle.dense_torus_checks(n, wrong, product=x)
    assert not got.passed and not want.passed
    assert not got.report["verdicts"]["weyl_commutation"]
    assert not want.report["verdicts"]["weyl_commutation"]
    oracle.assert_reports_match(got.report, want.report)


@pytest.mark.parametrize("n,k", TORI)
def test_perturbed_weyl_table_fails_on_both_sides(n, k):
    G = FinAbGroup((n,))
    c = delta_grading(G)
    chi = Bicharacter(G, G, ((k,),))
    legs, iota_c, iota_d, _, _ = heisenberg_markings(c, c, chi)
    good = _torus_checks(build_from_markings(c, c, chi, legs, iota_c, iota_d), n, k, DEFAULT_TOL)
    assert good.passed
    # the Weyl-leg entry of v u, the frame elements of V_1 and U_1
    p = np.flatnonzero(np.abs(good.objects["u"]).sum(axis=(0, 1)))[0]
    q = np.flatnonzero(np.abs(good.objects["v"]).sum(axis=(0, 1)))[0]
    table = legs.mult_tables[2]
    phase = table.val.copy()
    phase[q, p] *= np.exp(1e-3j)
    perturbed = OneTerm(table.idx, phase, table.width)
    bad = dataclasses.replace(legs, mult_tables=legs.mult_tables[:2] + (perturbed,))
    x = build_from_markings(c, c, chi, bad, iota_c, iota_d)
    got = _torus_checks(x, n, k, DEFAULT_TOL)
    want = oracle.dense_torus_checks(n, k, product=x)
    assert not got.passed and not want.passed
    if math.gcd(k, n) == 1:
        # the model is not read off the product's own (perturbed) legs
        assert not got.report["verdicts"]["matrix_algebra_iso"]
        assert not want.report["verdicts"]["matrix_algebra_iso"]


@pytest.mark.parametrize("n,k", MODEL_TORI)
def test_model_tables_match_the_dense_clock_and_shift(n, k):
    mult, star, res, full_rank = apps._clock_shift_model(n, k, DEFAULT_TOL)
    w_mult, w_star, w_res, w_full_rank = oracle.dense_clock_shift_tables(n, k)
    assert isinstance(mult, OneTerm) and isinstance(star, OneTerm)
    assert np.max(np.abs(mult.dense() - w_mult)) <= 1e-14
    assert np.max(np.abs(star.dense() - w_star)) <= 1e-14
    assert abs(res - w_res) <= 1e-14
    assert full_rank and full_rank == w_full_rank


@pytest.mark.parametrize("n,k", TORI)
def test_torus_checks_build_no_model_and_take_no_svd(n, k, monkeypatch):
    res = finite_torus(n, k)

    def refused(*args, **kwargs):
        raise AssertionError("the torus checks formed tables or took an SVD")

    for module in (matspan, coact):
        monkeypatch.setattr(module, "basis_tables", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    got = _torus_checks(res.objects["product"], n, k, DEFAULT_TOL)
    assert got.report == res.report


def test_torus_forms_no_ambient_matrix(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("an ambient matrix was formed")

    monkeypatch.setattr(boxtimes, "coords_to_matrix", dense)
    res = finite_torus(6, 1)
    assert res.passed
    assert res.objects["u"].shape == res.objects["product"].legs.dims


def test_size_estimate_admits_25_and_refuses_26(monkeypatch):
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(apps, "build_via_heisenberg", built)
    with pytest.raises(Built):
        finite_torus(25, 1)
    with pytest.raises(BudgetError, match="torus n=26"):
        finite_torus(26, 1)
