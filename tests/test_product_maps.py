"""Maps between crossed products, certified on the structure and star
tables by boxtimes._family_map, against the dense family products of
dense_oracle.dense_family_map; and that oracle's relation helpers."""

from dataclasses import replace

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import boxtimes
from qtwist.abgroup import (
    Bicharacter,
    FinAbGroup,
    GroupHom,
    hom_h_to_dual_g,
    regular_bicharacter,
)
from qtwist.apps import reduced_crossed_product
from qtwist.boxtimes import (
    _family_map,
    _marking_pairs,
    build_via_covariant,
    build_via_heisenberg,
    coords_product_pairs,
    equivalent,
    functor_map,
    graded_morphism,
    morphism_from_pairs,
    qgr_morphism_reparametrize,
    symmetry,
)
from qtwist.coact import (
    ad_grading,
    canonical_covariant_rep,
    delta_grading,
    direct_sum_grading,
    trivial_grading,
)
from qtwist.heis import amplify_pair, canonical_heisenberg, composite_heisenberg
from qtwist.matspan import DEFAULT_TOL, rank
from qtwist.qgroup import translations

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))
CHI2 = Bicharacter(Z2, Z2, ((1,),))
CHI3 = Bicharacter(Z3, Z3, ((1,),))
I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
TOL = 1e-12


def _same(new, old):
    """Every report entry and the matrix of two maps agree, verdicts exactly."""
    assert (new is None) == (old is None)
    if new is None:
        return
    assert set(new.report) == set(old.report)
    for key, want in old.report.items():
        got = new.report[key]
        if isinstance(want, (bool, np.bool_)):
            assert bool(got) == bool(want), key
        else:
            assert abs(got - want) <= TOL, (key, got, want)
    assert new.matrix.shape == old.matrix.shape
    assert np.max(np.abs(new.matrix - old.matrix)) <= TOL


def _aligned(target, c_mats, d_mats):
    return oracle.dense_aligned_family(target, c_mats, d_mats, DEFAULT_TOL)


def _dense_equivalence(x1, x2):
    """The dense oracle on equivalent's input, kept only when it passes, as
    equivalent keeps its map."""
    fam2 = _aligned(x2, x1.c_graded.ambient.basis, x1.d_graded.ambient.basis)
    dense = oracle.dense_family_map(x1, fam2, x2, True, _marking_pairs(x1, x2, DEFAULT_TOL)[1])
    return dense if dense is not None and dense.report["passed"] else None


def _equivalence_pair(x1, x2):
    return equivalent(x1, x2), _dense_equivalence(x1, x2)


def _witness_cases():
    cases = {}
    for chi in (CHI2, CHI3, Bicharacter(Z2, Z4, ((1,),))):
        name = "x".join(f"Z{n}" for n in chi.group_g.cycles + chi.group_h.cycles)
        c, d = delta_grading(chi.group_g), delta_grading(chi.group_h)
        others = {
            "composite": lambda c=c, d=d, chi=chi: build_via_heisenberg(
                c, d, chi, pair=composite_heisenberg(chi), label="composite"
            ),
            "amplified": lambda c=c, d=d, chi=chi: build_via_heisenberg(
                c, d, chi, pair=amplify_pair(canonical_heisenberg(chi), 2), label="amplified"
            ),
            # the two routes of the paper: the Heisenberg base against the covariant one
            "covariant": lambda c=c, d=d, chi=chi: build_via_covariant(
                canonical_covariant_rep(c), canonical_covariant_rep(d), chi
            ),
        }
        for label, other in others.items():
            cases[f"witness-{name}-{label}"] = (
                lambda c=c, d=d, chi=chi, other=other: _equivalence_pair(
                    build_via_heisenberg(c, d, chi), other()
                )
            )
    return cases


def _crossed_product_cases():
    cases = {}
    for cycles in ((2,), (3,), (2, 2), (4,)):

        def case(cycles=cycles):
            objs = reduced_crossed_product(delta_grading(FinAbGroup(cycles))).objects
            return objs["map"], _dense_equivalence(objs["boxtimes"], objs["direct"])

        cases["crossed-" + "x".join(f"Z{n}" for n in cycles)] = case
    return cases


def _symmetry_case(chi):
    def case():
        x = build_via_heisenberg(delta_grading(chi.group_g), delta_grading(chi.group_h), chi)
        y, pm = symmetry(x)
        fam2 = coords_product_pairs(y.iota_d, y.iota_c, y.legs).reshape(x.family.shape)
        markings = [(x.iota_c_table, y.iota_d_table), (x.iota_d_table, y.iota_c_table)]
        return pm, oracle.dense_family_map(x, fam2, y, True, markings)

    return case


def _functor(f, g, x1, x2):
    """(functor_map, dense oracle with functor_map's rank entries)."""
    pm = functor_map(f, g, x1, x2)
    c_imgs = [f.apply(c) for c in x1.c_graded.ambient.basis]
    d_imgs = [g.apply(d) for d in x1.d_graded.ambient.basis]
    fam2 = _aligned(x2, c_imgs, d_imgs)
    dense = oracle.dense_family_map(x1, fam2, x2, False, [])
    rank2 = rank(fam2.reshape(fam2.shape[0], -1), DEFAULT_TOL.eps_rank)
    dense.report["injective"] = rank2 == x1.dim
    dense.report["surjective"] = rank2 == x2.dim
    dense.report["injectivity_matches"] = dense.report["injective"] == (
        f.report["injective"] and g.report["injective"]
    )
    dense.report["surjectivity_matches"] = dense.report["surjective"] == (
        f.report["surjective"] and g.report["surjective"]
    )
    return pm, dense


def _functor_identity():
    c = delta_grading(Z2)
    x = build_via_heisenberg(c, c, CHI2)
    ident = graded_morphism(c, c, list(c.ambient.basis))
    return _functor(ident, ident, x, x)


def _functor_embedding():
    c = delta_grading(Z2)
    m2 = ad_grading(Z2, [(0,), (1,)])
    f = morphism_from_pairs(c, m2, [(I2, I2), (translations(Z2)[(1,)], SX)])
    ident = graded_morphism(c, c, list(c.ambient.basis))
    return _functor(f, ident, build_via_heisenberg(c, c, CHI2), build_via_heisenberg(m2, c, CHI2))


def _functor_quotient():
    two = direct_sum_grading(trivial_grading(Z2, [np.eye(1)]), trivial_grading(Z2, [np.eye(1)]))
    one = trivial_grading(Z2, [np.eye(1)])
    d = delta_grading(Z2)
    chi = Bicharacter.trivial(Z2, Z2)
    f = graded_morphism(two, one, [b[:1, :1] for b in two.ambient.basis])
    ident = graded_morphism(d, d, list(d.ambient.basis))
    return _functor(f, ident, build_via_heisenberg(two, d, chi), build_via_heisenberg(one, d, chi))


def _reparametrize(c, d, f, g, chi2):
    def case():
        xa, xb, pm = qgr_morphism_reparametrize(c, d, f, g, chi2)
        return pm, _dense_equivalence(xa, xb)

    return case


CASES = {
    **_witness_cases(),
    **_crossed_product_cases(),
    "symmetry-M2": _symmetry_case(CHI2),
    "symmetry-Z3": _symmetry_case(CHI3),
    "functor-identity": _functor_identity,
    "functor-embedding": _functor_embedding,
    "functor-quotient": _functor_quotient,
    "reparametrize-identity": _reparametrize(
        delta_grading(Z2), delta_grading(Z2), GroupHom(Z2, Z2, ((1,),)), GroupHom(Z2, Z2, ((1,),)), CHI2
    ),
    "reparametrize-quotient": _reparametrize(
        delta_grading(Z4), delta_grading(Z4), GroupHom(Z4, Z2, ((1,),)), GroupHom(Z4, Z2, ((1,),)), CHI2
    ),
    "reparametrize-regular": _reparametrize(
        delta_grading(Z3),
        delta_grading(Z3),
        GroupHom(Z3, Z3, ((1,),)),
        hom_h_to_dual_g(CHI3),
        regular_bicharacter(Z3),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_family_map_matches_dense_oracle(name):
    new, dense = CASES[name]()
    assert new is not None and new.report["passed"]
    _same(new, dense)


# ---------------------------------------------------------------------------
# negative controls, on the tables and on the dense products


def _pair():
    c = delta_grading(Z2)
    x = build_via_heisenberg(c, c, CHI2)
    y = build_via_heisenberg(c, c, CHI2, pair=composite_heisenberg(CHI2), label="composite")
    return x, y


def _both(x, y, markings, monkeypatch=None, products=None, stars=None):
    """(table report, dense report) for f_k -> t_k; products and stars,
    {(l, l'): delta t_k} and {l: delta t_k}, are added to the target's
    multiplication and adjoint as the dense oracle sees them."""
    m = x.family.shape[0]
    table = _family_map(x, np.eye(m), y, True, markings, DEFAULT_TOL).report
    if products or stars:
        real_pairs, real_star = oracle.coords_product_pairs, oracle.coords_star

        def row(v):
            return next(
                (l for l in range(m) if np.allclose(v.reshape(-1), y.family[l].reshape(-1))), None
            )

        def pairs(xs, ys, legs):
            out = real_pairs(xs, ys, legs)
            if legs is y.legs and xs.shape[0] == 1:
                l = row(xs[0])
                for (i, j), extra in (products or {}).items():
                    if i == l:
                        out = out.copy()
                        out[0, j] += extra
            return out

        def star(v, legs):
            out = real_star(v, legs)
            if legs is y.legs and row(v) in (stars or {}):
                out = out + stars[row(v)]
            return out

        monkeypatch.setattr(oracle, "coords_product_pairs", pairs)
        monkeypatch.setattr(oracle, "coords_star", star)
    dense = oracle.dense_family_map(x, y.family, y, True, markings).report
    return table, dense


def test_control_different_twists():
    c = delta_grading(Z2)
    x = build_via_heisenberg(c, c, CHI2)
    y = build_via_heisenberg(c, c, Bicharacter.trivial(Z2, Z2))
    table, dense = _both(x, y, _marking_pairs(x, y, DEFAULT_TOL)[1])
    for rep in (table, dense):
        assert not rep["passed"]
        assert rep["multiplicative"] > 0.1
    assert equivalent(x, y) is None


def test_control_perturbed_structure_entry(monkeypatch):
    x, y = _pair()
    structure = y.structure.copy()
    structure[1, 2, 3] += 1e-3
    y_bad = replace(y, structure_table=structure)
    table, _ = _both(x, y_bad, [])
    _, dense = _both(x, y, [], monkeypatch, products={(1, 2): 1e-3 * y.family[3]})
    for rep in (table, dense):
        assert not rep["passed"]
        assert rep["multiplicative"] > 1e-4
        assert rep["star"] < 1e-12
    assert equivalent(x, y_bad) is None


def test_control_perturbed_star_entry(monkeypatch):
    x, y = _pair()
    star = y.star.copy()
    star[2, 0] += 1e-3
    y_bad = replace(y, star_table=star)
    table, _ = _both(x, y_bad, [])
    _, dense = _both(x, y, [], monkeypatch, stars={2: 1e-3 * y.family[0]})
    for rep in (table, dense):
        assert not rep["passed"]
        assert rep["star"] > 1e-4
        assert rep["multiplicative"] < 1e-12
    assert equivalent(x, y_bad) is None


def test_control_swapped_marking():
    x, y = _pair()
    markings = _marking_pairs(x, y, DEFAULT_TOL)[1]
    # C's b_0 and b_1 sent to each other's marking in the target
    (v, w), rest = markings[0], markings[1:]
    swapped = [(v, w[[1, 0]])] + rest
    table, dense = _both(x, y, swapped)
    for rep in (table, dense):
        assert not rep["passed"]
        assert rep["markings"] > 0.1
        assert rep["multiplicative"] < 1e-12 and rep["star"] < 1e-12


# ---------------------------------------------------------------------------
# no product or adjoint is formed


def test_maps_form_no_product_or_adjoint(monkeypatch):
    c = delta_grading(Z2)
    x1 = build_via_heisenberg(c, c, CHI2)
    x2 = build_via_covariant(canonical_covariant_rep(c), canonical_covariant_rep(c), CHI2)
    m2 = ad_grading(Z2, [(0,), (1,)])
    f = morphism_from_pairs(c, m2, [(I2, I2), (translations(Z2)[(1,)], SX)])
    ident = graded_morphism(c, c, list(c.ambient.basis))
    y2 = build_via_heisenberg(m2, c, CHI2)
    hom = GroupHom(Z2, Z2, ((1,),))
    xa, xb, want = qgr_morphism_reparametrize(c, c, hom, hom, CHI2)

    # qgr_morphism_reparametrize's products, already built
    def built(c_graded, d_graded, chi, pair=None, tol=DEFAULT_TOL, label="canonical"):
        return xb if label == "canonical-regraded" else xa

    monkeypatch.setattr(boxtimes, "build_via_heisenberg", built)

    def formed(*args, **kwargs):
        raise AssertionError("a product or adjoint was formed")

    for name in ("coords_product_pairs", "coords_product", "coords_star"):
        monkeypatch.setattr(boxtimes, name, formed)
    assert equivalent(x1, x2).report["passed"]
    assert functor_map(f, ident, x1, y2).report["passed"]
    _, _, pm = qgr_morphism_reparametrize(c, c, hom, hom, CHI2)
    assert pm.report == want.report


# ---------------------------------------------------------------------------
# the dense oracle's relation helpers


def test_left_null_rows():
    rows = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.complex128)
    null = oracle.left_null_rows(rows, 1e-9)
    assert null.shape[0] == 1
    assert np.linalg.norm(null @ rows) < 1e-12


@pytest.mark.parametrize("m, n", [(3, 8), (8, 3), (5, 5)])
def test_left_null_rows_wide_and_tall(m, n):
    # rank 2 rows: the relations are the m - 2 rows orthogonal to them
    rng = np.random.default_rng(m * n)
    rows = (rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))) @ (
        rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    )
    null = oracle.left_null_rows(rows, 1e-9)
    assert null.shape == (m - 2, m)
    assert np.linalg.norm(null @ rows) < 1e-12
    assert np.linalg.norm(null @ null.conj().T - np.eye(m - 2)) < 1e-12


def test_relation_transport_accepts_matching_relations():
    e1 = np.array([1, 0], dtype=np.complex128)
    e2 = np.array([0, 1], dtype=np.complex128)
    fam1 = np.stack([e1, e2, e1 + e2])
    fam2 = np.stack([e2, e1, e1 + e2])
    res = oracle.relation_transport(fam1, fam2, DEFAULT_TOL)
    assert res is not None and res < 1e-12


def test_relation_transport_rejects_broken_relations():
    e1 = np.array([1, 0], dtype=np.complex128)
    e2 = np.array([0, 1], dtype=np.complex128)
    fam1 = np.stack([e1, e1])  # relation: first minus second = 0
    fam2 = np.stack([e1, e2])  # not satisfied here
    assert oracle.relation_transport(fam1, fam2, DEFAULT_TOL) is None
