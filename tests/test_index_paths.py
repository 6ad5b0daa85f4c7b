"""The dual coaction and the maps between crossed products on index arrays.

coact.table_grading and coact.verify_table_coaction each have an index
path, taken when the crossed product's own tables are one-hot, and keep
their general path for every other input; boxtimes._family_map is one
body on matspan's table operations, which stay on (index, value) arrays
for one-hot products.  The index paths must agree with the general path
run on the same products held densely, and with the dense oracles
(dense_oracle.dense_dual_coaction, loop_verify_table_coaction and
dense_family_map): dims and verdicts exactly, floats within 1e-12.  Each
test asserts which path ran (for the maps: that no one-term table of a
product's leg width was formed densely), and the perturbed inputs (a
moved degree, a wrong coefficient, a permuted member, the three perturbed
table coactions) must fail on the index path as they fail on the general
one.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import boxtimes, coact
from qtwist.abgroup import Bicharacter, FinAbGroup, GroupHom, hom_h_to_dual_g, regular_bicharacter
from qtwist.apps import dual_coaction, embed_in_reduced, reduced_crossed_product
from qtwist.boxtimes import (
    _family_map,
    _marking_pairs,
    build_via_heisenberg,
    equivalent,
    functor_map,
    graded_morphism,
    pure_coords_stack,
    qgr_morphism_reparametrize,
    symmetry,
)
from qtwist.coact import (
    TableCoaction,
    character_grading,
    delta_grading,
    table_grading,
    verify_table_coaction,
)
from qtwist.matspan import DEFAULT_TOL, OneTerm, dense_table
from qtwist.qgroup import build_model

from test_coaction_checks import TableDoubledDegree, TableDropsDegreeZero, TableLeakyImage

CYCLES = [(2,), (3,), (2, 2), (4,), (2, 4), (8,)]
SIDES = ["right", "left"]
TOL = 1e-12


def _ids(cycles):
    return "x".join(f"Z{n}" for n in cycles)


@functools.lru_cache(maxsize=None)
def _crossed(cycles):
    return reduced_crossed_product(delta_grading(FinAbGroup(cycles)))


def _dense(x):
    """x with every table held densely, so each routine takes its general path."""
    m = x.family_table.shape[0]
    return dataclasses.replace(
        x,
        iota_c_table=dense_table(x.iota_c_table),
        iota_d_table=dense_table(x.iota_d_table),
        family_table=x.family.reshape(m, -1),
        onb_table=x.onb,
        structure_table=x.structure,
        star_table=x.star,
    )


def _leg_widths(*products) -> set:
    """The flattened leg coordinate counts of the products."""
    return {math.prod(x.legs.dims) for x in products}


def _spy(monkeypatch, module, *names):
    """Count the calls of module's functions names; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# the grading and the coaction of the dual coaction


def _grading_args(x):
    ghat = x.d_graded.group
    deg = np.tile(x.d_graded.degree_indices(), x.c_graded.dim)
    closure = max(x.report["closure_residual"], x.report["adjoint_residual"])
    return ghat, deg, closure, x.legs.identity()


@pytest.mark.parametrize("cycles", CYCLES, ids=_ids)
def test_one_term_grading_matches_the_general_path(cycles, monkeypatch):
    x = _crossed(cycles).objects["boxtimes"]
    ghat, deg, closure, identity = _grading_args(x)
    calls = _spy(monkeypatch, coact, "_one_term_grading", "_dense_grading")
    index = table_grading(
        ghat, deg, x.family_table, x.structure_table, x.star_table, closure, identity
    )
    assert calls == {"_one_term_grading": 1, "_dense_grading": 0}
    m = deg.size
    general = table_grading(
        ghat, deg, x.family.reshape(m, -1), x.structure, x.star, closure, identity
    )
    assert calls == {"_one_term_grading": 1, "_dense_grading": 1}
    assert isinstance(index.basis_table, OneTerm) and "basis" not in vars(index)
    oracle.assert_reports_match(index.report, general.report)
    assert index.report["passed"] and index.contains_identity == general.contains_identity
    assert np.max(np.abs(index.basis - general.basis)) <= 1e-15


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("cycles", CYCLES, ids=_ids)
def test_diagonal_coaction_checks_match_the_general_path(cycles, side, monkeypatch):
    graded = dual_coaction(_crossed(cycles).objects["boxtimes"]).objects["grading"]
    gamma = TableCoaction(graded=graded, model=build_model(graded.group), side=side)
    calls = _spy(monkeypatch, coact, "_diagonal_checks", "coaction_checks")
    got = verify_table_coaction(gamma)
    assert calls == {"_diagonal_checks": 1, "coaction_checks": 0}
    # the oracle projects every image densely and runs coaction_checks
    oracle.assert_reports_match(got, oracle.loop_verify_table_coaction(gamma))
    assert got["passed"]


@pytest.mark.parametrize("cycles", CYCLES, ids=_ids)
def test_dual_coaction_on_index_arrays_matches_the_dense_oracle(cycles, monkeypatch):
    x = _crossed(cycles).objects["boxtimes"]
    calls = _spy(monkeypatch, coact, "_one_term_grading", "_diagonal_checks", "coaction_checks")
    got = dual_coaction(x)
    assert calls == {"_one_term_grading": 1, "_diagonal_checks": 1, "coaction_checks": 0}
    general = dual_coaction(_dense(x))
    assert calls["coaction_checks"] == 0 and calls["_diagonal_checks"] == 2
    oracle.assert_reports_match(got.report, general.report)
    if cycles in ((2,), (3,), (2, 2), (4,)):
        want = oracle.dense_dual_coaction(x)
        oracle.assert_reports_match(got.report, want.report)
        oracle.assert_reports_match(got.objects["coaction_report"], want.objects["coaction_report"])
    assert got.passed


def test_moved_degree_fails_the_one_term_grading(monkeypatch):
    x = _crossed((3,)).objects["boxtimes"]
    ghat, deg, _, identity = _grading_args(x)
    deg = deg.copy()
    deg[1] = 2  # iota_C(c_0) iota_D(chi_1) put in degree 2
    calls = _spy(monkeypatch, coact, "_one_term_grading")
    got = table_grading(ghat, deg, x.family_table, x.structure_table, x.star_table, 0.0, identity)
    assert calls["_one_term_grading"] == 1
    want = table_grading(ghat, deg, x.family.reshape(9, -1), x.structure, x.star, 0.0, identity)
    assert not got.report["passed"] and not want.report["passed"]
    for key in ("multiplication_residual", "adjoint_residual"):
        assert got.report[key] > 0.1
    oracle.assert_reports_match(got.report, want.report)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("cls", [TableDoubledDegree, TableLeakyImage, TableDropsDegreeZero])
def test_perturbed_table_coactions_fail_on_the_diagonal(cls, side, monkeypatch):
    graded = dual_coaction(_crossed((3,)).objects["boxtimes"]).objects["grading"]
    gamma = cls(graded=graded, model=build_model(graded.group), side=side)
    calls = _spy(monkeypatch, coact, "_diagonal_checks", "coaction_checks")
    got = verify_table_coaction(gamma)
    assert calls == {"_diagonal_checks": 1, "coaction_checks": 0}
    want = oracle.loop_verify_table_coaction(gamma)
    assert not got["passed"] and not want["passed"]
    oracle.assert_reports_match(got, want)


def test_a_map_off_the_diagonal_takes_the_general_path(monkeypatch):
    graded = dual_coaction(_crossed((2,)).objects["boxtimes"]).objects["grading"]

    class Swapped(TableCoaction):
        """c_0 sent where c_1 goes: a map whose coefficients leave u = t."""

        def apply(self, c, tol=DEFAULT_TOL):
            b = self.graded.basis
            out = super().apply(c, tol)
            return out + super().apply((c @ b[0].conj())[..., None] * (b[1] - b[0]), tol)

    gamma = Swapped(graded=graded, model=build_model(graded.group), side="left")
    calls = _spy(monkeypatch, coact, "_diagonal_checks", "coaction_checks")
    got = verify_table_coaction(gamma)
    assert calls == {"_diagonal_checks": 0, "coaction_checks": 1}
    assert not got["passed"]
    oracle.assert_reports_match(got, oracle.loop_verify_table_coaction(gamma))


# ---------------------------------------------------------------------------
# the general path's contractions as matrix products


@pytest.mark.parametrize("moved", [False, True])
def test_grading_rotation_products_match_the_einsum(moved):
    x = _crossed((2, 2)).objects["boxtimes"]
    ghat, deg, closure, identity = _grading_args(x)
    m = deg.size
    if moved:
        deg = deg.copy()
        deg[1] = 2
    # each component's rows mixed by an invertible matrix, so that the
    # rotation is not diagonal, with the tables of the mixed family
    rng = np.random.default_rng(7)
    mix = np.eye(m, dtype=np.complex128)
    for g in np.unique(deg):
        k = np.flatnonzero(deg == g)
        mix[np.ix_(k, k)] = rng.standard_normal((k.size, k.size)) + 3.0 * np.eye(k.size)
    back = np.linalg.inv(mix)
    rows = mix @ x.family.reshape(m, -1)
    structure = np.einsum("ia,jb,abc,ck->ijk", mix, mix, x.structure, back)
    star = mix.conj() @ x.star @ back
    got = table_grading(ghat, deg, rows, structure, star, closure, identity).report

    # the contraction as it was written, an einsum with a path search
    gram = rows @ rows.conj().T
    rot = np.zeros((m, m), dtype=np.complex128)
    for g in np.unique(deg):
        block = np.ix_(deg == g, deg == g)
        rot[block] = np.linalg.inv(np.linalg.cholesky(gram[block]))
    mult = np.einsum(
        "ia,jb,abc,ck->ijk", rot, rot, structure, np.linalg.inv(rot), optimize=True
    )
    add = ghat.add_table
    off = np.where(add[deg[:, None], deg[None, :]][:, :, None] == deg, 0.0, mult)
    want = float(np.max(np.linalg.norm(off, axis=2)))
    assert got["passed"] != moved
    assert abs(got["multiplication_residual"] - want) <= 1e-15 * max(1.0, want)


@pytest.mark.parametrize("side", SIDES)
def test_podles_rows_match_the_einsum(side, monkeypatch):
    graded = dual_coaction(_crossed((2, 2)).objects["boxtimes"]).objects["grading"]
    gamma = TableCoaction(graded=graded, model=build_model(graded.group), side=side)
    rows = []
    real_rank = coact.rank

    def rank(a, eps):
        rows.append(np.array(a))
        return real_rank(a, eps)

    monkeypatch.setattr(coact, "rank", rank)
    got = oracle.loop_verify_table_coaction(gamma)
    coeffs = rows[0].reshape(16, 4, 16)
    co = gamma.model.coaction_frame()
    mult_a = co.right if side == "right" else co.left
    want = np.einsum(
        "tsu,gsa,uc->tgac", coeffs, mult_a, np.eye(16), optimize=True
    ).reshape(64, -1)
    assert np.max(np.abs(rows[1] - want)) <= 1e-15
    assert got["podles_dim"] == 64


# ---------------------------------------------------------------------------
# maps between crossed products


def _map_reports(pm, general):
    assert (pm is None) == (general is None)
    if pm is not None:
        oracle.assert_reports_match(pm.report, general.report)
        assert np.max(np.abs(pm.matrix - general.matrix), initial=0.0) <= TOL


@pytest.mark.parametrize("cycles", CYCLES, ids=_ids)
def test_equivalence_on_index_arrays_matches_the_general_path(cycles):
    objs = _crossed(cycles).objects
    xb, xd = objs["boxtimes"], objs["direct"]
    with oracle.densified_widths() as widths:
        pm = equivalent(xb, xd)
    assert not _leg_widths(xb, xd) & set(widths)
    general = equivalent(_dense(xb), _dense(xd))
    _map_reports(pm, general)
    assert pm.report["passed"]
    if cycles in ((2,), (3,), (2, 2), (4,), (2, 4)):
        fam2 = oracle.dense_aligned_family(
            xd, xb.c_graded.ambient.basis, xb.d_graded.ambient.basis, DEFAULT_TOL
        )
        markings = _marking_pairs(xb, xd, DEFAULT_TOL)[1]
        _map_reports(pm, oracle.dense_family_map(xb, fam2, xd, True, markings))


def test_held_factors_align_exactly():
    objs = _crossed((3,)).objects
    xb, xd = objs["boxtimes"], objs["direct"]
    c, d = xb.c_graded, xb.d_graded
    assert xd.c_graded is c and xd.d_graded is d
    for graded in (c, d):
        p = boxtimes._factor_coords(graded, graded, DEFAULT_TOL)
        assert np.array_equal(p, np.eye(graded.dim))
    # coords_of reads the characters' identity only up to rounding, which
    # no longer has one term a row
    near = np.stack([d.ambient.space.coords_of(b) for b in d.ambient.basis])
    assert OneTerm.of_rows(near) is None and np.allclose(near, np.eye(d.dim), atol=1e-15)
    pairs = _marking_pairs(xb, xd, DEFAULT_TOL)[1]
    assert all(isinstance(t, OneTerm) for pair in pairs for t in pair)


CHI2 = Bicharacter(FinAbGroup((2,)), FinAbGroup((2,)), ((1,),))
CHI3 = Bicharacter(FinAbGroup((3,)), FinAbGroup((3,)), ((1,),))


@pytest.mark.parametrize("chi", [CHI2, CHI3], ids=["Z2", "Z3"])
def test_symmetry_on_index_arrays_matches_the_general_path(chi):
    x = build_via_heisenberg(delta_grading(chi.group_g), delta_grading(chi.group_h), chi)
    with oracle.densified_widths() as widths:
        y, pm = symmetry(x)
    assert not _leg_widths(x, y) & set(widths)
    _, general = symmetry(_dense(x))
    _map_reports(pm, general)
    fam2 = boxtimes.coords_product_pairs(y.iota_d, y.iota_c, y.legs).reshape(x.family.shape)
    markings = [(x.iota_c_table, y.iota_d_table), (x.iota_d_table, y.iota_c_table)]
    _map_reports(pm, oracle.dense_family_map(x, fam2, y, True, markings))


@pytest.mark.parametrize("chi", [CHI2, CHI3], ids=["Z2", "Z3"])
def test_functor_map_on_index_arrays_matches_the_general_path(chi):
    c = delta_grading(chi.group_g)
    x = build_via_heisenberg(c, c, chi)
    ident = graded_morphism(c, c, list(c.ambient.basis))
    with oracle.densified_widths() as widths:
        pm = functor_map(ident, ident, x, x)
    assert not _leg_widths(x) & set(widths)
    general = functor_map(ident, ident, _dense(x), _dense(x))
    _map_reports(pm, general)
    fam2 = oracle.dense_aligned_family(x, list(c.ambient.basis), list(c.ambient.basis), DEFAULT_TOL)
    dense = oracle.dense_family_map(x, fam2, x, False, [])
    for key in ("multiplicative", "star", "markings", "alignment", "passed"):
        assert abs(pm.report[key] - dense.report[key]) <= TOL, key
    assert pm.report["injective"] and pm.report["surjective"]


Z3, Z4 = FinAbGroup((3,)), FinAbGroup((4,))
REGRADINGS = {
    "identity": (Z3, GroupHom(Z3, Z3, ((1,),)), GroupHom(Z3, Z3, ((1,),)), CHI3),
    "quotient": (Z4, GroupHom(Z4, FinAbGroup((2,)), ((1,),)), GroupHom(Z4, FinAbGroup((2,)), ((1,),)), CHI2),
    "regular": (Z3, GroupHom(Z3, Z3, ((1,),)), hom_h_to_dual_g(CHI3), regular_bicharacter(Z3)),
}


@pytest.mark.parametrize("name", sorted(REGRADINGS))
def test_reparametrize_on_index_arrays_matches_the_general_path(name, monkeypatch):
    group, f, g, chi2 = REGRADINGS[name]
    c = delta_grading(group)
    with oracle.densified_widths() as widths:
        xa, xb, pm = qgr_morphism_reparametrize(c, c, f, g, chi2)
    assert not _leg_widths(xa, xb) & set(widths)
    real = boxtimes.build_via_heisenberg

    def held_densely(*args, **kwargs):
        return _dense(real(*args, **kwargs))

    monkeypatch.setattr(boxtimes, "build_via_heisenberg", held_densely)
    _, _, general = qgr_morphism_reparametrize(c, c, f, g, chi2)
    _map_reports(pm, general)
    fam2 = oracle.dense_aligned_family(xb, c.ambient.basis, c.ambient.basis, DEFAULT_TOL)
    markings = _marking_pairs(xa, xb, DEFAULT_TOL)[1]
    _map_reports(pm, oracle.dense_family_map(xa, fam2, xb, True, markings))


def test_embedding_takes_the_general_path():
    # the conjugated second marking is not one-hot, so neither is the
    # embedded family: the map is certified on the dense forms
    c = delta_grading(Z3)
    res = embed_in_reduced(c, c, CHI3)
    assert res.passed
    x1, xe = res.objects["product"], res.objects["embedded"]
    assert not isinstance(xe.family_table, OneTerm) and not isinstance(xe.onb_table, OneTerm)
    fam2 = oracle.dense_aligned_family(xe, c.ambient.basis, c.ambient.basis, DEFAULT_TOL)
    dense = oracle.dense_family_map(x1, fam2, xe, True, _marking_pairs(x1, xe, DEFAULT_TOL)[1])
    _map_reports(res.objects["map"], dense)


# ---------------------------------------------------------------------------
# negative controls on the index path


def _index_and_general(a):
    objs = _crossed((2, 2)).objects
    xb, xd = objs["boxtimes"], objs["direct"]
    markings = _marking_pairs(xb, xd, DEFAULT_TOL)[1]
    with oracle.densified_widths() as widths:
        pm = _family_map(xb, a, xd, True, markings, DEFAULT_TOL)
    assert not _leg_widths(xb, xd) & set(widths)
    dense_markings = [(dense_table(v1), dense_table(v2)) for v1, v2 in markings]
    general = _family_map(_dense(xb), a, _dense(xd), True, dense_markings, DEFAULT_TOL)
    return pm, general


def test_one_wrong_coefficient_fails_on_the_index_path():
    a = np.eye(16, dtype=np.complex128)
    a[5, 5] = 1.0j
    pm, general = _index_and_general(a)
    _map_reports(pm, general)
    assert not pm.report["passed"] and pm.report["multiplicative"] > 0.1


def test_one_permuted_member_fails_on_the_index_path():
    a = np.eye(16, dtype=np.complex128)[[0, 1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15]]
    pm, general = _index_and_general(a)
    _map_reports(pm, general)
    assert not pm.report["passed"] and pm.report["multiplicative"] > 0.1


def test_a_shared_member_is_no_bijection_on_the_index_path():
    a = np.eye(16, dtype=np.complex128)[[0, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]]
    pm, general = _index_and_general(a)
    assert pm is None and general is None


# ---------------------------------------------------------------------------
# the direct route's second marking read off held rows


@pytest.mark.parametrize("cycles", CYCLES + [(12,), (3, 3)], ids=_ids)
def test_direct_route_reads_iota_d_off_held_rows(cycles):
    x = _crossed(cycles).objects["direct"]
    d = character_grading(FinAbGroup(cycles))
    assert isinstance(x.iota_d_table, OneTerm)
    want = pure_coords_stack(x.legs, [np.eye(x.legs.sizes[0]), d.ambient.basis])
    assert np.max(np.abs(x.iota_d - want)) <= 1e-15


def test_direct_route_projects_no_pure_tensor(monkeypatch):
    graded = delta_grading(FinAbGroup((2, 2)))
    reduced_crossed_product(graded)

    def projected(*args, **kwargs):
        raise AssertionError("a marking was projected as a pure tensor")

    for name in ("pure_coords_stack", "pure_coords"):
        monkeypatch.setattr(boxtimes, name, projected)
    assert reduced_crossed_product(graded).passed
