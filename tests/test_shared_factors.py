"""Gradings, translations and factor legs formed once per process.

delta_grading and character_grading return one GradedAlgebra per (group,
tolerance), translations one mapping per group, and a grading holds its
factor leg per tolerance.  All of them are shared read-only; a grading
built by graded_algebra never comes from the memo.  A grading holds its
degree indices and a bicharacter its value table, read-only.
"""

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import coact, matspan
from qtwist.abgroup import Bicharacter, FinAbGroup, enumerate_bicharacters
from qtwist.apps import finite_torus, reduced_crossed_product
from qtwist.coact import ad_grading, character_grading, delta_grading, graded_algebra
from qtwist.matspan import DEFAULT_TOL, OneTerm, Tolerance, dense_table
from qtwist.qgroup import translations

Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))
KLEIN = FinAbGroup((2, 2))
LOOSE = Tolerance(eps_eq=1e-9)


def _assert_read_only(*arrays):
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def _table_arrays(*tables):
    for t in tables:
        yield from (t.idx, t.val) if isinstance(t, OneTerm) else (t,)


@pytest.mark.parametrize("build", [delta_grading, character_grading])
@pytest.mark.parametrize("group", [Z3, KLEIN])
def test_one_grading_per_group_and_tolerance(build, group):
    graded = build(group)
    assert build(group) is graded
    assert build(FinAbGroup(group.cycles), tol=DEFAULT_TOL) is graded
    loose = build(group, LOOSE)
    assert loose is not graded and build(group, LOOSE) is loose
    assert graded.report["passed"] and loose.report["passed"]


def test_cache_clear_builds_the_grading_again():
    graded = delta_grading(Z3)
    coact._delta_grading.cache_clear()
    again = delta_grading(Z3)
    assert again is not graded and delta_grading(Z3) is again
    assert np.array_equal(again.ambient.basis, graded.ambient.basis)


@pytest.mark.parametrize("build", [delta_grading, character_grading])
def test_shared_grading_and_its_leg_are_read_only(build):
    graded = build(KLEIN)
    _assert_read_only(graded.ambient.basis, *(c.basis for c in graded.components.values()))
    leg = graded.leg()
    assert graded.leg() is leg and graded.leg(LOOSE) is not leg
    _assert_read_only(leg.rows, *_table_arrays(leg.mult, leg.star))


def test_translations_are_shared_and_read_only():
    lam = translations(KLEIN)
    assert translations(FinAbGroup((2, 2))) is lam
    want = oracle.loop_translations(KLEIN)
    assert list(lam) == list(want)
    for g, m in want.items():
        assert np.array_equal(lam[g], m)
    _assert_read_only(*lam.values())
    with pytest.raises(TypeError):
        lam[(0, 0)] = np.eye(4)


@pytest.mark.parametrize("build", [delta_grading, character_grading])
def test_held_leg_is_the_frame_of_the_ambient_basis(build):
    graded = build(Z4)
    leg = graded.leg()
    # the identity is in the span, so the generators are the basis alone
    want = matspan.frame(list(graded.ambient.basis))
    assert leg.size == want.size and leg.residual == want.residual
    assert np.array_equal(leg.rows, want.rows)
    for got, ref in ((leg.mult, want.mult), (leg.star, want.star)):
        assert isinstance(got, OneTerm)
        assert np.array_equal(dense_table(got), dense_table(ref))


def test_products_share_the_factor_legs():
    c = delta_grading(Z4)
    for k in (1, 3):
        legs = finite_torus(4, k).objects["product"].legs
        assert legs.frames[0] is c.leg().rows and legs.frames[1] is c.leg().rows
        assert legs.mult_tables[0] is c.leg().mult
    x = reduced_crossed_product(delta_grading(Z3)).objects["boxtimes"]
    assert x.d_graded is character_grading(Z3)
    assert x.legs.frames[1] is character_grading(Z3).leg().rows


def test_graded_algebra_never_comes_from_the_memo():
    shared = delta_grading(Z3)
    lam = translations(Z3)
    parts = {g: [lam[g]] for g in Z3.elements()}
    direct = graded_algebra(Z3, parts)
    assert direct is not shared and graded_algebra(Z3, parts) is not direct
    assert direct.report["passed"] and direct.ambient.basis.flags.writeable
    # perturbed negative controls still fail, and leave the shared grading
    # as it was
    bumped = dict(parts)
    bumped[(1,)] = [lam[(1,)] + 1e-3 * np.diag([1.0, 0.0, 0.0])]
    non_additive = {(0,): [lam[(0,)]], (1,): [lam[(1,)], lam[(2,)]]}
    for bad in (bumped, non_additive):
        rep = graded_algebra(Z3, bad).report
        assert not rep["passed"]
    assert delta_grading(Z3) is shared and shared.report["passed"]


def test_degree_indices_and_value_tables_are_held_read_only():
    lam = translations(Z4)
    gradings = [
        delta_grading(KLEIN),
        character_grading(Z4),
        ad_grading(Z4, [(0,), (1,), (3,)]),
        graded_algebra(Z4, {(0,): [lam[(0,)]], (2,): [lam[(2,)]]}),
    ]
    for graded in gradings:
        got = graded.degree_indices()
        assert graded.degree_indices() is got
        _assert_read_only(got)
        fresh = [graded.group.index(g) for g, _ in graded.homogeneous_basis()]
        assert got.dtype == np.intp and got.tolist() == fresh
    for G in (Z4, KLEIN, FinAbGroup((6,))):
        for H in (Z3, KLEIN, FinAbGroup((4, 2))):
            for chi in enumerate_bicharacters(G, H):
                table = chi.value_table()
                assert chi.value_table() is table
                _assert_read_only(table)
                again = Bicharacter(G, H, chi.exponents).value_table()
                values = [[chi.value(a, b) for b in H.elements()] for a in G.elements()]
                assert again is not table and again.tobytes() == table.tobytes()
                assert np.array(values).tobytes() == table.tobytes()
