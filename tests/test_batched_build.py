"""The batched Heisenberg build path against its per-element forms.

Group index tables, value tables, stacked representations, stacked pure
coordinates, one-shot gathered products and markings certified by index
arithmetic are checked against the loops of dense_oracle (one element,
element pair or basis element at a time), with negative controls that must
fail on both sides.
"""

import dataclasses
import itertools
from math import prod

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import boxtimes, cli, coact, heis
from qtwist.abgroup import Bicharacter, FinAbGroup, enumerate_bicharacters
from qtwist.apps import finite_torus, reduced_crossed_product
from qtwist.boxtimes import (
    _gathered_pairs,
    _marking_report,
    coords_product_pairs,
    pure_coords,
    pure_coords_stack,
)
from qtwist.coact import delta_grading
from qtwist.heis import (
    amplify_pair,
    canonical_heisenberg,
    commutation_check,
    composite_heisenberg,
    conjugate_pair,
    is_anti_heisenberg,
    is_heisenberg,
    rep_pair,
)
from qtwist.matspan import DEFAULT_TOL, OneTerm, basis_tables, dense_table
from qtwist.qgroup import build_model, translations

CATALOG = [FinAbGroup(c) for c in cli.group_catalog(8)]
TORI = [(n, k) for n in range(2, 7) for k in range(n)]
TOL = 1e-12


def _pairs_under(order: int):
    small = [g for g in CATALOG if g.order <= order]
    return [(g, h) for g in small for h in small]


# ---------------------------------------------------------------------------
# index and value tables


@pytest.mark.parametrize("group", CATALOG, ids=lambda g: str(g.cycles))
def test_index_tables_agree_with_add_and_neg(group):
    els = group.elements()
    assert [tuple(int(a) for a in row) for row in group.digits] == els
    for x, g in enumerate(els):
        assert group.neg_table[x] == group.index(group.neg(g))
        for y, h in enumerate(els):
            assert group.add_table[x, y] == group.index(group.add(g, h))
    with pytest.raises(ValueError):
        group.add_table[0, 0] = 1  # shared by every group with these cycles


def test_value_table_is_value_bit_for_bit():
    count = 0
    for g, h in itertools.product(CATALOG, CATALOG):
        for chi in enumerate_bicharacters(g, h):
            table = chi.value_table()
            for (x, a), (y, b) in itertools.product(
                enumerate(g.elements()), enumerate(h.elements())
            ):
                assert table[x, y] == chi.value(a, b), (chi, a, b)
                count += 1
    assert count > 3000


@pytest.mark.parametrize("group", CATALOG, ids=lambda g: str(g.cycles))
def test_translations_match_loop(group):
    got, want = translations(group), oracle.loop_translations(group)
    assert list(got) == list(want)
    for g in want:
        assert np.array_equal(got[g], want[g])


# ---------------------------------------------------------------------------
# stacked representations and Weyl relations


def _witnesses():
    def case(chi, kind):
        g, h = chi.group_g.cycles, chi.group_h.cycles
        return pytest.param(chi, kind, id=f"{kind} {chi.exponents} {g}x{h}")

    out = []
    for g, h in _pairs_under(4):
        out += [case(chi, "canonical") for chi in enumerate_bicharacters(g, h)]
    for g, h in _pairs_under(3):
        for chi in enumerate_bicharacters(g, h):
            out += [case(chi, "composite"), case(chi, "amplified")]
    return out


def _pair(chi, kind):
    if kind == "canonical":
        return canonical_heisenberg(chi)
    if kind == "composite":
        return composite_heisenberg(chi)
    return amplify_pair(canonical_heisenberg(chi), 2)


@pytest.mark.parametrize("chi,kind", _witnesses())
def test_batched_pair_residuals_match_loops(chi, kind):
    p = _pair(chi, kind)
    families = ((p.group_g, p.U, "u_representation"), (p.group_h, p.V, "v_representation"))
    for group, rep, key in families:
        want = oracle.loop_rep_residual(group, rep, p.space_dim)
        assert abs(heis._rep_residual(group, rep) - want) <= TOL
        assert abs(p.report[key] - want) <= TOL
    bound = DEFAULT_TOL.eps_eq * max(1.0, p.space_dim)
    for check, anti in ((is_heisenberg, False), (is_anti_heisenberg, True)):
        ok, got = check(p, chi)
        want = oracle.loop_weyl_residual(p, chi, anti)
        assert abs(got - want) <= TOL
        assert ok == (want <= bound)
    assert is_heisenberg(p, chi)[0]


@pytest.mark.parametrize("cycles", [(2,), (3,), (4,), (2, 2)])
def test_commutation_check_matches_loop(cycles):
    G = FinAbGroup(cycles)
    chi = Bicharacter(G, G, tuple((1,) + (0,) * (G.rank - 1) for _ in range(G.rank)))
    p = canonical_heisenberg(chi)
    model = build_model(G)
    for other in (conjugate_pair(p), p):
        want = oracle.loop_commutation_check(p, other, model, model)
        assert abs(commutation_check(p, other, model, model) - want) <= TOL


def test_perturbed_unitary_fails_on_both_sides():
    G = FinAbGroup((4,))
    chi = Bicharacter(G, G, ((1,),))
    p = canonical_heisenberg(chi)
    U = dict(p.U)
    U[(1,)] = U[(1,)] * np.exp(1e-3j)  # still unitary, no longer a homomorphism
    assert oracle.loop_rep_residual(G, U, p.space_dim) > DEFAULT_TOL.eps_eq * p.space_dim
    with pytest.raises(ValueError, match="not unitary representations"):
        rep_pair(G, G, U, p.V)


WRONG = [((4,), ((1,),), ((3,),)), ((2, 2), ((1, 0), (0, 1)), ((1, 1), (0, 1)))]


@pytest.mark.parametrize("cycles,good,bad", WRONG)
def test_wrong_exponent_fails_on_both_sides(cycles, good, bad):
    G = FinAbGroup(cycles)
    p = canonical_heisenberg(Bicharacter(G, G, good))
    wrong = Bicharacter(G, G, bad)
    bound = DEFAULT_TOL.eps_eq * max(1.0, p.space_dim)
    ok, got = is_heisenberg(p, wrong)
    assert not ok and got > bound
    assert oracle.loop_weyl_residual(p, wrong) > bound


# ---------------------------------------------------------------------------
# stacked coordinates and one-shot gathers


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 1)])
def test_stacked_pure_coords_equal_per_element_rows(n, k):
    x = finite_torus(n, k).objects["product"]
    legs = x.legs
    G = FinAbGroup((n,))
    chi = Bicharacter(G, G, ((k,),))
    p = canonical_heisenberg(chi)
    basis = x.c_graded.ambient.basis
    us = np.stack([p.U[g] for g, _ in x.c_graded.homogeneous_basis()])
    eye = np.eye(n)
    got = pure_coords_stack(legs, [basis, eye, us])
    want = np.stack([pure_coords(legs, [b, eye, u]) for b, u in zip(basis, us)])
    assert got.shape == want.shape == (len(basis),) + legs.dims
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(got != 0, want != 0)
    # the markings are these stacks
    assert np.max(np.abs(x.iota_c - got)) <= 1e-15
    # a non-constant diagonal is no circulant, so it leaves C's leg
    with pytest.raises(RuntimeError, match="leg 0 matrix is outside its frame span"):
        pure_coords_stack(legs, [basis + 0.5 * np.diag(np.arange(n)), eye, us])


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3), (6, 1)])
def test_one_shot_gather_equals_dense_contraction(n, k):
    x = finite_torus(n, k).objects["product"]
    legs = x.legs
    dense = dataclasses.replace(legs, mult_tables=legs.mults)
    rng = np.random.default_rng(n * 10 + k)
    def sparse(rows, density):
        shape = (rows,) + legs.dims
        return np.where(rng.random(shape) < density, rng.standard_normal(shape), 0.0)

    # the one-hot family, sparse rows with several entries each, and rows
    # whose entry pairs outnumber the output, scattered in several blocks
    xs, dense_x, dense_y = sparse(3, 0.05), sparse(2, 0.4), sparse(3, 0.4)
    assert np.count_nonzero(dense_x) * np.count_nonzero(dense_y) > 2 * 3 * dense_x[0].size
    cases = ((x.family, x.family[:4]), (xs, x.iota_d), (x.iota_c, xs), (dense_x, dense_y))
    for left, right in cases:
        got = _gathered_pairs(left, right, legs)
        want = coords_product_pairs(left, right, dense)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL


# ---------------------------------------------------------------------------
# markings by index arithmetic


def _products():
    def torus(n, k):
        return finite_torus(n, k).objects["product"]

    def crossed(cycles):
        return reduced_crossed_product(delta_grading(FinAbGroup(cycles))).objects["boxtimes"]

    out = [pytest.param(lambda n=n, k=k: torus(n, k), id=f"torus {n} {k}") for n, k in TORI]
    out += [pytest.param(lambda c=c: crossed(c), id=f"crossed {c}") for c in [(2,), (3,), (2, 2)]]
    return out


@pytest.mark.parametrize("build", _products())
def test_marking_reports_match_dense_oracle(build):
    x = build()
    markings = [(x.c_graded, x.iota_c_table, x.iota_c), (x.d_graded, x.iota_d_table, x.iota_d)]
    # the Heisenberg markings are one-hot on monomial legs: index arithmetic
    # only, with no one-term table of the legs' width densified
    with oracle.densified_widths() as widths:
        got = [_marking_report(graded, table, x.legs, DEFAULT_TOL) for graded, table, _ in markings]
    assert prod(x.legs.dims) not in widths
    for (graded, _, iota), report in zip(markings, got):
        # the same rows passed densely, and the per-element oracle
        general = _marking_report(graded, iota.reshape(graded.dim, -1), x.legs, DEFAULT_TOL)
        want = oracle.dense_marking_report(graded, iota, x.legs)
        for other in (general, want):
            assert abs(report[0] - other[0]) <= TOL and abs(report[1] - other[1]) <= TOL
            assert report[2] == other[2]


def test_perturbed_leg_phase_fails_markings_on_both_sides():
    x = finite_torus(4, 1).objects["product"]
    legs = x.legs
    table = legs.mult_tables[0]
    phase = table.val.copy()
    phase[1, 1] *= np.exp(0.1j)  # b_1 b_1 on C's leg picks up a phase
    perturbed = OneTerm(table.idx, phase, table.width)
    bad = dataclasses.replace(legs, mult_tables=(perturbed,) + legs.mult_tables[1:])
    bound = DEFAULT_TOL.eps_eq * max(1.0, x.dim)
    got = _marking_report(x.c_graded, x.iota_c, bad, DEFAULT_TOL)
    want = oracle.dense_marking_report(x.c_graded, x.iota_c, bad)
    assert got[0] > bound and want[0] > bound
    assert abs(got[0] - want[0]) <= TOL
    # D's marking does not use that entry
    assert _marking_report(x.d_graded, x.iota_d, bad, DEFAULT_TOL)[0] <= bound


def test_torus_markings_take_the_index_path():
    with oracle.densified_widths() as widths:
        res = finite_torus(6, 1)
    assert prod(res.objects["product"].legs.dims) not in widths
    assert res.passed
    assert res.report["verdicts"]["certified"]


# ---------------------------------------------------------------------------
# tables computed once, maps formed on demand


def test_factor_tables_are_formed_once_per_process(monkeypatch):
    coact._delta_grading.cache_clear()
    tables, legs = [], []
    real_tables, real_frame = coact.basis_tables, coact.frame

    def counted_tables(basis, tol=DEFAULT_TOL):
        tables.append(basis.shape)
        return real_tables(basis, tol)

    def counted_frame(mats, tol=DEFAULT_TOL):
        legs.append(len(mats))
        return real_frame(mats, tol)

    monkeypatch.setattr(coact, "basis_tables", counted_tables)
    monkeypatch.setattr(coact, "frame", counted_frame)
    first, second = finite_torus(5, 2), finite_torus(5, 3)
    assert first.passed and second.passed
    # C and D of both tori are one shared GradedAlgebra: its table serves
    # every marking, and its leg is the C and D leg of both products
    x, y = first.objects["product"], second.objects["product"]
    c = x.c_graded
    assert x.d_graded is c and y.c_graded is c and y.d_graded is c
    assert tables == [(5, 5, 5)] and legs == [5]
    for legs_of in (x.legs, y.legs):
        assert legs_of.frames[0] is c.leg().rows and legs_of.frames[1] is c.leg().rows
    assert c.tables() is c.tables()
    mult, star, res_t = c.tables()
    want = basis_tables(c.ambient.basis)
    assert np.array_equal(dense_table(mult), dense_table(want[0]))
    assert np.array_equal(dense_table(star), dense_table(want[1]))
    assert res_t == want[2]


def test_product_map_matrix_is_formed_on_first_read():
    res = reduced_crossed_product(delta_grading(FinAbGroup((3,))))
    pm = res.objects["map"]
    assert pm.report["passed"]
    assert "matrix" not in vars(pm)
    src, target = pm.source, pm.target
    want = src.onb.conj().T @ pm.coef @ target.onb
    assert np.array_equal(pm.matrix, want)
    assert "matrix" in vars(pm) and pm.matrix is pm.matrix
    # the markings residual read through the matrix is the reported one
    worst = 0.0
    for v1, v2 in boxtimes._marking_pairs(src, target, DEFAULT_TOL)[1]:
        rows1, rows2 = dense_table(v1), dense_table(v2)
        worst = max(worst, float(np.max(np.linalg.norm(rows1 @ pm.matrix - rows2, axis=1))))
    assert abs(worst - pm.report["markings"]) <= TOL
