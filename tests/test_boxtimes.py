"""Tests for twisted products: frames, builders, equivalences, functor."""

import itertools
import tracemalloc
from math import prod
from dataclasses import replace

import numpy as np
import pytest

from qtwist import boxtimes

from qtwist.abgroup import (
    Bicharacter,
    FinAbGroup,
    GroupHom,
    dual_bicharacter,
    hom_h_to_dual_g,
    pullback,
    regular_bicharacter,
)
from qtwist.apps import finite_torus, reduced_crossed_product
from qtwist.boxtimes import (
    CrossedProduct,
    build_from_markings,
    build_via_covariant,
    build_via_heisenberg,
    coords_product,
    coords_product_pairs,
    coords_star,
    coords_to_matrix,
    equivalent,
    functor_map,
    graded_morphism,
    heisenberg_markings,
    leg_frames,
    matrix_to_coords,
    morphism_from_pairs,
    podles_span_check,
    pure_coords,
    qgr_morphism_reparametrize,
    symmetry,
    z_commutation_residual,
    z_unitary,
)
from qtwist.coact import (
    CovariantRep,
    ad_grading,
    canonical_covariant_rep,
    delta_grading,
    direct_sum_grading,
    graded_algebra,
    hilbert_grading,
    trivial_grading,
)
from qtwist.heis import (
    amplify_pair,
    canonical_heisenberg,
    composite_heisenberg,
    conjugate_pair,
    rep_pair,
)
from qtwist.matspan import (
    DEFAULT_TOL,
    BudgetError,
    OneTerm,
    row_blocks,
    expand_in_rows,
    internal_unit,
    multiplicative_closure,
    orthonormal_rows,
    basis_tables,
    residual_outside,
)
from qtwist.qgroup import translations

from dense_oracle import (
    all_pairs_closure,
    dense_side_certificate,
    densified_widths,
    center,
    dense_algebra,
    dense_build_via_covariant,
    find_generator_isomorphism,
)

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.diag([1.0, -1.0]).astype(np.complex128)

CHI2 = Bicharacter(Z2, Z2, ((1,),))  # chi(1,1) = -1
CHI3 = Bicharacter(Z3, Z3, ((1,),))  # chi(1,1) = exp(2 pi i / 3)
CHI4 = Bicharacter(Z4, Z4, ((1,),))  # chi(1,1) = i


def m2_units():
    es = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=np.complex128)
            e[i, j] = 1.0
            es.append(e)
    return es


def golden_m2():
    c = delta_grading(Z2)
    d = delta_grading(Z2)
    return build_via_heisenberg(c, d, CHI2)


# ---------------------------------------------------------------------------
# coordinate frames against dense oracles


def test_leg_frames_tables_certified():
    legs = leg_frames([m2_units(), [I2, SZ]])
    assert legs.dims == (4, 2)
    assert legs.sizes == (2, 2)
    assert legs.ambient_dim == 4
    assert legs.residual < 1e-12


def test_coords_arithmetic_matches_dense():
    rng = np.random.default_rng(7)
    legs = leg_frames([m2_units(), [I2, SX, SZ, SX @ SZ]])
    x = rng.standard_normal(legs.dims) + 1j * rng.standard_normal(legs.dims)
    y = rng.standard_normal(legs.dims) + 1j * rng.standard_normal(legs.dims)
    mx, my = coords_to_matrix(x, legs), coords_to_matrix(y, legs)
    assert np.linalg.norm(coords_to_matrix(coords_product(x, y, legs), legs) - mx @ my) < 1e-10
    assert np.linalg.norm(coords_to_matrix(coords_star(x, legs), legs) - mx.conj().T) < 1e-10
    back, res = matrix_to_coords(mx, legs)
    assert res < 1e-10
    assert np.linalg.norm(back - x) < 1e-10


def test_pure_coords_is_kron():
    legs = leg_frames([m2_units(), [I2, SX, SZ, SX @ SZ]])
    a = np.array([[1.0, 2.0], [0.5j, -1.0]])
    b = SZ + 0.25 * SX
    coords = pure_coords(legs, [a, b])
    assert np.linalg.norm(coords_to_matrix(coords, legs) - np.kron(a, b)) < 1e-12
    with pytest.raises(RuntimeError):  # b falls outside a scalars-only leg
        pure_coords(leg_frames([m2_units(), [I2]]), [a, b])


def count_gathers(monkeypatch):
    calls = []
    gather = boxtimes._gathered_pairs

    def counted(xs, ys, legs):
        calls.append(1)
        return gather(xs, ys, legs)

    monkeypatch.setattr(boxtimes, "_gathered_pairs", counted)
    return calls


def _torus_product(n, k, weyl_dim):
    """The torus product of the canonical pair, whose Weyl leg is the
    regular leg of all n^2 monomials, or, at weyl_dim < n^2, of a rep_pair
    copy of its families, whose leg keeps one U_g V_h per distinct monomial."""
    if weyl_dim == n * n:
        return finite_torus(n, k).objects["product"]
    G = FinAbGroup((n,))
    chi = Bicharacter(G, G, ((k,),))
    p = canonical_heisenberg(chi)
    c = delta_grading(G)
    return build_via_heisenberg(c, c, chi, pair=rep_pair(G, G, p.U, p.V))


@pytest.mark.parametrize("k, weyl_dim", [(1, 36), (2, 18), (2, 36)])
def test_monomial_products_match_dense_path(monkeypatch, k, weyl_dim):
    x = _torus_product(6, k, weyl_dim)
    legs = x.legs
    # the torus legs keep their generators: the lambda_g on C and on D
    # (the identity repeats lambda_0), and the monomials of the Weyl leg;
    # every table is monomial
    assert legs.dims == (6, 6, weyl_dim)
    assert legs.monomial
    calls = count_gathers(monkeypatch)
    sparse = coords_product_pairs(x.family, x.family, legs)
    dense = coords_product_pairs(x.family, x.family, replace(legs, mult_tables=legs.mults))
    assert len(calls) == 1
    assert np.max(np.abs(sparse - dense)) <= 1e-12


def test_rotated_leg_takes_dense_path(monkeypatch):
    x = finite_torus(6, 1).objects["product"]
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36)))
    weyl = q @ x.legs.frames[2]  # an orthonormal but rotated Weyl frame
    c_leg = list(x.c_graded.ambient.basis) + [np.eye(6)]
    legs = leg_frames([c_leg, c_leg, list(weyl.reshape(36, 6, 6))])
    assert legs.residual < 1e-12
    assert not isinstance(legs.mult_tables[2], OneTerm)
    fam = x.family[::5]
    rot = np.stack([matrix_to_coords(x.element_matrix(f), legs)[0] for f in fam])
    calls = count_gathers(monkeypatch)
    got = coords_product_pairs(rot, rot, legs)
    assert not calls
    want = coords_product_pairs(fam, fam, x.legs)
    for a in range(len(fam)):
        for b in range(len(fam)):
            diff = coords_to_matrix(got[a, b], legs) - x.element_matrix(want[a, b])
            assert np.linalg.norm(diff) <= 1e-12


def test_star_table_expands_family_adjoints():
    x = finite_torus(6, 1).objects["product"]
    m = x.family.shape[0]
    stars = np.stack([coords_star(f, x.legs).reshape(-1) for f in x.family])
    want, res = expand_in_rows(stars, x.family.reshape(m, -1))
    assert np.max(res) < 1e-12
    assert x.star.shape == (m, m)
    assert np.max(np.abs(x.star - want)) <= 1e-12


def test_dense_certificate_reports_the_star_table_defect():
    # e11* = e11 + delta e22 through a perturbed leg star table: the adjoint
    # lies in the span of the family {e11, e22}, but the one-term star table
    # drops delta e22, so the table's defect exceeds the span distance
    delta = 1e-10
    legs = leg_frames([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]])
    stars = legs.stars[0].copy()
    stars[0, 1] = delta
    bad = replace(legs, star_tables=(stars,))
    family = np.eye(2, dtype=np.complex128)
    onb, _, star, residuals = boxtimes._certificate(family, family, bad, DEFAULT_TOL)
    star_rows = np.stack([coords_star(f, bad) for f in family])
    assert np.max(residual_outside(star_rows, onb)) < delta / 2
    assert np.array_equal(star, np.eye(2))
    assert abs(residuals["adjoint_residual"] - delta) <= 1e-20


def covariant_z3():
    # the dense-Z route's markings carry rounding in every coordinate
    c = canonical_covariant_rep(delta_grading(Z3))
    x = dense_build_via_covariant(c, c, CHI3)
    # iota_D is not one-hot: each family row has several non-zero coordinates
    assert all(np.count_nonzero(v) > 1 for v in x.iota_d)
    return x


def repeated_marking():
    # the golden markings with iota_D's second row replaced by its first:
    # the family spans only 2 of its 4 members
    c = delta_grading(Z2)
    legs, iota_c, iota_d, _, _ = heisenberg_markings(c, c, CHI2)
    return build_from_markings(c, c, CHI2, legs, iota_c, iota_d[[0, 0]])


@pytest.mark.parametrize(
    "make",
    [lambda: finite_torus(6, 1).objects["product"], covariant_z3, repeated_marking],
    ids=["torus-6-1", "covariant-z3", "repeated-marking"],
)
def test_closure_by_left_factor_matches_all_pairs(make):
    x = make()
    want = all_pairs_closure(x)
    assert abs(x.report["closure_residual"] - want["closure_residual"]) <= 1e-12
    if want["structure"] is None:
        assert not x.report["dim_law_ok"]
        assert x.structure is None and x.star is None
        assert x.report["structure_residual"] == want["structure_residual"]
        return
    assert abs(x.report["structure_residual"] - want["structure_residual"]) <= 1e-12
    assert np.max(np.abs(x.structure - want["structure"])) <= 1e-12
    assert np.max(np.abs(x.star - want["star"])) <= 1e-12


def test_torus_assembly_peak_memory():
    # all 1296 products of the family as one array would be 27 MB
    tracemalloc.start()
    try:
        finite_torus(6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


# ---------------------------------------------------------------------------
# the closure certificate by index arithmetic


def _crossed(cycles, part):
    return reduced_crossed_product(delta_grading(FinAbGroup(cycles))).objects[part]


def _index_against_dense(make) -> CrossedProduct:
    """Build on index arrays, with no one-term table of the legs' width
    densified; its certificate must match the one computed on the dense
    rows and the all-pairs oracle's within 1e-12."""
    with densified_widths() as widths:
        x = make()
    assert prod(x.legs.dims) not in widths
    onb, structure, star, residuals = dense_side_certificate(x)
    want = all_pairs_closure(x)
    assert x.dim == onb.shape[0]
    for key, value in residuals.items():
        if value != x.report[key]:
            assert abs(value - x.report[key]) <= 1e-12, key
    for key in ("closure_residual", "structure_residual"):
        assert x.report[key] == want[key] or abs(x.report[key] - want[key]) <= 1e-12
    if x.structure is None:
        assert structure is None and want["structure"] is None
        assert x.star is None and star is None
    else:
        for dense_structure, dense_star in ((structure, star), (want["structure"], want["star"])):
            assert np.max(np.abs(x.structure - dense_structure)) <= 1e-12
            assert np.max(np.abs(x.star - dense_star)) <= 1e-12
    # onb is the family's kept unit rows: orthonormal, with the dense span
    assert isinstance(x.onb_table, OneTerm)
    assert np.allclose(x.onb @ x.onb.conj().T, np.eye(x.dim), atol=1e-12)
    assert np.max(residual_outside(onb, x.onb), initial=0.0) <= 1e-12
    return x


@pytest.mark.parametrize(
    "make",
    [lambda k=k: finite_torus(6, k).objects["product"] for k in range(6)]
    + [
        lambda c=c, part=part: _crossed(c, part)
        for c in ((2,), (3,), (2, 2))
        for part in ("boxtimes", "direct")
    ],
    ids=[f"torus-6-{k}" for k in range(6)]
    + [f"crossed-{c}-{part}" for c in ("z2", "z3", "z2xz2") for part in ("box", "direct")],
)
def test_index_certificate_matches_dense_path_and_oracle(make):
    x = _index_against_dense(make)
    assert x.report["passed"] and x.dim == x.family.shape[0]


def _one_left_factor_at_a_time(x: CrossedProduct) -> bool:
    m = x.family_table.shape[0]
    return len(row_blocks(x.family_table, x.legs.monomial)) == m and isinstance(x.onb_table, np.ndarray)


def test_covariant_family_takes_the_dense_loop():
    x = covariant_z3()
    assert not isinstance(x.family_table, OneTerm)
    assert _one_left_factor_at_a_time(x)


def unclosed_subset():
    # lambda_0 and lambda_1 of the Z/4 torus markings, read as a
    # two-dimensional factor: lambda_1 lambda_1 = lambda_2 leaves the span
    c = delta_grading(Z4)
    legs, iota_c, iota_d, _, _ = heisenberg_markings(c, c, CHI4)
    d = graded_algebra(Z4, {(0,): [I2], (2,): [SX]})
    return build_from_markings(c, d, CHI4, legs, iota_c, iota_d[[0, 1]])


def noncommuting_markings():
    # one leg, the regular representation of S3: the marked transposition s
    # and 3-cycle r give the family {1, r, s, sr} but the reversed products
    # {1, s, r, rs}, so the two spans differ (and r r leaves the first)
    perms = list(itertools.permutations(range(3)))

    def lam(a):
        m = np.zeros((6, 6), dtype=np.complex128)
        for col, b in enumerate(perms):
            m[perms.index(tuple(a[i] for i in b)), col] = 1.0
        return m

    legs = leg_frames([[lam(a) for a in perms]])
    e, s, r = (0, 1, 2), (1, 0, 2), (1, 2, 0)
    iota_c = np.stack([pure_coords(legs, [lam(a)]) for a in (e, s)])
    iota_d = np.stack([pure_coords(legs, [lam(a)]) for a in (e, r)])
    c = delta_grading(Z2)
    return build_from_markings(c, c, CHI2, legs, iota_c, iota_d)


def tiny_marking():
    # a Z/3 torus marking scaled by 1e-12: its three family members fall
    # below the eps_rank cut, so the span has dimension 6 of 9
    c = delta_grading(Z3)
    legs, iota_c, iota_d, _, _ = heisenberg_markings(c, c, CHI3)
    val = iota_d.val.copy()
    val[2] *= 1e-12
    return build_from_markings(c, c, CHI3, legs, iota_c, OneTerm(iota_d.idx, val, iota_d.width))


@pytest.mark.parametrize(
    "make, dim, failing",
    [
        (unclosed_subset, 8, "closure_residual"),
        (noncommuting_markings, 4, "cstar_equality"),
        (tiny_marking, 6, "closure_residual"),
    ],
    ids=["unclosed-subset", "noncommuting", "below-rank-cut"],
)
def test_one_hot_negative_controls_fail_on_the_index_path(make, dim, failing):
    x = _index_against_dense(make)
    assert x.dim == dim
    assert x.report[failing] > 1e-6
    assert not x.report["passed"]


def test_repeated_support_takes_the_dense_loop_and_fails_the_dim_law():
    x = repeated_marking()
    assert _one_left_factor_at_a_time(x)
    assert not x.report["dim_law_ok"] and not x.report["passed"]
    assert x.structure is None and x.star is None


def test_product_table_over_budget_stops_before_the_tables(monkeypatch):
    rep = canonical_covariant_rep(delta_grading(Z2))

    def reached(*args):
        raise AssertionError("the product stack was expanded")

    monkeypatch.setattr("qtwist.matspan.expand_table", reached)
    # the covariant first leg keeps 4 generators of 4 x 4, so its product
    # stack has 4^2 * 4^2 = 256 entries
    monkeypatch.setattr("qtwist.matspan.MAX_DENSE_ENTRIES", 255)
    message = "product table of 4 4x4 matrices: 256 complex entries"
    with pytest.raises(BudgetError, match=message):
        basis_tables(np.zeros((4, 4, 4)))
    with pytest.raises(BudgetError, match=message):
        build_via_covariant(rep, rep, CHI2)


def test_unclosed_leg_fails_certification():
    # orthogonal generators whose span misses SZ SX: the leg keeps them,
    # but its table is not snapped to monomial and its residual stays large
    legs = leg_frames([[I2, SX], [I2, SX], [I2, SX, SZ]])
    assert not isinstance(legs.mult_tables[2], OneTerm)
    assert legs.residual > 1e-8
    c = delta_grading(Z2)
    pair = canonical_heisenberg(CHI2)

    def marking(mats):
        return np.stack(
            [sum(pure_coords(legs, mats(g, part)) for g, part in c.decompose(b).items())
             for b in c.ambient.basis]
        )

    iota_c = marking(lambda g, part: [part, I2, pair.U[g]])
    iota_d = marking(lambda h, part: [I2, part, pair.V[h]])
    x = build_from_markings(c, c, CHI2, legs, iota_c, iota_d)
    assert x.report["frame_residual"] > 1e-8
    assert not x.report["passed"]


# ---------------------------------------------------------------------------
# the golden example: C*(Z/2) boxtimes C*(Z/2) at chi = -1 is M_2


def test_golden_m2_report():
    x = golden_m2()
    assert x.report["passed"]
    assert x.dim == 4
    assert x.report["dim_law_ok"]
    assert x.report["commutation_law"] < 1e-12
    assert x.report["cstar_equality"] < 1e-12
    assert x.provenance["route"] == "heisenberg"


def test_golden_m2_generators_anticommute():
    x = golden_m2()
    lam = translations(Z2)
    u = coords_to_matrix(x.iota_c_apply(lam[(1,)]), x.legs)
    v = coords_to_matrix(x.iota_d_apply(lam[(1,)]), x.legs)
    n = x.ambient_dim
    for w in (u, v):
        assert np.linalg.norm(w @ w.conj().T - np.eye(n)) < 1e-12
        assert np.linalg.norm(w - w.conj().T) < 1e-12
    assert np.linalg.norm(u @ v + v @ u) < 1e-12


def test_golden_m2_is_full_matrix_algebra():
    x = golden_m2()
    alg = dense_algebra(x)
    assert alg is not None
    assert center(alg).dim == 1
    assert np.linalg.norm(internal_unit(alg) - np.eye(x.ambient_dim)) < 1e-12
    lam = translations(Z2)
    gens = [
        coords_to_matrix(x.iota_c_apply(lam[(1,)]), x.legs),
        coords_to_matrix(x.iota_d_apply(lam[(1,)]), x.legs),
    ]
    m2 = multiplicative_closure([I2, SX, SZ])
    iso = find_generator_isomorphism(alg, gens, m2, [SZ, SX])
    assert iso is not None


def test_trivial_twist_is_plain_tensor():
    c = delta_grading(Z2)
    d = delta_grading(Z3)
    x = build_via_heisenberg(c, d, Bicharacter.trivial(Z2, Z3))
    assert x.report["passed"]
    # in the untwisted case the two markings commute entrywise
    lam2, lam3 = translations(Z2), translations(Z3)
    a = coords_to_matrix(x.iota_c_apply(lam2[(1,)]), x.legs)
    b = coords_to_matrix(x.iota_d_apply(lam3[(1,)]), x.legs)
    assert np.linalg.norm(a @ b - b @ a) < 1e-12
    # structure constants factor as the product of the factor tensors,
    # derived densely from the factor bases as an independent oracle
    def struct(graded):
        basis = graded.ambient.basis
        m = len(basis)
        prods = np.einsum("iab,jbc->ijac", basis, basis).reshape(m * m, -1)
        coeffs, res = expand_in_rows(prods, graded.ambient.space.coords())
        assert np.max(res) < 1e-12
        return coeffs.reshape(m, m, m)

    mu = x.structure
    assert mu is not None
    m_c, m_d = c.dim, d.dim
    want = np.einsum("ikp,jlq->ijklpq", struct(c), struct(d))
    got = mu.reshape(m_c, m_d, m_c, m_d, m_c, m_d)
    assert np.linalg.norm((got - want).reshape(-1)) < 1e-12


def test_untwisted_center_is_full_for_abelian_factors():
    x = build_via_heisenberg(delta_grading(Z2), delta_grading(Z2), Bicharacter.trivial(Z2, Z2))
    assert center(dense_algebra(x)).dim == 4  # abelian
    y = golden_m2()
    assert center(dense_algebra(y)).dim == 1  # twisting kills the center


# ---------------------------------------------------------------------------
# dimension law across factor types


DIM_CASES = [
    (delta_grading(Z2), delta_grading(Z2), CHI2),
    (delta_grading(Z3), delta_grading(Z3), CHI3),
    (delta_grading(Z4), delta_grading(Z4), CHI4),
    (delta_grading(Z2), delta_grading(Z4), Bicharacter(Z2, Z4, ((1,),))),
    (ad_grading(Z2, [(0,), (1,)]), delta_grading(Z2), CHI2),
    (ad_grading(Z3, [(0,), (1,), (2,)]), delta_grading(Z3), CHI3),
    (direct_sum_grading(delta_grading(Z2), delta_grading(Z2)), delta_grading(Z2), CHI2),
]


@pytest.mark.parametrize("c,d,chi", DIM_CASES)
def test_dimension_law(c, d, chi):
    x = build_via_heisenberg(c, d, chi)
    assert x.report["passed"]
    assert x.dim == c.dim * d.dim
    assert x.report["invariant_commutators"] < 1e-12


# ---------------------------------------------------------------------------
# independence of the representation witness


@pytest.mark.parametrize("chi", [CHI2, CHI3, Bicharacter(Z2, Z4, ((1,),))])
def test_witness_independence(chi):
    c = delta_grading(chi.group_g)
    d = delta_grading(chi.group_h)
    base = build_via_heisenberg(c, d, chi)
    others = [
        build_via_heisenberg(c, d, chi, pair=composite_heisenberg(chi), label="composite"),
        build_via_heisenberg(c, d, chi, pair=amplify_pair(canonical_heisenberg(chi), 2), label="amplified"),
        build_via_covariant(canonical_covariant_rep(c), canonical_covariant_rep(d), chi),
    ]
    for other in others:
        assert other.report["passed"]
        assert other.dim == base.dim
        pm = equivalent(base, other)
        assert pm is not None
        assert pm.report["passed"]
        assert pm.report["markings"] < 1e-10


def test_equivalence_transports_elements():
    chi = CHI2
    c, d = delta_grading(Z2), delta_grading(Z2)
    x1 = build_via_heisenberg(c, d, chi)
    x2 = build_via_heisenberg(c, d, chi, pair=composite_heisenberg(chi))
    pm = equivalent(x1, x2)
    lam = translations(Z2)
    m1 = coords_to_matrix(x1.iota_c_apply(lam[(1,)]), x1.legs)
    assert np.linalg.norm(
        pm.apply_matrix(m1) - coords_to_matrix(x2.iota_c_apply(lam[(1,)]), x2.legs)
    ) < 1e-10


def test_different_twists_not_equivalent():
    c, d = delta_grading(Z2), delta_grading(Z2)
    x = build_via_heisenberg(c, d, CHI2)
    y = build_via_heisenberg(c, d, Bicharacter.trivial(Z2, Z2))
    assert equivalent(x, y) is None


def test_equivalent_rejects_foreign_factors():
    x = golden_m2()
    y = build_via_heisenberg(delta_grading(Z3), delta_grading(Z3), CHI3)
    with pytest.raises(ValueError):
        equivalent(x, y)


# ---------------------------------------------------------------------------
# the covariant route and its unitary


def test_z_unitary_oracle_z2():
    grading = hilbert_grading(Z2, [(0,), (1,)])
    z = z_unitary(grading, grading, CHI2)
    assert z.report["unitary"] < 1e-12
    assert np.linalg.norm(z.matrix - np.diag([1.0, 1.0, 1.0, -1.0])) < 1e-12


def test_z_commutation_characterization():
    grading4 = hilbert_grading(Z4, [(0,), (1,), (2,), (3,)])
    z = z_unitary(grading4, grading4, CHI4)
    good = canonical_heisenberg(CHI4)
    assert z_commutation_residual(z, good) < 1e-12
    # an anti-Heisenberg pair fails the identity for a non-real twist
    assert z_commutation_residual(z, conjugate_pair(good)) > 0.1
    # and the identity detects a wrong block-scalar
    z_triv = z_unitary(grading4, grading4, Bicharacter.trivial(Z4, Z4))
    assert z_commutation_residual(z_triv, good) > 0.1


def test_two_routes_agree():
    for chi in (CHI2, CHI3):
        c = delta_grading(chi.group_g)
        d = delta_grading(chi.group_h)
        xh = build_via_heisenberg(c, d, chi)
        xc = build_via_covariant(
            canonical_covariant_rep(c), canonical_covariant_rep(d), chi
        )
        assert xc.report["passed"]
        assert xc.provenance["route"] == "covariant"
        pm = equivalent(xh, xc)
        assert pm is not None and pm.report["passed"]


def test_covariant_requires_faithful():
    c = delta_grading(Z2)
    rep = canonical_covariant_rep(c)
    broken = CovariantRep(
        graded=c,
        grading=rep.grading,
        images=np.zeros_like(rep.images),
        report={"passed": False, "faithful": False},
    )
    with pytest.raises(ValueError):
        build_via_covariant(broken, canonical_covariant_rep(c), CHI2)


# ---------------------------------------------------------------------------
# symmetry and the Podles span


def test_symmetry_golden():
    x = golden_m2()
    y, pm = symmetry(x)
    assert y.report["passed"]
    assert y.chi.value((1,), (1,)) == pytest.approx(-1.0)
    assert pm.report["passed"]
    assert pm.report["markings"] < 1e-10


def test_symmetry_nonreal_twist():
    x = build_via_heisenberg(delta_grading(Z3), delta_grading(Z3), CHI3)
    y, pm = symmetry(x)
    # the flipped product carries the conjugate value
    assert y.chi.value((1,), (1,)) == pytest.approx(np.conj(CHI3.value((1,), (1,))))
    assert pm.report["passed"]


def test_podles_span():
    x = golden_m2()
    ok, dim = podles_span_check(x)
    k = x.legs.sizes[2]
    assert ok
    assert dim == x.c_graded.dim * x.d_graded.dim * k * k
    xc = build_via_covariant(
        canonical_covariant_rep(delta_grading(Z2)),
        canonical_covariant_rep(delta_grading(Z2)),
        CHI2,
    )
    with pytest.raises(ValueError):
        podles_span_check(xc)


# ---------------------------------------------------------------------------
# builder validation


def test_builder_rejects_nonunital_factor():
    e11 = np.diag([1.0, 0.0]).astype(np.complex128)
    nonunital = trivial_grading(Z2, [e11])
    assert not nonunital.ambient.contains_identity
    with pytest.raises(ValueError):
        build_via_heisenberg(nonunital, delta_grading(Z2), CHI2)


def test_builder_rejects_bad_pair():
    c, d = delta_grading(Z2), delta_grading(Z2)
    wrong = canonical_heisenberg(Bicharacter.trivial(Z2, Z2))
    with pytest.raises(ValueError):
        build_via_heisenberg(c, d, CHI2, pair=wrong)


def test_builder_rejects_wrong_group():
    with pytest.raises(ValueError):
        build_via_heisenberg(delta_grading(Z3), delta_grading(Z2), CHI2)


# ---------------------------------------------------------------------------
# graded morphisms and functoriality


def test_graded_morphism_reports():
    c = delta_grading(Z2)
    m2 = ad_grading(Z2, [(0,), (1,)])
    lam = translations(Z2)
    f = morphism_from_pairs(c, m2, [(I2, I2), (lam[(1,)], SX)])
    assert f.report["passed"]
    assert f.report["injective"] and not f.report["surjective"]
    assert np.linalg.norm(f.apply(lam[(1,)]) - SX) < 1e-12
    # sigma_z sits in degree zero, so lambda_1 -> sigma_z is not equivariant
    bad = morphism_from_pairs(c, m2, [(I2, I2), (lam[(1,)], SZ)])
    assert bad.report["equivariance"] > 0.5
    assert not bad.report["passed"]
    # scaling the image breaks multiplicativity
    bad2 = morphism_from_pairs(c, m2, [(I2, I2), (lam[(1,)], 2 * SX)])
    assert bad2.report["homomorphism"] > 0.5
    assert not bad2.report["passed"]
    with pytest.raises(ValueError):  # a single pair cannot pin the map
        morphism_from_pairs(c, m2, [(I2, I2)])
    with pytest.raises(ValueError):  # sigma_x is not in the group algebra
        morphism_from_pairs(c, m2, [(SX, SX), (lam[(1,)], SX)])


def test_functor_identity():
    x = golden_m2()
    c = x.c_graded
    ident = graded_morphism(c, c, list(c.ambient.basis))
    pm = functor_map(ident, ident, x, x)
    assert pm.report["passed"]
    assert pm.report["injective"] and pm.report["surjective"]
    assert pm.report["injectivity_matches"] and pm.report["surjectivity_matches"]


def test_functor_embedding():
    c = delta_grading(Z2)
    d = delta_grading(Z2)
    m2 = ad_grading(Z2, [(0,), (1,)])
    x1 = build_via_heisenberg(c, d, CHI2)
    x2 = build_via_heisenberg(m2, d, CHI2)
    f = morphism_from_pairs(c, m2, [(I2, I2), (translations(Z2)[(1,)], SX)])
    ident = graded_morphism(d, d, list(d.ambient.basis))
    pm = functor_map(f, ident, x1, x2)
    assert pm.report["passed"]
    assert pm.report["injective"] and not pm.report["surjective"]
    assert pm.report["injectivity_matches"] and pm.report["surjectivity_matches"]
    # markings are respected pointwise on generators
    lam = translations(Z2)
    got = pm.apply_coords(x1.iota_c_apply(lam[(1,)]))
    want = x2.iota_c_apply(SX)
    assert np.linalg.norm(got - want) < 1e-10


def test_functor_quotient():
    two = direct_sum_grading(
        trivial_grading(Z2, [np.eye(1)]), trivial_grading(Z2, [np.eye(1)])
    )
    one = trivial_grading(Z2, [np.eye(1)])
    d = delta_grading(Z2)
    chi = Bicharacter.trivial(Z2, Z2)
    x1 = build_via_heisenberg(two, d, chi)
    x2 = build_via_heisenberg(one, d, chi)
    # project onto the first summand
    f = graded_morphism(two, one, [b[:1, :1] for b in two.ambient.basis])
    ident = graded_morphism(d, d, list(d.ambient.basis))
    pm = functor_map(f, ident, x1, x2)
    assert pm.report["passed"]
    assert not pm.report["injective"] and pm.report["surjective"]
    assert pm.report["injectivity_matches"] and pm.report["surjectivity_matches"]


def test_functor_rejects_uncertified_morphism():
    x = golden_m2()
    c = x.c_graded
    bad = graded_morphism(c, c, [np.eye(2) / np.sqrt(2), 3 * SX])
    ident = graded_morphism(c, c, list(c.ambient.basis))
    with pytest.raises(ValueError):
        functor_map(bad, ident, x, x)


# ---------------------------------------------------------------------------
# maps from or to a product without tables


def test_equivalent_without_tables_finds_no_map():
    x, good = repeated_marking(), golden_m2()
    assert x.structure is None
    assert equivalent(x, good) is None
    assert equivalent(good, x) is None


def test_symmetry_without_tables_raises():
    with pytest.raises(RuntimeError, match="symmetry equivalence certification failed"):
        symmetry(repeated_marking())


def test_functor_without_tables_raises():
    x, good = repeated_marking(), golden_m2()
    c = good.c_graded
    ident = graded_morphism(c, c, list(c.ambient.basis))
    for x1, x2 in ((x, good), (good, x)):
        with pytest.raises(ValueError, match="dimension law failed"):
            functor_map(ident, ident, x1, x2)


def test_reparametrize_without_tables_gives_no_map(monkeypatch):
    real = boxtimes.build_via_heisenberg

    def first_without_tables(c, d, chi, pair=None, tol=boxtimes.DEFAULT_TOL, label="canonical"):
        if label == "canonical":
            return repeated_marking()
        return real(c, d, chi, pair, tol, label)

    monkeypatch.setattr(boxtimes, "build_via_heisenberg", first_without_tables)
    ident = GroupHom(Z2, Z2, ((1,),))
    xa, xb, pm = qgr_morphism_reparametrize(delta_grading(Z2), delta_grading(Z2), ident, ident, CHI2)
    assert xa.structure is None and xb.structure is not None
    assert pm is None


def test_non_square_map_is_no_bijection():
    two = direct_sum_grading(
        trivial_grading(Z2, [np.eye(1)]), trivial_grading(Z2, [np.eye(1)])
    )
    one = trivial_grading(Z2, [np.eye(1)])
    d = delta_grading(Z2)
    chi = Bicharacter.trivial(Z2, Z2)
    x1 = build_via_heisenberg(two, d, chi)
    x2 = build_via_heisenberg(one, d, chi)
    # the quotient two -> one on the first factor, identity on the second
    a = np.kron(np.array([[1.0], [0.0]]), np.eye(2))
    assert boxtimes._family_map(x1, a, x2, True, [], boxtimes.DEFAULT_TOL) is None
    pm = boxtimes._family_map(x1, a, x2, False, [], boxtimes.DEFAULT_TOL)
    assert pm is not None and pm.report["passed"]


# ---------------------------------------------------------------------------
# regrading along group homomorphisms


def test_reparametrize_identity_homs():
    c, d = delta_grading(Z2), delta_grading(Z2)
    ident = GroupHom(Z2, Z2, ((1,),))
    xa, xb, pm = qgr_morphism_reparametrize(c, d, ident, ident, CHI2)
    assert pm is not None and pm.report["passed"]
    assert xa.dim == xb.dim == 4


def test_reparametrize_quotient():
    c, d = delta_grading(Z4), delta_grading(Z4)
    q = GroupHom(Z4, Z2, ((1,),))
    xa, xb, pm = qgr_morphism_reparametrize(c, d, q, q, CHI2)
    # pulled-back twist is (-1)^{gh} on Z/4 x Z/4
    assert xa.chi.value((1,), (1,)) == pytest.approx(-1.0)
    assert xa.dim == xb.dim == 16
    assert pm is not None and pm.report["passed"]


def test_reparametrize_reduce_to_regular():
    chi = CHI3
    c, d = delta_grading(Z3), delta_grading(Z3)
    ident = GroupHom(Z3, Z3, ((1,),))
    g = hom_h_to_dual_g(chi)
    reg = regular_bicharacter(Z3)
    assert pullback(reg, ident, g).exponents == chi.exponents
    xa, xb, pm = qgr_morphism_reparametrize(c, d, ident, g, reg)
    assert pm is not None and pm.report["passed"]
    assert xb.chi is reg


def test_reparametrize_rejects_mismatched_homs():
    c, d = delta_grading(Z2), delta_grading(Z2)
    with pytest.raises(ValueError):
        qgr_morphism_reparametrize(c, d, GroupHom(Z4, Z2, ((1,),)), GroupHom(Z2, Z2, ((1,),)), CHI2)
