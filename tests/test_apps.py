"""Tests for the named scenarios: tables, torus, crossed products, modules."""

import math

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist import apps
from qtwist.apps import (
    cocycle_conjugacy,
    cocycle_twist_table,
    dual_coaction,
    embed_in_reduced,
    finite_torus,
    full_verify,
    graded_module,
    inner_coaction_examples,
    module_boxtimes,
    module_composition_example,
    modules_examples,
    reduced_crossed_product,
    rieffel_twist_compare,
    skew_tensor,
    sparse_triplets,
    tensor_structure_residual,
)
from qtwist.boxtimes import (
    build_via_heisenberg,
    coords_product_pairs,
    coords_star,
    graded_morphism,
    product_center_dim,
)
from qtwist.coact import (
    ad_grading,
    canonical_covariant_rep,
    character_grading,
    delta_grading,
    grading_to_coaction,
    make_cocycle,
)
from qtwist.matspan import DEFAULT_TOL, dense_table, expand_in_rows
from qtwist.qgroup import translations

from dense_oracle import center, dense_algebra

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))

CHI2 = Bicharacter(Z2, Z2, ((1,),))
CHI3 = Bicharacter(Z3, Z3, ((1,),))
CHI4 = Bicharacter(Z4, Z4, ((1,),))


def hs_table(basis):
    """Structure and star coefficients from traces alone (oracle)."""
    k = basis.shape[0]
    a = np.empty((k, k, k), dtype=np.complex128)
    s = np.empty((k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            prod = basis[i] @ basis[j]
            for p in range(k):
                a[i, j, p] = np.trace(basis[p].conj().T @ prod)
        adj = basis[i].conj().T
        for p in range(k):
            s[i, p] = np.trace(basis[p].conj().T @ adj)
    return a, s


def expected_twist_table(c, d, chi):
    """Monomial structure of the twist, assembled by explicit loops."""
    cb, db = c.ambient.basis, d.ambient.basis
    kc, kd = cb.shape[0], db.shape[0]
    gdeg = [c.degree_of(cb[i]) for i in range(kc)]
    hdeg = [d.degree_of(db[j]) for j in range(kd)]
    a, sa = hs_table(cb)
    b, sb = hs_table(db)
    m = kc * kd
    mu = np.zeros((m, m, m), dtype=np.complex128)
    st = np.zeros((m, m), dtype=np.complex128)
    for i in range(kc):
        for j in range(kd):
            st_ph = np.conj(chi.value(gdeg[i], hdeg[j]))
            for p in range(kc):
                for q in range(kd):
                    st[i * kd + j, p * kd + q] = st_ph * sa[i, p] * sb[j, q]
            for k in range(kc):
                for turn in range(kd):
                    ph = np.conj(chi.value(gdeg[k], hdeg[j]))
                    for p in range(kc):
                        for q in range(kd):
                            mu[i * kd + j, k * kd + turn, p * kd + q] = (
                                ph * a[i, k, p] * b[j, turn, q]
                            )
    return mu, st


# ---------------------------------------------------------------------------
# twist tables


@pytest.mark.parametrize("group,chi", [(Z2, CHI2), (Z3, CHI3)])
def test_cocycle_twist_table_matches_trace_oracle(group, chi):
    c = delta_grading(group)
    d = delta_grading(group)
    table = cocycle_twist_table(c, d, chi)
    mu, st = expected_twist_table(c, d, chi)
    assert np.max(np.abs(table.structure - mu)) < 1e-12
    assert np.max(np.abs(table.star - st)) < 1e-12
    assert table.report["passed"]
    assert table.report["associativity"] < 1e-12
    assert table.report["star_involution"] < 1e-12


def test_cocycle_twist_table_labels_are_degree_pairs():
    table = cocycle_twist_table(delta_grading(Z3), delta_grading(Z3), CHI3)
    assert table.dim == 9
    assert table.labels[0] == ((0,), (0,))
    assert table.labels[1] == ((0,), (1,))
    assert table.labels[3] == ((1,), (0,))


def einsum_associativity(mu):
    """max |(xy)z - x(yz)| from the two m^4 tensors at once (oracle)."""
    t1 = np.einsum("xyu,uzw->xyzw", mu, mu)
    t2 = np.einsum("yzu,xuw->xyzw", mu, mu)
    return float(np.max(np.abs(t1 - t2)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: skew_tensor(delta_grading(Z2), delta_grading(Z2)),
        lambda: skew_tensor(character_grading(Z2), ad_grading(Z2, [(0,), (1,)])),
        lambda: rieffel_twist_compare(delta_grading(Z3), delta_grading(Z3), CHI3),
        lambda: rieffel_twist_compare(delta_grading(Z4), character_grading(Z4), CHI4),
    ],
    ids=["skew", "skew-character-ad", "rieffel-z3", "rieffel-z4-character"],
)
def test_blocked_associativity_matches_einsum(build):
    table = build().objects["table"]
    want = einsum_associativity(table.structure)
    assert abs(table.report["associativity"] - want) <= 1e-15
    assert table.report["associativity"] < 1e-12


def test_non_associative_table_fails_two_cocycle(monkeypatch):
    # b_1 b_1 gains 0.1 b_0 in the first factor's table as the cocycle
    # table reads it (b_k the normalised lambda_k), so (b_1 b_1) b_2 and
    # b_1 (b_1 b_2) differ; the product is built, and certified, before
    # the table is perturbed
    c = delta_grading(Z3)
    x = build_via_heisenberg(c, delta_grading(Z3), CHI3)
    real = c.tables

    def perturbed(tol=DEFAULT_TOL):
        mult, star, res = real(tol)
        mult = dense_table(mult).copy()
        mult[1, 1, 0] += 0.1
        return mult, star, res

    monkeypatch.setattr(c, "tables", perturbed)
    res = apps._rieffel_result(x, DEFAULT_TOL)
    table = res.objects["table"]
    want = einsum_associativity(table.structure)
    assert want > 1e-3
    assert abs(table.report["associativity"] - want) <= 1e-15
    assert not res.report["verdicts"]["two_cocycle"]
    assert not res.passed


# ---------------------------------------------------------------------------
# the skew example


def test_skew_tensor_certifies_the_2x2_matrix_algebra():
    res = skew_tensor(delta_grading(Z2), delta_grading(Z2))
    assert res.passed
    x = res.objects["product"]
    assert x.dim == 4
    # 4-dimensional C*-algebra with trivial center is M_2; check the
    # center two independent ways
    assert product_center_dim(x) == 1
    assert center(dense_algebra(x)).dim == 1


def test_skew_tensor_generators_anticommute():
    res = skew_tensor(delta_grading(Z2), delta_grading(Z2))
    x = res.objects["product"]
    lam = translations(Z2)
    u = x.element_matrix(x.iota_c_apply(lam[(1,)]))
    v = x.element_matrix(x.iota_d_apply(lam[(1,)]))
    assert np.linalg.norm(v @ u + u @ v) < 1e-12
    assert np.linalg.norm(u @ u - np.eye(x.ambient_dim)) < 1e-12
    assert np.linalg.norm(v @ v - np.eye(x.ambient_dim)) < 1e-12


def test_skew_tensor_signs_are_real():
    res = skew_tensor(delta_grading(Z2), delta_grading(Z2))
    trips = res.report["structure_constants"]
    assert trips, "expected an included sparse table"
    assert all(abs(t["value"][1]) < 1e-12 for t in trips)


def test_skew_tensor_rejects_groups_other_than_z2():
    with pytest.raises(ValueError):
        skew_tensor(delta_grading(Z3), delta_grading(Z3))


def test_tensor_structure_residual_separates_twisted_from_plain():
    chi0 = Bicharacter(Z2, Z2, ((0,),))
    x0 = build_via_heisenberg(delta_grading(Z2), delta_grading(Z2), chi0)
    assert tensor_structure_residual(x0) < 1e-12
    res = skew_tensor(delta_grading(Z2), delta_grading(Z2))
    assert tensor_structure_residual(res.objects["product"]) > 0.5


# ---------------------------------------------------------------------------
# the finite torus family


@pytest.mark.parametrize(
    "n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 2), (5, 3)]
)
def test_finite_torus_dimension_and_center(n, k):
    res = finite_torus(n, k)
    assert res.passed
    assert res.report["dims"]["dim"] == n * n
    assert res.report["dims"]["center"] == math.gcd(k, n) ** 2
    if math.gcd(k, n) == 1:
        assert res.report["verdicts"]["matrix_algebra_iso"]


def dense_generators(res):
    # u and v are coordinate tensors; their ambient matrices are formed here
    x = res.objects["product"]
    return x.element_matrix(res.objects["u"]), x.element_matrix(res.objects["v"])


def test_finite_torus_weyl_pair_oracle():
    res = finite_torus(4, 1)
    u, v = dense_generators(res)
    omega = np.exp(-2j * np.pi / 4)
    assert np.linalg.norm(v @ u - omega * (u @ v)) < 1e-10
    eye = np.eye(u.shape[0])
    assert np.linalg.norm(np.linalg.matrix_power(u, 4) - eye) < 1e-10
    assert np.linalg.norm(np.linalg.matrix_power(v, 4) - eye) < 1e-10


def test_finite_torus_center_against_dense_commutant():
    for n, k in ((3, 1), (4, 2)):
        x = finite_torus(n, k).objects["product"]
        assert center(dense_algebra(x)).dim == math.gcd(k, n) ** 2


def test_finite_torus_k0_is_commutative():
    res = finite_torus(3, 0)
    u, v = dense_generators(res)
    assert np.linalg.norm(u @ v - v @ u) < 1e-12
    assert res.report["dims"]["center"] == 9


@pytest.mark.parametrize("n,k", [(1, 0), (3, 3), (3, -1), (0, 0)])
def test_finite_torus_rejects_bad_parameters(n, k):
    with pytest.raises(ValueError):
        finite_torus(n, k)


# ---------------------------------------------------------------------------
# reduced crossed products and duality


def test_reduced_crossed_product_of_group_algebra_is_full_matrix():
    for group in (Z2, Z3):
        res = reduced_crossed_product(delta_grading(group))
        assert res.passed
        xb = res.objects["boxtimes"]
        n = group.order
        assert xb.dim == n * n
        assert product_center_dim(xb) == 1


def test_reduced_crossed_product_inner_action_splits():
    # Ad by a diagonal order-2 unitary is inner, so the crossed product
    # is M_2 tensor the group algebra: dimension 8, center 2
    m2 = ad_grading(Z2, [(0,), (1,)])
    res = reduced_crossed_product(m2)
    assert res.passed
    xb = res.objects["boxtimes"]
    assert xb.dim == 8
    assert product_center_dim(xb) == 2


def test_dual_coaction_components_and_fixed_points():
    x = reduced_crossed_product(delta_grading(Z2)).objects["boxtimes"]
    res, dense = dual_coaction(x), oracle.dense_dual_coaction(x)
    assert res.passed and dense.passed
    assert res.report["dims"] == dense.report["dims"] == {"0": 2, "1": 2}
    assert res.objects["grading"].report["component_dims"] == {(0,): 2, (1,): 2}
    assert res.report["residuals"]["fixed_point"] == pytest.approx(
        dense.report["residuals"]["fixed_point"], abs=1e-12
    )


def test_dual_coaction_rejects_non_regular_input():
    x = build_via_heisenberg(delta_grading(Z3), delta_grading(Z3), CHI3)
    with pytest.raises(ValueError):
        dual_coaction(x)


def test_embed_in_reduced_is_injective_equivalence():
    res = embed_in_reduced(delta_grading(Z2), delta_grading(Z2), CHI2)
    assert res.passed
    assert res.report["dims"] == {"image": 4, "expected": 4, "ambient": 16}


def test_rieffel_twist_compare_matches_trace_oracle():
    res = rieffel_twist_compare(delta_grading(Z3), delta_grading(Z3), CHI3)
    assert res.passed
    table = res.objects["table"]
    mu, st = expected_twist_table(delta_grading(Z3), delta_grading(Z3), CHI3)
    assert np.max(np.abs(table.structure - mu)) < 1e-12
    assert np.max(np.abs(table.star - st)) < 1e-12


def monomial_structure_oracle(x):
    """x's tables on the homogeneous monomial family, from its products."""
    ac = np.stack([x.iota_c_apply(m) for _, m in x.c_graded.homogeneous_basis()])
    ad = np.stack([x.iota_d_apply(m) for _, m in x.d_graded.homogeneous_basis()])
    fam = coords_product_pairs(ac, ad, x.legs)
    m = fam.shape[0] * fam.shape[1]
    fam = fam.reshape(m, *x.legs.dims)
    rows = fam.reshape(m, -1)
    prods = coords_product_pairs(fam, fam, x.legs).reshape(m * m, -1)
    mu, res_m = expand_in_rows(prods, rows)
    stars = np.stack([coords_star(f, x.legs).reshape(-1) for f in fam])
    smat, res_s = expand_in_rows(stars, rows)
    return mu.reshape(m, m, m), smat, max(np.max(res_m), np.max(res_s))


@pytest.mark.parametrize(
    "make",
    [
        lambda: finite_torus(6, 1),
        lambda: skew_tensor(delta_grading(Z2), delta_grading(Z2)),
        lambda: rieffel_twist_compare(delta_grading(Z3), delta_grading(Z3), CHI3),
        lambda: rieffel_twist_compare(delta_grading(Z3), character_grading(Z3), CHI3),
    ],
    ids=["torus-6-1", "skew", "rieffel-z3", "rieffel-z3-character"],
)
def test_monomial_tables_match_recomputed_products(make):
    # the family is i-major over the homogeneous bases, so x's own tables
    # are the monomial tables
    x = make().objects["product"]
    res = max(x.report["structure_residual"], x.report["adjoint_residual"])
    want_mu, want_smat, want_res = monomial_structure_oracle(x)
    assert np.max(np.abs(x.structure - want_mu)) <= 1e-12
    assert np.max(np.abs(x.star - want_smat)) <= 1e-12
    assert max(res, want_res) < 1e-12


def test_torus_family_is_one_hot_and_matches_the_cocycle_table():
    x = finite_torus(6, 1).objects["product"]
    rows = x.family.reshape(x.family.shape[0], -1)
    assert np.array_equal(np.count_nonzero(rows, axis=1), np.ones(len(rows)))
    table = cocycle_twist_table(x.c_graded, x.d_graded, x.chi)
    assert np.max(np.abs(x.structure - table.structure)) <= 1e-12
    assert np.max(np.abs(x.star - table.star)) <= 1e-12


# ---------------------------------------------------------------------------
# cocycle conjugacy


def test_cocycle_conjugacy_with_trivial_cocycles():
    res = cocycle_conjugacy(delta_grading(Z2), None, delta_grading(Z2), None, CHI2)
    assert res.passed
    t = res.objects["matrix"]
    assert t.shape == (4, 4)
    assert np.linalg.matrix_rank(t) == 4


def test_cocycle_conjugacy_with_a_coboundary():
    c = delta_grading(Z2)
    gamma = grading_to_coaction(c, side="right")
    lam = translations(Z2)
    w = (lam[(0,)] + 1j * lam[(1,)]) / np.sqrt(2.0)
    blow = gamma.target_dim // c.ambient_dim
    u = gamma.apply(w) @ np.kron(w.conj().T, np.eye(blow))
    coc = make_cocycle(gamma, u)
    assert coc.report["passed"]
    res = cocycle_conjugacy(c, coc, c, None, CHI2)
    assert res.passed
    assert res.report["verdicts"]["structure_transport"]


def test_cocycle_conjugacy_rejects_invalid_cocycle():
    c = delta_grading(Z2)
    gamma = grading_to_coaction(c, side="right")
    bad = np.diag([1.0, -1.0, 1.0, -1.0]).astype(np.complex128)
    coc = make_cocycle(gamma, bad)
    assert not coc.report["passed"]
    with pytest.raises(ValueError):
        cocycle_conjugacy(c, coc, c, None, CHI2)


def test_inner_coaction_examples_certify():
    res = inner_coaction_examples()
    assert res.passed
    both = res.objects["both"]
    x2 = both.objects["x2"]
    # twisting two inner coactions of Z2 gives the 4x4 matrix algebra
    assert x2.dim == 16
    assert product_center_dim(x2) == 1


# ---------------------------------------------------------------------------
# graded Hilbert modules


def test_graded_module_column_over_m2():
    m2 = ad_grading(Z2, [(0,), (1,)])
    col = graded_module(m2, {(0,): [[[1.0, 0.0]]], (1,): [[[0.0, 1.0]]]})
    assert col.dim == 2
    assert col.rows == 1 and col.cols == 2
    # linking algebra of the row module over M_2 is all of M_3
    assert col.linking.ambient.dim == 9
    assert len(col.compact_basis()) == 1


def test_graded_module_rejects_bad_shapes():
    m2 = ad_grading(Z2, [(0,), (1,)])
    with pytest.raises(ValueError, match="invalid module gradings"):
        graded_module(m2, {(0,): [[[1.0, 0.0, 0.0]]]})
    with pytest.raises(ValueError, match="invalid module gradings"):
        graded_module(
            m2,
            {(0,): [[[1.0, 0.0]]], (1,): [[[1.0, 0.0], [0.0, 1.0]]]},
        )
    with pytest.raises(ValueError, match="invalid module gradings"):
        graded_module(m2, {(0,): [np.zeros((1, 2))]})


def test_graded_module_rejects_wrong_degree_assignment():
    # both rows in one degree: the inner product e_1* e_2 is an
    # off-diagonal unit, which cannot sit in the degree-0 component
    m2 = ad_grading(Z2, [(0,), (1,)])
    with pytest.raises(ValueError, match="invalid module gradings"):
        graded_module(m2, {(0,): [[[1.0, 0.0]], [[0.0, 1.0]]]})


def test_module_boxtimes_of_columns():
    m2 = ad_grading(Z2, [(0,), (1,)])
    col = graded_module(m2, {(0,): [[[1.0, 0.0]]], (1,): [[[0.0, 1.0]]]})
    res = module_boxtimes(col, col, CHI2)
    assert res.passed
    assert res.report["dims"] == {
        "e": 2,
        "f": 2,
        "ef": 4,
        "expected": 4,
        "k_e": 1,
        "k_f": 1,
        "k_ef": 1,
        "cd": 16,
    }


def test_module_composition_example_identity():
    res = module_composition_example()
    assert res.passed
    assert res.report["residuals"]["pointwise"] < 1e-12
    assert res.report["residuals"]["span"] < 1e-12


def test_modules_examples_battery():
    res = modules_examples()
    assert res.passed
    assert res.report["verdicts"]["trivial_module_is_algebra"]


# ---------------------------------------------------------------------------
# the full battery and report plumbing


def test_full_verify_mixed_groups():
    chi = Bicharacter(Z2, Z4, ((1,),))
    res = full_verify(delta_grading(Z2), delta_grading(Z4), chi)
    assert res.passed
    assert all(res.report["verdicts"].values())


def test_full_verify_builds_one_heisenberg_product(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(build_via_heisenberg(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(apps, "build_via_heisenberg", counted)
    res = full_verify(delta_grading(Z3), character_grading(Z3), CHI3)
    assert res.passed
    assert len(built) == 1
    assert res.objects["rieffel"].objects["product"] is built[0]
    # the comparison is the one rieffel_twist_compare makes on its own product
    alone = rieffel_twist_compare(delta_grading(Z3), character_grading(Z3), CHI3)
    assert res.objects["rieffel"].report == alone.report


def test_sparse_triplets_roundtrip():
    t = np.zeros((2, 2, 2), dtype=np.complex128)
    t[0, 1, 1] = 1.5
    t[1, 0, 1] = -2j
    trips = sparse_triplets(t)
    assert trips == [
        {"i": 0, "j": 1, "k": 1, "value": [1.5, 0.0]},
        {"i": 1, "j": 0, "k": 1, "value": [0.0, -2.0]},
    ]
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert sparse_triplets(mat) == [{"i": 0, "j": 1, "value": [1.0, 0.0]}]


def test_scenario_reports_are_json_clean():
    import json

    res = skew_tensor(delta_grading(Z2), delta_grading(Z2))
    dumped = json.dumps(res.report)
    assert "skew_tensor" in dumped
    assert res.report["passed"] is True


# ---------------------------------------------------------------------------
# membership in a factor


def _factor_maps():
    c = delta_grading(Z2)
    x = build_via_heisenberg(c, c, CHI2)
    return {
        "factor algebra": x.iota_c_apply,
        "source algebra": graded_morphism(c, c, list(c.ambient.basis)).apply,
        "marked factor": lambda m: apps._marked_coords(c, x.iota_c, m, DEFAULT_TOL),
        "represented algebra": canonical_covariant_rep(c).apply,
    }


@pytest.mark.parametrize(
    "where", ["factor algebra", "source algebra", "marked factor", "represented algebra"]
)
def test_element_outside_the_factor_raises_through_every_caller(where):
    maps = _factor_maps()
    lam = translations(Z2)
    maps[where](lam[(1,)])  # inside: sigma_x is lambda_1
    sz = np.diag([1.0, -1.0]).astype(np.complex128)  # not a circulant
    with pytest.raises(ValueError, match=f"not in the {where}"):
        maps[where](sz)
