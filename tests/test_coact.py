"""Tests for gradings, coactions, covariant reps and cocycles."""

import numpy as np
import pytest

from qtwist.abgroup import Bicharacter, FinAbGroup, GroupHom, dual_group
from qtwist.coact import (
    CovariantRep,
    action_from_bicharacter,
    ad_grading,
    canonical_covariant_rep,
    character_grading,
    coaction_from_map,
    conjugate_grading,
    corep_unitary,
    delta_grading,
    direct_sum_grading,
    graded_algebra,
    grading_to_coaction,
    hilbert_grading,
    table_grading,
    make_cocycle,
    transport_grading,
    trivial_grading,
    twist_by_cocycle,
    validate_cocycle,
    verify_coaction,
    verify_covariant,
)
from qtwist.apps import cocycle_twist_table
from qtwist.matspan import (
    BudgetError,
    basis_tables,
    dense_table,
    expand_in_rows,
    internal_unit,
    multiplicative_closure,
    residual_outside,
    subspace_equal,
)
from qtwist.qgroup import build_model, translations

Z2 = FinAbGroup((2,))
Z4 = FinAbGroup((4,))

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
E11 = np.diag([1.0, 0.0]).astype(np.complex128)
E22 = np.diag([0.0, 1.0]).astype(np.complex128)
E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = E12.conj().T

M2_BASIS = [E11, E12, E21, E22]


def test_internal_unit_cases():
    alg = multiplicative_closure(M2_BASIS)
    assert np.allclose(internal_unit(alg), I2)
    corner = multiplicative_closure([E11])
    assert np.allclose(internal_unit(corner), E11)


def test_delta_grading_valid():
    graded = delta_grading(Z4)
    assert graded.report["passed"]
    assert graded.dim == 4
    assert graded.report["component_dims"] == {g: 1 for g in Z4.elements()}
    lam = translations(Z4)
    assert graded.degree_of(lam[(3,)]) == (3,)


def test_ad_grading_m2():
    graded = ad_grading(Z2, [(0,), (1,)])
    assert graded.report["passed"]
    assert graded.dim == 4
    assert graded.component((0,)).dim == 2
    assert graded.component((1,)).dim == 2
    assert graded.degree_of(E12) == (1,)
    assert graded.degree_of(E11) == (0,)
    assert graded.degree_of(E11 + E12) is None


def test_invalid_grading_reported_not_raised():
    # both diagonal projections marked degree 1: products land in the
    # missing degree-0 slot, so degree additivity must fail
    graded = graded_algebra(Z2, {(1,): [E11, E22]})
    assert not graded.report["passed"]
    assert graded.report["multiplication_residual"] > 0.5
    assert graded.report["direct_sum_ok"]


def _sample_gradings():
    u = np.array([[1, 1j], [1j, 1]], dtype=np.complex128) / np.sqrt(2)
    m2 = ad_grading(Z2, [(0,), (1,)])
    return {
        "delta": delta_grading(Z4),
        "character": character_grading(FinAbGroup((2, 2))),
        "ad": ad_grading(Z4, [(0,), (3,), (1,)]),
        "trivial": trivial_grading(Z2, M2_BASIS),
        "direct_sum": direct_sum_grading(delta_grading(Z2), m2),
        "conjugate": conjugate_grading(m2, u),
        "transported": transport_grading(delta_grading(Z4), GroupHom(Z4, Z2, ((1,),))),
    }


@pytest.mark.parametrize(
    "kind",
    ["delta", "character", "ad", "trivial", "direct_sum", "conjugate", "transported"],
)
def test_valid_grading_ambient_basis_is_its_homogeneous_basis(kind):
    graded = _sample_gradings()[kind]
    assert graded.report["passed"]
    homs = np.stack([m for _, m in graded.homogeneous_basis()])
    assert np.array_equal(graded.ambient.basis, homs)
    rows = graded.ambient.space.coords()
    assert np.linalg.norm(rows @ rows.conj().T - np.eye(graded.dim)) < 1e-12


def test_overlapping_components_keep_an_orthonormal_fallback_ambient():
    # I and I + SX share a direction: a direct sum by dimension whose
    # components are not orthogonal
    graded = graded_algebra(Z2, {(0,): [I2], (1,): [I2 + SX]})
    assert graded.report["direct_sum_ok"]
    assert graded.report["component_orthogonality"] > 0.5
    assert not graded.report["passed"]
    rows = graded.ambient.space.coords()
    assert graded.dim == 2
    assert np.linalg.norm(rows @ rows.conj().T - np.eye(2)) < 1e-12
    assert graded.ambient.space.contains(SX)
    homs = np.stack([m.reshape(-1) for _, m in graded.homogeneous_basis()])
    assert np.max(np.abs(rows - homs)) > 0.1


def test_decompose_and_reassemble():
    graded = ad_grading(Z2, [(0,), (1,)])
    x = E11 + 2 * E12 - 1j * E21
    parts = graded.decompose(x)
    assert np.allclose(sum(parts.values()), x)
    assert np.allclose(parts[(1,)], 2 * E12 - 1j * E21)
    with pytest.raises(ValueError):
        delta_grading(Z2).decompose(E11)  # not a circulant


def test_trivial_coaction_passes():
    graded = trivial_grading(Z2, M2_BASIS)
    gamma = grading_to_coaction(graded)
    assert np.allclose(gamma.apply(SX), np.kron(SX, I2))
    rep = verify_coaction(gamma)
    assert rep["passed"]
    assert rep["podles_dim"] == 4 * 2


def test_delta_coaction_passes_both_sides():
    graded = delta_grading(Z2)
    lam = translations(Z2)
    for side in ("right", "left"):
        gamma = grading_to_coaction(graded, side)
        rep = verify_coaction(gamma)
        assert rep["passed"], rep
        assert rep["comodule_identity"] < 1e-10
    gamma = grading_to_coaction(graded, "right")
    assert np.allclose(gamma.apply(lam[(1,)]), np.kron(lam[(1,)], lam[(1,)]))
    left = grading_to_coaction(graded, "left")
    assert np.allclose(left.apply(lam[(1,)]), np.kron(lam[(1,)], lam[(1,)]))


def test_decompose_coordinates_match_least_squares():
    # a validated grading decomposes through its ambient coordinates; the
    # reference is the least-squares expansion in the homogeneous basis
    rng = np.random.default_rng(8)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(z)
    cases = [
        delta_grading(Z4),
        ad_grading(Z2, [(0,), (1,)]),
        character_grading(FinAbGroup((3,))),
        conjugate_grading(ad_grading(Z2, [(0,), (1,)]), u),
        direct_sum_grading(delta_grading(Z2), ad_grading(Z2, [(0,), (1,)])),
    ]
    for graded in cases:
        assert graded.homogeneous_ambient
        x = np.einsum("i,iab->ab", rng.standard_normal(graded.dim), graded.ambient.basis)
        labeled = graded.homogeneous_basis()
        rows = np.stack([m.reshape(-1) for _, m in labeled])
        coeffs, _ = expand_in_rows(x.reshape(1, -1), rows)
        want: dict = {}
        for c, (g, m) in zip(coeffs[0], labeled):
            want[g] = want.get(g, 0) + c * m
        got = graded.decompose(x)
        assert list(got) == list(want)
        assert max(np.max(np.abs(got[g] - want[g])) for g in want) <= 1e-12
    overlapping = graded_algebra(Z2, {(0,): [E11], (1,): [E11, E22]})
    assert not overlapping.homogeneous_ambient
    parts = overlapping.decompose(E11 + 2 * E22)
    assert np.allclose(sum(parts.values()), E11 + 2 * E22)


def test_graded_algebra_refuses_closure_products_before_forming_them(monkeypatch):
    lam = translations(FinAbGroup((2, 2)))
    parts = {g: [m] for g, m in lam.items()}
    monkeypatch.setattr("qtwist.matspan.MAX_DENSE_ENTRIES", 8)

    def reached(*args, **kwargs):
        raise AssertionError("closure products were formed")

    monkeypatch.setattr(np, "matmul", reached)
    with pytest.raises(BudgetError, match="closure products of 4 4x4"):
        graded_algebra(FinAbGroup((2, 2)), parts)


def test_graded_algebra_refuses_the_rank_stack_before_forming_it(monkeypatch):
    # E12 alone is not closed (its adjoint leaves the span), so the round
    # falls back to the rank stack: 3 rows of 4 entries against a budget of 8
    monkeypatch.setattr("qtwist.matspan.MAX_DENSE_ENTRIES", 8)
    matmul = np.matmul

    def guarded(a, *args, **kwargs):
        if np.ndim(a) == 4:
            raise AssertionError("the product stack was formed")
        return matmul(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", guarded)
    with pytest.raises(BudgetError, match="closure rank stack of 1 2x2"):
        graded_algebra(FinAbGroup((3,)), {(1,): [E12]})


def _skewed_family(graded, seed):
    """Each component's orthonormal basis mixed by a random invertible
    matrix, as flattened rows with their degree positions."""
    rng = np.random.default_rng(seed)
    els = graded.group.elements()
    rows, deg = [], []
    for g in graded.degrees():
        basis = graded.component(g).coords()
        k = basis.shape[0]
        rows.append((rng.standard_normal((k, k)) + 3.0 * np.eye(k)) @ basis)
        deg += [els.index(g)] * k
    return np.concatenate(rows), np.array(deg)


def _table_report(graded, rows, deg):
    n = graded.ambient_dim
    mult, star, res = basis_tables(rows.reshape(-1, n, n))
    return table_grading(
        graded.group, deg, rows, dense_table(mult), dense_table(star), res, np.eye(n).reshape(-1)
    )


def test_table_grading_of_a_skewed_family_matches_graded_algebra():
    graded = ad_grading(Z2, [(0,), (0,), (1,)])
    rows, deg = _skewed_family(graded, 5)
    table = _table_report(graded, rows, deg)
    got, want = table.report, graded.report
    assert set(got) == set(want)
    for key in ("total_dim", "component_dims", "direct_sum_ok", "closed_under_products", "passed"):
        assert got[key] == want[key], key
    for key in ("closure_residual", "component_orthogonality", "multiplication_residual"):
        assert abs(got[key] - want[key]) <= 1e-12, key
    assert got["passed"] and table.contains_identity
    # the rotated rows are an orthonormal basis that keeps each degree
    assert np.allclose(table.basis @ table.basis.conj().T, np.eye(9), atol=1e-12)
    assert np.allclose(residual_outside(rows[deg == 0], table.basis[deg == 0]), 0.0, atol=1e-12)


def test_table_grading_fails_components_that_overlap():
    graded = ad_grading(Z2, [(0,), (0,), (1,)])
    rows, deg = _skewed_family(graded, 5)
    rows[0] += 0.5 * rows[-1]
    rep = _table_report(graded, rows, deg).report
    assert rep["component_orthogonality"] > 0.1
    assert not rep["passed"]


def test_verify_coaction_catches_broken_grading():
    graded = graded_algebra(Z2, {(1,): [E11, E22]})
    gamma = grading_to_coaction(graded)
    rep = verify_coaction(gamma)
    assert not rep["passed"]


def test_coaction_from_map_round_trip():
    graded = ad_grading(Z2, [(0,), (1,)])
    gamma = grading_to_coaction(graded)
    recovered = coaction_from_map(graded.ambient, gamma.apply, Z2, "right")
    for g in Z2.elements():
        assert subspace_equal(recovered.graded.component(g), graded.component(g))
    assert recovered.report["passed"]


def test_coaction_from_map_rejects_non_coaction():
    alg = multiplicative_closure([E11, E22])
    lam = translations(Z2)

    def bad(c):  # c -> c (x) lambda_1 is not multiplicative
        return np.kron(c, lam[(1,)])

    with pytest.raises(ValueError):
        coaction_from_map(alg, bad, Z2, "right")


def test_coaction_from_map_left_side():
    graded = delta_grading(Z4)
    gamma = grading_to_coaction(graded, "left")
    recovered = coaction_from_map(graded.ambient, gamma.apply, Z4, "left")
    assert recovered.side == "left"
    assert recovered.report["passed"]


def test_canonical_covariant_rep_group_algebra():
    graded = delta_grading(Z2)
    lam = translations(Z2)
    rep = canonical_covariant_rep(graded)
    assert rep.report["passed"]
    assert rep.carrier_dim == 4
    assert np.allclose(rep.apply(lam[(1,)]), np.kron(lam[(1,)], lam[(1,)]))
    assert rep.grading.degrees == ((0,), (1,), (0,), (1,))


def test_canonical_covariant_rep_trivial_grading():
    graded = trivial_grading(Z2, M2_BASIS)
    rep = canonical_covariant_rep(graded)
    assert rep.report["passed"]
    assert rep.report["covariance"] < 1e-12
    assert np.allclose(rep.apply(SX), np.kron(SX, I2))


def test_canonical_covariant_rep_matrix_grading():
    graded = ad_grading(Z2, [(0,), (1,)])
    lam = translations(Z2)
    rep = canonical_covariant_rep(graded)
    assert rep.report["passed"]
    assert rep.report["faithful"]
    assert np.allclose(rep.apply(E12), np.kron(E12, lam[(1,)]))


def test_verify_covariant_detects_wrong_grading():
    graded = delta_grading(Z2)
    good = canonical_covariant_rep(graded)
    bad = CovariantRep(
        graded=graded,
        grading=hilbert_grading(Z2, [(0,), (0,), (0,), (0,)]),
        images=good.images,
    )
    rep = verify_covariant(bad)
    assert not rep["passed"]
    assert rep["covariance"] > 0.5


def test_corep_unitary_identity():
    model = build_model(Z2)
    grading = hilbert_grading(Z2, [(0,), (1,)])
    u = corep_unitary(grading, model)
    lam = translations(Z2)
    want = np.kron(np.diag([1.0, 0.0]), I2) + np.kron(np.diag([0.0, 1.0]), lam[(1,)])
    assert np.allclose(u, want)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    # corepresentation equation (id (x) Delta)U = U12 U13
    lhs = sum(
        np.kron(grading.projection(g), model.comultiplication(lam[g]))
        for g in Z2.elements()
    )
    u12 = np.kron(u, I2)
    u13 = sum(
        np.kron(grading.projection(g), np.kron(I2, lam[g])) for g in Z2.elements()
    )
    assert np.linalg.norm(lhs - u12 @ u13) < 1e-12


def test_transport_grading_quotient():
    graded = delta_grading(Z4)
    f = GroupHom(Z4, Z2, ((1,),))
    out = transport_grading(graded, f)
    assert out.group == Z2
    assert out.report["passed"]
    assert out.component((0,)).dim == 2  # even translations
    assert out.component((1,)).dim == 2
    lam = translations(Z4)
    assert out.component((0,)).contains(lam[(2,)])
    assert out.component((1,)).contains(lam[(3,)])


def test_transport_grading_zero_hom_trivializes():
    graded = delta_grading(Z4)
    f = GroupHom(Z4, Z2, ((0,),))
    out = transport_grading(graded, f)
    assert out.degrees() == [(0,)]
    assert out.component((0,)).dim == 4


def test_transport_grading_composition():
    graded = delta_grading(Z4)
    f = GroupHom(Z4, Z4, ((3,),))  # automorphism of Z/4
    g = GroupHom(Z4, Z2, ((1,),))
    two_step = transport_grading(transport_grading(graded, f), g)
    one_step = transport_grading(graded, g.compose(f))
    for d in Z2.elements():
        assert subspace_equal(two_step.component(d), one_step.component(d))


def test_action_from_bicharacter_trivial():
    graded = ad_grading(Z2, [(0,), (1,)])
    thetas, rep = action_from_bicharacter(graded, Bicharacter.trivial(Z2, Z2))
    assert rep["passed"]
    assert all(v == pytest.approx(1.0) for v in thetas[(1,)].values())


def test_action_from_bicharacter_sign_action():
    graded = ad_grading(Z2, [(0,), (1,)])
    chi = Bicharacter(Z2, Z2, ((1,),))
    thetas, rep = action_from_bicharacter(graded, chi)
    assert rep["passed"]
    assert thetas[(1,)][(1,)] == pytest.approx(-1.0)
    assert thetas[(1,)][(0,)] == pytest.approx(1.0)
    # spectral form agrees with conjugation by diag(1, -1)
    sz = np.diag([1.0, -1.0])
    for m in (E12, E21, E11, E22, E11 - E22 + 3 * E12):
        parts = graded.decompose(m)
        got = sum(thetas[(1,)][g] * cg for g, cg in parts.items())
        assert np.allclose(got, sz @ m @ sz)


def test_action_and_twist_table_refuse_a_failed_grading():
    # overlapping components: the ambient basis is not the homogeneous one,
    # so the grading has no tables to read
    overlapping = graded_algebra(Z2, {(0,): [E11], (1,): [E11, E22]})
    assert not overlapping.homogeneous_ambient
    chi = Bicharacter(Z2, Z2, ((1,),))
    with pytest.raises(ValueError, match="failed validation"):
        action_from_bicharacter(overlapping, chi)
    with pytest.raises(ValueError, match="factor C grading failed validation"):
        cocycle_twist_table(overlapping, delta_grading(Z2), chi)
    with pytest.raises(ValueError, match="factor D grading failed validation"):
        cocycle_twist_table(delta_grading(Z2), overlapping, chi)


def test_corep_cocycle_for_trivial_coaction():
    # corepresentation unitaries are cocycles for the trivial coaction
    graded = trivial_grading(Z2, M2_BASIS)
    gamma = grading_to_coaction(graded)
    u = corep_unitary(hilbert_grading(Z2, [(0,), (1,)]), gamma.model)
    rep = validate_cocycle(gamma, u)
    assert rep["passed"], rep
    assert rep["cocycle_identity"] < 1e-10
    assert rep["density_ok"]


def test_twist_by_corep_gives_ad_grading():
    graded = trivial_grading(Z2, M2_BASIS)
    gamma = grading_to_coaction(graded)
    u = corep_unitary(hilbert_grading(Z2, [(0,), (1,)]), gamma.model)
    twisted = twist_by_cocycle(gamma, u)
    want = ad_grading(Z2, [(0,), (1,)])
    for g in Z2.elements():
        assert subspace_equal(twisted.graded.component(g), want.component(g))
    assert twisted.report["passed"]


def test_twist_by_identity_is_identity():
    graded = ad_grading(Z2, [(0,), (1,)])
    gamma = grading_to_coaction(graded)
    twisted = twist_by_cocycle(gamma, np.eye(4, dtype=np.complex128))
    for g in Z2.elements():
        assert subspace_equal(twisted.graded.component(g), graded.component(g))


def test_cocycle_rejects_outside_c_tensor_a():
    graded = trivial_grading(Z2, M2_BASIS)
    gamma = grading_to_coaction(graded)
    swap = np.zeros((4, 4), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    rep = validate_cocycle(gamma, swap)
    assert not rep["passed"]
    assert rep["a_leg_form"] > 0.1


def test_cocycle_rejects_non_cocycle_unitary():
    graded = trivial_grading(Z2, M2_BASIS)
    gamma = grading_to_coaction(graded)
    u = (np.kron(I2, I2) + 1j * np.kron(SX, SX)) / np.sqrt(2)
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12
    rep = validate_cocycle(gamma, u)
    assert rep["unitary"] < 1e-12
    assert rep["membership"] < 1e-12
    assert rep["cocycle_identity"] > 0.5
    assert not rep["passed"]
    with pytest.raises(ValueError):
        twist_by_cocycle(gamma, u)


def test_make_cocycle_bundles_report():
    graded = trivial_grading(Z2, M2_BASIS)
    gamma = grading_to_coaction(graded)
    u = corep_unitary(hilbert_grading(Z2, [(1,), (1,)]), gamma.model)
    coc = make_cocycle(gamma, u)
    assert coc.report["passed"]
    twisted = twist_by_cocycle(gamma, coc)
    # conjugation by 1 (x) lambda_1 leaves every c (x) 1 fixed
    for g in Z2.elements():
        assert subspace_equal(twisted.graded.component(g), graded.component(g))


def test_character_grading_function_algebra():
    graded = character_grading(FinAbGroup((3,)))
    assert graded.group == dual_group(FinAbGroup((3,)))
    assert graded.report["passed"]
    assert graded.dim == 3
    gamma = grading_to_coaction(graded)
    assert verify_coaction(gamma)["passed"]


def test_direct_sum_grading():
    a = delta_grading(Z2)
    b = ad_grading(Z2, [(0,), (1,)])
    s = direct_sum_grading(a, b)
    assert s.report["passed"]
    assert s.dim == a.dim + b.dim
    assert s.ambient.contains_identity
    assert verify_coaction(grading_to_coaction(s))["passed"]


def test_conjugate_grading_random_unitaries():
    rng = np.random.default_rng(23)
    graded = ad_grading(Z2, [(0,), (1,)])
    for _ in range(3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        moved = conjugate_grading(graded, u)
        assert moved.report["passed"]
        rep = verify_coaction(grading_to_coaction(moved))
        assert rep["passed"]
        assert rep["podles_dim"] == moved.dim * 2


def test_random_ad_gradings_always_give_coactions():
    rng = np.random.default_rng(5)
    for cycles in [(2,), (3,), (2, 2)]:
        G = FinAbGroup(cycles)
        els = G.elements()
        for n in (2, 3):
            degrees = [els[rng.integers(len(els))] for _ in range(n)]
            graded = ad_grading(G, degrees)
            assert graded.report["passed"]
            rep = verify_coaction(grading_to_coaction(graded))
            assert rep["passed"]
            assert rep["podles_dim"] == graded.dim * G.order
