"""Tests for the multiplicative-unitary models."""

import numpy as np
import pytest

from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.qgroup import (
    MAX_MODEL_ORDER,
    build_model,
    dual_model,
    indicators,
    translations,
    verify_bicharacter_equations,
)

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))
KLEIN = FinAbGroup((2, 2))

# image of delta_(g,h) is delta_(g,g+h); basis order (0,0),(0,1),(1,0),(1,1)
W_Z2 = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)

# dual acts by delta_(x,y) -> delta_(x-y,y)
WHAT_Z2 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=np.complex128,
)


def test_w_matrix_frozen_z2():
    model = build_model(Z2)
    assert np.array_equal(model.W, W_Z2)


def test_translations_compose_exactly():
    lam = translations(KLEIN)
    for g in KLEIN.elements():
        for h in KLEIN.elements():
            assert np.array_equal(lam[g] @ lam[h], lam[KLEIN.add(g, h)])
    assert np.array_equal(lam[KLEIN.zero()], np.eye(4))


def test_translations_match_elementwise_definition():
    # lambda_g delta_k = delta_{g+k}, entry by entry through the group's own index
    for cycles in [(2,), (5,), (2, 2), (2, 3), (3, 4), (2, 2, 2)]:
        group = FinAbGroup(cycles)
        lam = translations(group)
        assert list(lam) == group.elements()
        for g in group.elements():
            want = np.zeros((group.order, group.order), dtype=np.complex128)
            for k in group.elements():
                want[group.index(group.add(g, k)), group.index(k)] = 1.0
            assert lam[g].dtype == np.complex128
            assert np.array_equal(lam[g], want)


def test_indicators_resolve_identity():
    ind = indicators(Z4)
    total = sum(ind.values())
    assert np.array_equal(total, np.eye(4))
    for g in Z4.elements():
        for h in Z4.elements():
            expect = ind[g] if g == h else np.zeros((4, 4))
            assert np.array_equal(ind[g] @ ind[h], expect)


@pytest.mark.parametrize("cycles", [(1,), (2,), (3,), (4,), (2, 2), (6,)])
def test_model_certification(cycles):
    model = build_model(FinAbGroup(cycles))
    rep = model.report
    assert rep["passed"]
    assert rep["pentagon"] == 0.0
    assert rep["unitary"] < 1e-12
    assert rep["max_residual"] < 1e-10
    assert rep["podles_ok"]
    assert rep["first_leg_slices_span_algebra"]
    assert rep["second_leg_slices_span_functions"]
    n = model.order
    if n <= 8:
        assert rep["pentagon_matrix"] < 1e-12
        assert rep["comult_w_equation"] < 1e-10
        assert rep["coassociativity"] < 1e-10


def test_model_is_cached():
    assert build_model(Z3) is build_model(FinAbGroup((3,)))


def test_model_order_bound():
    with pytest.raises(ValueError):
        build_model(FinAbGroup((MAX_MODEL_ORDER + 1,)))


def test_comultiplication_is_grouplike_on_translations():
    model = build_model(Z4)
    lam = model.basis
    for g in Z4.elements():
        delta = model.comultiplication(lam[g])
        assert np.linalg.norm(delta - np.kron(lam[g], lam[g])) < 1e-12


def test_comultiplication_linearity():
    model = build_model(Z3)
    lam = model.basis
    x = 2.0 * lam[(1,)] - 1j * lam[(2,)]
    got = model.comultiplication(x)
    want = 2.0 * np.kron(lam[(1,)], lam[(1,)]) - 1j * np.kron(lam[(2,)], lam[(2,)])
    assert np.linalg.norm(got - want) < 1e-12


def test_comultiplication_rejects_non_members():
    model = build_model(Z2)
    with pytest.raises(ValueError):
        model.comultiplication(np.diag([1.0, 0.0]))


def test_coefficients_expansion():
    model = build_model(Z3)
    lam = model.basis
    coeffs, res = model.coefficients(3.0 * lam[(0,)] + 2j * lam[(2,)])
    assert res < 1e-12
    assert coeffs[(0,)] == pytest.approx(3.0)
    assert coeffs[(2,)] == pytest.approx(2j)
    assert coeffs[(1,)] == pytest.approx(0.0)


def test_unitary_antipode_flips_translations():
    model = build_model(Z4)
    lam = model.basis
    for g in Z4.elements():
        assert np.linalg.norm(model.unitary_antipode(lam[g]) - lam[Z4.neg(g)]) < 1e-12
        double = model.unitary_antipode(model.unitary_antipode(lam[g]))
        assert np.linalg.norm(double - lam[g]) < 1e-12


def test_dual_model_z2_frozen():
    dual = dual_model(build_model(Z2))
    assert np.array_equal(dual.W, WHAT_Z2)
    assert dual.report["passed"]
    assert dual.coproduct_kind == "convolution"


def test_dual_comultiplication_is_convolution():
    model = build_model(Z2)
    dual = dual_model(model)
    ind = dual.basis
    got = dual.comultiplication(ind[(1,)])
    want = np.kron(ind[(0,)], ind[(1,)]) + np.kron(ind[(1,)], ind[(0,)])
    assert np.linalg.norm(got - want) < 1e-12


def test_dual_convolution_general():
    dual = dual_model(build_model(KLEIN))
    ind = dual.basis
    for g in KLEIN.elements():
        got = dual.comultiplication(ind[g])
        want = sum(
            np.kron(ind[a], ind[KLEIN.add(g, KLEIN.neg(a))]) for a in KLEIN.elements()
        )
        assert np.linalg.norm(got - want) < 1e-12


def test_double_dual_returns_original_w():
    for cycles in [(2,), (3,), (2, 2)]:
        model = build_model(FinAbGroup(cycles))
        dd = dual_model(dual_model(model))
        assert np.array_equal(dd.W, model.W)
        assert dd.coproduct_kind == "grouplike"


def test_bicharacter_equations_accept_valid():
    chi = Bicharacter(Z4, Z2, ((1,),))
    rep = verify_bicharacter_equations(chi, build_model(Z4), build_model(Z2))
    assert rep["passed"]
    assert rep["max_residual"] < 1e-12


def test_bicharacter_equations_accept_raw_diagonal():
    chi = Bicharacter(Z3, Z3, ((1,),))
    rep = verify_bicharacter_equations(
        chi.as_diagonal(), build_model(Z3), build_model(Z3)
    )
    assert rep["passed"]


def test_bicharacter_equations_reject_perturbed():
    chi = Bicharacter(Z4, Z4, ((1,),))
    mat = chi.as_diagonal()
    mat[5, 5] *= np.exp(0.3j)
    rep = verify_bicharacter_equations(mat, build_model(Z4), build_model(Z4))
    assert not rep["passed"]
    assert rep["max_residual"] > 0.1


def test_bicharacter_equations_reject_off_diagonal():
    mat = np.eye(4, dtype=np.complex128)
    mat[0, 1] = 0.5
    rep = verify_bicharacter_equations(mat, build_model(Z2), build_model(Z2))
    assert not rep["passed"]
    assert rep["off_diagonal"] > 0.1


def test_bicharacter_equations_shape_guard():
    with pytest.raises(ValueError):
        verify_bicharacter_equations(np.eye(5), build_model(Z2), build_model(Z2))


def test_random_member_comultiplication():
    rng = np.random.default_rng(11)
    for cycles in [(4,), (2, 2)]:
        G = FinAbGroup(cycles)
        model = build_model(G)
        lam = model.basis
        c = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
        x = sum(c[G.index(g)] * lam[g] for g in G.elements())
        want = sum(
            c[G.index(g)] * np.kron(lam[g], lam[g]) for g in G.elements()
        )
        assert np.linalg.norm(model.comultiplication(x) - want) < 1e-10
