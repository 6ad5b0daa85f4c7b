"""Tests for finite abelian groups and exact bicharacter arithmetic."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qtwist.abgroup import (
    Bicharacter,
    FinAbGroup,
    GroupHom,
    dual_bicharacter,
    dual_group,
    enumerate_bicharacters,
    evaluate,
    hom_g_to_dual_h,
    hom_h_to_dual_g,
    pairing_value,
    pullback,
    regular_bicharacter,
)
from qtwist.cli import group_catalog

Z4 = FinAbGroup((4,))
Z2Z3 = FinAbGroup((2, 3))
Z4Z2 = FinAbGroup((4, 2))


def test_group_basics():
    assert Z2Z3.order == 6
    assert Z2Z3.rank == 2
    els = Z2Z3.elements()
    assert els == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, g in enumerate(els):
        assert Z2Z3.index(g) == i
    assert Z2Z3.add((1, 2), (1, 2)) == (0, 1)
    assert Z2Z3.neg((1, 1)) == (1, 2)
    assert Z2Z3.reduce((3, -1)) == (1, 2)
    assert Z2Z3.zero() == (0, 0)
    assert Z2Z3.generators() == [(1, 0), (0, 1)]


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup(())
    with pytest.raises(ValueError):
        FinAbGroup((0,))
    with pytest.raises(ValueError):
        Z2Z3.reduce((1,))


def test_hom_validation_and_apply():
    f = GroupHom(Z4, FinAbGroup((2,)), ((1,),))  # reduction mod 2
    assert f.apply((3,)) == (1,)
    with pytest.raises(ValueError):
        GroupHom(FinAbGroup((2,)), Z4, ((1,),))  # 2 * 1 != 0 mod 4
    g = GroupHom(FinAbGroup((2,)), Z4, ((2,),))  # doubling embeds Z/2 in Z/4
    assert g.is_injective() and not g.is_surjective()
    assert f.is_surjective() and not f.is_injective()
    assert f.compose(g).apply((1,)) == (0,)
    ident = GroupHom.identity(Z2Z3)
    assert all(ident.apply(x) == x for x in Z2Z3.elements())


def test_hom_shape_guard():
    with pytest.raises(ValueError):
        GroupHom(Z2Z3, Z4, ((1, 0, 0),))


def test_bicharacter_normal_form_and_values():
    chi = Bicharacter(Z4, Z4, ((1,),))
    assert chi.value((1,), (1,)) == pytest.approx(1j)
    assert chi.value((2,), (3,)) == pytest.approx(-1)
    assert chi.angle((2,), (3,)) == Fraction(1, 2)
    # exponents reduce mod gcd
    assert Bicharacter(Z4, Z4, ((5,),)).exponents == ((1,),)
    assert Bicharacter.trivial(Z4, Z4).is_trivial()
    assert not chi.is_trivial()
    assert evaluate(chi, (1,), (2,)) == pytest.approx(-1)


def fraction_angle(chi, a, b):
    """The phase as a sum of Fractions a_i M[i][j] b_j / gcd(n_i, m_j), mod 1."""
    a, b = chi.group_g.reduce(a), chi.group_h.reduce(b)
    total = Fraction(0)
    for i, ni in enumerate(chi.group_g.cycles):
        for j, mj in enumerate(chi.group_h.cycles):
            total += Fraction(a[i] * chi.exponents[i][j] * b[j], math.gcd(ni, mj))
    return total % 1


def test_bicharacter_values_equal_the_fraction_formula_exactly():
    # every bicharacter between groups of the suite's catalog up to order 8,
    # at every pair of elements and at unreduced representatives
    groups = [FinAbGroup(c) for c in group_catalog(8)]
    for g, h in itertools.product(groups, repeat=2):
        for chi in enumerate_bicharacters(g, h):
            for a, b in itertools.product(g.elements(), h.elements()):
                angle = fraction_angle(chi, a, b)
                assert chi.angle(a, b) == angle
                assert chi.value(a, b) == complex(np.exp(2j * np.pi * float(angle)))
            a = tuple(x - 3 * n for x, n in zip(g.elements()[-1], g.cycles))
            b = tuple(x + 5 * n for x, n in zip(h.elements()[-1], h.cycles))
            assert chi.value(a, b) == complex(np.exp(2j * np.pi * float(fraction_angle(chi, a, b))))


def test_bicharacter_shape_guard():
    with pytest.raises(ValueError):
        Bicharacter(Z2Z3, Z4, ((1,),))


def test_bicharacter_functional_equations_exact():
    for chi in enumerate_bicharacters(Z4Z2, Z4Z2):
        for a, b in itertools.product(Z4Z2.elements(), repeat=2):
            for h in [(1, 0), (0, 1), (3, 1)]:
                lhs = chi.angle(Z4Z2.add(a, b), h)
                rhs = (chi.angle(a, h) + chi.angle(b, h)) % 1
                assert lhs == rhs
                lhs2 = chi.angle(h, Z4Z2.add(a, b))
                rhs2 = (chi.angle(h, a) + chi.angle(h, b)) % 1
                assert lhs2 == rhs2


def brute_force_hom_count(src: FinAbGroup, dst: FinAbGroup) -> int:
    """Count integer matrices mod target cycles that define homs."""
    count = 0
    slots = [(k, i) for k in range(dst.rank) for i in range(src.rank)]
    for entries in itertools.product(*(range(dst.cycles[k]) for k, _ in slots)):
        ok = all(
            (src.cycles[i] * e) % dst.cycles[k] == 0
            for (k, i), e in zip(slots, entries)
        )
        count += ok
    return count


def test_enumeration_count_against_hom_count():
    # bicharacters on G x H correspond to homs G -> dual(H)
    for G, H in [(Z4Z2, FinAbGroup((2, 2))), (Z4Z2, Z4Z2), (Z2Z3, Z2Z3)]:
        listed = list(enumerate_bicharacters(G, H))
        assert len(listed) == brute_force_hom_count(G, dual_group(H))
        tables = {tuple(np.round(c.value_table(), 9).reshape(-1)) for c in listed}
        assert len(tables) == len(listed)
    assert len(list(enumerate_bicharacters(Z4Z2, Z4Z2))) == 32


def test_dual_bicharacter():
    for chi in enumerate_bicharacters(Z4Z2, FinAbGroup((2, 2))):
        hat = dual_bicharacter(chi)
        assert hat.group_g == chi.group_h and hat.group_h == chi.group_g
        for a in chi.group_g.elements():
            for b in chi.group_h.elements():
                assert hat.value(b, a) == pytest.approx(np.conj(chi.value(a, b)))
        back = dual_bicharacter(hat)
        assert back.exponents == chi.exponents
    assert Bicharacter(Z4, Z4, ((1,),)).dual().exponents == ((3,),)


def test_value_table_and_diagonal():
    chi = Bicharacter(Z4, FinAbGroup((2,)), ((1,),))
    table = chi.value_table()
    assert table.shape == (4, 2)
    assert table[1, 1] == pytest.approx(-1)
    d = chi.as_diagonal()
    assert d.shape == (8, 8)
    assert np.allclose(d @ d.conj().T, np.eye(8), atol=1e-12)
    assert d[3, 3] == pytest.approx(chi.value((1,), (1,)))


def test_pullback_exact():
    chi = Bicharacter(Z4, Z4, ((1,),))
    Z2 = FinAbGroup((2,))
    dbl = GroupHom(Z2, Z4, ((2,),))
    pulled = pullback(chi, dbl, GroupHom.identity(Z4))
    assert pulled.group_g == Z2 and pulled.group_h == Z4
    assert pulled.exponents == ((1,),)
    for a in Z2.elements():
        for b in Z4.elements():
            assert pulled.value(a, b) == pytest.approx(chi.value(dbl.apply(a), b))
    with pytest.raises(ValueError):
        pullback(chi, GroupHom.identity(Z2), GroupHom.identity(Z4))


def test_pairing_separates_points():
    for G in (Z2Z3, Z4Z2):
        dg = dual_group(G)
        rows = {
            g: tuple(np.round(pairing_value(G, g, p), 9) for p in dg.elements())
            for g in G.elements()
        }
        assert len(set(rows.values())) == G.order
        # bimultiplicative
        for g, h in itertools.product(G.elements(), repeat=2):
            for p in dg.elements():
                assert pairing_value(G, G.add(g, h), p) == pytest.approx(
                    pairing_value(G, g, p) * pairing_value(G, h, p)
                )


def test_regular_bicharacter_is_inverse_pairing():
    for G in (Z4, Z2Z3, Z4Z2):
        rho = regular_bicharacter(G)
        for g in G.elements():
            for p in dual_group(G).elements():
                assert rho.value(g, p) == pytest.approx(
                    np.conj(pairing_value(G, g, p))
                )


def test_induced_homs_recover_bicharacter():
    pairs = [(Z4Z2, Z4Z2), (Z4Z2, FinAbGroup((2, 2))), (Z2Z3, Z4)]
    for G, H in pairs:
        for chi in enumerate_bicharacters(G, H):
            q = hom_h_to_dual_g(chi)
            assert q.source == H and q.target == dual_group(G)
            assert (
                pullback(regular_bicharacter(G), GroupHom.identity(G), q).exponents
                == chi.exponents
            )
            p = hom_g_to_dual_h(chi)
            assert p.source == G and p.target == dual_group(H)
            flipped = pullback(regular_bicharacter(H), GroupHom.identity(H), p)
            want = tuple(
                tuple(chi.exponents[i][j] for i in range(G.rank))
                for j in range(H.rank)
            )
            assert flipped.exponents == want


def test_nondegenerate_bicharacter_gives_group_isomorphism():
    # k = 1 on Z/N x Z/N induces a bijective hom onto the dual
    chi = Bicharacter(Z4, Z4, ((1,),))
    q = hom_h_to_dual_g(chi)
    assert q.is_injective() and q.is_surjective()
    chi2 = Bicharacter(Z4, Z4, ((2,),))
    q2 = hom_h_to_dual_g(chi2)
    assert not q2.is_injective()
