"""Canonical Weyl pairs read off their group's regular pair.

heis.regular_pair(H) holds H's regular pair once per (group, tolerance),
read-only: the characters U_p, the translations V_h, their per-term
representation and Weyl residuals, and the regular Weyl leg.
canonical_heisenberg(chi) sets U_g = U_p(g) for p = -hom_g_to_dual_h(chi)
and reads its residuals off those tables; they must equal what rep_pair
and is_heisenberg find on the same families, bit for bit, over every
bicharacter of cli.group_catalog(8)^2.  A product built with the canonical
pair (on the regular leg) and with a rep_pair copy of its families (on the
frame of its own Weyl monomials) must agree in dims and verdicts, and in
residuals within 1e-12.
"""

import numpy as np
import pytest

from qtwist import apps, boxtimes, cli, heis
from qtwist.abgroup import (
    Bicharacter,
    FinAbGroup,
    enumerate_bicharacters,
    pairing_table,
    regular_bicharacter,
)
from qtwist.boxtimes import build_via_heisenberg, equivalent, heisenberg_markings
from qtwist.coact import character_grading, delta_grading
from qtwist.heis import canonical_heisenberg, is_heisenberg, regular_pair, rep_pair
from qtwist.matspan import DEFAULT_TOL, Tolerance

GROUPS = [FinAbGroup(c) for c in cli.group_catalog(8)]
PAIRS = [(g, h) for g in GROUPS for h in GROUPS]
TOL = 1e-12


@pytest.fixture(autouse=True)
def fresh_regular_pairs():
    heis._regular_pair.cache_clear()
    yield
    heis._regular_pair.cache_clear()


def _copy(p):
    """A rep_pair of the canonical pair's families: certified afresh, with
    no bicharacter or regular pair attached."""
    return rep_pair(p.group_g, p.group_h, p.U, p.V)


def test_regular_pair_is_held_read_only_until_cache_clear():
    H = FinAbGroup((4, 2))
    reg = regular_pair(H)
    assert regular_pair(FinAbGroup((4, 2))) is reg
    assert regular_pair(H, Tolerance(eps_eq=1e-9)) is not reg
    for a in (reg.U, reg.unitary, reg.homomorphism, reg.weyl, reg.leg.rows, reg.leg.coords):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
    assert np.array_equal(reg.U, np.stack([np.diag(col) for col in pairing_table(H).T]))
    # the leg is every monomial U_p V_h, p-major, kept as its own frame
    assert reg.leg.rows.shape == (H.order**2, H.order**2)
    assert reg.leg.residual <= DEFAULT_TOL.eps_eq
    heis._regular_pair.cache_clear()
    again = regular_pair(H)
    assert again is not reg and np.array_equal(again.weyl, reg.weyl)


@pytest.mark.parametrize("G, H", PAIRS, ids=lambda g: "x".join(map(str, g.cycles)))
def test_read_off_residuals_equal_rep_pair_and_is_heisenberg(G, H):
    reg = regular_pair(H)
    pairing = pairing_table(H)
    for chi in enumerate_bicharacters(G, H):
        p = canonical_heisenberg(chi)
        assert p.chi == chi and p.regular is reg
        values = chi.value_table()
        for x, g in enumerate(G.elements()):
            # chi(g, .) is the character p(g), and U_g is the shared U_p(g)
            assert values[x].tobytes() == pairing[:, p.characters[x]].tobytes()
            assert p.U[g].base is reg.U and np.array_equal(p.U[g], reg.U[p.characters[x]])
        q = _copy(p)
        assert p.report == q.report
        assert p.weyl_residual == is_heisenberg(q, chi)[1] == is_heisenberg(p, chi)[1]


@pytest.mark.parametrize("cycles", [(4,), (6,), (2, 2), (8,)])
def test_shifted_or_perturbed_families_fail(cycles):
    G = FinAbGroup(cycles)
    one = tuple(tuple(int(i == j == 0) for j in range(G.rank)) for i in range(G.rank))
    chi = Bicharacter(G, G, one)
    p = canonical_heisenberg(chi)
    # U shifted by one character: still a representation, off the Weyl bound
    bumped = tuple(tuple(2 * e for e in row) for row in one)
    shifted = rep_pair(G, G, canonical_heisenberg(Bicharacter(G, G, bumped)).U, p.V)
    ok, res = is_heisenberg(shifted, chi)
    assert not ok and res > DEFAULT_TOL.eps_eq
    with pytest.raises(ValueError, match="Weyl relation"):
        build_via_heisenberg(delta_grading(G), delta_grading(G), chi, pair=shifted)
    # a perturbed copy of one U_p fails the representation bound
    U = dict(p.U)
    g = G.generators()[0]
    U[g] = U[g] + 1e-6 * np.diag(np.arange(G.order))
    with pytest.raises(ValueError, match="not unitary representations"):
        rep_pair(G, G, U, p.V)


def test_a_pair_built_for_another_chi_goes_through_is_heisenberg(monkeypatch):
    Z2 = FinAbGroup((2,))
    chi = Bicharacter(Z2, Z2, ((1,),))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return is_heisenberg(*args, **kwargs)

    monkeypatch.setattr(boxtimes, "is_heisenberg", counted)
    c = delta_grading(Z2)
    build_via_heisenberg(c, c, chi)
    assert not calls  # read off the regular pair
    wrong = canonical_heisenberg(Bicharacter.trivial(Z2, Z2))
    with pytest.raises(ValueError, match="Weyl relation"):
        build_via_heisenberg(c, c, chi, pair=wrong)
    assert len(calls) == 1
    # at another tolerance the regular leg is not this pair's, so the
    # pair is certified on its own frame
    loose = Tolerance(eps_eq=1e-9)
    legs, *_, res = heisenberg_markings(c, c, chi, canonical_heisenberg(chi), loose)
    assert len(calls) == 2 and legs.dims[2] == 4 and res <= loose.eps_eq


def _assert_same_verdicts(a: dict, b: dict):
    assert set(a) == set(b)
    for key, value in a.items():
        if isinstance(value, dict):
            _assert_same_verdicts(value, b[key])
        elif isinstance(value, (bool, int, str, list, type(None))):
            assert value == b[key], key
        else:
            assert abs(value - b[key]) <= TOL, key


TORI = [(n, k) for n in range(2, 9) for k in range(n)]


@pytest.mark.parametrize("n, k", TORI)
def test_torus_routes_agree(n, k):
    G = FinAbGroup((n,))
    chi = Bicharacter(G, G, ((k,),))
    c = delta_grading(G)
    p = canonical_heisenberg(chi)
    x = build_via_heisenberg(c, c, chi, pair=p)
    y = build_via_heisenberg(c, c, chi, pair=_copy(p))
    assert x.legs.dims[2] == n * n
    _assert_same_verdicts(x.report, y.report)
    rx = apps._torus_checks(x, n, k, DEFAULT_TOL).report
    ry = apps._torus_checks(y, n, k, DEFAULT_TOL).report
    _assert_same_verdicts(rx, ry)
    assert rx == apps.finite_torus(n, k).report


@pytest.mark.parametrize("cycles", [(n,) for n in range(2, 9)] + [(4, 2)])
def test_crossed_product_routes_agree(cycles):
    G = FinAbGroup(cycles)
    chi = regular_bicharacter(G)
    c, d = delta_grading(G), character_grading(G)
    p = canonical_heisenberg(chi)
    x = build_via_heisenberg(c, d, chi, pair=p)
    y = build_via_heisenberg(c, d, chi, pair=_copy(p))
    _assert_same_verdicts(x.report, y.report)
    assert x.report["passed"] and x.dim == G.order**2
    pm = equivalent(x, y)
    assert pm is not None and pm.report["passed"]
