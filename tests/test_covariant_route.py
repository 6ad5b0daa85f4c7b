"""The covariant route conjugates leg by leg: parity with the dense-Z
oracle of dense_oracle, and the boundaries of the leg-by-leg projection."""

import math

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import boxtimes
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.boxtimes import build_via_covariant, z_unitary
from qtwist.cli import GRADING_KINDS, random_grading
from qtwist.coact import (
    CovariantRep,
    ad_grading,
    canonical_covariant_rep,
    hilbert_grading,
)
from qtwist.matspan import DEFAULT_TOL

TOL = 1e-12

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))
KLEIN = FinAbGroup((2, 2))
CHIS = {
    "Z2": Bicharacter(Z2, Z2, ((1,),)),
    "Z3": Bicharacter(Z3, Z3, ((1,),)),
    "Z4": Bicharacter(Z4, Z4, ((1,),)),
    "Z2xZ2": Bicharacter(KLEIN, KLEIN, ((1, 0), (1, 1))),
}


def _rep(kind, group, seed):
    rng = np.random.default_rng(seed)
    return canonical_covariant_rep(random_grading(kind, group, rng, DEFAULT_TOL))


def _forced(rep, **changes):
    """A copy of rep with images or grading replaced and its report forced
    to pass, so build_via_covariant accepts it unchecked."""
    fields = {"graded": rep.graded, "grading": rep.grading, "images": rep.images}
    fields.update(changes)
    return CovariantRep(report={"passed": True, "faithful": True}, **fields)


def _assert_same(new, old, path="report"):
    assert set(new) == set(old), path
    for k, v in old.items():
        if isinstance(v, float):
            assert isinstance(new[k], float), (path, k)
            assert math.isfinite(v) == math.isfinite(new[k]), (path, k, new[k], v)
            if math.isfinite(v):
                assert abs(new[k] - v) <= TOL, (path, k, new[k], v)
        else:
            assert type(new[k]) is type(v) and new[k] == v, (path, k, new[k], v)


def _assert_parity(rep_c, rep_d, chi):
    new = build_via_covariant(rep_c, rep_d, chi)
    old = oracle.dense_build_via_covariant(rep_c, rep_d, chi)
    _assert_same(new.report, old.report)
    assert new.dim == old.dim and new.legs.dims == old.legs.dims
    assert np.max(np.abs(new.iota_c - old.iota_c)) <= TOL
    assert np.max(np.abs(new.iota_d - old.iota_d)) <= TOL
    return new


CASES = [
    (gname, kind_c, kind_d)
    for gname in CHIS
    for kind_c in GRADING_KINDS
    for kind_d in GRADING_KINDS
]


@pytest.mark.parametrize("gname,kind_c,kind_d", CASES)
def test_covariant_route_matches_dense_z(gname, kind_c, kind_d):
    chi = CHIS[gname]
    rep_c = _rep(kind_c, chi.group_g, 1)
    rep_d = _rep(kind_d, chi.group_h, 2)
    x = _assert_parity(rep_c, rep_d, chi)
    assert x.report["passed"]


@pytest.mark.parametrize("gname", sorted(CHIS))
def test_z_phases_match_the_kronecker_sum(gname):
    chi = CHIS[gname]
    rep_c = _rep("group_algebra", chi.group_g, 0)
    rep_d = _rep("matrix_units", chi.group_h, 3)
    z = z_unitary(rep_c.grading, rep_d.grading, chi)
    dense = oracle.dense_z_matrix(rep_c.grading, rep_d.grading, chi)
    nk, nl = rep_c.carrier_dim, rep_d.carrier_dim
    assert z.phases.shape == (nk, nl)
    assert np.array_equal(z.matrix, dense)
    unitary = float(np.linalg.norm(dense @ dense.conj().T - np.eye(nk * nl)))
    assert abs(z.report["unitary"] - unitary) <= TOL


def _mixed(rep, seed):
    """rep's images conjugated by a unitary that mixes every degree."""
    n = rep.carrier_dim
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return _forced(rep, images=np.einsum("ab,kbc,dc->kad", q, rep.images, q.conj()))


def _inner_by_row(group):
    """M_2 in degree zero, conjugated by the Hadamard unitary on the M_2
    leg, on a carrier graded by the M_2 row index alone: the images have
    components in degrees +1 and -1, each of them in the span of the
    images, which is all of M_2 (x) 1."""
    rep = canonical_covariant_rep(ad_grading(group, [group.zero(), group.zero()]))
    u = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(group.order))
    degrees = [(i,) for i in range(2) for _ in group.elements()]
    return _forced(
        rep, images=u @ rep.images @ u.T, grading=hilbert_grading(group, degrees)
    )


def _degree_shifts(rep, img):
    """The degrees row minus column of img's non-zero entries."""
    group, degs = rep.grading.group, rep.grading.degrees
    rows, cols = np.nonzero(np.abs(img) > 1e-12)
    return {group.add(degs[r], group.neg(degs[c])) for r, c in zip(rows, cols)}


def _outcome(build):
    try:
        return build()
    except RuntimeError as exc:
        return exc


# The first carrier holds every degree of G, so distinct Phi_k are distinct
# characters of G and linearly independent; with equal ones summed, the sum
# of the terms lies on the legs exactly when each term does.  The trivial
# and the order-2 bicharacters make some Phi_k equal.
ANY_Y = {
    "mixed-z3": (lambda: _mixed(_rep("group_algebra", Z3, 0), 5), CHIS["Z3"], True),
    "mixed-z4": (lambda: _mixed(_rep("matrix_units", Z4, 4), 6), CHIS["Z4"], True),
    "mixed-z3-trivial": (
        lambda: _mixed(_rep("group_algebra", Z3, 0), 5),
        Bicharacter(Z3, Z3, ((0,),)),
        False,
    ),
    "mixed-z4-order-2": (
        lambda: _mixed(_rep("group_algebra", Z4, 0), 7),
        Bicharacter(Z4, Z4, ((2,),)),
        True,
    ),
    "inner-by-row-z3": (lambda: _inner_by_row(Z3), CHIS["Z3"], False),
    "inner-by-row-z4": (lambda: _inner_by_row(Z4), CHIS["Z4"], False),
}


@pytest.mark.parametrize("name", sorted(ANY_Y))
def test_non_homogeneous_images_agree_or_raise_on_both_paths(name):
    make, chi, escapes = ANY_Y[name]
    rep_c = _rep("group_algebra", chi.group_g, 0)
    rep_d = make()
    assert any(len(_degree_shifts(rep_d, img)) > 1 for img in rep_d.images)
    new = _outcome(lambda: build_via_covariant(rep_c, rep_d, chi))
    old = _outcome(lambda: oracle.dense_build_via_covariant(rep_c, rep_d, chi))
    assert isinstance(new, RuntimeError) == isinstance(old, RuntimeError) == escapes
    if not escapes:
        _assert_parity(rep_c, rep_d, chi)


@pytest.mark.parametrize("gname", ["Z3", "Z4"])
def test_negated_carrier_grading_fails_the_commutation_law(gname):
    # psi(d) of degree h is homogeneous of degree -h in the negated
    # grading, so Z twists by conj(chi): no covariance, no exchange law
    chi = CHIS[gname]
    group = chi.group_h
    rep_c = _rep("group_algebra", chi.group_g, 0)
    rep_d = _rep("group_algebra", group, 0)
    negated = hilbert_grading(group, [group.neg(g) for g in rep_d.grading.degrees])
    bad = _forced(rep_d, grading=negated)
    x = _assert_parity(rep_c, bad, chi)
    old = oracle.dense_build_via_covariant(rep_c, bad, chi)
    for rep in (x.report, old.report):
        assert rep["commutation_law"] > 0.1
        assert not rep["passed"]


def test_covariant_route_forms_no_dense_z(monkeypatch):
    def refused(*args):
        raise AssertionError("a dense Z or conjugated image was formed")

    monkeypatch.setattr(boxtimes.ZUnitary, "matrix", property(refused))
    monkeypatch.setattr(boxtimes, "matrix_to_coords", refused)
    for gname in ("Z4", "Z2xZ2"):
        chi = CHIS[gname]
        x = build_via_covariant(
            _rep("function_algebra", chi.group_g, 0), _rep("matrix_units", chi.group_h, 7), chi
        )
        assert x.report["passed"]
