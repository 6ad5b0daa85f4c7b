"""Gradings, covariant representations and bicharacter actions, validated
from one product set each, against the pair-by-pair references of
dense_oracle."""

import math

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import coact, matspan
from qtwist.abgroup import Bicharacter, FinAbGroup, enumerate_bicharacters
from qtwist.coact import (
    CovariantRep,
    action_from_bicharacter,
    ad_grading,
    canonical_covariant_rep,
    character_grading,
    conjugate_grading,
    delta_grading,
    direct_sum_grading,
    graded_algebra,
    hilbert_grading,
    trivial_grading,
    verify_covariant,
)
from qtwist.qgroup import translations

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
KLEIN = FinAbGroup((2, 2))
GROUPS = {"Z2": Z2, "Z3": Z3, "Z2xZ2": KLEIN}
TOL = 1e-12

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.diag([1.0, -1.0]).astype(np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _kinds(group):
    """Every grading constructor over the group, as zero-argument builders."""
    els = group.elements()
    return {
        "delta": lambda: delta_grading(group),
        "character": lambda: character_grading(group),
        "ad": lambda: ad_grading(group, [els[0], els[-1], els[1 % len(els)]]),
        "trivial": lambda: trivial_grading(group, [I2, SX, SZ, SX @ SZ]),
        "direct_sum": lambda: direct_sum_grading(
            delta_grading(group), ad_grading(group, [els[0], els[-1]])
        ),
        "conjugate": lambda: conjugate_grading(
            delta_grading(group), _unitary(group.order, group.order)
        ),
    }


def _failing():
    lam = translations(Z3)
    return {
        # lambda_1 lambda_1 = lambda_2 lies in degree 1, not 1 + 1
        "non_additive": (Z3, {(0,): [lam[(0,)]], (1,): [lam[(1,)], lam[(2,)]]}),
        # sigma_x in both degrees: no direct sum, no homogeneous basis
        "overlapping": (Z2, {(0,): [I2, SX], (1,): [SX]}),
        # sigma_x sigma_z is outside the span, which grows to M_2
        "not_closed": (Z2, {(0,): [I2, SX], (1,): [SZ]}),
        "not_closed_adjoint": (Z2, {(0,): [I2], (1,): [E12]}),
    }


def _inputs(build):
    """The (group, parts) of the last graded_algebra call a builder makes."""
    seen = []

    def record(group, parts, tol=matspan.DEFAULT_TOL):
        seen.append((group, parts))
        return graded_algebra(group, parts, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coact, "graded_algebra", record)
        build()
    return seen[-1]


def _all_inputs():
    out = {
        f"{kind}-{gname}": _inputs(build)
        for gname, group in GROUPS.items()
        for kind, build in _kinds(group).items()
    }
    out.update(_failing())
    return out


def _assert_same(new, old, path="report"):
    if isinstance(old, dict):
        assert set(new) == set(old), path
        for k in old:
            _assert_same(new[k], old[k], f"{path}.{k}")
    elif isinstance(old, float):
        assert isinstance(new, float), (path, new, old)
        assert math.isfinite(old) == math.isfinite(new), (path, new, old)
        if math.isfinite(old):
            assert abs(new - old) <= TOL, (path, new, old)
    else:
        assert type(new) is type(old) and new == old, (path, new, old)


CASES = _all_inputs()


@pytest.mark.parametrize("name", sorted(CASES))
def test_graded_algebra_matches_pair_by_pair_reference(name):
    group, parts = CASES[name]
    new = graded_algebra(group, parts)
    old = oracle.graded_algebra(group, parts)
    _assert_same(new.report, old.report)
    assert new.dim == old.dim and new.homogeneous_ambient == old.homogeneous_ambient
    assert new.ambient.contains_identity == old.ambient.contains_identity
    assert abs(new.ambient.closure_residual - old.ambient.closure_residual) <= TOL
    assert np.max(np.abs(new.ambient.basis - old.ambient.basis)) <= TOL
    assert new.degrees() == old.degrees()
    assert new.report["passed"] == (name.split("-")[0] in _kinds(Z2))


def test_failing_gradings_fail_where_expected():
    reports = {name: graded_algebra(*CASES[name]).report for name in _failing()}
    assert reports["non_additive"]["multiplication_residual"] > 0.5
    assert reports["non_additive"]["closed_under_products"]
    assert not reports["overlapping"]["direct_sum_ok"]
    assert not reports["not_closed"]["closed_under_products"]
    assert not reports["not_closed_adjoint"]["closed_under_products"]
    assert reports["not_closed_adjoint"]["adjoint_residual"] > 0.5


def test_graded_algebra_forms_no_closure_on_a_valid_grading(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("multiplicative_closure called on a valid grading")

    monkeypatch.setattr(matspan, "multiplicative_closure", fail)
    monkeypatch.setattr(coact, "multiplicative_closure", fail)
    for gname, group in GROUPS.items():
        for kind, build in _kinds(group).items():
            assert build().report["passed"], (kind, gname)


def _covariant_cases():
    out = {}
    for gname, group in GROUPS.items():
        for kind, build in _kinds(group).items():
            out[f"{kind}-{gname}"] = canonical_covariant_rep(build())
    graded = delta_grading(Z2)
    good = canonical_covariant_rep(graded)
    out["wrong_grading"] = CovariantRep(
        graded=graded,
        grading=hilbert_grading(Z2, [(0,), (0,), (0,), (0,)]),
        images=good.images,
    )
    bumped = good.images.copy()
    bumped[1] += 1e-3 * np.random.default_rng(0).normal(size=bumped[1].shape)
    out["perturbed_image"] = CovariantRep(
        graded=graded, grading=good.grading, images=bumped
    )
    return out


COVARIANT = _covariant_cases()


@pytest.mark.parametrize("name", sorted(COVARIANT))
def test_verify_covariant_matches_pair_by_pair_reference(name):
    rep = COVARIANT[name]
    new, old = verify_covariant(rep), oracle.verify_covariant(rep)
    _assert_same(new, old)
    if name == "wrong_grading":
        assert not new["passed"] and new["covariance"] > 0.5
    elif name == "perturbed_image":
        assert not new["passed"] and new["homomorphism"] > 1e-4
    else:
        assert new["passed"]


def _action_cases():
    out = {}
    for gname, group in GROUPS.items():
        for kind, build in _kinds(group).items():
            graded = build()
            square = list(enumerate_bicharacters(group, group))
            for chi in (square[0], square[-1], list(enumerate_bicharacters(group, Z2))[-1]):
                out[f"{kind}-{gname}-{chi.group_h.cycles}-{chi.exponents}"] = (graded, chi)
    group, parts = CASES["non_additive"]
    out["non_additive"] = (graded_algebra(group, parts), Bicharacter(Z3, Z3, ((1,),)))
    return out


ACTIONS = _action_cases()


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_action_from_bicharacter_matches_pair_by_pair_reference(name):
    graded, chi = ACTIONS[name]
    thetas, new = action_from_bicharacter(graded, chi)
    ref_thetas, old = oracle.action_from_bicharacter(graded, chi)
    _assert_same(new, old)
    assert thetas == ref_thetas
    assert new["passed"] == (name != "non_additive")
