"""verify_coaction in leg coordinates against the dense Kronecker oracle.

dense_verify_coaction is the former implementation of verify_coaction:
it builds every image and every comodule side as a dense Kronecker
product and takes the C (x) A membership from an SVD of the product span.
The coordinate checks must reproduce its residuals within 1e-12 and its
verdicts exactly, and perturbed maps must fail the check they break.
The dual coaction of a reduced crossed product is checked on the
product's own tables; dense_oracle.dense_dual_coaction, the former
implementation, is its parity oracle, and the same perturbed maps must
fail there too.
"""

import dataclasses
import functools

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import coact
from qtwist.abgroup import FinAbGroup
from qtwist.apps import dual_coaction, reduced_crossed_product
from qtwist.boxtimes import pure_coords
from qtwist.coact import (
    CoactionMap,
    TableCoaction,
    ad_grading,
    character_grading,
    conjugate_grading,
    delta_grading,
    direct_sum_grading,
    graded_algebra,
    grading_to_coaction,
    table_grading,
    trivial_grading,
    verify_coaction,
    verify_table_coaction,
)
from qtwist.matspan import DEFAULT_TOL, internal_unit, rank, span_basis
from qtwist.qgroup import build_model, translations

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z2xZ2 = FinAbGroup((2, 2))

E11 = np.diag([1.0, 0.0]).astype(np.complex128)
E22 = np.diag([0.0, 1.0]).astype(np.complex128)
E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
M2_BASIS = [E11, E12, E12.conj().T, E22]


def dense_verify_coaction(gamma, tol=DEFAULT_TOL):
    graded, model, side = gamma.graded, gamma.model, gamma.side
    group = graded.group
    lam = translations(group)
    rep = {"side": side, "grading_passed": graded.report.get("passed", True)}

    basis = graded.ambient.basis
    images = [gamma.apply(b, tol) for b in basis]
    stacked = np.stack([m.reshape(-1) for m in images])
    rep["injective"] = rank(stacked, tol.eps_rank) == graded.dim

    if side == "right":
        prod_span = [np.kron(b, lam[g]) for b in basis for g in group.elements()]
    else:
        prod_span = [np.kron(lam[g], b) for b in basis for g in group.elements()]
    ca = span_basis(prod_span, tol)
    rep["image_in_c_tensor_a"] = float(max(ca.contains_residual(m) for m in images))

    big = 0.0
    for b in basis:
        parts = graded.decompose(b, tol)
        if side == "right":
            lhs = sum(np.kron(gamma.apply(cg, tol), lam[g]) for g, cg in parts.items())
            rhs = sum(
                np.kron(cg, model.comultiplication(lam[g])) for g, cg in parts.items()
            )
        else:
            lhs = sum(np.kron(lam[g], gamma.apply(cg, tol)) for g, cg in parts.items())
            rhs = sum(
                np.kron(model.comultiplication(lam[g]), cg) for g, cg in parts.items()
            )
        big = max(big, float(np.linalg.norm(lhs - rhs)))
    rep["comodule_identity"] = big

    unit = internal_unit(graded.ambient, tol)
    if unit is None:
        rep["podles_dim"] = -1
        rep["podles_ok"] = False
    else:
        if side == "right":
            pod = [m @ np.kron(unit, lam[g]) for m in images for g in group.elements()]
        else:
            pod = [np.kron(lam[g], unit) @ m for m in images for g in group.elements()]
        pdim = rank(np.stack([m.reshape(-1) for m in pod]), tol.eps_rank)
        rep["podles_dim"] = pdim
        rep["podles_ok"] = pdim == graded.dim * group.order

    rep["passed"] = (
        rep["grading_passed"]
        and rep["injective"]
        and rep["image_in_c_tensor_a"] <= tol.eps_eq
        and rep["comodule_identity"] <= tol.eps_eq * max(1.0, graded.dim)
        and rep["podles_ok"]
    )
    return rep


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _gradings():
    rng = np.random.default_rng(11)
    ad = ad_grading(Z2, [(0,), (1,)])
    cases = {
        "delta Z2": delta_grading(Z2),
        "delta Z3": delta_grading(Z3),
        "delta Z2xZ2": delta_grading(Z2xZ2),
        "character Z3": character_grading(Z3),
        "ad Z2": ad,
        "ad Z3": ad_grading(Z3, [(0,), (1,), (1,)]),
        "ad Z2xZ2": ad_grading(Z2xZ2, [(0, 0), (1, 0), (1, 1)]),
        "trivial Z2": trivial_grading(Z2, M2_BASIS),
        "direct sum": direct_sum_grading(delta_grading(Z2), ad),
        "conjugate": conjugate_grading(ad_grading(Z3, [(0,), (2,)]), _unitary(rng, 2)),
        # failing gradings: a non-additive degree, overlapping components,
        # and a span that is not closed under adjoints
        "broken degree": graded_algebra(Z2, {(1,): [E11, E22]}),
        "overlapping": graded_algebra(Z2, {(0,): [E11], (1,): [E11, E22]}),
        "not closed": graded_algebra(Z3, {(1,): [E12]}),
    }
    return cases


GRADINGS = _gradings()


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", ["delta Z2xZ2", "ad Z3", "direct sum", "conjugate", "overlapping"])
def test_apply_matches_kronecker_sum(name, side):
    graded = GRADINGS[name]
    gamma = grading_to_coaction(graded, side)
    lam = translations(graded.group)
    rng = np.random.default_rng(3)
    x = np.einsum("i,iab->ab", rng.standard_normal(graded.dim), graded.ambient.basis)
    parts = graded.decompose(x)
    want = sum(
        np.kron(cg, lam[g]) if side == "right" else np.kron(lam[g], cg)
        for g, cg in parts.items()
    )
    assert np.max(np.abs(gamma.apply(x) - want)) <= 1e-14


def assert_matches_oracle(gamma):
    got = verify_coaction(gamma)
    want = dense_verify_coaction(gamma)
    assert set(got) == set(want)
    for key in ("image_in_c_tensor_a", "comodule_identity"):
        assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])
    for key in ("side", "grading_passed", "injective", "podles_dim", "podles_ok", "passed"):
        assert got[key] == want[key], (key, got[key], want[key])
    return got


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_coordinate_checks_match_dense_oracle(name, side):
    graded = GRADINGS[name]
    rep = assert_matches_oracle(grading_to_coaction(graded, side))
    assert rep["passed"] == graded.report["passed"]


def _crossed(cycles):
    return reduced_crossed_product(delta_grading(FinAbGroup(cycles))).objects["boxtimes"]


@pytest.mark.parametrize("cycles", [(2,), (3,), (2, 2)])
def test_dual_coaction_on_tables_matches_dense_oracle(cycles):
    x = _crossed(cycles)
    got, want = dual_coaction(x), oracle.dense_dual_coaction(x)
    oracle.assert_reports_match(got.report, want.report)
    oracle.assert_reports_match(got.objects["grading"].report, want.objects["grading"].report)
    oracle.assert_reports_match(got.objects["coaction_report"], want.objects["coaction_report"])
    assert got.passed and got.objects["coaction_report"]["side"] == "left"
    # the oracle's own coaction check against the dense Kronecker one
    assert_matches_oracle(want.objects["coaction"])


def test_moved_degree_fails_the_table_grading_as_the_dense_one():
    x = _crossed((3,))
    graded = dual_coaction(x).objects["grading"]
    deg = graded.deg.copy()
    deg[1] = 2  # iota_C(c_0) iota_D(chi_1) put in degree 2
    identity = pure_coords(x.legs, [np.eye(n) for n in x.legs.sizes])
    got = table_grading(
        graded.group, deg, x.family.reshape(9, -1), x.structure, x.star, 0.0, identity
    ).report
    parts = {}
    for k, row in enumerate(x.family):
        parts.setdefault(graded.group.elements()[deg[k]], []).append(x.element_matrix(row))
    want = graded_algebra(graded.group, parts).report
    assert not got["passed"] and not want["passed"]
    for key in ("multiplication_residual", "adjoint_residual"):
        assert got[key] > 0.1
        assert abs(got[key] - want[key]) <= 1e-12, key
    assert got["component_dims"] == want["component_dims"]


def test_dual_coaction_forms_no_dense_matrix(monkeypatch):
    x = _crossed((2, 2))

    def reached(*args, **kwargs):
        raise AssertionError("a dense path ran")

    for name in (
        "qtwist.apps.graded_algebra",
        "qtwist.coact.graded_algebra",
        "qtwist.boxtimes.coords_to_matrix",
        "qtwist.coact.CoactionMap.apply",
    ):
        monkeypatch.setattr(name, reached)
    assert dual_coaction(x).passed


def test_dual_coaction_needs_the_structure_table():
    x = dataclasses.replace(_crossed((2,)), structure_table=None, star_table=None)
    with pytest.raises(ValueError, match="structure tensor"):
        dual_coaction(x)


# ---------------------------------------------------------------------------
# negative controls: perturbed maps fail the check they break


def _kron_side(side, c, a):
    return np.kron(c, a) if side == "right" else np.kron(a, c)


class DoubledDegree(CoactionMap):
    """b -> lambda_{2 deg b} (x) b: lands in C (x) A, not coassociative."""

    def apply(self, c, tol=DEFAULT_TOL):
        lam = translations(self.model.group)
        group = self.model.group
        parts = self.graded.decompose(c, tol)
        return sum(_kron_side(self.side, cg, lam[group.add(g, g)]) for g, cg in parts.items())


class LeakyImage(CoactionMap):
    """gamma(b) + 1e-6 X (x) lambda_0 with X outside C."""

    def apply(self, c, tol=DEFAULT_TOL):
        n = self.graded.ambient_dim
        x = np.zeros((n, n), dtype=np.complex128)
        x[0, 0] = 1.0
        leak = _kron_side(self.side, x, np.eye(self.model.order))
        return super().apply(c, tol) + 1e-6 * leak


class DropsDegreeZero(CoactionMap):
    """Forgets the degree-zero part of b, so the unit maps to zero."""

    def apply(self, c, tol=DEFAULT_TOL):
        lam = translations(self.model.group)
        zero = self.model.group.zero()
        parts = self.graded.decompose(c, tol)
        n = self.target_dim
        out = np.zeros((n, n), dtype=np.complex128)
        for g, cg in parts.items():
            if g != zero:
                out += _kron_side(self.side, cg, lam[g])
        return out


def _perturbed(cls, side):
    graded = delta_grading(Z3)
    return cls(graded=graded, model=grading_to_coaction(graded).model, side=side)


@pytest.mark.parametrize("side", ["right", "left"])
def test_doubled_degree_fails_comodule_identity(side):
    gamma = _perturbed(DoubledDegree, side)
    for rep in (verify_coaction(gamma), dense_verify_coaction(gamma)):
        assert rep["image_in_c_tensor_a"] <= 1e-12
        assert rep["comodule_identity"] > 1.0
        assert rep["injective"] and rep["podles_ok"]
        assert not rep["passed"]
    assert_matches_oracle(gamma)


@pytest.mark.parametrize("side", ["right", "left"])
def test_leak_outside_c_fails_membership(side):
    gamma = _perturbed(LeakyImage, side)
    for rep in (verify_coaction(gamma), dense_verify_coaction(gamma)):
        # the part of E11 outside the circulants has norm sqrt(2/3)
        assert rep["image_in_c_tensor_a"] == pytest.approx(1e-6 * np.sqrt(2.0), rel=1e-6)
        assert not rep["passed"]


@pytest.mark.parametrize("side", ["right", "left"])
def test_rank_deficient_map_fails_injectivity_and_podles(side):
    gamma = _perturbed(DropsDegreeZero, side)
    for rep in (verify_coaction(gamma), dense_verify_coaction(gamma)):
        assert not rep["injective"]
        assert rep["podles_dim"] == 2 * 3
        assert not rep["podles_ok"]
        assert not rep["passed"]


class TableDoubledDegree(TableCoaction):
    """c -> sum_g lambda_{2g} (x) c_g on the crossed product's tables."""

    def apply(self, c, tol=DEFAULT_TOL):
        parts = super().apply(c, tol)
        group = self.graded.group
        els = group.elements()
        out = np.zeros_like(parts)
        for k, g in enumerate(els):
            out[els.index(group.add(g, g))] += parts[k]
        return out


class TableLeakyImage(TableCoaction):
    """gamma(c) + 1e-6 X (x) lambda_0, X a unit coordinate vector outside the algebra."""

    def apply(self, c, tol=DEFAULT_TOL):
        out = super().apply(c, tol)
        outside = np.flatnonzero(~np.any(self.graded.basis != 0, axis=0))[0]
        out[0, outside] += 1e-6
        return out


class TableDropsDegreeZero(TableCoaction):
    """Forgets the degree-zero part, so the unit maps to zero."""

    def apply(self, c, tol=DEFAULT_TOL):
        out = super().apply(c, tol)
        out[0] = 0.0
        return out


@functools.lru_cache(maxsize=None)
def _dual_z3():
    """The Z/3 crossed product's dual grading, on the tables and dense."""
    x = _crossed((3,))
    return dual_coaction(x).objects["grading"], oracle.dense_dual_coaction(x).objects["grading"]


def _dual_pair(table_cls, dense_cls, side):
    """The Z/3 dual grading under a perturbed map, on the tables and dense."""
    table, dense = _dual_z3()
    model = build_model(table.group)
    return (
        table_cls(graded=table, model=model, side=side),
        dense_cls(graded=dense, model=model, side=side),
    )


@pytest.mark.parametrize("side", ["right", "left"])
def test_table_doubled_degree_fails_comodule_identity(side):
    table, dense = _dual_pair(TableDoubledDegree, DoubledDegree, side)
    got, want = verify_table_coaction(table), verify_coaction(dense)
    assert got["comodule_identity"] > 1.0 and not got["passed"]
    assert got["injective"] and got["podles_ok"]
    assert abs(got["comodule_identity"] - want["comodule_identity"]) <= 1e-12
    for key in ("injective", "podles_dim", "podles_ok", "passed"):
        assert got[key] == want[key], key


@pytest.mark.parametrize("side", ["right", "left"])
def test_table_leak_outside_the_algebra_fails_membership(side):
    table, dense = _dual_pair(TableLeakyImage, LeakyImage, side)
    got = verify_table_coaction(table)
    # a unit vector orthogonal to the algebra, times lambda_0 of norm sqrt(3)
    assert got["image_in_c_tensor_a"] == pytest.approx(1e-6 * np.sqrt(3.0), rel=1e-9)
    assert not got["passed"]
    assert not verify_coaction(dense)["passed"]


@pytest.mark.parametrize("side", ["right", "left"])
def test_table_rank_deficient_map_fails_injectivity_and_podles(side):
    table, dense = _dual_pair(TableDropsDegreeZero, DropsDegreeZero, side)
    got, want = verify_table_coaction(table), verify_coaction(dense)
    assert not got["injective"] and not got["passed"]
    assert got["podles_dim"] == want["podles_dim"] == (9 - 3) * 3
    assert abs(got["comodule_identity"] - want["comodule_identity"]) <= 1e-12


def test_coaction_check_refuses_oversized_images(monkeypatch):
    monkeypatch.setattr("qtwist.matspan.MAX_DENSE_ENTRIES", 10)
    gamma = grading_to_coaction(delta_grading(Z2))

    def reached(*args, **kwargs):
        raise AssertionError("images were computed")

    monkeypatch.setattr(gamma, "apply", reached)
    with pytest.raises(ValueError, match="complex entries"):
        verify_coaction(gamma)
