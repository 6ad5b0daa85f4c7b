"""Group gradings as coactions, covariant representations and cocycles.

A coaction of a finite abelian group G on a matrix-realized algebra C is
the same thing as a G-grading C = sum of C_g; the realized map is
gamma(c) = sum_g c_g (x) lambda_g.  Gradings are the stored normal form;
a raw linear map can be converted back by diagonalizing the induced
action of the dual group.  All axioms (comodule identity, injectivity,
Podles density) are verified numerically against the conjugation-form
comultiplication of the quantum-group model, never assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .abgroup import Bicharacter, FinAbGroup, GroupHom, dual_group, pairing_table
from .matspan import (
    DEFAULT_TOL,
    AlgebraBasis,
    Frame,
    Subspace,
    Tolerance,
    basis_tables,
    check_size,
    cmatrix,
    expand_in_rows,
    frame,
    hs_norm,
    _closure_round,
    internal_unit,
    multiplicative_closure,
    orthonormal_rows,
    rank,
    read_only,
    residual_outside,
    span_basis,
    table_defect,
)
from .qgroup import QuantumGroupModel, build_model, translations

__all__ = [
    "GradedAlgebra",
    "graded_algebra",
    "trivial_grading",
    "delta_grading",
    "character_grading",
    "ad_grading",
    "direct_sum_grading",
    "conjugate_grading",
    "transport_grading",
    "CoactionMap",
    "grading_to_coaction",
    "verify_coaction",
    "coaction_checks",
    "coaction_from_map",
    "TableGrading",
    "table_grading",
    "TableCoaction",
    "verify_table_coaction",
    "GradedHilbertSpace",
    "hilbert_grading",
    "corep_unitary",
    "CovariantRep",
    "canonical_covariant_rep",
    "verify_covariant",
    "action_from_bicharacter",
    "Cocycle",
    "validate_cocycle",
    "make_cocycle",
    "twist_by_cocycle",
]


# ---------------------------------------------------------------------------
# graded algebras


@dataclass
class GradedAlgebra:
    """A *-subalgebra of M_n decomposed into degree components over G.

    components maps group elements to orthonormally based subspaces; only
    nonzero components are stored.  The validation report records the
    direct-sum, closure, degree-additivity and adjoint-flip residuals of
    one set of products of the homogeneous basis (see graded_algebra).

    When the components form an orthogonal direct sum (direct_sum_ok and
    component_orthogonality <= eps_eq), ambient.basis is the homogeneous
    basis itself: the component bases stacked in degrees() order, row k
    of degree homogeneous_basis()[k][0], and homogeneous_ambient is True.
    Any other grading fails validation and keeps an orthonormal basis of
    the span of its inputs.

    delta_grading and character_grading return one shared grading per
    (group, tolerance), with read-only arrays.
    """

    group: FinAbGroup
    ambient: AlgebraBasis
    components: dict[tuple[int, ...], Subspace]
    report: dict = field(default_factory=dict)
    homogeneous_ambient: bool = False
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _legs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.ambient.ambient_dim

    def tables(self, tol: Tolerance = DEFAULT_TOL):
        """basis_tables' (mult, star, residual) of ambient.basis, formed
        once per tolerance.

        The tables are shared by every caller, so their arrays (a
        OneTerm's idx and val, or the dense table) are read-only.
        """
        if tol not in self._tables:
            tables = basis_tables(self.ambient.basis, tol)
            read_only(*tables[:2])
            self._tables[tol] = tables
        return self._tables[tol]

    def leg(self, tol: Tolerance = DEFAULT_TOL) -> Frame:
        """The algebra as a factor leg of a twisted product: matspan.frame
        of _unital_leg(ambient.basis), formed once per tolerance and
        read-only.

        The ambient basis is homogeneous and orthonormal, so the frame
        usually keeps it, normalised, with one-term tables.
        """
        if tol not in self._legs:
            self._legs[tol] = frame(_unital_leg(self.ambient.basis, tol), tol)
        return self._legs[tol]

    def degree_indices(self) -> np.ndarray:
        """Position in group.elements() of each homogeneous_basis() degree."""
        index = {g: x for x, g in enumerate(self.group.elements())}
        degs = self.degrees()
        sizes = [self.components[g].dim for g in degs]
        return np.repeat(np.array([index[g] for g in degs], dtype=np.intp), sizes)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def degrees(self) -> list[tuple[int, ...]]:
        """Degrees with a nonzero component, in group element order."""
        return [g for g in self.group.elements() if g in self.components]

    def component(self, g) -> Subspace:
        g = self.group.reduce(g)
        if g in self.components:
            return self.components[g]
        n = self.ambient_dim
        return Subspace(ambient_dim=n, basis=np.zeros((0, n, n), dtype=np.complex128))

    def homogeneous_basis(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Degree-labeled basis of the whole algebra, in deterministic order."""
        out = []
        for g in self.degrees():
            for m in self.components[g].basis:
                out.append((g, m))
        return out

    def decompose(self, x, tol: Tolerance = DEFAULT_TOL) -> dict:
        """Degree components of an algebra element; raises outside the span.

        The coefficients on the homogeneous basis are ambient coordinates
        when that basis is the ambient one, else a least-squares expansion;
        either way the bound is eps_eq * max(1, ||x||) on the residual.
        """
        x = cmatrix(x, self.ambient_dim)
        if self.homogeneous_ambient:
            try:
                coeffs = self.ambient.space.coords_of(x, tol)
            except ValueError as exc:
                raise ValueError("element is not in the graded algebra") from exc
        else:
            rows = np.stack([m.reshape(-1) for _, m in self.homogeneous_basis()])
            coeffs, res = expand_in_rows(x.reshape(1, -1), rows)
            if res[0] > tol.eps_eq * max(1.0, hs_norm(x)):
                raise ValueError("element is not in the graded algebra")
            coeffs = coeffs[0]
        parts: dict = {}
        k = 0
        for g in self.degrees():
            basis = self.components[g].basis
            parts[g] = np.tensordot(coeffs[k : k + len(basis)], basis, 1)
            k += len(basis)
        return parts

    def degree_of(self, x, tol: Tolerance = DEFAULT_TOL):
        """The unique degree of a homogeneous element, else None."""
        parts = self.decompose(x, tol)
        norms = {g: hs_norm(p) for g, p in parts.items()}
        total = max(norms.values(), default=0.0)
        live = [g for g, v in norms.items() if v > tol.eps_eq * max(1.0, total)]
        return live[0] if len(live) == 1 else None


def _unital_leg(basis: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """An orthonormal basis as leg generators, with the identity added only
    when residual_outside puts it outside the span by more than
    eps_eq * sqrt(n), the bound pure_coords projects it within.  A
    factor's basis contains its identity, so a matrix-grading leg keeps
    its matrix units, which no partial overlap with the identity rotates."""
    n = basis.shape[-1]
    eye = np.eye(n)
    out = residual_outside(eye.reshape(1, -1), basis.reshape(basis.shape[0], -1))[0]
    return [*basis, eye] if out > tol.eps_eq * np.sqrt(n) else [*basis]


def graded_algebra(
    group: FinAbGroup, parts, tol: Tolerance = DEFAULT_TOL
) -> GradedAlgebra:
    """Build and validate a graded algebra from degree -> matrices.

    Never raises on a bad grading; the violations land in report and flip
    report["passed"].  The ambient basis is the homogeneous basis when the
    components are an orthogonal direct sum, else the span_basis of all
    inputs (see GradedAlgebra).

    The homogeneous rows are multiplied once, by matspan's closure round:
    each product and adjoint is measured against the whole span (the
    closure test) and against the component its degree names (the
    multiplication and adjoint residuals).  multiplicative_closure of the
    inputs runs only for rows that fail the closure test or are no
    orthonormal basis; such gradings fail.
    """
    comps: dict[tuple[int, ...], Subspace] = {}
    mats_all = []
    for g, mats in parts.items():
        g = group.reduce(g)
        mats = [cmatrix(m) for m in mats]
        if not mats:
            continue
        sp = span_basis(mats, tol)
        if sp.dim == 0:
            continue
        if g in comps:
            sp = span_basis(list(comps[g].basis) + list(sp.basis), tol)
        comps[g] = sp
        mats_all.extend(mats)
    if not mats_all:
        raise ValueError("grading needs at least one nonzero component")

    n = mats_all[0].shape[0]
    total_dim = rank(np.stack([cmatrix(m, n).reshape(-1) for m in mats_all]), tol.eps_rank)
    # deg[l]: the component of homogeneous row l; add, neg: that of g + h,
    # -g (-1 when absent), read from the group's index tables
    els = group.elements()
    present = np.array([x for x, g in enumerate(els) if g in comps], dtype=np.intp)
    order = [els[x] for x in present]
    where = np.full(group.order, -1, dtype=np.intp)
    where[present] = np.arange(present.size)
    hom = np.concatenate([comps[g].basis for g in order])
    rows = hom.reshape(len(hom), n * n)
    deg = np.repeat(np.arange(len(order)), [comps[g].dim for g in order])
    add = where[group.add_table[np.ix_(present, present)]]
    neg = where[group.neg_table[present]]

    rep: dict = {}
    rep["total_dim"] = total_dim
    rep["component_dims"] = {g: comps[g].dim for g in comps}
    rep["direct_sum_ok"] = len(rows) == total_dim
    overlap = np.abs(rows @ rows.conj().T)[deg[:, None] != deg[None, :]]
    ortho = float(np.max(overlap, initial=0.0))
    homogeneous = rep["direct_sum_ok"] and ortho <= tol.eps_eq

    keep = (
        add[deg[:, None], deg[None, :]][:, :, None] == deg,
        neg[deg][:, None] == deg,
    )
    closure, _, (mult, adj) = _closure_round(rows, n, tol, keep)
    if closure is None or not homogeneous:
        closure = multiplicative_closure(mats_all, tol)
    rep["closed_under_products"] = closure.dim == total_dim
    rep["closure_residual"] = closure.closure_residual
    rep["component_orthogonality"] = ortho
    rep["multiplication_residual"] = mult
    rep["adjoint_residual"] = adj

    rep["passed"] = (
        homogeneous
        and rep["closed_under_products"]
        and mult <= tol.eps_eq
        and adj <= tol.eps_eq
    )
    if homogeneous:
        total = Subspace(ambient_dim=n, basis=hom)
    else:
        total = span_basis(mats_all, tol)
    ambient = AlgebraBasis(
        space=total,
        contains_identity=closure.contains_identity,
        closure_residual=closure.closure_residual,
    )
    return GradedAlgebra(
        group=group,
        ambient=ambient,
        components=comps,
        report=rep,
        homogeneous_ambient=homogeneous,
    )


def trivial_grading(
    group: FinAbGroup, mats, tol: Tolerance = DEFAULT_TOL
) -> GradedAlgebra:
    """Everything in degree zero."""
    return graded_algebra(group, {group.zero(): list(mats)}, tol)


def _shared(graded: GradedAlgebra) -> GradedAlgebra:
    """graded with its basis arrays read-only, to be shared by every caller."""
    read_only(graded.ambient.basis, *(c.basis for c in graded.components.values()))
    return graded


def delta_grading(group: FinAbGroup, tol: Tolerance = DEFAULT_TOL) -> GradedAlgebra:
    """The group algebra of G on l2(G), graded by deg lambda_g = g.

    One grading per (group, tolerance) is built and shared by every
    caller, with its tables and leg; its arrays are read-only.
    _delta_grading.cache_clear() drops it.
    """
    return _delta_grading(group, tol)


@functools.lru_cache(maxsize=64)
def _delta_grading(group: FinAbGroup, tol: Tolerance) -> GradedAlgebra:
    lam = translations(group)
    return _shared(graded_algebra(group, {g: [lam[g]] for g in group.elements()}, tol))


def character_grading(group: FinAbGroup, tol: Tolerance = DEFAULT_TOL) -> GradedAlgebra:
    """The function algebra of G on l2(G), graded over the dual group.

    The degree-p component is spanned by the character function
    k |-> <k, p>, acting as a diagonal matrix.  Shared per (group,
    tolerance) as delta_grading is; _character_grading.cache_clear()
    drops it.
    """
    return _character_grading(group, tol)


@functools.lru_cache(maxsize=64)
def _character_grading(group: FinAbGroup, tol: Tolerance) -> GradedAlgebra:
    dg = dual_group(group)
    table = pairing_table(group)
    parts = {p: [np.diag(table[:, x])] for x, p in enumerate(dg.elements())}
    return _shared(graded_algebra(dg, parts, tol))


def ad_grading(
    group: FinAbGroup, degrees, tol: Tolerance = DEFAULT_TOL
) -> GradedAlgebra:
    """All of M_n graded by a degree assignment to the basis vectors.

    The matrix unit E_ij gets degree d_i - d_j, so multiplication is
    degree-additive by construction.
    """
    degrees = [group.reduce(d) for d in degrees]
    n = len(degrees)
    parts: dict = {}
    for i in range(n):
        for j in range(n):
            g = group.add(degrees[i], group.neg(degrees[j]))
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            parts.setdefault(g, []).append(e)
    return graded_algebra(group, parts, tol)


def direct_sum_grading(
    a: GradedAlgebra, b: GradedAlgebra, tol: Tolerance = DEFAULT_TOL
) -> GradedAlgebra:
    """Block-diagonal sum of two gradings over the same group."""
    if a.group != b.group:
        raise ValueError("gradings must share the group")
    na, nb = a.ambient_dim, b.ambient_dim
    parts: dict = {}
    for g in a.degrees():
        for m in a.component(g).basis:
            big = np.zeros((na + nb, na + nb), dtype=np.complex128)
            big[:na, :na] = m
            parts.setdefault(g, []).append(big)
    for g in b.degrees():
        for m in b.component(g).basis:
            big = np.zeros((na + nb, na + nb), dtype=np.complex128)
            big[na:, na:] = m
            parts.setdefault(g, []).append(big)
    return graded_algebra(a.group, parts, tol)


def conjugate_grading(
    graded: GradedAlgebra, u: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> GradedAlgebra:
    """Transport a grading along a unitary: components u C_g u*."""
    u = cmatrix(u, graded.ambient_dim)
    parts = {
        g: [u @ m @ u.conj().T for m in graded.component(g).basis]
        for g in graded.degrees()
    }
    return graded_algebra(graded.group, parts, tol)


def transport_grading(
    graded: GradedAlgebra, f: GroupHom, tol: Tolerance = DEFAULT_TOL
) -> GradedAlgebra:
    """Regrade over the target group: degree g2 collects all f(g) = g2."""
    if f.source != graded.group:
        raise ValueError("hom must start at the grading group")
    parts: dict = {}
    for g in graded.degrees():
        parts.setdefault(f.apply(g), []).extend(graded.component(g).basis)
    return graded_algebra(f.target, parts, tol)


# ---------------------------------------------------------------------------
# coactions


@dataclass
class CoactionMap:
    """Realized coaction: right side c |-> sum c_g (x) lambda_g, left side
    c |-> sum lambda_g (x) c_g."""

    graded: GradedAlgebra
    model: QuantumGroupModel
    side: str = "right"
    report: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        if self.model.group != self.graded.group:
            raise ValueError("model group must match the grading group")

    @property
    def target_dim(self) -> int:
        return self.graded.ambient_dim * self.model.order

    def apply(self, c, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        parts = self.graded.decompose(c, tol)
        lam = translations(self.model.group)
        cs = np.stack(list(parts.values()))
        ls = np.stack([lam[g] for g in parts])
        # sum_g kron(c_g, lambda_g) (right) or kron(lambda_g, c_g) (left)
        if self.side == "right":
            out = np.tensordot(cs, ls, axes=(0, 0)).transpose(0, 2, 1, 3)
        else:
            out = np.tensordot(ls, cs, axes=(0, 0)).transpose(0, 2, 1, 3)
        n = self.target_dim
        return out.reshape(n, n)


def grading_to_coaction(graded: GradedAlgebra, side: str = "right") -> CoactionMap:
    """The coaction attached to a grading, over the certified model of G."""
    return CoactionMap(graded=graded, model=build_model(graded.group), side=side)


def verify_coaction(gamma: CoactionMap, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Check the coaction axioms of a dense coaction map; returns a report.

    Raises BudgetError (a ValueError), before computing any image, only
    when the dense images (dim * (n |G|)^2 entries) exceed
    matspan.MAX_DENSE_ENTRIES.
    Each basis image gamma(c_t) is computed densely and read as an
    (A-entries x C-entries) matrix.  qa is an orthonormal basis of
    span{lambda_g}, c_u the orthonormal ambient basis of C, and K[t, s, u]
    the coefficients of gamma(c_t) on qa_s (x) c_u, so that
    gamma(c_t) ~ sum K[t, s, u] c_u (x) qa_s (right side; qa_s (x) c_u on
    the left), with residual r_t, the distance of gamma(c_t) from C (x) A.
    Nothing assumes an image has the form c (x) lambda_g.  J[t, s, u]
    holds the same coefficients of the grading's own coaction of c_t,
    sum_g (c_t)_g (x) lambda_g, and the algebra's unit comes from
    matspan.internal_unit.  coaction_checks states the checks and bounds.
    """
    graded, model, side = gamma.graded, gamma.model, gamma.side
    group = graded.group
    lam = translations(group)
    els = group.elements()
    na, n, d = group.order, graded.ambient_dim, graded.dim
    check_size(d * (n * na) ** 2, "dense coaction images")

    qa = orthonormal_rows(np.stack([lam[g].reshape(-1) for g in els]), tol.eps_rank)
    qc = graded.ambient.space.coords()
    qa_h, qc_h = qa.conj(), qc.conj().T
    coeffs = np.empty((d, qa.shape[0], d), dtype=np.complex128)
    member = np.empty(d)
    for t, b in enumerate(graded.ambient.basis):
        m = gamma.apply(b, tol)
        if side == "right":
            view = m.reshape(n, na, n, na).transpose(1, 3, 0, 2)
        else:
            view = m.reshape(na, n, na, n).transpose(0, 2, 1, 3)
        view = view.reshape(na * na, n * n)
        coeffs[t] = qa_h @ view @ qc_h
        member[t] = np.linalg.norm(view - qa.T @ coeffs[t] @ qc)

    # J: c_t = sum_k in_hom[t, k] h_k over the homogeneous basis, as in decompose
    labeled = graded.homogeneous_basis()
    hom = np.stack([m.reshape(-1) for _, m in labeled])
    in_hom, _ = expand_in_rows(qc, hom)
    lam_qa = np.stack([qa.conj() @ lam[g].reshape(-1) for g, _ in labeled])
    outer = np.einsum("tk,ks,ku->tsu", in_hom, lam_qa, hom @ qc.conj().T)

    unit = internal_unit(graded.ambient, tol)
    unit_mult = None
    if unit is not None:
        qc3 = qc.reshape(-1, n, n)
        by_unit = qc3 @ unit if side == "right" else unit @ qc3
        unit_mult = by_unit.reshape(d, n * n) @ qc.conj().T
    return coaction_checks(
        coeffs, member, outer, unit_mult, qa, model, side,
        graded.report.get("passed", True), tol,
    )


def coaction_checks(
    coeffs: np.ndarray,
    member: np.ndarray,
    outer: np.ndarray,
    unit_mult: np.ndarray | None,
    qa: np.ndarray,
    model: QuantumGroupModel,
    side: str,
    grading_passed: bool,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """The coaction axioms on coefficient tensors; returns a report.

    qa holds an orthonormal basis of span{lambda_g} as rows and c_u is an
    orthonormal basis of the d-dimensional algebra C.  coeffs[t] = K[t]
    holds the coefficients of the map's image gamma(c_t) on qa_s (x) c_u
    (right side; qa_s (x) c_u on the left) and member[t] = r_t its
    distance from C (x) A; outer[t] = J[t] the same coefficients of the
    grading's own coaction of c_t.  unit_mult[u, v] expands c_u times the
    algebra's unit (right side; the unit times c_u on the left) in the
    c_v, None when the algebra has no unit.

    - image_in_c_tensor_a: the worst r_t.  Bound eps_eq.
    - comodule_identity: the identity is applied to the grading's own
      coaction J[t], and gamma is the inner map, so a gamma that disagrees
      with the grading fails it even when gamma alone is coassociative
      (b -> lambda_{2 deg b} (x) b over Z/3).  The value is the
      worst over t of the coefficient distance between
      (gamma (x) id)(J[t]) = sum J[t, b, u] K[u, a, v] and
      (id (x) Delta)(J[t]) = sum J[t, s, v] Delta[s, a, b] in the
      orthonormal basis c_v (x) qa_a (x) qa_b (left side:
      (id (x) gamma) and (Delta (x) id), in qa_a (x) qa_b (x) c_v), where
      Delta(qa_s) = sum Delta[s, a, b] qa_a (x) qa_b up to a residual e_s;
      plus ||J[t]|| (sqrt(sum_u r_u^2) + sqrt(sum_s e_s^2)), which bounds
      what the coefficients leave out.  So the value is an upper bound of
      the dense Frobenius residual of the identity.  Bound
      eps_eq * max(1, d).
    - injective: the rank of the rows K[t] (cut eps_rank) equals d.
    - podles_ok: gamma(c_t) (unit (x) lambda_g) (left side:
      (lambda_g (x) unit) gamma(c_t)) in coordinates, through the matrices
      of multiplication by lambda_g on qa and unit_mult; the rank of these
      d * |G| rows of length |G| * d (cut eps_rank) equals d * |G|.
      Singular values of the rows themselves, no Gram matrix, so the
      relative cut is not squared.  podles_dim is -1 without a unit.
    """
    group = model.group
    lam = translations(group)
    els = group.elements()
    na, d = group.order, coeffs.shape[0]
    rep: dict = {"side": side, "grading_passed": grading_passed}
    rep["injective"] = rank(coeffs.reshape(d, -1), tol.eps_rank) == d
    rep["image_in_c_tensor_a"] = float(np.max(member))

    delta = np.stack([model.comultiplication(q.reshape(na, na)) for q in qa])
    delta = delta.reshape(-1, na, na, na, na).transpose(0, 1, 3, 2, 4)
    delta = delta.reshape(-1, na * na, na * na)
    dco = qa.conj() @ delta @ qa.conj().T
    d_res = np.linalg.norm(delta - qa.T @ dco @ qa, axis=(1, 2))
    if side == "right":
        # c_v (x) qa_a (x) qa_b: the inner gamma gives qa_a, the outer qa_b
        lhs = np.einsum("tbu,uav->tvab", outer, coeffs)
        rhs = np.einsum("tsv,sab->tvab", outer, dco)
    else:
        # qa_a (x) qa_b (x) c_v: the outer gamma gives qa_a, the inner qa_b
        lhs = np.einsum("tau,ubv->tabv", outer, coeffs)
        rhs = np.einsum("tsv,sab->tabv", outer, dco)
    defect = np.linalg.norm((lhs - rhs).reshape(d, -1), axis=1)
    slack = np.linalg.norm(outer.reshape(d, -1), axis=1) * (
        np.linalg.norm(member) + np.linalg.norm(d_res)
    )
    rep["comodule_identity"] = float(np.max(defect + slack))

    if unit_mult is None:
        rep["podles_dim"] = -1
        rep["podles_ok"] = False
    else:
        qa3 = qa.reshape(-1, na, na)
        if side == "right":
            by_g = np.stack([qa3 @ lam[g] for g in els])
        else:
            by_g = np.stack([lam[g] @ qa3 for g in els])
        mult_a = by_g.reshape(na, -1, na * na) @ qa.conj().T
        pod = np.einsum("tsu,gsa,uc->tgac", coeffs, mult_a, unit_mult, optimize=True)
        pdim = rank(pod.reshape(d * na, -1), tol.eps_rank)
        rep["podles_dim"] = pdim
        rep["podles_ok"] = pdim == d * na

    rep["passed"] = (
        rep["grading_passed"]
        and rep["injective"]
        and rep["image_in_c_tensor_a"] <= tol.eps_eq
        and rep["comodule_identity"] <= tol.eps_eq * max(1.0, d)
        and rep["podles_ok"]
    )
    return rep


# ---------------------------------------------------------------------------
# gradings over certified tables


@dataclass
class TableGrading:
    """A grading of an algebra held as a basis family with certified tables.

    deg[k] is the position, in group.elements() order, of the degree of
    family member k, so each component is a set of family indices.
    basis holds the family rows rotated within each component to an
    orthonormal homogeneous basis: row k keeps degree deg[k].  The report
    has graded_algebra's keys.
    """

    group: FinAbGroup
    deg: np.ndarray
    basis: np.ndarray
    contains_identity: bool
    report: dict = field(default_factory=dict)


def table_grading(
    group: FinAbGroup,
    deg: np.ndarray,
    rows: np.ndarray,
    structure: np.ndarray,
    star: np.ndarray,
    closure_residual: float,
    identity: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> TableGrading:
    """Validate the grading of a basis family by its own tables.

    rows (m, S) are the family in orthonormal coordinates, so coordinate
    norms are Frobenius norms; structure[i, j] and star[i] expand f_i f_j
    and f_i* in the family (matspan.basis_tables' convention), and
    closure_residual is the worst distance of a product or adjoint from
    the span that certified them.  identity holds the coordinates of the
    ambient identity.  The family is a basis, so the index sets are an
    independent direct sum of dimension m.  Never raises on a bad
    grading; as in graded_algebra the violations flip report["passed"]:

    - component_orthogonality: the worst |<b_k, b_l>| over rows of
      different degrees.  Bound eps_eq.
    - multiplication_residual, adjoint_residual: the norm of the
      product b_i b_j outside degree deg i + deg j, and of b_i* outside
      -deg i, read from the tables in the basis b.  Bound eps_eq.
    - closed_under_products: closure_residual <= eps_eq * max(1, m).
    """
    els = group.elements()
    add, neg = group.add_table, group.neg_table
    m = rows.shape[0]
    gram = rows @ rows.conj().T
    # b = rot f, with rot the inverse Cholesky factor of each component's
    # Gram block, so rot and its inverse keep degrees
    rot = np.zeros((m, m), dtype=np.complex128)
    for g in np.unique(deg):
        block = np.ix_(deg == g, deg == g)
        rot[block] = np.linalg.inv(np.linalg.cholesky(gram[block]))
    back = np.linalg.inv(rot)
    mult = np.einsum("ia,jb,abc,ck->ijk", rot, rot, structure, back, optimize=True)
    adj = rot.conj() @ star @ back
    basis = rot @ rows

    off_mult = np.where(add[deg[:, None], deg[None, :]][:, :, None] == deg, 0.0, mult)
    off_adj = np.where(neg[deg][:, None] == deg, 0.0, adj)
    overlap = np.abs(rot @ gram @ rot.conj().T)[deg[:, None] != deg[None, :]]
    id_res = float(residual_outside(identity.reshape(1, -1), basis)[0])

    rep: dict = {}
    rep["total_dim"] = m
    rep["component_dims"] = {els[g]: int(np.count_nonzero(deg == g)) for g in np.unique(deg)}
    rep["direct_sum_ok"] = True
    rep["closed_under_products"] = closure_residual <= tol.eps_eq * max(1.0, m)
    rep["closure_residual"] = closure_residual
    rep["component_orthogonality"] = float(np.max(overlap, initial=0.0))
    rep["multiplication_residual"] = float(np.max(np.linalg.norm(off_mult, axis=2)))
    rep["adjoint_residual"] = float(np.max(np.linalg.norm(off_adj, axis=1)))
    rep["passed"] = (
        rep["component_orthogonality"] <= tol.eps_eq
        and rep["closed_under_products"]
        and rep["multiplication_residual"] <= tol.eps_eq
        and rep["adjoint_residual"] <= tol.eps_eq
    )
    return TableGrading(
        group=group,
        deg=deg,
        basis=basis,
        contains_identity=id_res <= tol.eps_eq * max(1.0, float(np.linalg.norm(identity))),
        report=rep,
    )


@dataclass
class TableCoaction:
    """The coaction c |-> sum_g c_g (x) lambda_g (right side) or
    sum_g lambda_g (x) c_g (left side) of a TableGrading, on coordinates."""

    graded: TableGrading
    model: QuantumGroupModel
    side: str = "right"

    def __post_init__(self) -> None:
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        if self.model.group != self.graded.group:
            raise ValueError("model group must match the grading group")

    def apply(self, c: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """(|G|, S) coefficient tensor of gamma(c): row g holds the
        coordinates of c_g, the part of c on the index set of degree g.

        c may be a (k, S) stack of coordinate rows, projected on the basis
        in one product, giving (k, |G|, S).  Raises when a row is outside
        the algebra, with decompose's bound on each row."""
        basis = self.graded.basis
        # c basis*, with the conjugates taken of c and the product, not of
        # the whole basis
        coeffs = np.conj(basis @ c.conj().T).T
        res = np.linalg.norm(c - coeffs @ basis, axis=-1)
        if np.any(res > tol.eps_eq * np.maximum(1.0, np.linalg.norm(c, axis=-1))):
            raise ValueError("element is not in the graded algebra")
        parts = np.arange(self.graded.group.order)[:, None] == self.graded.deg
        return (parts * coeffs[..., None, :]) @ basis


# verify_table_coaction maps the basis rows in blocks whose images hold at
# most this many entries (1 MB): every row of the dual coactions up to
# order 4 in one block, and at order 8 and above about the memory of the
# per-row images
IMAGE_BLOCK_ENTRIES = 2**16


def verify_table_coaction(gamma: TableCoaction, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Check the coaction axioms of a TableCoaction; returns a report.

    The map is applied to the basis rows c_t, all in one call when their
    images fit in IMAGE_BLOCK_ENTRIES, else block by block, and each
    (|G|, S) image Y[g] (gamma(c_t) = sum_g Y[g] (x) lambda_g, or
    lambda_g (x) Y[g]) is projected on the orthonormal basis: K[t] on
    qa_s (x) c_u, as in verify_coaction, and r_t = sqrt(|G|)
    ||Y - projection||, the distance of the image from C (x) A since
    ||lambda_g||^2 = |G|.  J[t] is lambda_{deg t} (x) c_t, the unit is
    the ambient identity when the algebra contains it (else the Podles
    check fails), and coaction_checks states the checks and bounds.  No
    dense matrix of the algebra is formed.
    """
    graded = gamma.graded
    group = graded.group
    lam = translations(group)
    lams = np.stack([lam[g].reshape(-1) for g in group.elements()])
    qa = orthonormal_rows(lams, tol.eps_rank)
    to_qa = qa.conj() @ lams.T  # lambda_g = sum_s to_qa[s, g] qa_s
    basis = graded.basis
    m = basis.shape[0]
    basis_h = basis.conj().T
    coeffs = np.empty((m, qa.shape[0], m), dtype=np.complex128)
    member = np.empty(m)
    step = max(1, IMAGE_BLOCK_ENTRIES // (group.order * basis.shape[1]))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        img = gamma.apply(basis[rows], tol)
        c = img @ basis_h
        coeffs[rows] = to_qa @ c
        diff = (img - c @ basis).reshape(len(img), -1)
        member[rows] = np.sqrt(group.order) * np.linalg.norm(diff, axis=1)
    outer = np.zeros_like(coeffs)
    outer[np.arange(m), :, np.arange(m)] = to_qa[:, graded.deg].T
    unit_mult = np.eye(m, dtype=np.complex128) if graded.contains_identity else None
    return coaction_checks(
        coeffs, member, outer, unit_mult, qa, gamma.model, gamma.side,
        graded.report["passed"], tol,
    )


def _partial_trace_components(
    raw_images: list[np.ndarray], n_c: int, group: FinAbGroup, side: str
) -> dict[tuple[int, ...], list[np.ndarray]]:
    """Spectral components P_g(c) = (id (x) tau_g) gamma(c) of a raw map."""
    lam = translations(group)
    n = group.order
    comps: dict = {g: [] for g in group.elements()}
    for m in raw_images:
        if side == "right":
            m4 = m.reshape(n_c, n, n_c, n)
            for g in group.elements():
                comps[g].append(np.einsum("aibj,ij->ab", m4, lam[g].conj()) / n)
        else:
            m4 = m.reshape(n, n_c, n, n_c)
            for g in group.elements():
                comps[g].append(np.einsum("iajb,ij->ab", m4, lam[g].conj()) / n)
    return comps


def coaction_from_map(
    algebra: AlgebraBasis,
    raw_map,
    group: FinAbGroup,
    side: str = "right",
    tol: Tolerance = DEFAULT_TOL,
) -> CoactionMap:
    """Recover the grading normal form of a raw coaction map.

    raw_map sends a matrix in the algebra to a matrix on the tensor
    ambient.  The degree components are cut out by slicing against the
    translations on the A leg; if the map was not a coaction the rebuilt
    grading or the axioms fail and a ValueError is raised.
    """
    basis = algebra.basis
    n_c = algebra.ambient_dim
    raw_images = [cmatrix(raw_map(b), n_c * group.order) for b in basis]
    comps = _partial_trace_components(raw_images, n_c, group, side)
    parts = {g: mats for g, mats in comps.items() if mats}
    graded = graded_algebra(group, parts, tol)
    if not graded.report["passed"]:
        raise ValueError(f"raw map does not define a grading: {graded.report}")
    if graded.dim != algebra.dim:
        raise ValueError("recovered grading does not span the algebra")
    gamma = grading_to_coaction(graded, side)

    recon = max(
        float(np.linalg.norm(gamma.apply(b, tol) - img))
        for b, img in zip(basis, raw_images)
    )
    if recon > tol.eps_eq * max(1.0, float(max(np.linalg.norm(i) for i in raw_images))):
        raise ValueError(f"raw map is not of coaction form (residual {recon:.2e})")
    rep = verify_coaction(gamma, tol)
    rep["reconstruction_residual"] = recon
    if not rep["passed"]:
        raise ValueError(f"raw map fails the coaction axioms: {rep}")
    gamma.report = rep
    return gamma


# ---------------------------------------------------------------------------
# graded Hilbert spaces, corepresentations, covariant representations


@dataclass(frozen=True)
class GradedHilbertSpace:
    """Degree assignment to the standard basis vectors of C^dim."""

    group: FinAbGroup
    degrees: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.degrees)

    def projection(self, g) -> np.ndarray:
        g = self.group.reduce(g)
        d = np.array([1.0 if dg == g else 0.0 for dg in self.degrees])
        return np.diag(d).astype(np.complex128)

    def projections(self) -> dict[tuple[int, ...], np.ndarray]:
        return {g: self.projection(g) for g in self.group.elements()}


def hilbert_grading(group: FinAbGroup, degrees) -> GradedHilbertSpace:
    return GradedHilbertSpace(
        group=group, degrees=tuple(group.reduce(d) for d in degrees)
    )


def corep_unitary(grading: GradedHilbertSpace, model: QuantumGroupModel) -> np.ndarray:
    """The corepresentation unitary U = sum_g E_g (x) lambda_g."""
    if model.group != grading.group:
        raise ValueError("model group must match the grading group")
    lam = translations(model.group)
    return sum(
        np.kron(grading.projection(g), lam[g]) for g in model.group.elements()
    )


@dataclass
class CovariantRep:
    """A representation of a graded algebra compatible with a space grading."""

    graded: GradedAlgebra
    grading: GradedHilbertSpace
    images: np.ndarray  # (dim, K, K), aligned with graded.ambient.basis
    report: dict = field(default_factory=dict)

    @property
    def carrier_dim(self) -> int:
        return self.grading.dimension

    def apply(self, c, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        try:
            row = self.graded.ambient.space.coords_of(c, tol)
        except ValueError as exc:
            raise ValueError("element is not in the represented algebra") from exc
        return np.einsum("i,iab->ab", row, self.images)


def verify_covariant(rep: CovariantRep, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Certify *-homomorphism, faithfulness and the covariance condition.

    homomorphism and star are the table_defect of the images against the
    tables of the ambient basis, as in graded_morphism.
    """
    graded = rep.graded
    basis = graded.ambient.basis
    d = len(basis)
    out: dict = {}
    mult, star, _ = graded.tables(tol)
    prods = np.matmul(rep.images[:, None], rep.images[None, :])
    adjs = rep.images.conj().transpose(0, 2, 1)
    out["homomorphism"], out["star"] = table_defect(mult, star, rep.images, prods, adjs)
    out["faithful"] = rank(rep.images.reshape(d, -1), tol.eps_rank) == d

    cov = 0.0
    projections = rep.grading.projections()
    for g in graded.degrees():
        for m in graded.component(g).basis:
            fm = rep.apply(m)
            for h, eh in projections.items():
                target = projections[graded.group.add(g, h)]
                cov = max(cov, float(np.linalg.norm(target @ fm @ eh - fm @ eh)))
    out["covariance"] = cov
    out["passed"] = (
        out["faithful"]
        and out["homomorphism"] <= tol.eps_eq * max(1.0, d)
        and out["star"] <= tol.eps_eq
        and cov <= tol.eps_eq
    )
    return out


def canonical_covariant_rep(
    graded: GradedAlgebra, tol: Tolerance = DEFAULT_TOL
) -> CovariantRep:
    """Faithful covariant representation on (carrier of C) (x) l2(G).

    Homogeneous c of degree g acts as c (x) lambda_g; the second leg is
    graded by the group itself.  This is exactly the realized coaction,
    reread as a representation.
    """
    group = graded.group
    gamma = grading_to_coaction(graded, "right")
    images = np.stack([gamma.apply(b, tol) for b in graded.ambient.basis])
    degrees = tuple(
        k for _ in range(graded.ambient_dim) for k in group.elements()
    )
    grading = hilbert_grading(group, degrees)
    rep = CovariantRep(graded=graded, grading=grading, images=images)
    rep.report = verify_covariant(rep, tol)
    if not rep.report["passed"]:
        raise RuntimeError(f"canonical covariant representation failed: {rep.report}")
    return rep


# ---------------------------------------------------------------------------
# bicharacter-induced automorphism action


def action_from_bicharacter(
    graded: GradedAlgebra, chi: Bicharacter, tol: Tolerance = DEFAULT_TOL
) -> tuple[dict, dict]:
    """The H-indexed automorphisms theta_h(c) = chi(g, h) c on degree g.

    Returns (thetas, report): thetas[h] is the spectral form of theta_h,
    a dict degree -> scalar, since the map acts by a scalar on each
    component.  theta_h is diagonal on the homogeneous basis: the report
    holds the table_defect of its images chi(deg b, h) b against the
    basis's tables, and additive_in_h reads chi's values.  Raises
    ValueError on a grading whose ambient basis is not its homogeneous
    basis (one that failed validation).
    """
    if chi.group_g != graded.group:
        raise ValueError("bicharacter first leg must match the grading group")
    if not graded.homogeneous_ambient:
        raise ValueError("grading failed validation: no homogeneous tables")
    H = chi.group_h
    table = chi.value_table()
    degs = graded.degrees()
    where = [graded.group.index(g) for g in degs]
    thetas = {
        h: {g: complex(table[x, y]) for g, x in zip(degs, where)}
        for y, h in enumerate(H.elements())
    }

    basis = graded.ambient.basis
    mult, star, _ = graded.tables(tol)
    prods = np.matmul(basis[:, None], basis[None, :])
    adjs = basis.conj().transpose(0, 2, 1)
    rep: dict = {"multiplicative": 0.0}
    star_res = 0.0
    row_deg = graded.degree_indices()
    for y in range(H.order):
        phase = table[row_deg, y]
        images = phase[:, None, None] * basis
        hom, adj = table_defect(
            mult,
            star,
            images,
            np.multiply.outer(phase, phase)[:, :, None, None] * prods,
            phase.conj()[:, None, None] * adjs,
        )
        rep["multiplicative"] = max(rep["multiplicative"], hom)
        star_res = max(star_res, adj)
    # theta_{h1 + h2} - theta_h1 theta_h2 on every degree, over H's add table
    vals = table[where]
    rep["additive_in_h"] = float(
        np.max(np.abs(vals[:, H.add_table] - vals[:, :, None] * vals[:, None, :]))
    )
    rep["star"] = star_res
    rep["passed"] = max(rep["multiplicative"], rep["additive_in_h"], star_res) <= tol.eps_eq
    return thetas, rep


# ---------------------------------------------------------------------------
# cocycles and twisted coactions


@dataclass
class Cocycle:
    """A unitary in C (x) A satisfying the cocycle identity for gamma."""

    coaction: CoactionMap
    matrix: np.ndarray
    report: dict = field(default_factory=dict)


def validate_cocycle(
    gamma: CoactionMap, u: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """Residuals for unitarity, membership, the cocycle identity and density.

    The cocycle identity for a right coaction gamma reads
    (u (x) 1) ((gamma (x) id) u) = (id (x) Delta) u.
    """
    if gamma.side != "right":
        raise ValueError("cocycles are implemented for right coactions")
    graded, model = gamma.graded, gamma.model
    group = graded.group
    n_c, n = graded.ambient_dim, group.order
    u = cmatrix(u, n_c * n)
    lam = translations(group)
    rep: dict = {}
    rep["unitary"] = float(np.linalg.norm(u @ u.conj().T - np.eye(n_c * n)))

    # Fourier pieces u = sum_k c_k (x) lambda_k
    pieces = _partial_trace_components([u], n_c, group, "right")
    ck = {g: mats[0] for g, mats in pieces.items()}
    rebuilt = sum(np.kron(ck[g], lam[g]) for g in group.elements())
    rep["a_leg_form"] = float(np.linalg.norm(u - rebuilt))
    rep["membership"] = float(
        max(
            graded.ambient.space.contains_residual(ck[g])
            for g in group.elements()
        )
    )

    if rep["a_leg_form"] <= tol.eps_eq and rep["membership"] <= tol.eps_eq:
        lhs = np.kron(u, np.eye(n)) @ sum(
            np.kron(gamma.apply(ck[g], tol), lam[g]) for g in group.elements()
        )
        rhs = sum(
            np.kron(ck[g], model.comultiplication(lam[g])) for g in group.elements()
        )
        rep["cocycle_identity"] = float(np.linalg.norm(lhs - rhs))
    else:
        rep["cocycle_identity"] = float("inf")

    unit = internal_unit(graded.ambient, tol)
    if unit is None:
        rep["density_dim"] = -1
        rep["density_ok"] = False
    else:
        pod = [
            gamma.apply(b, tol) @ u.conj().T @ np.kron(unit, lam[g])
            for b in graded.ambient.basis
            for g in group.elements()
        ]
        ddim = rank(np.stack([m.reshape(-1) for m in pod]), tol.eps_rank)
        rep["density_dim"] = ddim
        rep["density_ok"] = ddim == graded.dim * n
    rep["passed"] = (
        rep["unitary"] <= tol.eps_eq
        and rep["a_leg_form"] <= tol.eps_eq
        and rep["membership"] <= tol.eps_eq
        and rep["cocycle_identity"] <= tol.eps_eq * max(1.0, n)
        and rep["density_ok"]
    )
    return rep


def make_cocycle(
    gamma: CoactionMap, u: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> Cocycle:
    rep = validate_cocycle(gamma, u, tol)
    return Cocycle(coaction=gamma, matrix=cmatrix(u), report=rep)


def twist_by_cocycle(
    gamma: CoactionMap, u: Cocycle | np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> CoactionMap:
    """The twisted coaction Ad_u after gamma, regraded to normal form."""
    if isinstance(u, Cocycle):
        umat = u.matrix
        rep = u.report if u.coaction is gamma else validate_cocycle(gamma, umat, tol)
    else:
        umat = cmatrix(u, gamma.target_dim)
        rep = validate_cocycle(gamma, umat, tol)
    if not rep["passed"]:
        raise ValueError(f"cocycle validation failed: {rep}")

    def twisted(c):
        return umat @ gamma.apply(c, tol) @ umat.conj().T

    return coaction_from_map(
        gamma.graded.ambient, twisted, gamma.graded.group, gamma.side, tol
    )
