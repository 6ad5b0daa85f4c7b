"""Dense test oracles for crossed products and matrix algebras.

The library certifies a crossed product in family coordinates only.  The
routines here work on dense matrices instead and serve as independent
checks: `dense_algebra` materializes a crossed product's span as an
`AlgebraBasis`, `center` and `find_generator_isomorphism` read it as
matrices, and `all_pairs_closure` recomputes the closure certificate from
one array holding all m^2 family products.  `dense_z_matrix` sums Z
from Kronecker products and `dense_build_via_covariant` conjugates each
psi-image by that dense Z.  `dense_dual_coaction` grades a reduced
crossed product over the dual group from dense family matrices.  `graded_algebra`,
`verify_covariant` and `action_from_bicharacter` validate gradings,
covariant representations and bicharacter actions pair by pair, through
`multiplicative_closure`, `CovariantRep.apply` and
`GradedAlgebra.decompose`.  `dense_family_map` certifies a map between
crossed products from all family products and adjoints, through
`relation_transport` and `left_null_rows` on the family rows; it is the
parity oracle for the table check of `boxtimes._family_map`.
`built_legs_crossed_product` is `apps.reduced_crossed_product` with its
direct route on leg frames built per call, the parity oracle for the
route on held legs.
`dense_torus_checks` checks the finite torus's generators as dense
ambient matrices and its center by an SVD (`svd_center_dim`); it is the
parity oracle for `apps.finite_torus`.  `gemm_structure_tables` is the GEMM path of `matspan.basis_tables`
for any family, the parity oracle for its index path on monomial
families.  `loop_translations`,
`loop_rep_residual`, `loop_weyl_residual` and `dense_marking_report` are
the per-element forms of `qgroup.translations`, `heis._rep_residual`,
`heis.is_heisenberg` / `is_anti_heisenberg` and `boxtimes._marking_report`,
`loop_commutation_check` that of `heis.commutation_check` and
`loop_verify_table_coaction` that of `coact.verify_table_coaction`:
one group element, element pair or basis element at a time, with every
product and adjoint formed.  `inline_coaction_frame` forms the coaction
checks' group-only data per call, as they once did inline; it is the
parity oracle for `QuantumGroupModel.coaction_frame`.
`dense_side_certificate` is a crossed product's closure certificate
computed on dense rows, the dense side of its one-hot certificate.
`assert_reports_match` compares a library report with an oracle's, and
`densified_widths` records the width of every one-term table formed
densely inside a block, so a test can state that a one-hot input stays on
(index, value) arrays.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from qtwist import coact
from qtwist.abgroup import Bicharacter, FinAbGroup, pairing_table, regular_bicharacter
from qtwist.apps import ScenarioResult, _deg, _report
from qtwist.boxtimes import (
    CrossedProduct,
    _certificate,
    ProductMap,
    build_from_markings,
    build_via_heisenberg,
    coords_product,
    coords_product_pairs,
    coords_star,
    coords_to_matrix,
    equivalent,
    leg_frames,
    matrix_to_coords,
    pure_coords,
    pure_coords_stack,
)
from qtwist.coact import (
    CovariantRep,
    GradedAlgebra,
    GradedHilbertSpace,
    coaction_checks,
    grading_to_coaction,
    verify_coaction,
)
from qtwist.matspan import (
    DEFAULT_TOL,
    AlgebraBasis,
    OneTerm,
    Subspace,
    Tolerance,
    _cut,
    basis_tables,
    cmatrix,
    dense_table,
    expand_in_rows,
    expand_table,
    hs_norm,
    multiplicative_closure,
    orthonormal_rows,
    rank,
    residual_outside,
    span_basis,
    table_defect,
)
from qtwist.qgroup import translations


def dense_side_certificate(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL):
    """(onb, structure, star, residuals): boxtimes._certificate run on x's
    family and reversed products formed densely by coords_product_pairs,
    so that every table operation takes its dense branch, with the
    identity's distance from that onb as residuals["identity_residual"].
    """
    m = x.family_table.shape[0]
    fam = coords_product_pairs(x.iota_c, x.iota_d, x.legs).reshape(m, -1)
    rev = coords_product_pairs(x.iota_d, x.iota_c, x.legs).reshape(m, -1)
    onb, structure, star, residuals = _certificate(fam, rev, x.legs, tol)
    one = x.legs.identity(tol).reshape(1, -1)
    residuals["identity_residual"] = float(residual_outside(one, onb)[0])
    return onb, structure, star, residuals


@contextlib.contextmanager
def densified_widths():
    """Yield a list that records the width of each OneTerm.dense call made
    inside the block."""
    widths = []
    real = OneTerm.dense

    def dense(self):
        widths.append(self.width)
        return real(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OneTerm, "dense", dense)
        yield widths


def assert_reports_match(got, want, tol: float = 1e-12):
    """Key by key: floats within tol, everything else identical."""
    assert set(got) == set(want)
    for key, w in want.items():
        g = got[key]
        if isinstance(w, dict):
            assert_reports_match(g, w, tol)
        elif isinstance(w, float):
            assert abs(g - w) <= tol, (key, g, w)
        else:
            assert g == w, (key, g, w)


def gemm_structure_tables(basis, tol: Tolerance = DEFAULT_TOL):
    """(mult, star, residual, monomial) of a (d, n, n) family from its
    d^2 n^2 product stack, as basis_tables' GEMM path computes them: one
    GEMM (d n, n) @ (n, d n), reordered to rows (i, j), then expand_table
    on the products and on the adjoints.  The tables are dense; monomial
    is the product table's (index, value) arrays when it is one term a
    row, else None."""
    basis = np.asarray(basis, dtype=np.complex128)
    d, n = basis.shape[0], basis.shape[-1]
    rows = basis.reshape(d, n * n)
    wide = basis.transpose(1, 0, 2).reshape(n, d * n)
    prods = (basis.reshape(d * n, n) @ wide).reshape(d, n, d, n)
    prods = prods.transpose(0, 2, 1, 3).reshape(d * d, n * n)
    mult, mono, res = expand_table(prods, rows, tol)
    adjs = basis.conj().transpose(0, 2, 1).reshape(d, n * n)
    star, _, s_res = expand_table(adjs, rows, tol)
    if mono is not None:
        mono = (mono[0].reshape(d, d), mono[1].reshape(d, d))
    return mult.reshape(d, d, d), star, max(res, s_res), mono


def dense_algebra(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """The crossed product's span as dense ambient matrices, one per onb row."""
    mats = np.stack([coords_to_matrix(v.reshape(x.legs.dims), x.legs) for v in x.onb])
    return AlgebraBasis(
        space=Subspace(ambient_dim=x.ambient_dim, basis=mats),
        contains_identity=x.report["identity_residual"] <= tol.eps_eq,
        closure_residual=x.report["closure_residual"],
    )


def all_pairs_closure(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Closure certificate and tables from all m^2 family products at once.

    Returns closure_residual, structure, structure_residual and star as the
    crossed product's report and fields should hold them; structure and
    star are None when the family is not a basis.
    """
    m = x.family.shape[0]
    rows = x.family.reshape(m, -1)
    prods = coords_product_pairs(x.family, x.family, x.legs).reshape(m * m, -1)
    out = {"closure_residual": float(np.max(residual_outside(prods, x.onb)))}
    if x.dim == m:
        structure, _, out["structure_residual"] = expand_table(prods, rows, tol)
        out["structure"] = structure.reshape(m, m, m)
        star_rows = np.stack([coords_star(f, x.legs).reshape(-1) for f in x.family])
        out["star"], _, _ = expand_table(star_rows, rows, tol)
    else:
        out["structure"] = out["star"] = None
        out["structure_residual"] = float("inf")
    return out


# ---------------------------------------------------------------------------
# the covariant route through a dense Z


def dense_z_matrix(
    grading_k: GradedHilbertSpace, grading_l: GradedHilbertSpace, chi: Bicharacter
) -> np.ndarray:
    """Z = sum_{g,h} conj(chi(g,h)) E_g (x) F_h as a dense (nk nl)^2 matrix."""
    nk, nl = grading_k.dimension, grading_l.dimension
    z = np.zeros((nk * nl, nk * nl), dtype=np.complex128)
    for g in chi.group_g.elements():
        for h in chi.group_h.elements():
            z += np.conj(chi.value(g, h)) * np.kron(
                grading_k.projection(g), grading_l.projection(h)
            )
    return z


def dense_build_via_covariant(
    cov_c: CovariantRep,
    cov_d: CovariantRep,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> CrossedProduct:
    """The covariant route with each psi-image conjugated by the dense Z.

    Same legs and iota_C as boxtimes.build_via_covariant; iota_D[j] is the
    projection of Z (1 (x) psi(d_j)) Z* onto the leg frames by
    matrix_to_coords, which raises RuntimeError when the image escapes
    them.  Z's unitary residual is read from Z Z*.  Nothing is validated
    beyond what the assembly certifies.
    """
    nk, nl = cov_c.carrier_dim, cov_d.carrier_dim
    zm = dense_z_matrix(cov_c.grading, cov_d.grading, chi)
    eye_k, eye_l = np.eye(nk), np.eye(nl)
    phases = [
        sum(
            np.conj(chi.value(g, h)) * cov_c.grading.projection(g)
            for g in chi.group_g.elements()
        )
        for h in chi.group_h.elements()
    ]
    leg1 = [img @ phi for img in cov_c.images for phi in phases]
    legs = leg_frames([leg1 + [eye_k], list(cov_d.images) + [eye_l]], tol)
    iota_c = np.stack([pure_coords(legs, [img, eye_l], tol) for img in cov_c.images])
    rows_d = []
    for img in cov_d.images:
        twisted = zm @ np.kron(eye_k, img) @ zm.conj().T
        coords, res = matrix_to_coords(twisted, legs)
        if res > tol.eps_eq * max(1.0, float(np.linalg.norm(twisted))):
            raise RuntimeError("conjugated image escapes the leg frames")
        rows_d.append(coords)
    unitary = float(np.linalg.norm(zm @ zm.conj().T - np.eye(nk * nl)))
    return build_from_markings(
        cov_c.graded,
        cov_d.graded,
        chi,
        legs,
        iota_c,
        np.stack(rows_d),
        {"route": "covariant", "witness": "Z-conjugated"},
        {"z_unitary": unitary},
        tol,
    )


# ---------------------------------------------------------------------------
# the dual coaction through dense matrices


def dense_dual_coaction(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> ScenarioResult:
    """apps.dual_coaction through dense ambient matrices.

    Each family member iota_C(c_i) iota_D(chi_p) is materialized and
    collected in degree p; coact.graded_algebra validates that grading
    from dense products, and verify_coaction checks its left coaction
    from dense Kronecker images.  The report has dual_coaction's keys,
    and objects holds the grading, the coaction and its report.
    """
    ghat = x.d_graded.group
    parts: dict = {}
    for (p, _), dc in zip(x.d_graded.homogeneous_basis(), x.iota_d):
        mats = [coords_to_matrix(coords_product(a, dc, x.legs), x.legs) for a in x.iota_c]
        parts.setdefault(p, []).extend(mats)
    graded_hat = coact.graded_algebra(ghat, parts, tol)
    gamma = grading_to_coaction(graded_hat, side="left")
    co_rep = verify_coaction(gamma, tol)

    comp0 = graded_hat.component(ghat.zero())
    fix = float(
        max(comp0.contains_residual(coords_to_matrix(a, x.legs)) for a in x.iota_c)
    )
    verdicts = {
        "grading_passed": graded_hat.report["passed"],
        "coaction_passed": co_rep["passed"],
        "fixed_points_match": comp0.dim == x.c_graded.dim
        and fix <= tol.eps_eq * max(1.0, x.dim),
    }
    rep = _report(
        "dual_coaction",
        {"group": list(x.c_graded.group.cycles), "dim": x.dim},
        {_deg(p): graded_hat.component(p).dim for p in graded_hat.degrees()},
        {
            "fixed_point": fix,
            "comodule": co_rep["comodule_identity"],
            "membership": co_rep["image_in_c_tensor_a"],
        },
        verdicts,
    )
    objects = {"grading": graded_hat, "coaction": gamma, "coaction_report": co_rep}
    return ScenarioResult("dual_coaction", objects, rep)


# ---------------------------------------------------------------------------
# the finite torus through dense generators


def svd_center_dim(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> int:
    """Center dimension from the SVD of the (m, m^2) commutator tensor."""
    m = x.structure.shape[0]
    b = (x.structure - x.structure.transpose(1, 0, 2)).reshape(m, m * m)
    s = np.linalg.svd(b, compute_uv=False)
    cutoff = tol.eps_rank * max(1.0, s[0] if s.size else 0.0)
    return m - int(np.sum(s > cutoff))


def dense_clock_shift_tables(
    n: int, k: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """(mult, star, residual, full_rank) of the torus of k's matrix model,
    from dense matrices: basis_tables and rank of clock^a shift^kb / n,
    with clock = diag(w^j), w = exp(2 pi i / n), as matrix powers."""
    m = n * n
    w = np.exp(2j * np.pi / n)
    clock = np.diag(w ** np.arange(n)).astype(np.complex128)
    shift = translations(FinAbGroup((n,)))[(1,)]
    target = np.stack(
        [
            (
                np.linalg.matrix_power(clock, a)
                @ np.linalg.matrix_power(shift, (k * b) % n)
                / n
            ).reshape(-1)
            for a in range(n)
            for b in range(n)
        ]
    )
    mult, star, res = basis_tables(target.reshape(m, n, n), tol)
    return dense_table(mult), dense_table(star), res, rank(target, tol.eps_rank) == m


def dense_torus_checks(
    n: int, k: int, tol: Tolerance = DEFAULT_TOL, product: CrossedProduct | None = None
) -> ScenarioResult:
    """apps.finite_torus through dense n^3 x n^3 generators.

    u and v are materialized as ambient matrices and checked by dense
    products and matrix_power; the center comes from svd_center_dim.
    product replaces the torus that (n, k) builds, so a product can be
    checked against another k.  The report has finite_torus's keys, and
    objects holds the product and the dense u and v.
    """
    G = FinAbGroup((n,))
    x = product
    if x is None:
        c = coact.delta_grading(G, tol)
        x = build_via_heisenberg(c, c, Bicharacter(G, G, ((k,),)), tol=tol)

    lam = translations(G)
    u = x.element_matrix(x.iota_c_apply(lam[(1,)], tol))
    v = x.element_matrix(x.iota_d_apply(lam[(1,)], tol))
    omega = np.exp(-2j * np.pi * k / n)
    weyl = float(np.linalg.norm(v @ u - omega * (u @ v)))
    eye = np.eye(x.ambient_dim)
    unitary = float(
        max(np.linalg.norm(u @ u.conj().T - eye), np.linalg.norm(v @ v.conj().T - eye))
    )
    order = float(
        max(
            np.linalg.norm(np.linalg.matrix_power(u, n) - eye),
            np.linalg.norm(np.linalg.matrix_power(v, n) - eye),
        )
    )

    center_dim = svd_center_dim(x, tol)
    g2 = math.gcd(k, n) ** 2
    m = n * n
    thr = tol.eps_eq * max(1.0, m)

    residuals = {"weyl": weyl, "unitary": unitary, "order": order}
    verdicts = {
        "certified": x.report["passed"],
        "dim": x.dim == m,
        "center": center_dim == g2,
        "weyl_commutation": weyl <= thr,
        "generators_unitary": unitary <= thr and order <= thr,
    }

    if math.gcd(k, n) == 1:
        mu_t, smat_t, res_t, full_rank = dense_clock_shift_tables(n, k, tol)
        res_x = max(x.report["structure_residual"], x.report["adjoint_residual"])
        diff = float(
            max(np.max(np.abs(mu_t - x.structure)), np.max(np.abs(smat_t - x.star)))
        )
        residuals["matrix_model"] = max(diff, res_t, res_x)
        verdicts["matrix_algebra_iso"] = diff <= thr and full_rank

    rep = _report(
        "finite_torus",
        {"n": n, "k": k},
        {"dim": x.dim, "expected": m, "center": center_dim, "center_expected": g2},
        residuals,
        verdicts,
    )
    return ScenarioResult("finite_torus", {"product": x, "u": u, "v": v}, rep)


# ---------------------------------------------------------------------------
# centers


def center(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Commutant-within: null space of the stacked commutator map on alg."""
    basis = alg.basis
    d, n = alg.dim, alg.ambient_dim
    if d == 0:
        return Subspace(ambient_dim=n, basis=np.zeros((0, n, n), dtype=np.complex128))
    # column i holds all commutators [basis_i, basis_k], stacked
    comms = np.einsum("iab,kbc->ikac", basis, basis) - np.einsum(
        "kab,ibc->ikac", basis, basis
    )
    mat = comms.reshape(d, d * n * n).T  # (d*n*n, d)
    # mat is tall, so the reduced vh already spans all d coefficient
    # directions; the full left factor would be d*n*n square
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    # basis rows are HS-orthonormal, so singular values are O(1); the floor
    # keeps a numerically-zero commutator stack from inflating the rank
    cutoff = tol.eps_rank * max(1.0, s[0] if s.size else 0.0)
    r = int(np.sum(s > cutoff))
    null_coeffs = vh.conj()[r:]  # rows: coefficient vectors in the basis
    if null_coeffs.shape[0] == 0:
        return Subspace(ambient_dim=n, basis=np.zeros((0, n, n), dtype=np.complex128))
    mats = np.einsum("ci,iab->cab", null_coeffs, basis)
    onb = orthonormal_rows(mats.reshape(-1, n * n), tol.eps_rank)
    return Subspace(ambient_dim=n, basis=onb.reshape(-1, n, n))


# ---------------------------------------------------------------------------
# linear relations, and maps between crossed products from dense products


def left_null_rows(rows: np.ndarray, eps_rank: float) -> np.ndarray:
    """Rows c with c @ rows == 0 (coefficient relations among the rows)."""
    rows = np.atleast_2d(rows)
    m = rows.shape[0]
    if m == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    # with no more rows than columns the reduced u is already m x m; the
    # full factors would add the unused N x N right one
    u, s, _ = np.linalg.svd(rows, full_matrices=m > rows.shape[1])
    return u.conj().T[_cut(s, eps_rank) :]


def relation_transport(
    coords1: np.ndarray, coords2: np.ndarray, tol: Tolerance
) -> float | None:
    """Check that index-aligned families satisfy the same linear relations.

    Returns the worst transported-relation residual if every null combination
    of either family annihilates the other, else None.  This is the exact
    condition for "send family 1 to family 2" to extend to a well defined
    linear bijection of the spans.
    """
    worst = 0.0
    for a, b in ((coords1, coords2), (coords2, coords1)):
        null = left_null_rows(a, tol.eps_rank)
        if null.shape[0] == 0:
            continue
        scale = max(1.0, float(np.max(np.linalg.norm(b, axis=1), initial=0.0)))
        res = float(np.max(np.linalg.norm(null @ b, axis=1), initial=0.0))
        if res > tol.eps_eq * scale:
            return None
        worst = max(worst, res)
    return worst


def dense_aligned_family(target: CrossedProduct, c_mats, d_mats, tol: Tolerance) -> np.ndarray:
    """The products iota_C(c) iota_D(d) in target, c-major, formed pair by pair."""
    ds = [target.iota_d_apply(d, tol) for d in d_mats]
    return np.stack(
        [coords_product(target.iota_c_apply(c, tol), b, target.legs) for c in c_mats for b in ds]
    )


def dense_family_map(
    src: CrossedProduct,
    fam2: np.ndarray,
    target: CrossedProduct,
    require_bijective: bool,
    markings,
    tol: Tolerance = DEFAULT_TOL,
) -> ProductMap | None:
    """Extend the family alignment x_k -> y_k = fam2[k] to a certified map.

    Forms every family product and adjoint on both sides and maps the
    source ones through pinv(rows1) @ rows2.  Returns None when a
    bijection is required but the families satisfy different linear
    relations; raises when a plain (possibly non-injective) extension is
    not well defined.  markings are pairs of marking tables, as
    boxtimes._marking_pairs gives them, mapped one row at a time.  The
    report has boxtimes._family_map's keys and bounds (scale = max(1,
    largest row norm of either family)).
    """
    m = src.family.shape[0]
    rows1 = src.family.reshape(m, -1)
    rows2 = fam2.reshape(m, -1)
    scale = max(
        1.0,
        float(np.max(np.linalg.norm(rows1, axis=1))),
        float(np.max(np.linalg.norm(rows2, axis=1))),
    )
    if require_bijective:
        if relation_transport(rows1, rows2, tol) is None:
            return None
    else:
        nl = left_null_rows(rows1, tol.eps_rank)
        if nl.shape[0]:
            defect = float(np.max(np.linalg.norm(nl @ rows2, axis=1)))
            if defect > tol.eps_eq * scale * max(1.0, m):
                raise ValueError(f"assignment is not well defined (defect {defect:.2e})")
    pinv = np.linalg.pinv(rows1)
    mat = pinv @ rows2

    rep: dict = {}
    mult = 0.0
    for i in range(m):
        p1 = coords_product_pairs(src.family[i : i + 1], src.family, src.legs).reshape(m, -1)
        p2 = coords_product_pairs(fam2[i : i + 1], fam2, target.legs).reshape(m, -1)
        mult = max(mult, float(np.max(np.linalg.norm((p1 @ pinv) @ rows2 - p2, axis=1))))
    rep["multiplicative"] = mult
    s1 = np.stack([coords_star(f, src.legs).reshape(-1) for f in src.family])
    s2 = np.stack([coords_star(f, target.legs).reshape(-1) for f in fam2])
    rep["star"] = float(np.max(np.linalg.norm(s1 @ mat - s2, axis=1)))
    mark = 0.0
    for v1, v2 in markings:
        for r1, r2 in zip(dense_table(v1).reshape(v1.shape[0], -1), dense_table(v2)):
            mark = max(mark, float(np.linalg.norm(r1 @ mat - r2.reshape(-1))))
    rep["markings"] = mark
    rep["alignment"] = float(np.max(np.linalg.norm(rows1 @ mat - rows2, axis=1)))
    s = tol.eps_eq * scale * max(1.0, m)
    rep["passed"] = (
        rep["multiplicative"] <= s * scale
        and rep["star"] <= s
        and mark <= s
        and rep["alignment"] <= s
    )
    # the same map in the two products' orthonormal bases: mat's rows lie in
    # the span of src's family and its columns in target's
    coef = src.onb @ mat @ target.onb.conj().T
    return ProductMap(source=src, target=target, coef=coef, report=rep)


# ---------------------------------------------------------------------------
# generator-transport isomorphisms


@dataclass
class LinearMap:
    """Linear map between matrix subspaces, with certification residuals."""

    source_dim: int
    target_dim: int
    _pinv: np.ndarray = field(repr=False)
    _images: np.ndarray = field(repr=False)
    report: dict = field(default_factory=dict)

    def apply(self, mat: np.ndarray) -> np.ndarray:
        mat = cmatrix(mat, self.source_dim)
        row = mat.reshape(1, -1) @ self._pinv @ self._images
        return row.reshape(self.target_dim, self.target_dim)


def _enrich_families(alg1, fam1, alg2, fam2, tol):
    """Extend index-aligned generating families by forced words.

    Products and adjoints of the current span basis are appended on both
    sides in lockstep until family 1 linearly spans alg1.
    """
    n1, n2 = alg1.ambient_dim, alg2.ambient_dim
    x1 = np.stack([cmatrix(m, n1).reshape(-1) for m in fam1])
    x2 = np.stack([cmatrix(m, n2).reshape(-1) for m in fam2])
    target = alg1.dim
    while True:
        onb1 = orthonormal_rows(x1, tol.eps_rank)
        r = onb1.shape[0]
        if r >= target:
            return x1, x2
        coeff, _ = expand_in_rows(onb1, x1)
        forced2 = coeff @ x2
        b1 = onb1.reshape(r, n1, n1)
        b2 = forced2.reshape(r, n2, n2)
        prod1 = np.einsum("iab,jbc->ijac", b1, b1).reshape(r * r, -1)
        prod2 = np.einsum("iab,jbc->ijac", b2, b2).reshape(r * r, -1)
        adj1 = b1.conj().transpose(0, 2, 1).reshape(r, -1)
        adj2 = b2.conj().transpose(0, 2, 1).reshape(r, -1)
        x1 = np.vstack([x1, prod1, adj1])
        x2 = np.vstack([x2, prod2, adj2])
        if rank(x1, tol.eps_rank) == r:
            raise ValueError("marked family does not generate its algebra")


def find_generator_isomorphism(
    alg1: AlgebraBasis,
    family1,
    alg2: AlgebraBasis,
    family2,
    tol: Tolerance = DEFAULT_TOL,
) -> LinearMap | None:
    """Search for a *-isomorphism sending one marked family to the other.

    The families are extended by forced words until they span, the linear
    relations are transported both ways, and the induced map is certified
    multiplicative, adjoint-preserving and bijective.  Returns None when
    any of these obstructions fires.
    """
    if alg1.dim != alg2.dim or alg1.dim == 0:
        return None
    if len(family1) != len(family2):
        raise ValueError("families must be index-aligned")
    x1, x2 = _enrich_families(alg1, family1, alg2, family2, tol)
    if relation_transport(x1, x2, tol) is None:
        return None

    n1, n2 = alg1.ambient_dim, alg2.ambient_dim
    pinv = np.linalg.pinv(x1, rcond=tol.eps_rank)
    images = x2
    # certify on an orthonormal basis of the source span
    onb1 = orthonormal_rows(x1, tol.eps_rank)
    coeff, _ = expand_in_rows(onb1, x1)
    img = coeff @ x2
    d = onb1.shape[0]
    if rank(img, tol.eps_rank) != d:
        return None
    b1 = onb1.reshape(d, n1, n1)
    b2 = img.reshape(d, n2, n2)
    scale = max(1.0, float(np.max(np.abs(img))))

    def map_rows(rows):
        return rows @ pinv @ images

    prod1 = np.einsum("iab,jbc->ijac", b1, b1).reshape(d * d, -1)
    prod2 = np.einsum("iab,jbc->ijac", b2, b2).reshape(d * d, -1)
    mult_res = float(np.max(np.linalg.norm(map_rows(prod1) - prod2, axis=1)))
    adj1 = b1.conj().transpose(0, 2, 1).reshape(d, -1)
    adj2 = b2.conj().transpose(0, 2, 1).reshape(d, -1)
    star_res = float(np.max(np.linalg.norm(map_rows(adj1) - adj2, axis=1)))
    transport_res = float(np.max(np.linalg.norm(map_rows(x1) - x2, axis=1)))
    if max(mult_res, star_res, transport_res) > tol.eps_eq * max(scale, 1.0) * d:
        return None
    return LinearMap(
        source_dim=n1,
        target_dim=n2,
        _pinv=pinv,
        _images=images,
        report={
            "multiplicativity": mult_res,
            "star": star_res,
            "family_transport": transport_res,
            "dim": d,
        },
    )


# ---------------------------------------------------------------------------
# gradings, covariant representations and bicharacter actions, pair by pair


def graded_algebra(group: FinAbGroup, parts, tol: Tolerance = DEFAULT_TOL) -> GradedAlgebra:
    """Validate a grading through multiplicative_closure of its inputs and
    one residual_outside per pair of components and per adjoint."""
    comps: dict = {}
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
    closure = multiplicative_closure(mats_all, tol)
    rep: dict = {}
    rep["total_dim"] = total_dim
    rep["component_dims"] = {g: comps[g].dim for g in comps}
    rep["direct_sum_ok"] = sum(s.dim for s in comps.values()) == total_dim
    rep["closed_under_products"] = closure.dim == total_dim
    rep["closure_residual"] = closure.closure_residual

    ortho = 0.0
    keys = sorted(comps)
    for i, g in enumerate(keys):
        for h in keys[i + 1 :]:
            overlap = comps[g].coords() @ comps[h].coords().conj().T
            ortho = max(ortho, float(np.max(np.abs(overlap))))
    rep["component_orthogonality"] = ortho

    mult = 0.0
    for g in keys:
        for h in keys:
            gh = group.add(g, h)
            prods = np.matmul(comps[g].basis[:, None], comps[h].basis[None, :])
            prods = prods.reshape(-1, n * n)
            if gh in comps:
                r = residual_outside(prods, comps[gh].coords())
            else:
                r = np.linalg.norm(prods, axis=1)
            mult = max(mult, float(np.max(r)))
    rep["multiplication_residual"] = mult

    adj = 0.0
    for g in keys:
        ng = group.neg(g)
        for a in comps[g].basis:
            s = a.conj().T
            if ng in comps:
                adj = max(adj, comps[ng].contains_residual(s))
            else:
                adj = max(adj, hs_norm(s))
    rep["adjoint_residual"] = adj

    rep["passed"] = (
        rep["direct_sum_ok"]
        and rep["closed_under_products"]
        and ortho <= tol.eps_eq
        and mult <= tol.eps_eq
        and adj <= tol.eps_eq
    )
    homogeneous = rep["direct_sum_ok"] and ortho <= tol.eps_eq
    if homogeneous:
        homs = [comps[g].basis for g in group.elements() if g in comps]
        total = Subspace(ambient_dim=n, basis=np.concatenate(homs))
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


def verify_covariant(rep: CovariantRep, tol: Tolerance = DEFAULT_TOL) -> dict:
    """*-homomorphism, faithfulness and covariance through rep.apply on
    every product and adjoint of the ambient basis."""
    basis = rep.graded.ambient.basis
    out: dict = {}
    hom = 0.0
    star = 0.0
    for i, a in enumerate(basis):
        fa = rep.images[i]
        star = max(star, float(np.linalg.norm(rep.apply(a.conj().T) - fa.conj().T)))
        for j, b in enumerate(basis):
            hom = max(
                hom, float(np.linalg.norm(rep.apply(a @ b) - fa @ rep.images[j]))
            )
    out["homomorphism"] = hom
    out["star"] = star
    stacked = rep.images.reshape(len(basis), -1)
    out["faithful"] = rank(stacked, tol.eps_rank) == len(basis)

    cov = 0.0
    projections = rep.grading.projections()
    for g in rep.graded.degrees():
        for m in rep.graded.component(g).basis:
            fm = rep.apply(m)
            for h, eh in projections.items():
                target = projections[rep.graded.group.add(g, h)]
                cov = max(cov, float(np.linalg.norm(target @ fm @ eh - fm @ eh)))
    out["covariance"] = cov
    out["passed"] = (
        out["faithful"]
        and hom <= tol.eps_eq * max(1.0, len(basis))
        and star <= tol.eps_eq
        and cov <= tol.eps_eq
    )
    return out


def action_from_bicharacter(
    graded: GradedAlgebra, chi: Bicharacter, tol: Tolerance = DEFAULT_TOL
) -> tuple[dict, dict]:
    """The bicharacter action, certified through decompose on every pair."""
    if chi.group_g != graded.group:
        raise ValueError("bicharacter first leg must match the grading group")
    H = chi.group_h
    thetas = {
        h: {g: chi.value(g, h) for g in graded.degrees()} for h in H.elements()
    }

    def apply_theta(h, x):
        parts = graded.decompose(x, tol)
        return sum(thetas[h][g] * cg for g, cg in parts.items())

    rep: dict = {}
    labeled = graded.homogeneous_basis()
    mult = 0.0
    for h in H.elements():
        for _, a in labeled:
            for _, b in labeled:
                lhs = apply_theta(h, a @ b)
                rhs = apply_theta(h, a) @ apply_theta(h, b)
                mult = max(mult, float(np.linalg.norm(lhs - rhs)))
    rep["multiplicative"] = mult
    add = 0.0
    for h1 in H.elements():
        for h2 in H.elements():
            h12 = H.add(h1, h2)
            for _, m in labeled:
                lhs = apply_theta(h12, m)
                rhs = apply_theta(h1, apply_theta(h2, m))
                add = max(add, float(np.linalg.norm(lhs - rhs)))
    rep["additive_in_h"] = add
    star = 0.0
    for h in H.elements():
        for _, m in labeled:
            star = max(
                star,
                float(
                    np.linalg.norm(
                        apply_theta(h, m.conj().T) - apply_theta(h, m).conj().T
                    )
                ),
            )
    rep["star"] = star
    rep["passed"] = max(mult, add, star) <= tol.eps_eq
    return thetas, rep


# ---------------------------------------------------------------------------
# per-element forms of the batched Heisenberg build path


def loop_translations(group: FinAbGroup) -> dict:
    """lambda_g e_h = e_{g+h}, one element pair at a time."""
    n = group.order
    out = {}
    for g in group.elements():
        m = np.zeros((n, n), dtype=np.complex128)
        for h in group.elements():
            m[group.index(group.add(g, h)), group.index(h)] = 1.0
        out[g] = m
    return out


def loop_rep_residual(group: FinAbGroup, rep: dict, dim: int) -> float:
    """Worst unitarity / homomorphism defect, one (g, h) pair at a time."""
    eye = np.eye(dim)
    worst = 0.0
    for g in group.elements():
        m = rep[g]
        worst = max(worst, float(np.linalg.norm(m @ m.conj().T - eye)))
    for g in group.elements():
        for h in group.elements():
            d = rep[group.add(g, h)] - rep[g] @ rep[h]
            worst = max(worst, float(np.linalg.norm(d)))
    return worst


def loop_weyl_residual(p, chi: Bicharacter, anti: bool = False) -> float:
    """Worst ||U_g V_h - chi(g,h) V_h U_g|| (anti: the flipped relation)."""
    worst = 0.0
    for g in p.group_g.elements():
        for h in p.group_h.elements():
            uv, vu = p.U[g] @ p.V[h], p.V[h] @ p.U[g]
            if anti:
                uv, vu = vu, uv
            worst = max(worst, float(np.linalg.norm(uv - chi.value(g, h) * vu)))
    return worst


def dense_marking_report(
    graded: GradedAlgebra, iota: np.ndarray, legs, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float, bool]:
    """(homomorphism, star, injective) of a marking from every product and
    adjoint: table_defect against the dense tables of the ambient basis,
    and the rank of the rows."""
    mult, star, _ = (dense_table(t) for t in basis_tables(graded.ambient.basis, tol))
    prods = coords_product_pairs(iota, iota, legs)
    adjs = np.stack([coords_star(v, legs) for v in iota])
    hom, star_res = table_defect(mult, star, iota, prods, adjs)
    m = iota.shape[0]
    return hom, star_res, rank(iota.reshape(m, -1), tol.eps_rank) == m


def loop_commutation_check(p1, p2, model_g, model_h) -> float:
    """heis.commutation_check one coefficient and one (g, h) pair at a time."""

    def doubled(rep1, rep2, model):
        group = model.group
        lam = loop_translations(group)
        els = group.elements()
        n = group.order
        out = {}
        for g in els:
            m4 = model.comultiplication(lam[g]).reshape(n, n, n, n)
            acc = np.zeros((rep1[g].shape[0] * rep2[g].shape[0],) * 2, dtype=np.complex128)
            for a in els:
                for b in els:
                    c = np.einsum("ij,kl,ikjl->", lam[a].conj(), lam[b].conj(), m4) / (n * n)
                    if abs(c) > 1e-14:
                        acc += c * np.kron(rep1[a], rep2[b])
            out[g] = acc
        return out

    du, dv = doubled(p1.U, p2.U, model_g), doubled(p1.V, p2.V, model_h)
    worst = 0.0
    for a in du.values():
        for b in dv.values():
            worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
    return worst


def loop_verify_table_coaction(gamma, tol: Tolerance = DEFAULT_TOL) -> dict:
    """coact.verify_table_coaction with the map applied to one basis row
    at a time, each image projected on its own."""
    graded = gamma.graded
    group = graded.group
    lam = translations(group)
    lams = np.stack([lam[g].reshape(-1) for g in group.elements()])
    qa = orthonormal_rows(lams, tol.eps_rank)
    to_qa = qa.conj() @ lams.T
    basis = graded.basis
    m = basis.shape[0]
    coeffs = np.empty((m, qa.shape[0], m), dtype=np.complex128)
    member = np.empty(m)
    for t, b in enumerate(basis):
        img = gamma.apply(b, tol)
        c = img @ basis.conj().T
        coeffs[t] = to_qa @ c
        member[t] = np.sqrt(group.order) * np.linalg.norm(img - c @ basis)
    outer = np.zeros_like(coeffs)
    outer[np.arange(m), :, np.arange(m)] = to_qa[:, graded.deg].T
    unit_mult = np.eye(m, dtype=np.complex128) if graded.contains_identity else None
    return coaction_checks(
        coeffs, member, outer, unit_mult, gamma.model, gamma.side,
        graded.report["passed"], tol,
    )


def inline_coaction_frame(model, tol: Tolerance = DEFAULT_TOL) -> dict:
    """The group-only data of coact.coaction_checks as the checks formed
    them inline, per call: qa from the SVD of the lambda_g rows, to_qa,
    the comultiplication stack of the qa rows with its coefficients dco
    and residuals d_res, and the matrices of multiplication by lambda_g
    on qa from the right and the left.  The parity oracle of
    qgroup.QuantumGroupModel.coaction_frame."""
    group = model.group
    lam = translations(group)
    els = group.elements()
    na = group.order
    lams = np.stack([lam[g].reshape(-1) for g in els])
    qa = orthonormal_rows(lams, tol.eps_rank)
    delta = np.stack([model.comultiplication(q.reshape(na, na)) for q in qa])
    delta = delta.reshape(-1, na, na, na, na).transpose(0, 1, 3, 2, 4)
    delta = delta.reshape(-1, na * na, na * na)
    dco = qa.conj() @ delta @ qa.conj().T
    out = {"qa": qa, "to_qa": qa.conj() @ lams.T, "dco": dco}
    out["d_res"] = np.linalg.norm(delta - qa.T @ dco @ qa, axis=(1, 2))
    qa3 = qa.reshape(-1, na, na)
    out["right"] = np.stack([qa3 @ lam[g] for g in els]).reshape(na, -1, na * na) @ qa.conj().T
    out["left"] = np.stack([lam[g] @ qa3 for g in els]).reshape(na, -1, na * na) @ qa.conj().T
    return out


def built_legs_crossed_product(c_graded: GradedAlgebra, tol: Tolerance = DEFAULT_TOL) -> dict:
    """apps.reduced_crossed_product's report with the direct route on legs
    built per call, as it once was: the frame of C's basis with the
    identity appended and the frame of the monomials lambda_g chi_p,
    g-major, with both markings projected by pure_coords_stack.  The
    parity oracle for the direct route on held legs."""
    G = c_graded.group
    d = coact.character_grading(G, tol)
    chi = regular_bicharacter(G)
    xb = build_via_heisenberg(c_graded, d, chi, tol=tol)
    lam = np.stack(list(translations(G).values()))
    chars = np.stack([np.diag(t) for t in pairing_table(G).T])
    n_c = c_graded.ambient_dim
    leg2 = np.matmul(lam[:, None], chars[None, :]).reshape(-1, G.order, G.order)
    legs = leg_frames([list(c_graded.ambient.basis) + [np.eye(n_c)], leg2], tol)
    degs = c_graded.degree_indices()
    iota_c = pure_coords_stack(legs, [c_graded.ambient.basis, lam[degs]], tol)
    iota_d = pure_coords_stack(legs, [np.eye(n_c), d.ambient.basis], tol)
    xd = build_from_markings(c_graded, d, chi, legs, iota_c, iota_d, tol=tol)
    pm = equivalent(xb, xd, tol)
    expected = c_graded.dim * G.order
    verdicts = {
        "box_certified": xb.report["passed"],
        "direct_certified": xd.report["passed"],
        "equivalence_found": pm is not None and pm.report["passed"],
        "dim_law": xb.dim == expected and xd.dim == expected,
    }
    residuals = {
        "box_closure": xb.report["closure_residual"],
        "direct_closure": xd.report["closure_residual"],
    }
    if pm is not None:
        residuals["map_multiplicative"] = pm.report["multiplicative"]
        residuals["map_markings"] = pm.report["markings"]
    dims = {
        "dim": xd.dim,
        "expected": expected,
        "ambient_direct": xd.ambient_dim,
        "ambient_box": xb.ambient_dim,
    }
    inputs = {"group": list(G.cycles), "dim_c": c_graded.dim}
    return _report("reduced_crossed_product", inputs, dims, residuals, verdicts)
