"""Named constructions as executable, self-verifying scenarios.

Every scenario builds its objects, certifies the advertised properties
numerically and returns a ScenarioResult whose report is JSON-friendly:
{name, inputs, dims, residuals, verdicts} plus optional structure
constants in sparse triplet form.  The live objects (crossed products,
coactions, tables, modules) ride along in the objects dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abgroup import (
    Bicharacter,
    FinAbGroup,
    dual_group,
    pairing_table,
    regular_bicharacter,
)
from .boxtimes import (
    CrossedProduct,
    _family_map,
    _term_products,
    _term_stars,
    build_from_markings,
    build_via_covariant,
    build_via_heisenberg,
    coords_product,
    coords_product_pairs,
    coords_star,
    equivalent,
    heisenberg_markings,
    leg_frames,
    matrix_to_coords,
    podles_span_check,
    product_center_dim,
    pure_coords_stack,
)
from .coact import (
    CoactionMap,
    Cocycle,
    GradedAlgebra,
    TableCoaction,
    ad_grading,
    canonical_covariant_rep,
    character_grading,
    coaction_from_map,
    corep_unitary,
    delta_grading,
    graded_algebra,
    grading_to_coaction,
    hilbert_grading,
    table_grading,
    trivial_grading,
    twist_by_cocycle,
    validate_cocycle,
    verify_coaction,
    verify_table_coaction,
)
from .heis import RepPair, canonical_heisenberg
from .matspan import (
    DEFAULT_TOL,
    OneTerm,
    Tolerance,
    basis_tables,
    check_size,
    cmatrix,
    dense_table,
    expand_in_rows,
    hs_norm,
    multiplicative_closure,
    orthonormal_rows,
    rank,
    residual_outside,
    table_defect,
)
from .qgroup import build_model, translations

__all__ = [
    "ScenarioResult",
    "TwistedProductTable",
    "GradedHilbertModule",
    "sparse_triplets",
    "cocycle_twist_table",
    "tensor_structure_residual",
    "skew_tensor",
    "finite_torus",
    "reduced_crossed_product",
    "dual_coaction",
    "rieffel_twist_compare",
    "embed_in_reduced",
    "cocycle_conjugacy",
    "inner_coaction_examples",
    "graded_module",
    "module_boxtimes",
    "module_composition_example",
    "modules_examples",
    "full_verify",
]


@dataclass
class ScenarioResult:
    """A constructed instance plus its machine-checkable report."""

    name: str
    objects: dict
    report: dict

    @property
    def passed(self) -> bool:
        return bool(self.report.get("passed", False))


def _deg(g) -> str:
    return ",".join(str(int(v)) for v in g)


def _report(name: str, inputs: dict, dims: dict, residuals: dict, verdicts: dict, **extra) -> dict:
    rep = {
        "name": name,
        "inputs": inputs,
        "dims": {k: int(v) for k, v in dims.items()},
        "residuals": {k: float(v) for k, v in residuals.items()},
        "verdicts": {k: bool(v) for k, v in verdicts.items()},
    }
    rep.update(extra)
    rep["passed"] = all(bool(v) for v in verdicts.values())
    return rep


def sparse_triplets(tensor: np.ndarray, eps: float = 1e-12) -> list:
    """Nonzero entries of a 2- or 3-index tensor as {i,j,(k,)value} dicts."""
    tensor = np.asarray(tensor)
    where = np.nonzero(np.abs(tensor) > eps)
    vals = tensor[where].astype(np.complex128)
    return [
        {**dict(zip("ijk", at)), "value": [re, im]}
        for at, re, im in zip(
            np.transpose(where).tolist(), vals.real.tolist(), vals.imag.tolist()
        )
    ]


# ---------------------------------------------------------------------------
# structure constants on homogeneous monomials


@dataclass
class TwistedProductTable:
    """Structure constants of a cocycle twist of C (x) D.

    On homogeneous monomials c_i (x) d_j the twisted product inserts the
    scalar chi(deg c_k, deg d_j)^-1 in front of (c_i c_k) (x) (d_j d_l),
    and the twisted star inserts chi(deg c_i, deg d_j)^-1.  Index order
    is i-major over the two homogeneous bases.
    """

    labels: list
    structure: np.ndarray
    star: np.ndarray
    report: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.structure.shape[0]


def cocycle_twist_table(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> TwistedProductTable:
    """Twisted structure constants built from the factor tables alone.

    Reads each factor's cached tables, so raises ValueError on a grading
    whose ambient basis is not its homogeneous basis (one that failed
    validation).
    """
    for graded, name in ((c_graded, "C"), (d_graded, "D")):
        if not graded.homogeneous_ambient:
            raise ValueError(f"factor {name} grading failed validation")
    lab_c = c_graded.homogeneous_basis()
    lab_d = d_graded.homogeneous_basis()
    a_mu, a_star, res_a = c_graded.tables(tol)
    b_mu, b_star, res_b = d_graded.tables(tol)
    mc, md = len(lab_c), len(lab_d)
    m = mc * md

    # spin[k, j] = chi(deg c_k, deg d_j)^-1; |chi| = 1 so inverse = conj
    degs = np.ix_(c_graded.degree_indices(), d_graded.degree_indices())
    spin = chi.value_table().conj()[degs]
    mu = np.einsum("ikp,jlq->ijklpq", dense_table(a_mu), dense_table(b_mu))
    mu = mu * spin.T[None, :, :, None, None, None]
    mu = mu.reshape(m, m, m)

    star = np.einsum("ip,jq->ijpq", dense_table(a_star), dense_table(b_star))
    star = star * spin[:, :, None, None]
    star = star.reshape(m, m)

    # (xy)z - x(yz), one left factor x at a time, so m^3 entries are held
    wide, tall = mu.reshape(m, m * m), mu.reshape(m * m, m)
    assoc = max(
        float(np.max(np.abs(mu[x] @ wide - (tall @ mu[x]).reshape(m, m * m))))
        for x in range(m)
    )

    # star is involutive for the twisted product: s(conj(s)) = 1
    invol = float(np.max(np.abs(star @ star.conj() - np.eye(m))))

    rep = {
        "factor_expand_residual": float(max(res_a, res_b)),
        "associativity": assoc,
        "star_involution": invol,
        "passed": assoc <= tol.eps_eq * max(1.0, m)
        and invol <= tol.eps_eq * max(1.0, m)
        and max(res_a, res_b) <= tol.eps_eq,
    }
    labels = [(g, h) for g, _ in lab_c for h, _ in lab_d]
    return TwistedProductTable(labels=labels, structure=mu, star=star, report=rep)


def tensor_structure_residual(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> float:
    """Distance of x's structure tensor from a plain tensor product.

    Small only when the marked family multiplies factorwise, i.e. the
    embedded copies commute; used to classify untwisted instances.
    """
    if x.structure is None:
        raise ValueError("tensor comparison needs the structure tensor")
    a_mu, _, res_a = x.c_graded.tables(tol)
    b_mu, _, res_b = x.d_graded.tables(tol)
    model = np.einsum("ikp,jlq->ijklpq", dense_table(a_mu), dense_table(b_mu))
    m = x.structure.shape[0]
    diff = float(np.max(np.abs(x.structure - model.reshape(m, m, m))))
    return max(diff, res_a, res_b)


# ---------------------------------------------------------------------------
# skew tensor products


def skew_tensor(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioResult:
    """Koszul-sign product of two Z/2-graded algebras, matched to the twist.

    The sign table (-1)^{deg c2 deg d1} is exactly the cocycle table of
    the nontrivial bicharacter on Z/2 x Z/2, so the scenario certifies
    that the abstract signed product and the operator realization have
    identical structure constants.
    """
    for graded, name in ((c_graded, "C"), (d_graded, "D")):
        if graded.group.order != 2:
            raise ValueError(f"factor {name} must be graded over Z/2")
    chi = Bicharacter(c_graded.group, d_graded.group, ((1,),))
    x = build_via_heisenberg(c_graded, d_graded, chi, tol=tol)
    table, residuals, verdicts = _table_match(x, tol)
    m = table.dim
    # every nonzero table entry carries a Koszul sign, so the phases are +-1
    signs = table.structure[np.abs(table.structure) > 1e-12]
    phases = signs / np.abs(signs)
    residuals["sign_imag"] = float(np.max(np.abs(phases.imag)))
    verdicts["table_associative"] = table.report["passed"]
    verdicts["signs_real"] = residuals["sign_imag"] <= tol.eps_eq * max(1.0, m)
    rep = _report(
        "skew_tensor",
        {
            "group": list(c_graded.group.cycles),
            "dim_c": c_graded.dim,
            "dim_d": d_graded.dim,
        },
        {"c": c_graded.dim, "d": d_graded.dim, "product": x.dim, "expected": m},
        residuals,
        verdicts,
        structure_constants=sparse_triplets(table.structure) if m <= 16 else None,
    )
    return ScenarioResult("skew_tensor", {"product": x, "table": table}, rep)


# ---------------------------------------------------------------------------
# finite noncommutative tori


def finite_torus(n: int, k: int, tol: Tolerance = DEFAULT_TOL) -> ScenarioResult:
    """Twist of two copies of the order-n group algebra by exp(2 pi i k/n).

    The output is generated by unitaries u, v of order n with
    v u = exp(-2 pi i k / n) u v; dimension n^2 and center dimension
    gcd(k, n)^2 are certified, and for gcd(k, n) = 1 the structure
    constants are matched against clock and shift on C^n.
    """
    if not (isinstance(n, int) and isinstance(k, int) and n >= 2 and 0 <= k < n):
        raise ValueError("torus parameters need n >= 2 and 0 <= k < n")
    # the family, its products and tables are (index, value) arrays of at
    # most m^2 = n^4 entries; the largest arrays hold n^5: the markings
    # iota_C and iota_D (n rows of n^4 coordinates), and the Weyl leg's and
    # the clock-and-shift model's index-path products of n^2 monomials of
    # n x n with their coefficients and remainders.  Twelve are counted:
    # the traced peak is 11.7, 9.5 and 8.7 n^5 entries for n = 8, 10, 12
    check_size(12 * n**5, f"torus n={n}: twelve arrays of n^5 entries")
    G = FinAbGroup((n,))
    chi = Bicharacter(G, G, ((k,),))
    c = delta_grading(G, tol)
    return _torus_checks(build_via_heisenberg(c, c, chi, tol=tol), n, k, tol)


def _table_gap(a: OneTerm, b: OneTerm) -> float:
    """Largest entry of |a - b| for two one-term tables."""
    same = a.idx == b.idx
    gap = np.where(same, np.abs(a.val - b.val), np.maximum(np.abs(a.val), np.abs(b.val)))
    return float(np.max(gap))


def _torus_checks(x: CrossedProduct, n: int, k: int, tol: Tolerance) -> ScenarioResult:
    """finite_torus's report on x, for generators of order n and the phase of k.

    u and v, the images of the translation lambda_1 under iota_C and iota_D,
    are held as coordinate tensors over x's leg frames.  The Weyl residual
    is the norm of a coordinate tensor from coords_product_pairs on the
    stack (u, v).  The legs of a torus are one term a row (translations
    and Weyl monomials) and u, v and the identity are one-term rows, so
    a a* and the powers a^n (n - 1 products) of a = u, v are index
    arithmetic (_term_products, _term_stars) and each of their norms a
    OneTerm.distance; x and the clock-and-shift model are compared on
    their one-term structure and star tables.  Raises ValueError on legs,
    generators or tables that are not one term a row.  The frames are
    orthonormal, so such a norm is the Frobenius norm of the ambient
    matrix; legs.residual, the worst defect of a leg table row (one
    product of two unit frame elements), is added to each as slack.  No
    ambient matrix is formed.
    """
    lam = translations(FinAbGroup((n,)))
    legs = x.legs
    u = x.iota_c_apply(lam[(1,)], tol)
    v = x.iota_d_apply(lam[(1,)], tol)
    pair = np.stack([u, v])
    pairs = coords_product_pairs(pair, pair, legs)
    omega = np.exp(-2j * np.pi * k / n)
    weyl = float(np.linalg.norm(pairs[1, 0] - omega * pairs[0, 1])) + legs.residual

    rows = OneTerm.of_rows(np.stack([u, v, legs.identity(tol)]).reshape(3, -1))
    if not legs.one_term or rows is None:
        raise ValueError("torus checks need one-term leg tables and generators")
    gens, one = rows[:2], rows[2]
    powers = gens
    for _ in range(n - 1):
        powers = _term_products(powers, gens, legs)
    unitary = float(np.max(_term_products(gens, _term_stars(gens, legs), legs).distance(one)))
    unitary += legs.residual
    order = float(np.max(powers.distance(one))) + legs.residual

    center = product_center_dim(x, tol)
    g2 = math.gcd(k, n) ** 2
    m = n * n
    thr = tol.eps_eq * max(1.0, m)

    residuals = {"weyl": weyl, "unitary": unitary, "order": order}
    verdicts = {
        "certified": x.report["passed"],
        "dim": x.dim == m,
        "center": center == g2,
        "weyl_commutation": weyl <= thr,
        "generators_unitary": unitary <= thr and order <= thr,
    }

    if math.gcd(k, n) == 1:
        # clock-and-shift model: u -> diag(w^j), v -> (shift)^k; the powers
        # of the clock's diagonal are running products, those of the shift
        # the translations lambda_{kb}, and target[a n + b] = clock^a shift^kb / n.
        # Its tables are one term a row, so they are compared with x's on
        # the (index, value) arrays.
        w = np.exp(2j * np.pi / n)
        clock = np.ones((n, n), dtype=np.complex128)
        clock[1:] = w ** np.arange(n)
        clock = np.cumprod(clock, axis=0)
        shifts = np.stack([lam[((k * b) % n,)] for b in range(n)])
        target = (clock[:, None, :, None] * shifts[None] / n).reshape(m, n * n)
        mu_t, star_t, res_t = basis_tables(target.reshape(m, n, n), tol)
        tables = (mu_t, star_t, x.structure_table, x.star_table)
        if not all(isinstance(t, OneTerm) for t in tables):
            raise ValueError("torus checks need one-term structure and star tables")
        res_x = max(x.report["structure_residual"], x.report["adjoint_residual"])
        diff = max(_table_gap(mu_t, x.structure_table), _table_gap(star_t, x.star_table))
        full_rank = rank(target, tol.eps_rank) == m
        residuals["matrix_model"] = max(diff, res_t, res_x)
        verdicts["matrix_algebra_iso"] = diff <= thr and full_rank

    rep = _report(
        "finite_torus",
        {"n": n, "k": k},
        {"dim": x.dim, "expected": m, "center": center, "center_expected": g2},
        residuals,
        verdicts,
    )
    return ScenarioResult("finite_torus", {"product": x, "u": u, "v": v}, rep)


# ---------------------------------------------------------------------------
# reduced crossed products and the dual grading


def reduced_crossed_product(
    c_graded: GradedAlgebra, tol: Tolerance = DEFAULT_TOL
) -> ScenarioResult:
    """Crossed product of a grading: twist against the function algebra.

    Built twice: through the Weyl-pair route with the regular
    bicharacter, and directly on carrier (x) l2(G) where C acts through
    its grading and the diagonal characters act on the second leg.  The
    two crossed products are certified equivalent.
    """
    G = c_graded.group
    d = character_grading(G, tol)
    chi = regular_bicharacter(G)
    xb = build_via_heisenberg(c_graded, d, chi, tol=tol)

    lam = np.stack(list(translations(G).values()))
    # chars[p] = diag(<g, p>) over g, the columns of the pairing table
    chars = np.stack([np.diag(t) for t in pairing_table(G).T])
    n_c = c_graded.ambient_dim
    leg2 = np.matmul(lam[:, None], chars[None, :]).reshape(-1, G.order, G.order)
    legs = leg_frames(
        [list(c_graded.ambient.basis) + [np.eye(n_c)], leg2], tol
    )

    degs = c_graded.degree_indices()
    iota_c = pure_coords_stack(legs, [c_graded.ambient.basis, lam[degs]], tol)
    iota_d = pure_coords_stack(legs, [np.eye(n_c), d.ambient.basis], tol)
    xd = build_from_markings(
        c_graded,
        d,
        chi,
        legs,
        iota_c,
        iota_d,
        {"route": "direct", "scenario": "reduced_crossed_product"},
        tol=tol,
    )
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
    rep = _report(
        "reduced_crossed_product",
        {"group": list(G.cycles), "dim_c": c_graded.dim},
        {
            "dim": xd.dim,
            "expected": expected,
            "ambient_direct": xd.ambient_dim,
            "ambient_box": xb.ambient_dim,
        },
        residuals,
        verdicts,
    )
    return ScenarioResult(
        "reduced_crossed_product", {"boxtimes": xb, "direct": xd, "map": pm}, rep
    )


def dual_coaction(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> ScenarioResult:
    """Regrade a reduced crossed product over the dual group, on its tables.

    Family member iota_C(c_i) iota_D(chi_j) has the degree of the
    character chi_j, so degree p is the set of family indices with
    deg chi_j = p.  coact.table_grading validates that grading on
    x.structure and x.star, with the closure certificate x already holds;
    the left coaction lambda_p (x) c_p is applied to coordinate tensors
    and checked by verify_table_coaction; the embedded copy of C must be
    exactly the degree-zero part.  No dense matrix is formed.  Raises
    ValueError when x has no structure table (the dimension law failed).
    """
    G = x.c_graded.group
    reg = regular_bicharacter(G)
    if (
        x.d_graded.group.cycles != dual_group(G).cycles
        or x.chi.exponents != reg.exponents
    ):
        raise ValueError(
            "input must be a reduced crossed product (regular bicharacter over the dual group)"
        )
    if x.structure is None:
        raise ValueError("the dual grading needs the structure tensor (dimension law failed)")
    ghat = x.d_graded.group
    where = {p: k for k, p in enumerate(ghat.elements())}
    deg_d = [where[p] for p, _ in x.d_graded.homogeneous_basis()]
    # the family is i-major: member i * m_d + j has the degree of chi_j
    deg = np.tile(deg_d, x.iota_c.shape[0])
    identity = x.legs.identity(tol)
    graded_hat = table_grading(
        ghat,
        deg,
        x.family.reshape(deg.size, -1),
        x.structure,
        x.star,
        max(x.report["closure_residual"], x.report["adjoint_residual"]),
        identity,
        tol,
    )
    gamma = TableCoaction(graded=graded_hat, model=build_model(ghat), side="left")
    co_rep = verify_table_coaction(gamma, tol)

    degree_zero = graded_hat.basis[deg == where[ghat.zero()]]
    fix = float(
        np.max(residual_outside(x.iota_c.reshape(x.iota_c.shape[0], -1), degree_zero))
    )
    dims = graded_hat.report["component_dims"]
    verdicts = {
        "grading_passed": graded_hat.report["passed"],
        "coaction_passed": co_rep["passed"],
        "fixed_points_match": dims.get(ghat.zero(), 0) == x.c_graded.dim
        and fix <= tol.eps_eq * max(1.0, x.dim),
    }
    rep = _report(
        "dual_coaction",
        {"group": list(G.cycles), "dim": x.dim},
        {_deg(p): k for p, k in dims.items()},
        {
            "fixed_point": fix,
            "comodule": co_rep["comodule_identity"],
            "membership": co_rep["image_in_c_tensor_a"],
        },
        verdicts,
    )
    return ScenarioResult(
        "dual_coaction",
        {"grading": graded_hat, "coaction": gamma, "coaction_report": co_rep},
        rep,
    )


# ---------------------------------------------------------------------------
# cocycle twist comparison


def _table_match(x: CrossedProduct, tol: Tolerance) -> tuple[TwistedProductTable, dict, dict]:
    """(table, residuals, verdicts): x's structure and star tables against
    cocycle_twist_table of its factors, entrywise within eps_eq * max(1, dim)."""
    if x.structure is None:
        raise ValueError("monomial tables need the structure tensor (dimension law failed)")
    table = cocycle_twist_table(x.c_graded, x.d_graded, x.chi, tol)
    thr = tol.eps_eq * max(1.0, table.dim)
    diff_mu = float(np.max(np.abs(x.structure - table.structure)))
    diff_star = float(np.max(np.abs(x.star - table.star)))
    residuals = {
        "structure_diff": diff_mu,
        "star_diff": diff_star,
        "associativity": table.report["associativity"],
        "monomial_expand": max(x.report["structure_residual"], x.report["adjoint_residual"]),
    }
    verdicts = {
        "product_certified": x.report["passed"],
        "structure_match": diff_mu <= thr,
        "star_match": diff_star <= thr,
    }
    return table, residuals, verdicts


def _rieffel_result(x: CrossedProduct, tol: Tolerance) -> ScenarioResult:
    """The rieffel_twist_compare scenario on an already built product."""
    table, residuals, verdicts = _table_match(x, tol)
    verdicts["two_cocycle"] = table.report["associativity"] <= tol.eps_eq
    chi, m = x.chi, table.dim
    rep = _report(
        "rieffel_twist_compare",
        {
            "group_g": list(chi.group_g.cycles),
            "group_h": list(chi.group_h.cycles),
            "bicharacter": [list(r) for r in chi.exponents],
        },
        {"dim": x.dim, "expected": m},
        residuals,
        verdicts,
        structure_constants=sparse_triplets(table.structure) if m <= 36 else None,
    )
    return ScenarioResult(
        "rieffel_twist_compare", {"product": x, "table": table}, rep
    )


def rieffel_twist_compare(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioResult:
    """Match the twisted product against the abstract cocycle table.

    The table twists the tensor product of the factor structure
    constants by the scalar two-cocycle; the scenario certifies that the
    operator product has exactly these constants on the monomial family
    c_i d_j, i.e. that c (x) d -> iota_C(c) iota_D(d) is an isomorphism.
    """
    return _rieffel_result(build_via_heisenberg(c_graded, d_graded, chi, tol=tol), tol)


# ---------------------------------------------------------------------------
# embedding into the tensor product of crossed products


def embed_in_reduced(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioResult:
    """Faithful copy of the twisted product inside two crossed products.

    On carrier(C) (x) l2(G) (x) carrier(D) (x) l2(H) the first factor
    acts through its grading on legs (1,2); the second acts through its
    grading on legs (3,4) conjugated by the bicharacter kernel
    X = sum chi(x,y) P_x (x) Q_y on legs (2,4).  The span of the two
    images is a crossed product equivalent to the abstract one.
    """
    G, H = chi.group_g, chi.group_h
    x1 = build_via_heisenberg(c_graded, d_graded, chi, tol=tol)

    lam_g, lam_h = translations(G), translations(H)
    chars_g = dict(zip(dual_group(G).elements(), map(np.diag, pairing_table(G).T)))
    chars_h = dict(zip(dual_group(H).elements(), map(np.diag, pairing_table(H).T)))
    n_c, n_d = c_graded.ambient_dim, d_graded.ambient_dim
    legs = leg_frames(
        [
            list(c_graded.ambient.basis) + [np.eye(n_c)],
            [lam_g[g] @ chars_g[p] for g in G.elements() for p in dual_group(G).elements()],
            list(d_graded.ambient.basis) + [np.eye(n_d)],
            [lam_h[h] @ chars_h[q] for h in H.elements() for q in dual_group(H).elements()],
        ],
        tol,
    )
    eye_d, eye_h = np.eye(n_d), np.eye(H.order)

    lam_c = np.stack(list(lam_g.values()))[c_graded.degree_indices()]
    iota_c = pure_coords_stack(legs, [c_graded.ambient.basis, lam_c, eye_d, eye_h], tol)

    # the kernel is diagonal: chi(x, y) on every basis vector whose leg 2
    # index is x and leg 4 index is y
    kd = np.broadcast_to(
        chi.value_table()[None, :, None, :], (n_c, G.order, n_d, H.order)
    ).reshape(-1)
    gamma_d = grading_to_coaction(d_graded, side="right")
    head = np.eye(n_c * G.order)

    def emb_d(b):
        dense = np.kron(head, gamma_d.apply(b, tol))
        conj = dense * np.outer(kd.conj(), kd)
        coords, res = matrix_to_coords(conj, legs)
        if res > tol.eps_eq * max(1.0, hs_norm(conj)):
            raise RuntimeError("conjugated image escapes the leg frames")
        return coords

    iota_d = np.stack([emb_d(b) for b in d_graded.ambient.basis])
    xe = build_from_markings(
        c_graded,
        d_graded,
        chi,
        legs,
        iota_c,
        iota_d,
        {"route": "reduced_embedding"},
        tol=tol,
    )
    pm = equivalent(x1, xe, tol)

    verdicts = {
        "embedding_certified": xe.report["passed"],
        "injective": xe.dim == x1.dim,
        "equivalence_found": pm is not None and pm.report["passed"],
    }
    residuals = {
        "embedding_closure": xe.report["closure_residual"],
        "commutation": xe.report["commutation_law"],
    }
    if pm is not None:
        residuals["map_multiplicative"] = pm.report["multiplicative"]
    rep = _report(
        "embed_in_reduced",
        {
            "group_g": list(G.cycles),
            "group_h": list(H.cycles),
            "bicharacter": [list(r) for r in chi.exponents],
        },
        {"image": xe.dim, "expected": x1.dim, "ambient": xe.ambient_dim},
        residuals,
        verdicts,
    )
    return ScenarioResult(
        "embed_in_reduced", {"product": x1, "embedded": xe, "map": pm}, rep
    )


# ---------------------------------------------------------------------------
# cocycle conjugacy through the linking algebra


def _marked_coords(graded: GradedAlgebra, iota: np.ndarray, x, tol: Tolerance) -> np.ndarray:
    """Coordinates of the marked image of an element of the factor."""
    try:
        row = graded.ambient.space.coords_of(x, tol)
    except ValueError as exc:
        raise ValueError("element is not in the marked factor") from exc
    return np.einsum("k,k...->...", row, iota)


def _linking_grading(gamma: CoactionMap, u: np.ndarray, tol: Tolerance) -> GradedAlgebra:
    """Grading of M2(C) whose corners carry gamma and its u-twist.

    On the block (k,l) the coaction image is u^k gamma(x_kl) (u^l)*; the
    off-diagonal blocks tie the two corners together and make the corner
    units equivalent inside the linking algebra.
    """
    c = gamma.graded
    n = c.ambient_dim
    units = []
    for k in range(2):
        for l in range(2):
            e = np.zeros((2, 2), dtype=np.complex128)
            e[k, l] = 1.0
            units.append(e)
    amb = multiplicative_closure(
        [np.kron(e, b) for e in units for b in c.ambient.basis], tol
    )
    ustar = u.conj().T

    def raw(x):
        x = cmatrix(x, 2 * n)
        b = [[x[:n, :n], x[:n, n:]], [x[n:, :n], x[n:, n:]]]
        g = [[gamma.apply(b[k][l], tol) for l in range(2)] for k in range(2)]
        return np.block(
            [
                [g[0][0], g[0][1] @ ustar],
                [u @ g[1][0], u @ g[1][1] @ ustar],
            ]
        )

    return coaction_from_map(amb, raw, c.group, gamma.side, tol).graded


def cocycle_conjugacy(
    gamma: CoactionMap | GradedAlgebra,
    u: np.ndarray | Cocycle | None,
    delta: CoactionMap | GradedAlgebra,
    v: np.ndarray | Cocycle | None,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioResult:
    """Isomorphism between a twisted product and its cocycle-twisted form.

    Both factors may be re-graded by cocycles u, v (None means the
    identity cocycle).  The two crossed products are connected inside
    the twisted product of the linking algebras: conjugation by the
    marked image of the off-diagonal partial isometries maps the (1,1)
    corner family onto the (2,2) corner family, giving an isomorphism
    that is certified multiplicative, star-preserving and bijective on the
    two products' tables (boxtimes._family_map).
    """
    if isinstance(gamma, GradedAlgebra):
        gamma = grading_to_coaction(gamma, side="right")
    if isinstance(delta, GradedAlgebra):
        delta = grading_to_coaction(delta, side="right")
    c_graded, d_graded = gamma.graded, delta.graded

    def cocycle_matrix(coaction, w, name):
        if w is None:
            w = np.eye(coaction.target_dim, dtype=np.complex128)
        if isinstance(w, Cocycle):
            w = w.matrix
        w = cmatrix(w, coaction.target_dim)
        rep = validate_cocycle(coaction, w, tol)
        if not rep["passed"]:
            raise ValueError(f"cocycle invalid for factor {name}: {rep}")
        return w, rep

    u_mat, rep_u = cocycle_matrix(gamma, u, "C")
    v_mat, rep_v = cocycle_matrix(delta, v, "D")

    cu = twist_by_cocycle(gamma, u_mat, tol).graded
    dv = twist_by_cocycle(delta, v_mat, tol).graded
    x1 = build_via_heisenberg(c_graded, d_graded, chi, tol=tol)
    x2 = build_via_heisenberg(cu, dv, chi, tol=tol)

    link_c = _linking_grading(gamma, u_mat, tol)
    link_d = _linking_grading(delta, v_mat, tol)
    legs, ic, idd, _, _ = heisenberg_markings(link_c, link_d, chi, None, tol)

    n, p = c_graded.ambient_dim, d_graded.ambient_dim
    e00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    e11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    e10 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)

    def corner_family(cb, db, block):
        mc = np.stack(
            [_marked_coords(link_c, ic, np.kron(block, b), tol) for b in cb]
        )
        md = np.stack(
            [_marked_coords(link_d, idd, np.kron(block, b), tol) for b in db]
        )
        fam = coords_product_pairs(mc, md, legs)
        return fam.reshape(fam.shape[0] * fam.shape[1], *legs.dims)

    f1 = corner_family(c_graded.ambient.basis, d_graded.ambient.basis, e00)
    f2 = corner_family(cu.ambient.basis, dv.ambient.basis, e11)
    m = f1.shape[0]
    thr = tol.eps_eq * max(1.0, m)

    if x1.structure is None or x2.structure is None:
        raise ValueError("both twisted products must satisfy the dimension law")

    def corner_hom(fam, x):
        # a corner family is aligned with x.family, so it obeys x's tables
        prods = coords_product_pairs(fam, fam, legs)
        stars = np.stack([coords_star(t, legs) for t in fam])
        return table_defect(x.structure, x.star, fam, prods, stars)

    hom2, star2 = corner_hom(f2, x2)

    s_big = coords_product(
        _marked_coords(link_c, ic, np.kron(e10, np.eye(n)), tol),
        _marked_coords(link_d, idd, np.kron(e10, np.eye(p)), tol),
        legs,
    )
    s_star = coords_star(s_big, legs)
    conj = np.stack(
        [
            coords_product(coords_product(s_big, t, legs), s_star, legs)
            for t in f1
        ]
    )
    hom1, star1 = corner_hom(conj, x1)

    p1 = corner_family([np.eye(n)], [np.eye(p)], e00)[0]
    p2 = corner_family([np.eye(n)], [np.eye(p)], e11)[0]
    iso_res = float(
        max(
            np.linalg.norm(coords_product(s_star, s_big, legs) - p1),
            np.linalg.norm(coords_product(s_big, s_star, legs) - p2),
        )
    )

    t_mat, t_res = expand_in_rows(conj.reshape(m, -1), f2.reshape(m, -1))
    transport = float(np.max(t_res))
    rank1 = rank(f1.reshape(m, -1), tol.eps_rank)
    rank2 = rank(f2.reshape(m, -1), tol.eps_rank)

    # f2 is aligned with x2.family, so t_mat is the induced map on the
    # families, certified on the two products' tables
    pm = _family_map(x1, t_mat, x2, True, [], tol)
    bijective = pm is not None
    struct_res = pm.report["multiplicative"] if bijective else float("inf")

    verdicts = {
        "x1_certified": x1.report["passed"],
        "x2_certified": x2.report["passed"],
        "corner1_faithful": rank1 == m,
        "corner2_faithful": rank2 == m,
        "corner1_hom": max(hom1, star1) <= thr,
        "corner2_hom": max(hom2, star2) <= thr,
        "partial_isometry": iso_res <= thr,
        "transport_in_corner": transport <= thr,
        "bijective": bijective,
        "structure_transport": bijective and pm.report["passed"],
    }
    verdicts["iso_found"] = all(verdicts.values())
    rep = _report(
        "cocycle_conjugacy",
        {
            "group_g": list(chi.group_g.cycles),
            "group_h": list(chi.group_h.cycles),
            "bicharacter": [list(r) for r in chi.exponents],
            "u_trivial": u is None,
            "v_trivial": v is None,
        },
        {"dim": x1.dim, "dim_twisted": x2.dim},
        {
            "cocycle_u": rep_u["cocycle_identity"],
            "cocycle_v": rep_v["cocycle_identity"],
            "corner1_hom": hom1,
            "corner1_star": star1,
            "corner2_hom": hom2,
            "corner2_star": star2,
            "partial_isometry": iso_res,
            "transport": transport,
            "structure_transport": struct_res,
        },
        verdicts,
    )
    objects = {
        "x1": x1,
        "x2": x2,
        "matrix": t_mat,
        "linking_c": link_c,
        "linking_d": link_d,
        "twisted_c": cu,
        "twisted_d": dv,
    }
    return ScenarioResult("cocycle_conjugacy", objects, rep)


def inner_coaction_examples(tol: Tolerance = DEFAULT_TOL) -> ScenarioResult:
    """Inner cocycle presets: trivially graded factors twisted by coreps.

    Twisting a trivial grading by a corepresentation unitary gives an
    inner coaction, so the conjugacy scenario identifies the twisted
    product with the plain tensor product; with both factors the matrix
    algebra M2, the common product is certified to be M4.
    """
    G = FinAbGroup((2,))
    chi = Bicharacter(G, G, ((1,),))
    units = [np.zeros((2, 2), dtype=np.complex128) for _ in range(4)]
    for idx, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        units[idx][a, b] = 1.0
    model = build_model(G)
    u = corep_unitary(hilbert_grading(G, [(0,), (1,)]), model)

    # both coactions inner: (M2, trivial) boxtimes (M2, trivial) = M4
    c1 = trivial_grading(G, units, tol)
    d1 = trivial_grading(G, units, tol)
    both = cocycle_conjugacy(c1, u, d1, u, chi, tol)
    x1, x2 = both.objects["x1"], both.objects["x2"]
    tensor_res = tensor_structure_residual(x1, tol)
    center2 = product_center_dim(x2, tol)

    # only the first factor inner: iso to M2 (x) D for the group algebra D
    c2 = trivial_grading(G, units, tol)
    d2 = delta_grading(G, tol)
    left = cocycle_conjugacy(c2, u, d2, None, chi, tol)
    y1 = left.objects["x1"]
    tensor_res_left = tensor_structure_residual(y1, tol)

    thr = tol.eps_eq * max(1.0, x1.dim)
    verdicts = {
        "both_inner_iso": both.passed,
        "untwisted_is_tensor": tensor_res <= thr,
        "twisted_is_m4": center2 == 1 and x2.dim == 16,
        "left_inner_iso": left.passed,
        "left_untwisted_is_tensor": tensor_res_left <= thr,
    }
    rep = _report(
        "inner_coaction_examples",
        {"group": [2]},
        {
            "both_dim": x1.dim,
            "both_center_twisted": center2,
            "left_dim": y1.dim,
        },
        {
            "tensor_structure": tensor_res,
            "tensor_structure_left": tensor_res_left,
            "both_transport": both.report["residuals"]["transport"],
            "left_transport": left.report["residuals"]["transport"],
        },
        verdicts,
        cases=[both.report, left.report],
    )
    return ScenarioResult(
        "inner_coaction_examples", {"both": both, "left": left}, rep
    )


# ---------------------------------------------------------------------------
# graded Hilbert modules inside linking algebras


@dataclass
class GradedHilbertModule:
    """A graded right module realized in the corner of a linking algebra.

    The coefficient algebra sits in the lower-right corner of the
    (rows + cols) ambient, the module in the upper-right rectangle and
    its compacts in the upper-left corner; module axioms are the span
    inclusions of the certified linking grading.
    """

    over: GradedAlgebra
    linking: GradedAlgebra
    e_components: dict
    rows: int
    report: dict = field(default_factory=dict)

    @property
    def cols(self) -> int:
        return self.over.ambient_dim

    @property
    def dim(self) -> int:
        return int(sum(v.shape[0] for v in self.e_components.values()))

    def embed_module(self, rect: np.ndarray) -> np.ndarray:
        n, m = self.rows, self.cols
        out = np.zeros((n + m, n + m), dtype=np.complex128)
        out[:n, n:] = rect
        return out

    def embed_coeff(self, c: np.ndarray) -> np.ndarray:
        n, m = self.rows, self.cols
        out = np.zeros((n + m, n + m), dtype=np.complex128)
        out[n:, n:] = c
        return out

    def module_basis(self) -> list[np.ndarray]:
        return [
            self.embed_module(r)
            for g in sorted(self.e_components)
            for r in self.e_components[g]
        ]

    def coeff_basis(self) -> list[np.ndarray]:
        return [self.embed_coeff(b) for b in self.over.ambient.basis]

    def compact_basis(self) -> list[np.ndarray]:
        n = self.rows
        mats = []
        for g in sorted(self.e_components):
            for r in self.e_components[g]:
                for h in sorted(self.e_components):
                    for s in self.e_components[h]:
                        big = np.zeros(
                            (n + self.cols, n + self.cols), dtype=np.complex128
                        )
                        big[:n, :n] = r @ s.conj().T
                        mats.append(big)
        onb = orthonormal_rows(np.stack([m.reshape(-1) for m in mats]), 1e-9)
        k = onb.shape[0]
        return [onb[i].reshape(n + self.cols, n + self.cols) for i in range(k)]


def graded_module(
    c_graded: GradedAlgebra, e_parts: dict, tol: Tolerance = DEFAULT_TOL
) -> GradedHilbertModule:
    """Validate a degree decomposition of a rectangular module.

    e_parts maps degrees to lists of rows x cols blocks.  The module
    action, inner products and compacts are generated and the whole
    linking picture is certified as one grading; failures raise.
    """
    group = c_graded.group
    cols = c_graded.ambient_dim
    comps: dict = {}
    rows_n = None
    for g, mats in e_parts.items():
        g = group.reduce(g)
        stack = np.stack([np.asarray(m, dtype=np.complex128) for m in mats])
        if stack.ndim != 3 or stack.shape[2] != cols:
            raise ValueError("invalid module gradings: block shapes must be rows x dim(C ambient)")
        if rows_n is None:
            rows_n = stack.shape[1]
        if stack.shape[1] != rows_n:
            raise ValueError("invalid module gradings: inconsistent row count")
        onb = orthonormal_rows(stack.reshape(stack.shape[0], -1), tol.eps_rank)
        if onb.shape[0]:
            comps[g] = onb.reshape(-1, rows_n, cols)
    if not comps:
        raise ValueError("invalid module gradings: no nonzero components")

    # module action and inner products, degree by degree
    act = 0.0
    inner = 0.0
    for g, es in comps.items():
        for h in c_graded.degrees():
            cb = c_graded.component(h).basis
            gh = group.add(g, h)
            tgt = comps.get(gh)
            tgt_rows = (
                tgt.reshape(tgt.shape[0], -1)
                if tgt is not None
                else np.zeros((0, rows_n * cols), dtype=np.complex128)
            )
            prods = np.einsum("iab,jbc->ijac", es, cb).reshape(-1, rows_n * cols)
            act = max(act, float(np.max(residual_outside(prods, tgt_rows), initial=0.0)))
        for h, fs in comps.items():
            diff = group.add(group.neg(g), h)
            grams = np.einsum("iba,jbc->ijac", es.conj(), fs).reshape(-1, cols * cols)
            sub = c_graded.component(diff)
            sub_rows = sub.basis.reshape(sub.dim, -1) if sub.dim else np.zeros(
                (0, cols * cols), dtype=np.complex128
            )
            inner = max(
                inner, float(np.max(residual_outside(grams, sub_rows), initial=0.0))
            )

    total = rows_n + cols

    def emb(block, r0, c0):
        big = np.zeros((total, total), dtype=np.complex128)
        big[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
        return big

    parts: dict = {}
    for g, es in comps.items():
        parts.setdefault(g, []).extend(emb(r, 0, rows_n) for r in es)
        ng = group.neg(g)
        parts.setdefault(ng, []).extend(emb(r.conj().T, rows_n, 0) for r in es)
        for h, fs in comps.items():
            dg = group.add(g, group.neg(h))
            ks = np.einsum("iab,jcb->ijac", es, fs.conj())
            parts.setdefault(dg, []).extend(
                emb(k, 0, 0) for k in ks.reshape(-1, rows_n, rows_n)
            )
    for g in c_graded.degrees():
        parts.setdefault(g, []).extend(
            emb(b, rows_n, rows_n) for b in c_graded.component(g).basis
        )
    linking = graded_algebra(group, parts, tol)

    scale = tol.eps_eq * max(1.0, rows_n + cols)
    ok = (
        act <= scale
        and inner <= scale
        and linking.report["passed"]
        and linking.ambient.contains_identity
    )
    if not ok:
        raise ValueError(
            "invalid module gradings: "
            f"action {act:.2e}, inner {inner:.2e}, "
            f"linking passed {linking.report['passed']}, "
            f"unital {linking.ambient.contains_identity}"
        )
    report = {
        "module_action": float(act),
        "inner_products": float(inner),
        "linking_dim": linking.dim,
        "passed": True,
    }
    return GradedHilbertModule(
        over=c_graded,
        linking=linking,
        e_components=comps,
        rows=rows_n,
        report=report,
    )


def module_boxtimes(
    e_mod: GradedHilbertModule,
    f_mod: GradedHilbertModule,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioResult:
    """Twisted product of two graded modules inside the linking product.

    E box F is the span of iota(E) iota(F) in the twisted product of the
    linking algebras; the scenario certifies the right-module closure
    under iota(C) iota(D), the inner-product containment, the exchange
    identity and that the compacts span iota(K(E)) iota(K(F)).
    """
    x = build_via_heisenberg(e_mod.linking, f_mod.linking, chi, tol=tol)
    legs = x.legs

    def fams(mats_c, mats_d):
        mc = np.stack([x.iota_c_apply(m, tol) for m in mats_c])
        md = np.stack([x.iota_d_apply(m, tol) for m in mats_d])
        fam = coords_product_pairs(mc, md, legs)
        return fam.reshape(fam.shape[0] * fam.shape[1], *legs.dims), mc, md

    ef, me, mf = fams(e_mod.module_basis(), f_mod.module_basis())
    cd, _, _ = fams(e_mod.coeff_basis(), f_mod.coeff_basis())
    k_e, k_f = e_mod.compact_basis(), f_mod.compact_basis()
    kk, _, _ = fams(k_e, k_f)

    def rows(t):
        return t.reshape(t.shape[0], -1)

    onb_ef = orthonormal_rows(rows(ef), tol.eps_rank)
    onb_cd = orthonormal_rows(rows(cd), tol.eps_rank)
    onb_kk = orthonormal_rows(rows(kk), tol.eps_rank)
    ef_star = np.stack([coords_star(t, legs) for t in ef])

    def span_residual(tensors, onb):
        r = rows(tensors)
        return float(np.max(residual_outside(r, onb), initial=0.0))

    prod_efcd = coords_product_pairs(ef, cd, legs)
    closure = span_residual(prod_efcd.reshape(-1, *legs.dims), onb_ef)
    prod_inner = coords_product_pairs(ef_star, ef, legs)
    inner = span_residual(prod_inner.reshape(-1, *legs.dims), onb_cd)
    prod_ke = coords_product_pairs(ef, ef_star, legs).reshape(-1, *legs.dims)
    comp_in_kk = span_residual(prod_ke, onb_kk)
    onb_prod = orthonormal_rows(rows(prod_ke), tol.eps_rank)
    kk_in_comp = span_residual(kk, onb_prod)
    swapped = coords_product_pairs(mf, me, legs).reshape(-1, *legs.dims)
    exch1 = span_residual(swapped, onb_ef)
    onb_sw = orthonormal_rows(rows(swapped), tol.eps_rank)
    exch2 = span_residual(ef, onb_sw)

    dim_ef = onb_ef.shape[0]
    expected = e_mod.dim * f_mod.dim
    thr = tol.eps_eq * max(1.0, ef.shape[0])
    verdicts = {
        "product_certified": x.report["passed"],
        "dim": dim_ef == expected,
        "right_module": closure <= thr,
        "inner_products": inner <= thr,
        "compacts_match": max(comp_in_kk, kk_in_comp) <= thr,
        "exchange": max(exch1, exch2) <= thr,
    }
    rep = _report(
        "module_boxtimes",
        {
            "group_g": list(chi.group_g.cycles),
            "group_h": list(chi.group_h.cycles),
            "bicharacter": [list(r) for r in chi.exponents],
        },
        {
            "e": e_mod.dim,
            "f": f_mod.dim,
            "ef": dim_ef,
            "expected": expected,
            "k_e": len(k_e),
            "k_f": len(k_f),
            "k_ef": onb_prod.shape[0],
            "cd": onb_cd.shape[0],
        },
        {
            "right_module": closure,
            "inner_products": inner,
            "compacts": max(comp_in_kk, kk_in_comp),
            "exchange": max(exch1, exch2),
        },
        verdicts,
    )
    objects = {"product": x, "module_family": ef, "coeff_family": cd}
    return ScenarioResult("module_boxtimes", objects, rep)


def module_composition_example(tol: Tolerance = DEFAULT_TOL) -> ScenarioResult:
    """Interior tensor products compose with the twist, blockwise.

    Two composable module corners are packed into one block-graded
    ambient per side; the identity
    (e1 box f1)(e2 box f2) = chi(deg e2, deg f1)^-1 (e1 e2) box (f1 f2)
    is checked pointwise on homogeneous blocks, and the product span of
    the composed corners matches the corner of the compositions.
    """
    G = FinAbGroup((2,))
    chi = Bicharacter(G, G, ((1,),))
    # blocks (1, 2, 1): module one lives in (0; 1,2), module two in (1,2; 3)
    lc = ad_grading(G, [(0,), (0,), (1,), (0,)], tol)
    ld = ad_grading(G, [(0,), (1,), (0,)], tol)
    legs, ic, idd, _, _ = heisenberg_markings(lc, ld, chi, None, tol)

    def unit(n, i, j):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, j] = 1.0
        return e

    e_one = [((0,), unit(4, 0, 1)), ((1,), unit(4, 0, 2))]
    e_two = [((0,), unit(4, 1, 3)), ((1,), unit(4, 2, 3))]
    f_one = [((1,), unit(3, 0, 1))]
    f_two = [((1,), unit(3, 1, 2))]

    def mk_c(mat):
        return _marked_coords(lc, ic, mat, tol)

    def mk_d(mat):
        return _marked_coords(ld, idd, mat, tol)

    point = 0.0
    lhs_rows = []
    rhs_rows = []
    for ge1, e1 in e_one:
        for gf1, f1 in f_one:
            a = coords_product(mk_c(e1), mk_d(f1), legs)
            for ge2, e2 in e_two:
                for gf2, f2 in f_two:
                    b = coords_product(mk_c(e2), mk_d(f2), legs)
                    lhs = coords_product(a, b, legs)
                    rhs = np.conj(chi.value(ge2, gf1)) * coords_product(
                        mk_c(e1 @ e2), mk_d(f1 @ f2), legs
                    )
                    point = max(point, float(np.linalg.norm(lhs - rhs)))
                    lhs_rows.append(lhs.reshape(-1))
                    rhs_rows.append(rhs.reshape(-1))
    lhs_rows = np.stack(lhs_rows)
    rhs_rows = np.stack(rhs_rows)
    onb_l = orthonormal_rows(lhs_rows, tol.eps_rank)
    onb_r = orthonormal_rows(rhs_rows, tol.eps_rank)
    span1 = float(np.max(residual_outside(lhs_rows, onb_r), initial=0.0))
    span2 = float(np.max(residual_outside(rhs_rows, onb_l), initial=0.0))

    thr = tol.eps_eq * max(1.0, lhs_rows.shape[0])
    verdicts = {
        "pointwise_identity": point <= thr,
        "span_equality": max(span1, span2) <= thr,
    }
    rep = _report(
        "module_composition",
        {"group": [2]},
        {
            "pairs": lhs_rows.shape[0],
            "composed_span": onb_l.shape[0],
        },
        {"pointwise": point, "span": max(span1, span2)},
        verdicts,
    )
    return ScenarioResult("module_composition", {"legs": legs}, rep)


def modules_examples(tol: Tolerance = DEFAULT_TOL) -> ScenarioResult:
    """Module scenarios: trivial, column modules and a composition."""
    G = FinAbGroup((2,))
    chi = Bicharacter(G, G, ((1,),))

    c_delta = delta_grading(G, tol)
    triv_e = graded_module(
        c_delta, {g: list(c_delta.component(g).basis) for g in c_delta.degrees()}, tol
    )
    trivial = module_boxtimes(triv_e, triv_e, chi, tol)
    ef = trivial.objects["module_family"]
    cd = trivial.objects["coeff_family"]
    # the trivial module is generated by the unit vector: its shifted
    # coefficient span must reproduce the whole module family
    xt = trivial.objects["product"]
    unit_block = triv_e.embed_module(np.eye(triv_e.cols))
    xi = coords_product(
        xt.iota_c_apply(unit_block, tol), xt.iota_d_apply(unit_block, tol), xt.legs
    )
    shifted = np.stack([coords_product(xi, t, xt.legs) for t in cd])
    sh_rows = shifted.reshape(shifted.shape[0], -1)
    ef_rows = ef.reshape(ef.shape[0], -1)
    onb_sh = orthonormal_rows(sh_rows, tol.eps_rank)
    onb_ef = orthonormal_rows(ef_rows, tol.eps_rank)
    same = max(
        float(np.max(residual_outside(ef_rows, onb_sh), initial=0.0)),
        float(np.max(residual_outside(sh_rows, onb_ef), initial=0.0)),
    )

    m2 = ad_grading(G, [(0,), (1,)], tol)
    col_e = graded_module(m2, {(0,): [[[1.0, 0.0]]], (1,): [[[0.0, 1.0]]]}, tol)
    col_f = graded_module(m2, {(0,): [[[1.0, 0.0]]], (1,): [[[0.0, 1.0]]]}, tol)
    column = module_boxtimes(col_e, col_f, chi, tol)

    composition = module_composition_example(tol)

    thr = tol.eps_eq * max(1.0, ef.shape[0])
    verdicts = {
        "trivial_passed": trivial.passed,
        "trivial_module_is_algebra": same <= thr,
        "column_passed": column.passed,
        "column_compacts_scalar": column.report["dims"]["k_e"] == 1,
        "composition_passed": composition.passed,
    }
    rep = _report(
        "modules_examples",
        {"group": [2]},
        {
            "trivial_ef": trivial.report["dims"]["ef"],
            "column_ef": column.report["dims"]["ef"],
            "column_k_ef": column.report["dims"]["k_ef"],
        },
        {
            "trivial_vs_algebra": same,
            "column_exchange": column.report["residuals"]["exchange"],
            "composition_pointwise": composition.report["residuals"]["pointwise"],
        },
        verdicts,
        cases=[trivial.report, column.report, composition.report],
    )
    objects = {"trivial": trivial, "column": column, "composition": composition}
    return ScenarioResult("modules_examples", objects, rep)


# ---------------------------------------------------------------------------
# the full per-instance verification battery


def full_verify(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
    pair: "RepPair | None" = None,
    witness: str = "canonical",
) -> ScenarioResult:
    """Run every certification on one instance: coactions, both product
    routes, their equivalence, the dimension law, the dense-span check
    and the cocycle-table comparison.  An explicit Weyl pair replaces
    the canonical witness when given; the cocycle table is compared with
    the Weyl-pair product built for that witness, the only one built."""
    co_c = verify_coaction(grading_to_coaction(c_graded, "right"), tol)
    co_d = verify_coaction(grading_to_coaction(d_graded, "right"), tol)
    if pair is None:
        pair = canonical_heisenberg(chi, tol)
    # build_via_heisenberg checks the pair's Weyl relation once, raises
    # when it fails and reports its residual
    x1 = build_via_heisenberg(c_graded, d_graded, chi, pair, tol=tol, label=witness)
    rep_c = canonical_covariant_rep(c_graded, tol)
    rep_d = canonical_covariant_rep(d_graded, tol)
    x2 = build_via_covariant(rep_c, rep_d, chi, tol)
    pm = equivalent(x1, x2, tol)
    pod_ok, pod_dim = podles_span_check(x1, tol)
    rieffel = _rieffel_result(x1, tol)

    expected = c_graded.dim * d_graded.dim
    verdicts = {
        "coaction_c": co_c["passed"],
        "coaction_d": co_d["passed"],
        "pair": True,
        "heisenberg_route": x1.report["passed"],
        "covariant_route": x2.report["passed"],
        "routes_equivalent": pm is not None and pm.report["passed"],
        "dim_law": x1.dim == expected and x2.dim == expected,
        "podles_span": pod_ok,
        "rieffel_match": rieffel.passed,
    }
    residuals = {
        "pair": x1.report["pair_residual"],
        "heisenberg_closure": x1.report["closure_residual"],
        "covariant_closure": x2.report["closure_residual"],
        "commutation": x1.report["commutation_law"],
        "rieffel_structure": rieffel.report["residuals"]["structure_diff"],
        "rieffel_associativity": rieffel.report["residuals"]["associativity"],
    }
    if pm is not None:
        residuals["route_map"] = pm.report["multiplicative"]
    rep = _report(
        "verify",
        {
            "group_g": list(chi.group_g.cycles),
            "group_h": list(chi.group_h.cycles),
            "bicharacter": [list(r) for r in chi.exponents],
            "dim_c": c_graded.dim,
            "dim_d": d_graded.dim,
            "witness": witness,
        },
        {"dim": x1.dim, "expected": expected, "podles": pod_dim},
        residuals,
        verdicts,
    )
    objects = {"heisenberg": x1, "covariant": x2, "map": pm, "rieffel": rieffel}
    return ScenarioResult("verify", objects, rep)
