"""Twisted tensor products of graded matrix algebras.

The twisted product of C and D along a bicharacter chi is the span of
iota_C(C) iota_D(D), where the two embeddings commute up to chi on
homogeneous elements.  Two constructions are provided: through a
certified Weyl pair on a third tensor leg, and through covariant
representations conjugated by the block-scalar unitary Z, which is held
as its diagonal and applied leg by leg.  Both are certified numerically:
spanning, closure, the exchange law, the commutation law, and
injectivity of the markings.

Operators live on tensor-product carriers and are stored as coordinate
tensors over one orthonormal frame per leg.  Every frame carries
numerically certified product and adjoint tables, so algebra operations
run on small coordinate arrays instead of large ambient matrices; the
worst table residual is part of every report.  Every product and adjoint
table here (frames, factors, a crossed product's structure and star) comes
from matspan.basis_tables / expand_table or is the index arithmetic below,
and is checked by table_defect or its one-term form (OneTerm.distance).

A leg whose generators are already orthonormal up to phase repeats (the
group unitaries lambda_g, the Weyl monomials U_g V_h, the ambient basis
of a graded algebra, which is its homogeneous basis) keeps them as its
frame, unrotated.  Its tables are then usually one term a row,
f_i f_j = c f_k, and are held exactly so, as matspan.OneTerm (index,
value) arrays; when every leg is monomial, products of sparse coordinate
tensors are gathered entry by entry instead of contracted densely.  Each
factor basis element is marked by one pure tensor, so when the legs keep
their generators the family iota_C(c_i) iota_D(d_j) is one-hot and a
crossed product's structure and star tables are one term a row too.

A crossed product is held only in these coordinates: its marked family,
an orthonormal basis of the family's span and the two tables, with no
dense copy of the algebra.  When every leg table is one term a row and
the family rows are one-hot with distinct supports, f_i = v_i e_{s_i}
(the torus and the crossed products of delta gradings), every product
f_i f_j and adjoint f_i* is one (index, value) pair: the family, the
closure certificate, the identity residual and the commutation law are
index arithmetic on the leg tables, and all four are held as OneTerm
arrays (the basis of the span is the unit rows e_{s_i}), formed densely
only when read.  The same arithmetic certifies one-hot markings against
one-term factor tables (_marking_report).  Any other family is certified
densely, one left factor at a time: the m products f_i f_j of each f_i
against the span, so no array of all m^2 products is formed.

A map between crossed products is fixed by a matrix a expanding the
images of the source family in the target family, and is certified on
the two products' structure and star tables alone (_family_map), so no
product is formed; a product without tables has no certified map.  The
map's dense matrix on leg coordinates is formed only when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .abgroup import Bicharacter, FinAbGroup, GroupHom, dual_bicharacter, pullback
from .coact import (
    CovariantRep,
    GradedAlgebra,
    GradedHilbertSpace,
    transport_grading,
)
from .heis import RepPair, canonical_heisenberg, is_heisenberg
from .matspan import (
    DEFAULT_TOL,
    Frame,
    OneTerm,
    Tolerance,
    cmatrix,
    dense_table,
    expand_in_rows,
    expand_table,
    frame,
    orthonormal_rows,
    rank,
    residual_outside,
    subspace_equal,
    table_defect,
)

__all__ = [
    "LegFrames",
    "leg_frames",
    "coords_product",
    "coords_product_pairs",
    "coords_star",
    "coords_to_matrix",
    "matrix_to_coords",
    "pure_coords",
    "pure_coords_stack",
    "GradedMorphism",
    "graded_morphism",
    "morphism_from_pairs",
    "ZUnitary",
    "z_unitary",
    "z_commutation_residual",
    "CrossedProduct",
    "heisenberg_markings",
    "build_from_markings",
    "build_via_heisenberg",
    "build_via_covariant",
    "product_center_dim",
    "ProductMap",
    "equivalent",
    "symmetry",
    "podles_span_check",
    "functor_map",
    "qgr_morphism_reparametrize",
]

# a gathered entry of a monomial product costs about this many
# multiply-adds of the dense contraction (the break-even measured 5 to 200
# on the Z/6 torus legs, 2 cores with OpenBLAS, growing with the batch)
GATHER_COST = 64


# ---------------------------------------------------------------------------
# per-leg coordinate frames


@dataclass
class LegFrames:
    """Orthonormal frames, one per tensor leg, with product/adjoint tables.

    frames[l] holds orthonormal rows spanning a subspace of the l-th leg
    matrices; mult_tables[l] and star_tables[l] are the frame's tables as
    matspan.basis_tables gives them, a OneTerm when one term a row.  These
    are the arrays of the leg's matspan.Frame, read-only (a factor's leg is
    shared with its GradedAlgebra.leg).  mults and stars are the tables'
    dense forms, formed on first read (BudgetError before forming one
    above MAX_DENSE_ENTRIES).  residual is the worst table defect over all
    legs, so coordinate arithmetic is faithful up to this number.
    identity(tol) gives the coordinates of the ambient identity.
    """

    sizes: tuple[int, ...]
    frames: tuple[np.ndarray, ...]
    mult_tables: tuple[OneTerm | np.ndarray, ...]
    star_tables: tuple[OneTerm | np.ndarray, ...]
    residual: float
    _identity: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def legs(self) -> int:
        return len(self.frames)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.frames)

    @property
    def ambient_dim(self) -> int:
        return prod(self.sizes)

    @property
    def monomial(self) -> bool:
        """Whether every product table is one term a row."""
        return all(isinstance(t, OneTerm) for t in self.mult_tables)

    @property
    def one_term(self) -> bool:
        """Whether every product and adjoint table is one term a row: the
        legs on which products and adjoints of one-term coordinate rows are
        index arithmetic (_term_products, _term_stars)."""
        return self.monomial and all(isinstance(t, OneTerm) for t in self.star_tables)

    @functools.cached_property
    def mults(self) -> tuple[np.ndarray, ...]:
        return tuple(dense_table(t) for t in self.mult_tables)

    @functools.cached_property
    def stars(self) -> tuple[np.ndarray, ...]:
        return tuple(dense_table(t) for t in self.star_tables)

    def identity(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """pure_coords of the identity on every leg, formed once per
        tolerance and read-only."""
        if tol not in self._identity:
            one = pure_coords(self, [np.eye(n) for n in self.sizes], tol)
            one.flags.writeable = False
            self._identity[tol] = one
        return self._identity[tol]


def leg_frames(legs, tol: Tolerance = DEFAULT_TOL) -> LegFrames:
    """Certified frames, one per tensor leg.

    An entry of legs is a list of the leg's spanning matrices, whose
    frame matspan.frame builds, or a matspan.Frame already built (a
    factor's GradedAlgebra.leg), taken as it is.  A frame keeps the
    generators, normalised, when it can, else it is an SVD basis; each
    leg's span must be closed under products and adjoints, and the tables
    are one term a row when each row is one term within eps_eq (see
    LegFrames and matspan.frame).
    """
    frames = [leg if isinstance(leg, Frame) else frame(leg, tol) for leg in legs]
    return LegFrames(
        sizes=tuple(f.size for f in frames),
        frames=tuple(f.rows for f in frames),
        mult_tables=tuple(f.mult for f in frames),
        star_tables=tuple(f.star for f in frames),
        residual=max([0.0] + [f.residual for f in frames]),
    )


def _letters(k: int, start: int = 0) -> list[str]:
    return [chr(ord("a") + start + i) for i in range(k)]


def _dress_left(x: np.ndarray, legs: LegFrames) -> np.ndarray:
    # Contract a left-factor tensor into the mult tables leg by leg; the
    # result carries interleaved (right-index, out-index) axis pairs, so
    # every step stays a BLAS-backed tensordot.
    t = x
    for m in legs.mults:
        t = np.tensordot(t, m, axes=([0], [0]))
    return t


def coords_product(x: np.ndarray, y: np.ndarray, legs: LegFrames) -> np.ndarray:
    """Product of two coordinate tensors through the frame tables."""
    return coords_product_pairs(x[None], y[None], legs)[0, 0]


def _gathered_pairs(xs: np.ndarray, ys: np.ndarray, legs: LegFrames) -> np.ndarray:
    # Each pair of non-zero entries x_p, y_q is one term of its row pair's
    # product (_term_products); scatter-add the terms in place (np.add.at
    # sums in pair order, as a bincount would).  The pairs of all left rows
    # go in one scatter, split only when they outnumber the output's entries.
    size = prod(legs.dims)
    m, k = xs.shape[0], ys.shape[0]
    out = np.zeros((m, k) + legs.dims, dtype=np.complex128)
    xs, ys = xs.reshape(m, size), ys.reshape(k, size)
    xa, xp = np.nonzero(xs)
    x_terms = OneTerm(xp, xs[xa, xp].astype(np.complex128, copy=False), size)
    yb, yq = np.nonzero(ys)
    y_terms = OneTerm(yq, ys[yb, yq], size)
    y_base = yb * size
    step = max(1, out.size // max(1, yb.size))
    for start in range(0, xa.size, step):
        block = slice(start, start + step)
        terms = _term_products(x_terms[block, None], y_terms[None, :], legs)
        flat = terms.idx + y_base
        flat += (xa[block] * (k * size))[:, None]
        np.add.at(out.reshape(-1), flat.ravel(), terms.val.ravel())
    return out


def coords_product_pairs(
    xs: np.ndarray, ys: np.ndarray, legs: LegFrames
) -> np.ndarray:
    """All pairwise products: (m, ...) x (k, ...) -> (m, k, ...).

    When every leg table is monomial and the non-zero entries are few
    (nnz(xs) nnz(ys) GATHER_COST below the m k size^2 multiply-adds of the
    dense contraction), each output entry is gathered from the tables and
    scatter-added; otherwise the tables are contracted densely.  Both
    paths compute the same sums.
    """
    r = legs.legs
    if legs.monomial:
        size = prod(legs.dims)
        dense_cost = xs.shape[0] * ys.shape[0] * size * size
        if np.count_nonzero(xs) * np.count_nonzero(ys) * GATHER_COST < dense_cost:
            return _gathered_pairs(xs, ys, legs)
    y_axes = list(range(1, r + 1))
    t_axes = list(range(0, 2 * r, 2))
    out = np.empty(
        (xs.shape[0], ys.shape[0]) + legs.dims, dtype=np.complex128
    )
    for a in range(xs.shape[0]):
        t = _dress_left(xs[a], legs)
        out[a] = np.tensordot(ys, t, axes=(y_axes, t_axes))
    return out


def coords_star(x: np.ndarray, legs: LegFrames) -> np.ndarray:
    """Adjoint of a coordinate tensor through the frame tables."""
    return _star_stack(x[None], legs)[0]


def _star_stack(xs: np.ndarray, legs: LegFrames) -> np.ndarray:
    # Adjoints of a (k, ...) stack: one tensordot per leg over the whole
    # stack; each contracts the leading leg axis and appends its image, so
    # the legs come back in order.
    t = xs.conj()
    for s in legs.stars:
        t = np.tensordot(t, s, axes=([1], [0]))
    return t


def coords_to_matrix(x: np.ndarray, legs: LegFrames) -> np.ndarray:
    """Materialize a coordinate tensor as a dense ambient matrix."""
    r = legs.legs
    sub = _letters(r)
    row_i = _letters(r, r)
    col_i = _letters(r, 2 * r)
    fs = [
        legs.frames[l].reshape(-1, legs.sizes[l], legs.sizes[l]) for l in range(r)
    ]
    terms = ["".join(sub)] + ["".join((sub[l], row_i[l], col_i[l])) for l in range(r)]
    spec = ",".join(terms) + "->" + "".join(row_i) + "".join(col_i)
    n = legs.ambient_dim
    return np.einsum(spec, x, *fs, optimize=True).reshape(n, n)


def matrix_to_coords(m: np.ndarray, legs: LegFrames) -> tuple[np.ndarray, float]:
    """Project an ambient matrix onto frame coordinates; returns residual."""
    r = legs.legs
    n = legs.ambient_dim
    m = cmatrix(m, n)
    sub = _letters(r)
    row_i = _letters(r, r)
    col_i = _letters(r, 2 * r)
    fs = [
        legs.frames[l].conj().reshape(-1, legs.sizes[l], legs.sizes[l])
        for l in range(r)
    ]
    terms = ["".join((sub[l], row_i[l], col_i[l])) for l in range(r)]
    spec = ",".join(terms) + "," + "".join(row_i) + "".join(col_i) + "->" + "".join(sub)
    mt = m.reshape(tuple(legs.sizes) * 2)
    coords = np.einsum(spec, *fs, mt, optimize=True)
    res = float(np.linalg.norm(m - coords_to_matrix(coords, legs)))
    return coords, res


def pure_coords(legs: LegFrames, mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of a pure tensor of per-leg matrices.

    A factor within the bound of a single frame element, c f_k, gets the
    one-hot coordinates c e_k, so monomials stay exactly sparse.  Raises
    if any factor falls outside its leg frame; builders only call this
    with matrices the frames were generated from.
    """
    return pure_coords_stack(legs, mats, tol)[0]


def pure_coords_stack(legs: LegFrames, mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """(N, *legs.dims) coordinates of N pure tensors, one projection a leg.

    mats[l] is one (n_l, n_l) matrix shared by all N tensors or an
    (N, n_l, n_l) stack; N is 1 when every entry is one matrix.  Each
    factor is projected as pure_coords does, the stack in one product.
    """
    if len(mats) != legs.legs:
        raise ValueError("one matrix per leg required")
    vecs = []
    for l, m in enumerate(mats):
        m = np.asarray(m, dtype=np.complex128)
        n = legs.sizes[l]
        if m.shape[-2:] != (n, n) or m.ndim not in (2, 3):
            raise ValueError(f"leg {l} expects {n}x{n} matrices, got shape {m.shape}")
        v = m.reshape(-1, n * n)
        frame = legs.frames[l]
        c = v @ frame.conj().T
        bound = tol.eps_eq * np.maximum(1.0, np.linalg.norm(v, axis=1))
        r = np.arange(v.shape[0])
        k = np.argmax(np.abs(c), axis=1)
        ck = c[r, k]
        one = np.linalg.norm(v - ck[:, None] * frame[k], axis=1) <= bound
        if not one.all():
            rest = np.flatnonzero(~one)
            if np.any(np.linalg.norm(v[rest] - c[rest] @ frame, axis=1) > bound[rest]):
                raise RuntimeError(f"leg {l} matrix is outside its frame span")
            r, k, ck = r[one], k[one], ck[one]
        c[r] = 0.0
        c[r, k] = ck
        vecs.append(c)
    out = vecs[0]
    for v in vecs[1:]:
        out = out[..., None] * v.reshape((v.shape[0],) + (1,) * (out.ndim - 1) + v.shape[1:])
    return out


# ---------------------------------------------------------------------------
# graded morphisms


@dataclass
class GradedMorphism:
    """Equivariant *-morphism between graded algebras, stored by images."""

    source: GradedAlgebra
    target: GradedAlgebra
    images: np.ndarray  # (source dim, n2, n2), aligned with the source basis
    report: dict = field(default_factory=dict)

    def apply(self, c, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        try:
            row = self.source.ambient.space.coords_of(c, tol)
        except ValueError as exc:
            raise ValueError("element is not in the source algebra") from exc
        return np.einsum("i,iab->ab", row, self.images)


def graded_morphism(
    source: GradedAlgebra, target: GradedAlgebra, images, tol: Tolerance = DEFAULT_TOL
) -> GradedMorphism:
    """Build and certify a grading-preserving *-homomorphism.

    images is a callable on matrices or a list aligned with the source
    ambient basis.  The report records homomorphism, star, equivariance
    and containment residuals plus injectivity/surjectivity; nothing is
    raised on failure.
    """
    if source.group != target.group:
        raise ValueError("source and target must be graded over the same group")
    basis = source.ambient.basis
    if callable(images):
        images = [images(b) for b in basis]
    images = np.stack([cmatrix(m, target.ambient_dim) for m in images])
    if images.shape[0] != len(basis):
        raise ValueError("need one image per source basis element")
    mor = GradedMorphism(source=source, target=target, images=images)

    rep: dict = {}
    rep["in_target"] = float(
        max(target.ambient.space.contains_residual(m) for m in images)
    )
    m = len(basis)
    mult, star, _ = source.tables(tol)
    prods = np.matmul(images[:, None], images[None, :])
    adjs = images.conj().transpose(0, 2, 1)
    rep["homomorphism"], rep["star"] = table_defect(mult, star, images, prods, adjs)
    equi = 0.0
    for g in source.degrees():
        tc = target.component(g)
        for mat in source.component(g).basis:
            equi = max(equi, tc.contains_residual(mor.apply(mat, tol)))
    rep["equivariance"] = equi
    r = rank(images.reshape(m, -1), tol.eps_rank)
    rep["injective"] = r == m
    rep["surjective"] = r == target.dim
    s = tol.eps_eq * max(1.0, m)
    rep["passed"] = (
        rep["in_target"] <= s
        and rep["homomorphism"] <= s
        and rep["star"] <= s
        and equi <= s
    )
    mor.report = rep
    return mor


def morphism_from_pairs(
    source: GradedAlgebra, target: GradedAlgebra, pairs, tol: Tolerance = DEFAULT_TOL
) -> GradedMorphism:
    """Linear extension of c_k -> y_k to a certified graded morphism.

    The listed elements must span the source algebra so the extension is
    unique; raises when they do not or when the assignment is linearly
    inconsistent.  Certification of the extension is reported, not raised.
    """
    xs = np.stack([cmatrix(c, source.ambient_dim).reshape(-1) for c, _ in pairs])
    ys = np.stack([cmatrix(y, target.ambient_dim).reshape(-1) for _, y in pairs])
    coords = source.ambient.space.coords()
    coeffs, res = expand_in_rows(xs, coords)
    scale = max(1.0, float(np.max(np.linalg.norm(xs, axis=1))))
    if float(np.max(res)) > tol.eps_eq * scale:
        raise ValueError("pair elements must lie in the source algebra")
    if rank(coeffs, tol.eps_rank) < coords.shape[0]:
        raise ValueError("pairs must span the source algebra")
    sol, *_ = np.linalg.lstsq(coeffs, ys, rcond=None)
    defect = float(np.linalg.norm(coeffs @ sol - ys))
    if defect > tol.eps_eq * max(1.0, float(np.linalg.norm(ys))):
        raise ValueError(f"assignment is not linearly consistent (defect {defect:.2e})")
    n2 = target.ambient_dim
    return graded_morphism(source, target, list(sol.reshape(-1, n2, n2)), tol)


# ---------------------------------------------------------------------------
# the block-scalar unitary Z


@dataclass
class ZUnitary:
    """Block-scalar unitary on K (x) L, held as its diagonal: phases[a, b] =
    conj(chi(deg a, deg b)) on e_a (x) f_b; matrix is the dense Z."""

    phases: np.ndarray  # (nk, nl)
    grading_k: GradedHilbertSpace
    grading_l: GradedHilbertSpace
    chi: Bicharacter
    report: dict = field(default_factory=dict)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.phases.reshape(-1))


def _degree_indices(grading: GradedHilbertSpace) -> np.ndarray:
    return np.array([grading.group.index(g) for g in grading.degrees], dtype=np.intp)


def z_unitary(
    grading_k: GradedHilbertSpace, grading_l: GradedHilbertSpace, chi: Bicharacter
) -> ZUnitary:
    """Z's phases from chi.value_table(); unitary is || |phases|^2 - 1 ||."""
    if grading_k.group != chi.group_g or grading_l.group != chi.group_h:
        raise ValueError("space gradings must match the bicharacter groups")
    table = chi.value_table().conj()
    phases = table[np.ix_(_degree_indices(grading_k), _degree_indices(grading_l))]
    rep = {"unitary": float(np.linalg.norm(np.abs(phases) ** 2 - 1.0))}
    return ZUnitary(phases, grading_k, grading_l, chi, rep)


def z_commutation_residual(z: ZUnitary, pair: RepPair) -> float:
    """Three-leg identity characterizing Z against any Weyl pair.

    On K (x) L (x) (pair space) the corepresentation legs
    U1 = sum_g E_g (x) 1 (x) U_g and U2 = sum_h 1 (x) F_h (x) V_h
    must satisfy U1 U2 (Z (x) 1) = U2 U1.
    """
    if pair.group_g != z.chi.group_g or pair.group_h != z.chi.group_h:
        raise ValueError("pair groups must match the bicharacter")
    nk, nl = z.grading_k.dimension, z.grading_l.dimension
    eye_k, eye_l = np.eye(nk), np.eye(nl)
    eye_s = np.eye(pair.space_dim)
    u1 = sum(
        np.kron(np.kron(z.grading_k.projection(g), eye_l), pair.U[g])
        for g in z.chi.group_g.elements()
    )
    u2 = sum(
        np.kron(np.kron(eye_k, z.grading_l.projection(h)), pair.V[h])
        for h in z.chi.group_h.elements()
    )
    z12 = np.kron(z.matrix, eye_s)
    return float(np.linalg.norm(u1 @ u2 @ z12 - u2 @ u1))


# ---------------------------------------------------------------------------
# the crossed product


@dataclass
class CrossedProduct:
    """A realized twisted product: one algebra with two marked embeddings.

    family_table holds the marked spanning elements iota_C(c_i) iota_D(d_j)
    as rows over the flattened leg coordinates, i-major over the factors'
    homogeneous bases (which are their ambient.basis, see GradedAlgebra);
    onb_table is an orthonormal basis of their span: for a one-hot family
    f_i = v_i e_{s_i} on one-term legs the unit rows e_{s_i} in column
    order (those with |v_i| above the eps_rank cut), else the SVD basis of
    orthonormal_rows.  structure_table[i, j] expands f_i f_j and
    star_table[i] expands f_i* in the family (matspan's expand_table) when
    the family is a basis, else both are None.  Each is a OneTerm when
    one term a row, else a dense array; family (as (m, *legs.dims)
    coordinate tensors), onb, structure and star are the dense forms,
    formed on first read.  The algebra is held only in these family
    coordinates; element_matrix materializes one element when a dense
    matrix is wanted.
    """

    c_graded: GradedAlgebra
    d_graded: GradedAlgebra
    chi: Bicharacter
    legs: LegFrames
    iota_c: np.ndarray
    iota_d: np.ndarray
    family_table: OneTerm | np.ndarray
    onb_table: OneTerm | np.ndarray
    structure_table: OneTerm | np.ndarray | None
    star_table: OneTerm | np.ndarray | None
    provenance: dict
    report: dict

    @functools.cached_property
    def family(self) -> np.ndarray:
        return dense_table(self.family_table).reshape((-1,) + self.legs.dims)

    @functools.cached_property
    def onb(self) -> np.ndarray:
        return dense_table(self.onb_table)

    @functools.cached_property
    def structure(self) -> np.ndarray | None:
        return None if self.structure_table is None else dense_table(self.structure_table)

    @functools.cached_property
    def star(self) -> np.ndarray | None:
        return None if self.star_table is None else dense_table(self.star_table)

    @property
    def dim(self) -> int:
        return self.onb_table.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.legs.ambient_dim

    def iota_c_apply(self, c, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of iota_C(c) for c in the first factor."""
        try:
            row = self.c_graded.ambient.space.coords_of(c, tol)
        except ValueError as exc:
            raise ValueError("element is not in the factor algebra") from exc
        return np.einsum("k,k...->...", row, self.iota_c)

    def iota_d_apply(self, d, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of iota_D(d) for d in the second factor."""
        try:
            row = self.d_graded.ambient.space.coords_of(d, tol)
        except ValueError as exc:
            raise ValueError("element is not in the factor algebra") from exc
        return np.einsum("k,k...->...", row, self.iota_d)

    def element_matrix(self, coords: np.ndarray) -> np.ndarray:
        return coords_to_matrix(coords, self.legs)

    def contains_residual(self, coords: np.ndarray) -> float:
        """Distance of a coordinate tensor from the algebra span."""
        return float(residual_outside(coords.reshape(1, -1), self.onb)[0])


def _term_products(xs: OneTerm, ys: OneTerm, legs: LegFrames) -> OneTerm:
    """Products x y of one-term coordinate rows, broadcast over their shapes.

    Needs one-term product tables (legs.monomial): leg by leg, frame
    elements a and b multiply to mult.val[a, b] times element
    mult.idx[a, b], so each product is one (index, value) pair;
    _gathered_pairs scatters these terms of sparse rows.
    """
    idx, val = 0, xs.val * ys.val
    dims = legs.dims
    for t, a, b in zip(
        legs.mult_tables, np.unravel_index(xs.idx, dims), np.unravel_index(ys.idx, dims)
    ):
        idx = idx * t.width + t.idx[a, b]
        val = val * t.val[a, b]
    return OneTerm(idx, val, xs.width)


def _term_stars(xs: OneTerm, legs: LegFrames) -> OneTerm:
    """Adjoints of one-term coordinate rows on legs.one_term legs."""
    idx, val = 0, xs.val.conj()
    for t, a in zip(legs.star_tables, np.unravel_index(xs.idx, legs.dims)):
        idx = idx * t.width + t.idx[a]
        val = val * t.val[a]
    return OneTerm(idx, val, xs.width)


def _marking_report(
    graded: GradedAlgebra,
    iota: np.ndarray,
    legs: LegFrames,
    tol: Tolerance,
    rows: OneTerm | None = None,
) -> tuple[float, float, bool]:
    """(homomorphism, star, injective) certification of one marking.

    iota[k] is the image of graded's basis element b_k, checked against
    graded's tables; rows is iota as one-term rows when known.  When the
    legs are one-term, the rows are one-hot with distinct supports,
    f_k = v_k e_{s_k}, and the factor's tables are one term a row,
    b_i b_j = c b_k and b_i* = c b_k, then each product f_i f_j and
    adjoint f_i* is one (index, value) pair (_term_products, _term_stars)
    and the table's image is c v_k e_{s_k}, so each row defect is a
    OneTerm.distance, as table_defect would find.  The rows are then
    orthogonal, so the rank is the _kept_units count.  Otherwise the
    products and adjoints are formed and go through table_defect and rank.
    """
    m = iota.shape[0]
    if rows is None:
        rows = OneTerm.of_rows(iota.reshape(m, -1))
    mult, star, _ = graded.tables(tol)
    if (
        legs.one_term
        and rows is not None
        and rows.distinct()
        and isinstance(mult, OneTerm)
        and isinstance(star, OneTerm)
    ):
        prods = _term_products(rows[:, None], rows[None, :], legs)
        want = OneTerm(rows.idx[mult.idx], mult.val * rows.val[mult.idx], rows.width)
        adjs = _term_stars(rows, legs)
        want_adj = OneTerm(rows.idx[star.idx], star.val * rows.val[star.idx], rows.width)
        hom = float(np.max(prods.distance(want), initial=0.0))
        star_res = float(np.max(adjs.distance(want_adj), initial=0.0))
        inj = np.count_nonzero(_kept_units(rows, tol)) == m
        return hom, star_res, bool(inj)
    prods = coords_product_pairs(iota, iota, legs)
    hom, star_res = table_defect(mult, star, iota, prods, _star_stack(iota, legs))
    inj = rank(iota.reshape(m, -1), tol.eps_rank) == m
    return hom, star_res, inj


def _require_factor(graded: GradedAlgebra, group: FinAbGroup, name: str) -> None:
    if graded.group != group:
        raise ValueError(f"factor {name} is graded over the wrong group")
    if not graded.report.get("passed", True):
        raise ValueError(f"factor {name} grading failed validation")
    if not graded.ambient.contains_identity:
        raise ValueError(f"factor {name} must contain its ambient identity")


def _kept_units(rows: OneTerm, tol: Tolerance) -> np.ndarray:
    """Which columns the span of the one-term rows keeps.

    The rows are orthogonal (distinct columns), so their singular values
    are the |values|; a column is kept when orthonormal_rows' eps_rank cut
    would keep its row.
    """
    mags = np.abs(rows.val)
    kept = np.zeros(rows.width, dtype=bool)
    kept[rows.idx[mags > tol.eps_rank * np.max(mags)]] = True
    return kept


def _outside(rows: OneTerm, kept: np.ndarray) -> float:
    """Worst distance of the one-term rows from the kept unit rows."""
    return float(np.max(np.abs(rows.val[~kept[rows.idx]]), initial=0.0))


def _index_certificate(
    fam: OneTerm, rev: OneTerm, legs: LegFrames, tol: Tolerance
) -> tuple[OneTerm, OneTerm | None, OneTerm | None, dict] | None:
    """(onb, structure, star, residuals) of a one-hot family, or None.

    Applies when the legs are one-term and the family rows
    f_i = v_i e_{s_i} and the reversed products are one-hot with distinct
    supports.  Then each product f_i f_j and adjoint f_i* is one
    (index, value) pair (_term_products, _term_stars), and onb is the unit
    rows e_{s_i} (the family's span, cut at eps_rank on |v_i|).  A
    product or adjoint at an index outside onb is at distance |value|
    from the span, else at distance 0 and expanded exactly:
    structure[i, j] = (value / v_k) e_k where s_k is its index.
    """
    if not (legs.one_term and fam.distinct() and rev.distinct()):
        return None
    m = fam.idx.size
    prods = _term_products(fam[:, None], fam[None, :], legs)
    stars = _term_stars(fam, legs)
    kept = _kept_units(fam, tol)
    units = np.flatnonzero(kept)
    onb = OneTerm(units, np.ones(units.size, dtype=np.complex128), fam.width)
    basis = units.size == m
    closure = _outside(prods, kept)
    residuals = {
        "closure_residual": closure,
        "adjoint_residual": _outside(stars, kept),
        # a basis spans what onb spans, so a product's one-term defect is
        # its distance from onb
        "structure_residual": closure if basis else float("inf"),
        "cstar_equality": max(_outside(rev, kept), _outside(fam, _kept_units(rev, tol))),
    }
    if not basis:
        return onb, None, None, residuals
    member = np.full(fam.width, -1, dtype=np.intp)
    member[fam.idx] = np.arange(m)

    def expand(rows: OneTerm) -> OneTerm:
        # the rows val e_idx in the family: val / v_k at the member k on idx
        k = member[rows.idx]
        inside = k >= 0
        return OneTerm(np.where(inside, k, 0), np.where(inside, rows.val / fam.val[k], 0.0), m)

    return onb, expand(prods), expand(stars), residuals


def _dense_certificate(
    family: np.ndarray, rev: np.ndarray, legs: LegFrames, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, dict]:
    """(onb, structure, star, residuals) of any family, from dense rows.

    onb is the SVD basis of the family's span.  The products f_i f_j are
    formed for one left factor f_i at a time, so no (m^2, size) array is
    held; each block of structure rows takes expand_table's exact or
    least-squares path on its own.  adjoint_residual is the larger of the
    adjoints' distance from the span and the star table's defect.
    """
    m = family.shape[0]
    rows = family.reshape(m, -1)
    onb = orthonormal_rows(rows, tol.eps_rank)
    basis = onb.shape[0] == m
    closure = structure_res = 0.0
    blocks = []
    for i in range(m):
        prods = coords_product_pairs(family[i : i + 1], family, legs).reshape(m, -1)
        closure = max(closure, float(np.max(residual_outside(prods, onb))))
        if basis:
            block, _, res = expand_table(prods, rows, tol)
            blocks.append(block)
            structure_res = max(structure_res, res)
    star_rows = np.stack([coords_star(f, legs).reshape(-1) for f in family])
    adjoint = float(np.max(residual_outside(star_rows, onb)))
    star = None
    if basis:
        # the star table's own defect: on expand_table's one-term path it
        # can exceed the adjoints' distance from the span
        star, _, star_res = expand_table(star_rows, rows, tol)
        adjoint = max(adjoint, star_res)
    onb_rev = orthonormal_rows(rev, tol.eps_rank)
    residuals = {
        "closure_residual": closure,
        "adjoint_residual": adjoint,
        "structure_residual": structure_res if basis else float("inf"),
        "cstar_equality": float(
            max(
                np.max(residual_outside(rev, onb), initial=0.0),
                np.max(residual_outside(rows, onb_rev), initial=0.0),
            )
        ),
    }
    if not basis:
        return onb, None, None, residuals
    structure = np.concatenate(blocks).reshape(m, m, m)
    return onb, structure, star, residuals


def _pair_products(xs: np.ndarray, ys: np.ndarray, legs: LegFrames, rows) -> OneTerm | np.ndarray:
    """The products x_a y_b as (a, b) rows of flattened coordinates.

    rows is (xs, ys) as one-term rows, given only on monomial legs: then
    the products are index arithmetic.  Otherwise they are formed by
    coords_product_pairs and held as a OneTerm when one-hot.
    """
    if rows is not None:
        return _term_products(rows[0][:, None], rows[1][None, :], legs)
    out = coords_product_pairs(xs, ys, legs).reshape(xs.shape[0], ys.shape[0], -1)
    terms = OneTerm.of_rows(out)
    return out if terms is None else terms


def _assemble(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    legs: LegFrames,
    iota_c: np.ndarray,
    iota_d: np.ndarray,
    provenance: dict,
    extra_report: dict,
    tol: Tolerance,
) -> CrossedProduct:
    """Shared certification and packaging for both construction routes.

    When both markings are one-term rows on legs with one-term product
    tables, the family iota_C(c_i) iota_D(d_j) and the reversed products
    are index arithmetic (_term_products); otherwise they are formed and
    held one-term when one-hot.  The closure certificate (onb, the
    structure and star tables, and the closure, adjoint, structure and
    C*-equality residuals) comes from _index_certificate when the family
    is one-hot on one-term legs, else from _dense_certificate.  The
    identity residual is read off onb's unit rows when it has them, and
    the commutation law off the one-term family and reversed products
    when they are one-term.
    """
    m_c, m_d = iota_c.shape[0], iota_d.shape[0]
    m = m_c * m_d
    rows_c = OneTerm.of_rows(iota_c.reshape(m_c, -1))
    rows_d = OneTerm.of_rows(iota_d.reshape(m_d, -1))
    index = legs.monomial and rows_c is not None and rows_d is not None
    ab = _pair_products(iota_c, iota_d, legs, (rows_c, rows_d) if index else None)
    rev = _pair_products(iota_d, iota_c, legs, (rows_d, rows_c) if index else None)
    terms = isinstance(ab, OneTerm) and isinstance(rev, OneTerm)
    cert = _index_certificate(ab.reshape(m), rev.reshape(m), legs, tol) if terms else None
    if cert is None:
        family = dense_table(ab).reshape((m,) + legs.dims)
        cert = _dense_certificate(family, dense_table(rev).reshape(m, -1), legs, tol)
    onb, structure, star, residuals = cert
    dim = onb.shape[0]

    rep: dict = dict(extra_report)
    rep["route"] = provenance.get("route")
    rep["ambient_dim"] = legs.ambient_dim
    rep["frame_residual"] = legs.residual
    rep["dim"] = dim
    rep["dim_expected"] = m
    rep["dim_law_ok"] = dim == m
    rep.update(residuals)

    one = legs.identity(tol).reshape(1, -1)
    if isinstance(onb, OneTerm):
        # the distance from unit rows is the norm of the other entries
        outside = np.ones(one.size, dtype=bool)
        outside[onb.idx] = False
        rep["identity_residual"] = float(np.linalg.norm(one[0, outside]))
    else:
        rep["identity_residual"] = float(residual_outside(one, onb)[0])

    hom_c, star_c, inj_c = _marking_report(c_graded, iota_c, legs, tol, rows_c)
    hom_d, star_d, inj_d = _marking_report(d_graded, iota_d, legs, tol, rows_d)
    rep["iota_c_hom"], rep["iota_c_star"], rep["iota_c_injective"] = hom_c, star_c, inj_c
    rep["iota_d_hom"], rep["iota_d_star"], rep["iota_d_injective"] = hom_d, star_d, inj_d

    # commutation law on the homogeneous (= ambient) basis pairs, and its
    # invariant special case (degree position 0 is the zero element)
    deg_c, deg_d = c_graded.degree_indices(), d_graded.degree_indices()
    phase = chi.value_table().conj()[np.ix_(deg_c, deg_d)]
    if terms:
        ba = OneTerm(rev.idx.T, rev.val.T, rev.width)
        comm = ba.distance(OneTerm(ab.idx, phase * ab.val, ab.width))
        plain = ab.distance(ba)
    else:
        fam, ba = dense_table(ab), np.moveaxis(dense_table(rev), 0, 1)
        comm = np.linalg.norm(ba - phase[..., None] * fam, axis=-1)
        plain = np.linalg.norm(fam - ba, axis=-1)
    inv_mask = np.zeros(plain.shape, dtype=bool)
    inv_mask[deg_c == 0, :] = True
    inv_mask[:, deg_d == 0] = True
    rep["commutation_law"] = comm = float(np.max(comm))
    rep["invariant_commutators"] = inv_comm = float(np.max(plain[inv_mask], initial=0.0))

    scale = tol.eps_eq * max(1.0, m)
    rep["passed"] = (
        rep["dim_law_ok"]
        and rep["frame_residual"] <= scale
        and rep["closure_residual"] <= scale
        and rep["adjoint_residual"] <= scale
        and rep["cstar_equality"] <= scale
        and rep["identity_residual"] <= scale
        and max(hom_c, star_c, hom_d, star_d) <= scale
        and inj_c
        and inj_d
        and comm <= scale
        and inv_comm <= scale
    )
    return CrossedProduct(
        c_graded=c_graded,
        d_graded=d_graded,
        chi=chi,
        legs=legs,
        iota_c=iota_c,
        iota_d=iota_d,
        family_table=ab.reshape(m) if isinstance(ab, OneTerm) else ab.reshape(m, -1),
        onb_table=onb,
        structure_table=structure,
        star_table=star,
        provenance=provenance,
        report=rep,
    )


def heisenberg_markings(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    pair: RepPair | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[LegFrames, np.ndarray, np.ndarray, RepPair, float]:
    """Leg frames and marked embeddings of the three-leg realization.

    Homogeneous c of degree g embeds as c (x) 1 (x) U_g and homogeneous
    d of degree h as 1 (x) d (x) V_h; the pair is re-certified before
    use.  The factor legs are the factors' own GradedAlgebra.leg, formed
    once per algebra and tolerance, so only the Weyl leg is built here.
    Returns (legs, iota_c, iota_d, pair, pair_residual) without
    assembling or certifying the product algebra.
    """
    _require_factor(c_graded, chi.group_g, "C")
    _require_factor(d_graded, chi.group_h, "D")
    if pair is None:
        pair = canonical_heisenberg(chi, tol)
    ok, res = is_heisenberg(pair, chi, tol)
    if not ok:
        raise ValueError(f"pair fails the Weyl relation (residual {res:.2e})")

    G, H = chi.group_g, chi.group_h
    n_c, n_d = c_graded.ambient_dim, d_graded.ambient_dim
    us = np.stack([pair.U[g] for g in G.elements()])
    vs = np.stack([pair.V[h] for h in H.elements()])
    # the Weyl monomials U_g V_h, g-major, in one batched product
    t_mats = np.matmul(us[:, None], vs[None, :]).reshape(-1, *us.shape[1:])
    eye_c, eye_d = np.eye(n_c), np.eye(n_d)
    c_basis, d_basis = c_graded.ambient.basis, d_graded.ambient.basis
    legs = leg_frames([c_graded.leg(tol), d_graded.leg(tol), t_mats], tol)
    # one pure tensor per ambient (= homogeneous) row, placed on the Weyl
    # leg by its degree, one projection a leg for the whole stack
    iota_c = pure_coords_stack(legs, [c_basis, eye_d, us[c_graded.degree_indices()]], tol)
    iota_d = pure_coords_stack(legs, [eye_c, d_basis, vs[d_graded.degree_indices()]], tol)
    return legs, iota_c, iota_d, pair, res


def build_from_markings(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    legs: LegFrames,
    iota_c: np.ndarray,
    iota_d: np.ndarray,
    provenance: dict | None = None,
    extra_report: dict | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> CrossedProduct:
    """Assemble and certify a crossed product from explicit markings."""
    return _assemble(
        c_graded,
        d_graded,
        chi,
        legs,
        iota_c,
        iota_d,
        provenance or {"route": "markings"},
        extra_report or {},
        tol,
    )


def build_via_heisenberg(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    pair: RepPair | None = None,
    tol: Tolerance = DEFAULT_TOL,
    label: str = "canonical",
) -> CrossedProduct:
    """Twisted product through a Weyl pair on a third tensor leg.

    The pair witness is recorded in the provenance; the assembled
    algebra carries the full certification report.
    """
    legs, iota_c, iota_d, pair, res = heisenberg_markings(
        c_graded, d_graded, chi, pair, tol
    )
    provenance = {
        "route": "heisenberg",
        "witness": label,
        "pair_space_dim": pair.space_dim,
    }
    return _assemble(
        c_graded,
        d_graded,
        chi,
        legs,
        iota_c,
        iota_d,
        provenance,
        {"pair_residual": res},
        tol,
    )


def product_center_dim(x: CrossedProduct, tol: Tolerance = DEFAULT_TOL) -> int:
    """Center dimension computed on the structure tensor.

    Works in family coordinates, so it stays cheap on large ambients;
    requires the marked family to be a basis (the dimension law).  The
    center is the left null space of the (m, m^2) commutator tensor b,
    b[i, (j, k)] = structure[i, j, k] - structure[j, i, k].  When each of
    its columns has at most one non-zero entry, its rows have disjoint
    supports and its singular values are exactly the row norms; otherwise
    they come from an SVD.  On a one-term structure table whose f_i f_j
    and f_j f_i share their index (the one-hot families of
    _index_certificate), b[i, j] is (val[i, j] - val[j, i]) e_{idx[i, j]},
    so the rule reads the m^2 (index, value) pairs.
    """
    t = x.structure_table
    if t is None:
        raise ValueError("center needs the structure tensor (dimension law failed)")
    s = None
    if isinstance(t, OneTerm) and np.array_equal(t.idx, t.idx.T):
        m = t.idx.shape[0]
        diff = t.val - t.val.T
        cols = (np.arange(m) * m + t.idx)[diff != 0]
        if np.unique(cols).size == cols.size:
            s = np.linalg.norm(diff, axis=1)
    if s is None:
        m = x.structure.shape[0]
        b = (x.structure - x.structure.transpose(1, 0, 2)).reshape(m, m * m)
        if np.all(np.count_nonzero(b, axis=0) <= 1):
            s = np.linalg.norm(b, axis=1)
        else:
            s = np.linalg.svd(b, compute_uv=False)
    # the family is orthonormal, so the tensor is O(1); the floor keeps a
    # numerically-zero commutator tensor from inflating the rank
    cutoff = tol.eps_rank * max(1.0, float(np.max(s, initial=0.0)))
    return m - int(np.sum(s > cutoff))


def build_via_covariant(
    cov_c: CovariantRep,
    cov_d: CovariantRep,
    chi: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> CrossedProduct:
    """Twisted product through covariant representations and Z.

    The first factor acts as phi(c) (x) 1; the second is conjugated,
    d |-> Z (1 (x) psi(d)) Z*, with Z the block-scalar unitary attached
    to the space gradings and chi.  Z is diagonal, so for any y on L
    Z (1 (x) y) Z* = sum_k Phi_k (x) y_k, Phi_k = sum_g conj(chi(g,k)) E_g,
    with y_k the entries of y of row degree minus column degree k.  Terms
    with equal Phi_k are summed; each non-zero term is projected leg by leg
    by pure_coords, which certifies its leg membership.  No dense Z or
    conjugated image is formed.
    """
    for cov, name in ((cov_c, "C"), (cov_d, "D")):
        if not cov.report.get("passed", False) or not cov.report.get("faithful", False):
            raise ValueError(f"covariant representation for {name} must be faithful")
    _require_factor(cov_c.graded, chi.group_g, "C")
    _require_factor(cov_d.graded, chi.group_h, "D")

    H = chi.group_h
    z = z_unitary(cov_c.grading, cov_d.grading, chi)
    eye_k, eye_l = np.eye(cov_c.carrier_dim), np.eye(cov_d.carrier_dim)
    # first-leg phases Phi_k, diagonal over K: conj(chi(deg a, k))
    table = chi.value_table().conj()[_degree_indices(cov_c.grading)]
    phases = [np.diag(t) for t in table.T]
    leg1 = [img @ phi for img in cov_c.images for phi in phases]
    legs = leg_frames([leg1 + [eye_k], list(cov_d.images) + [eye_l]], tol)

    iota_c = pure_coords_stack(legs, [cov_c.images, eye_l], tol)
    # shift[b, b'] is the first k in H.elements() whose Phi_k equals that of
    # deg b - deg b'
    _, first, same = np.unique(table, axis=1, return_index=True, return_inverse=True)
    els, deg_l = H.elements(), _degree_indices(cov_d.grading)
    diff = np.array([[H.index(H.add(h, H.neg(h2))) for h2 in els] for h in els])
    shift = first[same][diff[np.ix_(deg_l, deg_l)]]
    iota_d = np.zeros((len(cov_d.images),) + legs.dims, dtype=np.complex128)
    for j, img in enumerate(cov_d.images):
        for k in np.unique(shift[img != 0]):
            iota_d[j] += pure_coords(legs, [phases[k], np.where(shift == k, img, 0.0)], tol)
    provenance = {"route": "covariant", "witness": "Z-conjugated"}
    return _assemble(
        cov_c.graded,
        cov_d.graded,
        chi,
        legs,
        iota_c,
        iota_d,
        provenance,
        {"z_unitary": z.report["unitary"]},
        tol,
    )


# ---------------------------------------------------------------------------
# maps between crossed products


@dataclass
class ProductMap:
    """Linear map between crossed products fixed by the marked families.

    coef maps coordinates in source.onb to coordinates in target.onb;
    matrix, the map on flattened leg coordinates, source.onb* coef
    target.onb, is formed on first read.
    """

    source: CrossedProduct
    target: CrossedProduct
    coef: np.ndarray
    report: dict = field(default_factory=dict)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.source.onb.conj().T @ self.coef @ self.target.onb

    def apply_coords(self, x: np.ndarray) -> np.ndarray:
        out = x.reshape(-1) @ self.matrix
        return out.reshape(self.target.legs.dims)

    def apply_matrix(self, m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        coords, res = matrix_to_coords(m, self.source.legs)
        if res > tol.eps_eq * max(1.0, float(np.linalg.norm(np.asarray(m)))):
            raise ValueError("matrix is not in the source ambient frame")
        return coords_to_matrix(self.apply_coords(coords), self.target.legs)


def _onb_coords(x: CrossedProduct) -> np.ndarray:
    """x's family rows in x's orthonormal basis: f = w @ x.onb."""
    m = x.family.shape[0]
    return x.family.reshape(m, -1) @ x.onb.conj().T


def _family_map(
    src: CrossedProduct,
    a: np.ndarray,
    target: CrossedProduct,
    require_bijective: bool,
    markings,
    tol: Tolerance,
    expansion: float = 0.0,
) -> ProductMap | None:
    """Certify f_k -> g_k = sum_l a[k, l] t_l on the two products' tables.

    f and t are the source and target families, both bases, so a fixes a
    linear map phi.  None when either product has no tables (its dimension
    law failed), or when a bijection is required and a is not square and
    invertible.  With w = t @ target.onb*, the images a w, their products
    ((a (x) a) T) w and their adjoints (conj(a) tau) w, for T and tau the
    target's tables, go through table_defect against the source's tables:
    no product is formed, and as onb is orthonormal each defect is a
    Frobenius norm.  The slack ||phi|| r_S + |a|^k r_T is added, with r the
    products' structure_residual (multiplicative, k = 2) or
    adjoint_residual (star, k = 1), ||phi|| the operator norm and |a| the
    largest l1 norm of a row of a.  So each value bounds the dense residual
    ||phi(f_i f_j) - g_i g_j|| or ||phi(f_i*) - g_i*|| from above, as long
    as r bounds each table row's defect, which both residuals do.  markings
    is the worst ||phi(v1) - v2||, with phi(v1) = ((v1 src.onb*) coef)
    target.onb, so the map's (source x target) matrix is not formed;
    alignment is the worst ||phi(f_k) - g_k||, or the caller's expansion
    residual when larger.

    With scale = max(1, largest row norm of f or of the images) and m the
    source family size, the bounds are s = eps_eq * scale * max(1, m) for
    the star, markings and alignment residuals and s * scale for the
    multiplicative one: products scale as the square of the family norms.
    """
    if src.structure is None or target.structure is None:
        return None
    m, mt = a.shape
    w, c1 = _onb_coords(target), _onb_coords(src)
    images = a @ w
    if require_bijective and (m != mt or rank(images, tol.eps_rank) < m):
        return None
    # f = c1 @ src.onb is sent to images @ target.onb
    coef = np.linalg.solve(c1, images)
    prods = np.matmul(a, (a @ target.structure.reshape(mt, -1)).reshape(m, mt, mt)) @ w
    hom, star = table_defect(src.structure, src.star, images, prods, (a.conj() @ target.star) @ w)
    phi, row_l1 = float(np.linalg.norm(coef, 2)), float(np.max(np.sum(np.abs(a), axis=1)))
    r1, r2 = src.report, target.report
    rep: dict = {
        "multiplicative": hom
        + phi * r1["structure_residual"]
        + row_l1**2 * r2["structure_residual"],
        "star": star + phi * r1["adjoint_residual"] + row_l1 * r2["adjoint_residual"],
    }
    mark = 0.0
    src_h = src.onb.conj().T
    for v1, v2 in markings:
        img = ((v1.reshape(-1) @ src_h) @ coef) @ target.onb
        mark = max(mark, float(np.linalg.norm(img - v2.reshape(-1))))
    rep["markings"] = mark
    rep["alignment"] = max(float(np.max(np.linalg.norm(c1 @ coef - images, axis=1))), expansion)
    scale = max(
        1.0,
        float(np.max(np.linalg.norm(src.family.reshape(m, -1), axis=1))),
        float(np.max(np.linalg.norm(images, axis=1))),
    )
    s = tol.eps_eq * scale * max(1.0, m)
    rep["passed"] = (
        rep["multiplicative"] <= s * scale
        and rep["star"] <= s
        and mark <= s
        and rep["alignment"] <= s
    )
    return ProductMap(source=src, target=target, coef=coef, report=rep)


def _check_same_factors(x1: CrossedProduct, x2: CrossedProduct, tol: Tolerance):
    for a, b, name in (
        (x1.c_graded, x2.c_graded, "C"),
        (x1.d_graded, x2.d_graded, "D"),
    ):
        if a is b:
            continue
        if a.group != b.group or not subspace_equal(
            a.ambient.space, b.ambient.space, tol
        ):
            raise ValueError(f"crossed products do not share factor {name}")


def _factor_coords(target: CrossedProduct, c_mats, d_mats, tol: Tolerance) -> np.ndarray:
    """P (x) Q, expanding iota_C(c_i) iota_D(d_j) in target's (i-major) family:
    the coordinates of c_i and d_j in target's factor bases, which coords_of
    raises outside of."""
    p = np.stack([target.c_graded.ambient.space.coords_of(c, tol) for c in c_mats])
    q = np.stack([target.d_graded.ambient.space.coords_of(d, tol) for d in d_mats])
    return np.kron(p, q)


def _marking_pairs(src: CrossedProduct, target: CrossedProduct, tol: Tolerance):
    pairs = []
    for i, c in enumerate(src.c_graded.ambient.basis):
        pairs.append((src.iota_c[i], target.iota_c_apply(c, tol)))
    for j, d in enumerate(src.d_graded.ambient.basis):
        pairs.append((src.iota_d[j], target.iota_d_apply(d, tol)))
    return pairs


def equivalent(
    x1: CrossedProduct, x2: CrossedProduct, tol: Tolerance = DEFAULT_TOL
) -> ProductMap | None:
    """Equivalence of crossed products over the same factors, or None.

    The map is pinned on the marked families iota_C(c_i) iota_D(d_j) and
    certified on the two products' tables to be a *-isomorphism
    intertwining both markings (None when either has no tables).
    Different witnesses or routes for the same construction are
    equivalent exactly by this check.
    """
    _check_same_factors(x1, x2, tol)
    a = _factor_coords(x2, x1.c_graded.ambient.basis, x1.d_graded.ambient.basis, tol)
    pm = _family_map(x1, a, x2, True, _marking_pairs(x1, x2, tol), tol)
    if pm is not None and not pm.report["passed"]:
        return None
    return pm


def symmetry(
    x: CrossedProduct, tol: Tolerance = DEFAULT_TOL
) -> tuple[CrossedProduct, ProductMap]:
    """The flipped product over the dual bicharacter, with the equivalence.

    Builds D boxtimes C for the dual bicharacter and certifies the map
    sending iota_C(c) iota_D(d) to the same monomial read in the flipped
    product (C now enters through the second marking), expanded in y's
    family; the expansion residual joins the alignment.
    """
    chi_hat = dual_bicharacter(x.chi)
    y = build_via_heisenberg(x.d_graded, x.c_graded, chi_hat, tol=tol)
    # y marks the same factor bases, C second: y.iota_d[i] is C's b_i
    m = x.family.shape[0]
    reversed_pairs = coords_product_pairs(y.iota_d, y.iota_c, y.legs).reshape(m, -1)
    a, _, res = expand_table(reversed_pairs, y.family.reshape(m, -1), tol)
    markings = list(zip(x.iota_c, y.iota_d)) + list(zip(x.iota_d, y.iota_c))
    pm = _family_map(x, a, y, True, markings, tol, res)
    if pm is None or not pm.report["passed"]:
        raise RuntimeError("symmetry equivalence certification failed")
    return y, pm


def podles_span_check(
    x: CrossedProduct, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, int]:
    """Dimension of (C boxtimes D) (1 (x) 1 (x) M_K) on the witness leg.

    Returns (ok, dim) where ok means the span saturates
    dim C * dim D * K^2, the finite form of absorbing the witness-leg
    compacts.  Only meaningful for the three-leg Heisenberg form.
    """
    if x.provenance.get("route") != "heisenberg":
        raise ValueError("Podles span check needs the three-leg Heisenberg form")
    d3 = x.legs.dims[2]
    k = x.legs.sizes[2]
    f3 = x.legs.frames[2].reshape(d3, k, k)
    # family with the witness leg materialized: (m, d1, d2, k, k)
    y = np.einsum("mabt,tij->mabij", x.family, f3)
    # right multiplication by E_pq selects column p and is free in q,
    # so the span factors as (span of columns) (x) C^k
    cols = y.transpose(0, 4, 1, 2, 3).reshape(-1, x.legs.dims[0] * x.legs.dims[1] * k)
    dim = rank(cols, tol.eps_rank) * k
    expected = x.c_graded.dim * x.d_graded.dim * k * k
    return dim == expected, dim


def functor_map(
    f: GradedMorphism,
    g: GradedMorphism,
    x1: CrossedProduct,
    x2: CrossedProduct,
    tol: Tolerance = DEFAULT_TOL,
) -> ProductMap:
    """The induced map sending iota(c) iota(d) to iota(f(c)) iota(g(d)).

    Requires both inputs to be certified equivariant *-homomorphisms
    matching the factor algebras, and both products to hold their tables
    (raises ValueError otherwise); both families are then bases, so the
    assignment is well defined.  The report records whether injectivity
    and surjectivity match those of f and g.
    """
    for mor, src, dst, name in (
        (f, x1.c_graded, x2.c_graded, "f"),
        (g, x1.d_graded, x2.d_graded, "g"),
    ):
        if not mor.report.get("passed", False):
            raise ValueError(f"{name} is not a certified equivariant morphism")
        if mor.source.group != src.group or not subspace_equal(
            mor.source.ambient.space, src.ambient.space, tol
        ):
            raise ValueError(f"{name} does not start at the first product's factor")
        if mor.target.group != dst.group or not subspace_equal(
            mor.target.ambient.space, dst.ambient.space, tol
        ):
            raise ValueError(f"{name} does not land in the second product's factor")
    if x1.structure is None or x2.structure is None:
        raise ValueError("the induced map needs both structure tensors (dimension law failed)")

    c_imgs = [f.apply(c, tol) for c in x1.c_graded.ambient.basis]
    d_imgs = [g.apply(d, tol) for d in x1.d_graded.ambient.basis]
    a = _factor_coords(x2, c_imgs, d_imgs, tol)
    pm = _family_map(x1, a, x2, False, [], tol)
    rank2 = rank(a @ _onb_coords(x2), tol.eps_rank)
    pm.report["injective"] = rank2 == x1.dim
    pm.report["surjective"] = rank2 == x2.dim
    pm.report["injectivity_matches"] = pm.report["injective"] == (
        f.report["injective"] and g.report["injective"]
    )
    pm.report["surjectivity_matches"] = pm.report["surjective"] == (
        f.report["surjective"] and g.report["surjective"]
    )
    return pm


def qgr_morphism_reparametrize(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    f: GroupHom,
    g: GroupHom,
    chi2: Bicharacter,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[CrossedProduct, CrossedProduct, ProductMap | None]:
    """Compare the pullback twist with the regraded twist.

    Builds C boxtimes D along pullback(chi2, f, g) and the transported
    gradings boxtimes chi2, then aligns the monomial families; the two
    are equivalent, and the certified map is returned (None only if the
    certification fails or either product has no tables).
    """
    if f.source != c_graded.group or g.source != d_graded.group:
        raise ValueError("homs must start at the grading groups")
    if chi2.group_g != f.target or chi2.group_h != g.target:
        raise ValueError("bicharacter must live on the hom targets")
    chi = pullback(chi2, f, g)
    xa = build_via_heisenberg(c_graded, d_graded, chi, tol=tol)
    c2 = transport_grading(c_graded, f, tol)
    d2 = transport_grading(d_graded, g, tol)
    xb = build_via_heisenberg(c2, d2, chi2, tol=tol, label="canonical-regraded")
    a = _factor_coords(xb, c_graded.ambient.basis, d_graded.ambient.basis, tol)
    pm = _family_map(xa, a, xb, True, _marking_pairs(xa, xb, tol), tol)
    if pm is not None and not pm.report["passed"]:
        pm = None
    return xa, xb, pm
