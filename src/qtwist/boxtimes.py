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
from matspan.basis_tables or matspan.expand_rows and is checked by
table_defect.

A leg whose generators are already orthonormal up to phase repeats (the
group unitaries lambda_g, the Weyl monomials U_g V_h, the ambient basis
of a graded algebra, which is its homogeneous basis) keeps them as its
frame, unrotated.  Its tables are then usually one term a row,
f_i f_j = c f_k, and are held exactly so, as matspan.OneTerm (index,
value) arrays; when every leg is monomial, products of sparse coordinate
tensors are gathered entry by entry instead of contracted densely.  Each
factor basis element is marked by one pure tensor, so when the legs keep
their generators the markings are one-hot, held as one-term rows, and the
family iota_C(c_i) iota_D(d_j) is one-hot and a crossed product's
structure and star tables are one term a row too.

A triple of held frames (the factors' GradedAlgebra.leg, a regular
pair's leg) gives one held LegFrames per tolerance (leg_frames), with the
flat kernel tables on which a product or adjoint of one-term rows is one
gather a leg; every product built on the same legs shares it.

A crossed product is held only in these coordinates, as tables of rows:
its markings, its marked family, an orthonormal basis of the family's
span and the structure and star tables, with no dense copy of the
algebra.  Products and adjoints of rows are _products and _stars, index
arithmetic on one-term rows over one-term leg tables, else formed
densely.  Everything else (the closure certificate, the marking reports,
the identity residual, the commutation law and the maps between crossed
products: equivalence, symmetry, functoriality, regrading) is written
once on matspan's table operations (compose, row_distance, row_span,
project, expand_rows, solve, rank, op_norm), each of which keeps
one-term tables one-term and takes dense ones densely.  So a one-hot
family on one-term legs is certified on (index, value) arrays, its basis
being the unit rows e_{s_i}, and any other family densely, one left
factor at a time, with no array of all m^2 products.  A map between
crossed products is fixed by a matrix a expanding the images of the
source family in the target family and is certified on the two
products' tables (_family_map), so no product is formed; its dense
matrix on leg coordinates is formed only when read.
"""

from __future__ import annotations

import functools
import weakref
from collections import OrderedDict
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
    compose,
    concat_rows,
    dense_table,
    expand_in_rows,
    expand_rows,
    frame,
    frame_coords,
    op_norm,
    project,
    rank,
    read_only,
    row_blocks,
    row_distance,
    row_norms,
    row_span,
    row_table,
    solve,
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


@dataclass(frozen=True)
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

    A coordinate row is flattened over the legs, index i the raveled leg
    indices (a_0, ..., a_{r-1}).  On one-term legs, flat_mult and
    flat_star hold the kernel tables of _term_products and _term_stars,
    formed on first read: per leg, the digit a_l of every flattened index
    and the table raveled, so that a product or adjoint of one-term rows
    is one 1-D gather a leg.  Every array is read-only, and dims and the
    kernel tables are held, so one LegFrames serves every product built on
    its legs (leg_frames holds one per triple of held frames).
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

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.frames)

    @property
    def ambient_dim(self) -> int:
        return prod(self.sizes)

    @functools.cached_property
    def monomial(self) -> bool:
        """Whether every product table is one term a row."""
        return all(isinstance(t, OneTerm) for t in self.mult_tables)

    @functools.cached_property
    def one_term(self) -> bool:
        """Whether every product and adjoint table is one term a row: the
        legs on which products and adjoints of one-term coordinate rows are
        index arithmetic (_term_products, _term_stars)."""
        return self.monomial and all(isinstance(t, OneTerm) for t in self.star_tables)

    @functools.cached_property
    def mults(self) -> tuple[np.ndarray, ...]:
        out = tuple(dense_table(t) for t in self.mult_tables)
        read_only(*out)
        return out

    @functools.cached_property
    def stars(self) -> tuple[np.ndarray, ...]:
        out = tuple(dense_table(t) for t in self.star_tables)
        read_only(*out)
        return out

    @functools.cached_property
    def _digits(self) -> np.ndarray:
        """(prod(dims), legs): row i holds the leg indices of flattened
        index i, np.unravel_index's digits."""
        out = np.stack(np.unravel_index(np.arange(prod(self.dims)), self.dims), axis=-1)
        read_only(out)
        return out

    @functools.cached_property
    def flat_mult(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(left, right, idx, val): the mult tables of legs.monomial legs,
        raveled and joined.  Frame elements a and b of leg l multiply to
        val[k] times element idx[k] / stride_l at k = left[i, l] +
        right[j, l], for flattened indices i and j whose leg-l digits are
        a and b: left holds offset_l + a d_l, right holds b, and idx is
        scaled by the leg's stride in the flattened index (the product of
        the later dims), so the indices of the legs add up."""
        return _flat_tables(self.mult_tables, self.dims, self._digits, square=True)

    @functools.cached_property
    def flat_star(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, idx, val): the star tables of legs.one_term legs, raveled
        and joined as flat_mult's are; frame element a of leg l has adjoint
        val[k] times element idx[k] / stride_l at k = keys[i, l] for a
        flattened index i whose leg-l digit is a."""
        return _flat_tables(self.star_tables, self.dims, self._digits, square=False)

    def identity(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """pure_coords of the identity on every leg, formed once per
        tolerance and read-only (leg_frames forms it from the frames'
        identity rows)."""
        if tol not in self._identity:
            one = pure_coords(self, [np.eye(n) for n in self.sizes], tol)
            one.flags.writeable = False
            self._identity[tol] = one
        return self._identity[tol]


def _flat_tables(tables, dims: tuple[int, ...], digits: np.ndarray, square: bool) -> tuple:
    """LegFrames.flat_mult (square, the (d, d) mult tables) or flat_star
    (the (d,) star tables) of one-term tables, read-only."""
    dims_arr = np.array(dims, dtype=np.intp)
    strides = np.append(np.cumprod(dims_arr[:0:-1])[::-1], 1)
    entries = dims_arr * dims_arr if square else dims_arr
    offsets = np.cumsum(entries) - entries
    idx = np.concatenate([t.idx.reshape(-1) * s for t, s in zip(tables, strides)])
    val = np.concatenate([t.val.reshape(-1) for t in tables])
    if square:
        out = (digits * dims_arr + offsets, digits, idx, val)
    else:
        out = (digits + offsets, idx, val)
    read_only(*out)
    return out


def leg_frames(legs, tol: Tolerance = DEFAULT_TOL) -> LegFrames:
    """Certified frames, one per tensor leg.

    An entry of legs is a list of the leg's spanning matrices, whose
    frame matspan.frame builds, or a matspan.Frame already built (a
    factor's GradedAlgebra.leg, a regular pair's leg), taken as it is.  A
    frame keeps the generators, normalised, when it can, else it is an SVD
    basis; each leg's span must be closed under products and adjoints, and
    the tables are one term a row when each row is one term within eps_eq
    (see LegFrames and matspan.frame).

    When every entry is a Frame, one LegFrames per (frames, tol) is held
    and shared by every caller, with its dims and kernel tables
    (_held_leg_frames, which keeps the last 64 such triples while their
    frames live; _held_leg_frames.cache_clear() drops them).  Legs given
    as matrices build a new LegFrames on every call.
    """
    if all(isinstance(leg, Frame) for leg in legs):
        return _held_leg_frames(tuple(legs), tol)
    return _new_leg_frames([leg if isinstance(leg, Frame) else frame(leg, tol) for leg in legs], tol)


class _HeldLegFrames:
    """One LegFrames per (frames, tol), for the last maxsize used.

    A Frame holds arrays, so it has no hash: a triple is keyed by the ids
    of its frames.  Each entry holds a weak reference to every frame,
    whose callback drops the entry when the frame is collected, so no id
    is reused while it is cached and a frame built per call (a witness
    pair's Weyl leg) is not kept alive, with its tables, by this cache.
    """

    maxsize = 64

    def __init__(self) -> None:
        self._held: OrderedDict = OrderedDict()

    def __call__(self, frames: tuple[Frame, ...], tol: Tolerance) -> LegFrames:
        key = (tuple(map(id, frames)), tol)
        entry = self._held.get(key)
        if entry is None:
            drop = functools.partial(self._drop, key)
            refs = [weakref.ref(f, drop) for f in frames]
            entry = self._held[key] = (_new_leg_frames(frames, tol), refs)
            if len(self._held) > self.maxsize:
                self._held.popitem(last=False)
        else:
            self._held.move_to_end(key)
        return entry[0]

    def _drop(self, key, ref) -> None:
        self._held.pop(key, None)

    def __len__(self) -> int:
        return len(self._held)

    def cache_clear(self) -> None:
        self._held.clear()


_held_leg_frames = _HeldLegFrames()


def _new_leg_frames(frames, tol: Tolerance) -> LegFrames:
    out = LegFrames(
        sizes=tuple(f.size for f in frames),
        frames=tuple(f.rows for f in frames),
        mult_tables=tuple(f.mult for f in frames),
        star_tables=tuple(f.star for f in frames),
        residual=max([0.0] + [f.residual for f in frames]),
    )
    if all(f.tol == tol for f in frames):
        # the identity's pure_coords are the outer product of the rows the
        # frames hold; the frames themselves, with their generators, are
        # not kept
        one = _outer_coords([f.identity[None] for f in frames])[0]
        one.flags.writeable = False
        out._identity[tol] = one
    return out


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
        vecs.append(frame_coords(legs.frames[l], m, tol, f"leg {l} matrix"))
    return _outer_coords(vecs)


def _outer_coords(rows) -> np.ndarray:
    """(N, *dims) pure tensors of per-leg coordinate rows: rows[l] is an
    (N, d_l) array, or (1, d_l) for one row shared by all N."""
    out = rows[0]
    for v in rows[1:]:
        out = out[..., None] * v.reshape((v.shape[0],) + (1,) * (out.ndim - 1) + v.shape[1:])
    return out


def _outer_terms(tables) -> OneTerm | np.ndarray:
    """_outer_coords of per-leg coordinate rows held as tables (row_table),
    as (N,) one-term rows over the flattened coordinates when every table
    is one-term, else the dense tensors.

    A pure tensor of one-hot rows is one-hot: its index is the leg indices
    raveled, its value the product of the leg values, taken in
    _outer_coords' order, so the dense form has the same entries.
    """
    if not all(isinstance(t, OneTerm) for t in tables):
        return _outer_coords([dense_table(t) for t in tables])
    idx, val = tables[0].idx, tables[0].val
    for t in tables[1:]:
        idx = idx * t.width + t.idx
        val = val * t.val
    return OneTerm(idx, val, prod(t.width for t in tables))


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
    onb_table is an orthonormal basis of their span, matspan.row_span:
    for a one-hot family f_i = v_i e_{s_i} the unit rows e_{s_i} in family
    order (those with |v_i| above the eps_rank cut), else the SVD basis of
    orthonormal_rows.  structure_table[i, j] expands f_i f_j and
    star_table[i] expands f_i* in the family (matspan.expand_rows) when
    the family is a basis, else both are None.  iota_c_table[k] and
    iota_d_table[k] are the markings of the factors' basis elements b_k as
    rows over the flattened leg coordinates.  Each table is a OneTerm when
    one term a row, else a dense array; family and the markings iota_c and
    iota_d (as (m, *legs.dims) coordinate tensors), onb, structure and
    star are the dense forms, formed on first read.  The algebra is held
    only in these family coordinates; element_matrix materializes one
    element when a dense matrix is wanted.
    """

    c_graded: GradedAlgebra
    d_graded: GradedAlgebra
    chi: Bicharacter
    legs: LegFrames
    iota_c_table: OneTerm | np.ndarray
    iota_d_table: OneTerm | np.ndarray
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
    def iota_c(self) -> np.ndarray:
        return dense_table(self.iota_c_table).reshape((-1,) + self.legs.dims)

    @functools.cached_property
    def iota_d(self) -> np.ndarray:
        return dense_table(self.iota_d_table).reshape((-1,) + self.legs.dims)

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
        return compose(row[None], self.iota_c_table).reshape(self.legs.dims)

    def iota_d_apply(self, d, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of iota_D(d) for d in the second factor."""
        try:
            row = self.d_graded.ambient.space.coords_of(d, tol)
        except ValueError as exc:
            raise ValueError("element is not in the factor algebra") from exc
        return compose(row[None], self.iota_d_table).reshape(self.legs.dims)

    def element_matrix(self, coords: np.ndarray) -> np.ndarray:
        return coords_to_matrix(coords, self.legs)

    def contains_residual(self, coords: np.ndarray) -> float:
        """Distance of a coordinate tensor from the algebra span."""
        return float(project(coords.reshape(1, -1), self.onb_table)[1][0])


def _dense_marking(iota: OneTerm | np.ndarray, legs: LegFrames) -> np.ndarray:
    """A table of rows over the flattened leg coordinates as (m, *legs.dims)
    coordinate tensors."""
    return dense_table(iota).reshape((iota.shape[0],) + legs.dims)


def _term_products(xs: OneTerm, ys: OneTerm, legs: LegFrames) -> OneTerm:
    """Products x y of one-term coordinate rows, broadcast over their shapes.

    Needs one-term product tables (legs.monomial): leg by leg, frame
    elements a and b multiply to a value times one element, so each
    product is one (index, value) pair.  The keys of every leg are one
    gather of each row's indices into legs.flat_mult; the leg indices and
    values are one gather each, the indices adding up to the flattened
    index and the values multiplying into x y leg by leg, in leg order.
    _gathered_pairs scatters these terms of sparse rows.
    """
    left, right, idx, val = legs.flat_mult
    keys = left.take(xs.idx, axis=0) + right.take(ys.idx, axis=0)
    return _gathered_terms(keys, idx, val, xs.val * ys.val, xs.width)


def _term_stars(xs: OneTerm, legs: LegFrames) -> OneTerm:
    """Adjoints of one-term coordinate rows on legs.one_term legs, gathered
    from legs.flat_star as _term_products gathers."""
    keys, idx, val = legs.flat_star
    return _gathered_terms(keys.take(xs.idx, axis=0), idx, val, xs.val.conj(), xs.width)


def _gathered_terms(keys, idx, val, out, width: int) -> OneTerm:
    """The terms at keys (..., legs) of flattened kernel tables: the sum of
    the legs' indices, and out times the legs' values in leg order."""
    at, vals = idx.take(keys), val.take(keys)
    flat, out = at[..., 0], out * vals[..., 0]
    for l in range(1, keys.shape[-1]):
        flat = flat + at[..., l]
        out = out * vals[..., l]
    return OneTerm(flat, out, width)


def _products(xs, ys, legs: LegFrames) -> OneTerm | np.ndarray:
    """The products x_a y_b of two tables of rows over the flattened leg
    coordinates, as (a, b) rows: index arithmetic (_term_products) for
    one-term rows on monomial legs, else coords_product_pairs on the
    dense coordinate tensors."""
    if legs.monomial and isinstance(xs, OneTerm) and isinstance(ys, OneTerm):
        return _term_products(xs[:, None], ys[None, :], legs)
    xs, ys = _dense_marking(xs, legs), _dense_marking(ys, legs)
    return coords_product_pairs(xs, ys, legs).reshape(xs.shape[0], ys.shape[0], -1)


def _stars(xs, legs: LegFrames) -> OneTerm | np.ndarray:
    """The adjoints of a table of rows: _term_stars for one-term rows on
    one-term legs, else _star_stack on the dense coordinate tensors."""
    if legs.one_term and isinstance(xs, OneTerm):
        return _term_stars(xs, legs)
    return _star_stack(_dense_marking(xs, legs), legs).reshape(xs.shape[0], -1)


def _marking_report(
    graded: GradedAlgebra, iota: OneTerm | np.ndarray, legs: LegFrames, tol: Tolerance
) -> tuple[float, float, bool]:
    """(homomorphism, star, injective) certification of one marking.

    iota is a table of rows over the flattened leg coordinates, row k the
    image of graded's basis element b_k.  Its products and adjoints
    (_products, _stars) go through table_defect against graded's tables,
    and it is injective when its rank is full.  One-hot rows on one-term
    legs and tables stay (index, value) arrays throughout.
    """
    return _marking_defects(graded, iota, _products(iota, iota, legs), _stars(iota, legs), tol)


def _marking_defects(
    graded: GradedAlgebra, iota, prods, stars, tol: Tolerance
) -> tuple[float, float, bool]:
    """_marking_report of a marking whose products and adjoints are given."""
    mult, star, _ = graded.tables(tol)
    hom, star_res = table_defect(mult, star, iota, prods, stars)
    return hom, star_res, rank(iota, tol.eps_rank) == iota.shape[0]


def _marking_blocks(iota_c, iota_d, legs: LegFrames) -> tuple:
    """(cd, dc, (cc, c_stars), (dd, d_stars)): the products
    iota_c[i] iota_d[j] and iota_d[j] iota_c[i] as (i, j) and (j, i)
    rows, and each marking's products with itself and adjoints.

    One-hot markings on one-term legs are stacked, so that all four
    product blocks are one _term_products call and both markings'
    adjoints one _term_stars call; the blocks are views of those.  Dense
    markings take one _products or _stars call a block, so no array of
    (m_c + m_d)^2 dense products is formed.
    """
    if legs.one_term and isinstance(iota_c, OneTerm) and isinstance(iota_d, OneTerm):
        both = concat_rows([iota_c, iota_d])
        prods = _term_products(both[:, None], both[None, :], legs)
        stars = _term_stars(both, legs)
        c, d = slice(None, iota_c.shape[0]), slice(iota_c.shape[0], None)
        return prods[c, d], prods[d, c], (prods[c, c], stars[c]), (prods[d, d], stars[d])
    return (
        _products(iota_c, iota_d, legs),
        _products(iota_d, iota_c, legs),
        (_products(iota_c, iota_c, legs), _stars(iota_c, legs)),
        (_products(iota_d, iota_d, legs), _stars(iota_d, legs)),
    )


def _require_factor(graded: GradedAlgebra, group: FinAbGroup, name: str) -> None:
    if graded.group != group:
        raise ValueError(f"factor {name} is graded over the wrong group")
    if not graded.report.get("passed", True):
        raise ValueError(f"factor {name} grading failed validation")
    if not graded.ambient.contains_identity:
        raise ValueError(f"factor {name} must contain its ambient identity")


def _certificate(fam, rev, legs: LegFrames, tol: Tolerance) -> tuple:
    """(onb, structure, star, residuals): the closure certificate of the
    (m, S) family rows fam, with rev the reversed products.

    onb is the family's row_span.  The products f_i f_j are formed for
    the left factors of each of row_blocks: all at once for one-hot rows
    on monomial legs, whose products are index arithmetic, else one left
    factor at a time, so no (m^2, S) array is held.  Each block is
    measured against onb and, when the family is a basis, expanded in it
    (expand_rows).  adjoint_residual is the larger of the adjoints'
    distance from the span and the star table's defect: on expand_table's
    one-term path the latter can exceed the former.  cstar_equality is
    the worst distance of rev from the family's span and of the family
    from rev's.  For one-hot rows every step is (index, value) arithmetic
    and onb is the family's unit rows e_{s_i}.
    """
    m = fam.shape[0]
    onb = row_span(fam, tol.eps_rank)
    basis = onb.shape[0] == m
    closure = structure_res = 0.0
    blocks = []
    for left in row_blocks(fam, legs.monomial):
        prods = _products(fam[left], fam, legs)
        closure = max(closure, float(project(prods, onb)[1].max()))
        if basis:
            block, res = expand_rows(prods, fam, tol)
            blocks.append(block)
            structure_res = max(structure_res, res)
    stars = _stars(fam, legs)
    adjoint = float(project(stars, onb)[1].max())
    star = None
    if basis:
        star, star_res = expand_rows(stars, fam, tol)
        adjoint = max(adjoint, star_res)
    onb_rev = row_span(rev, tol.eps_rank)
    residuals = {
        "closure_residual": closure,
        "adjoint_residual": adjoint,
        "structure_residual": structure_res if basis else float("inf"),
        "cstar_equality": float(
            max(project(rev, onb)[1].max(initial=0.0), project(fam, onb_rev)[1].max(initial=0.0))
        ),
    }
    if not basis:
        return onb, None, None, residuals
    return onb, concat_rows(blocks), star, residuals


def _assemble(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    legs: LegFrames,
    iota_c: OneTerm | np.ndarray,
    iota_d: OneTerm | np.ndarray,
    provenance: dict,
    extra_report: dict,
    tol: Tolerance,
) -> CrossedProduct:
    """Shared certification and packaging for both construction routes.

    A marking comes as one-term rows (heisenberg_markings' one-hot
    markings) or as dense coordinate tensors, and is held as a table of
    rows (row_table: one-term when one-hot).  _marking_blocks forms the
    family iota_C(c_i) iota_D(d_j), the reversed products and each
    marking's products with itself and adjoints, for one-hot markings on
    one-term legs in one _term_products and one _term_stars call; the
    marking reports read the last two (_marking_defects, as
    _marking_report).  The closure certificate (onb, the structure and
    star tables, and the closure, adjoint, structure and C*-equality
    residuals) is _certificate's.  The identity residual is the
    identity's distance from onb, and the commutation law the
    row_distance of the reversed products from the phased family.
    """
    m_c, m_d = iota_c.shape[0], iota_d.shape[0]
    m = m_c * m_d
    iota_c = row_table(iota_c.reshape(m_c, -1))
    iota_d = row_table(iota_d.reshape(m_d, -1))
    ab, rev, own_c, own_d = _marking_blocks(iota_c, iota_d, legs)
    ab, rev = row_table(ab), row_table(rev)
    fam = ab.reshape(m, -1)
    onb, structure, star, residuals = _certificate(fam, rev.reshape(m, -1), legs, tol)
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
    rep["identity_residual"] = float(project(one, onb)[1][0])

    hom_c, star_c, inj_c = _marking_defects(c_graded, iota_c, *own_c, tol)
    hom_d, star_d, inj_d = _marking_defects(d_graded, iota_d, *own_d, tol)
    rep["iota_c_hom"], rep["iota_c_star"], rep["iota_c_injective"] = hom_c, star_c, inj_c
    rep["iota_d_hom"], rep["iota_d_star"], rep["iota_d_injective"] = hom_d, star_d, inj_d

    # commutation law on the homogeneous (= ambient) basis pairs,
    # iota_D(d_j) iota_C(c_i) = phase[i, j] iota_C(c_i) iota_D(d_j), and
    # its invariant special case (degree position 0 is the zero element)
    deg_c, deg_d = c_graded.degree_indices(), d_graded.degree_indices()
    phase = chi.value_table().conj()[np.ix_(deg_c, deg_d)]
    ba = rev.swapaxes(0, 1).reshape(m, -1)
    phased = compose(OneTerm(np.arange(m), phase.reshape(-1), m), fam)
    comm = row_distance(ba, phased)
    plain = row_distance(fam, ba).reshape(m_c, m_d)
    inv_mask = np.zeros(plain.shape, dtype=bool)
    inv_mask[deg_c == 0, :] = True
    inv_mask[:, deg_d == 0] = True
    rep["commutation_law"] = comm = float(comm.max())
    rep["invariant_commutators"] = inv_comm = float(plain[inv_mask].max(initial=0.0))

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
        iota_c_table=iota_c,
        iota_d_table=iota_d,
        family_table=fam,
        onb_table=onb,
        structure_table=structure,
        star_table=star,
        provenance=provenance,
        report=rep,
    )


def _weyl_leg(
    pair: RepPair, chi: Bicharacter, tol: Tolerance
) -> tuple[Frame, OneTerm | np.ndarray, OneTerm | np.ndarray, float]:
    """(frame, u_rows, v_rows, residual): the pair's Weyl leg, the
    coordinate rows of every U_g and V_h in it (G.elements() and
    H.elements() order, as row_table tables) and the pair's Weyl residual
    for chi.

    A pair read off its group's regular pair for this chi brings the
    regular leg, where U_g is generator (p(g), 0) and V_h generator
    (0, h), and its residual.  Any other pair is certified by
    is_heisenberg, and its leg is the frame of its Weyl monomials
    (RepPair.weyl_frame), onto which U and V are projected.
    """
    reg = pair.regular
    read_off = reg is not None and reg.tol == tol and pair.chi == chi
    if read_off:
        res = pair.weyl_residual
        ok = res <= tol.eps_eq * max(1.0, pair.space_dim)
    else:
        ok, res = is_heisenberg(pair, chi, tol)
    if not ok:
        raise ValueError(f"pair fails the Weyl relation (residual {res:.2e})")
    if read_off:
        leg, order = reg.leg, chi.group_h.order
        return leg, leg.coord_table[pair.characters * order], leg.coord_table[:order], res
    leg = pair.weyl_frame(tol)
    us = np.stack([pair.U[g] for g in chi.group_g.elements()])
    vs = np.stack([pair.V[h] for h in chi.group_h.elements()])
    u_rows = row_table(frame_coords(leg.rows, us, tol, "the pair's U"))
    return leg, u_rows, row_table(frame_coords(leg.rows, vs, tol, "the pair's V")), res


def heisenberg_markings(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    pair: RepPair | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[LegFrames, OneTerm | np.ndarray, OneTerm | np.ndarray, RepPair, float]:
    """Leg frames and marked embeddings of the three-leg realization.

    Homogeneous c of degree g embeds as c (x) 1 (x) U_g and homogeneous
    d of degree h as 1 (x) d (x) V_h.  The factor legs are the factors'
    own GradedAlgebra.leg and the Weyl leg is the pair's (_weyl_leg): the
    canonical pair's is its group's regular leg, formed once per group,
    with the residual the pair was read off with; any other pair, or one
    built for another chi, is certified by is_heisenberg here.  Each
    marking is the outer product of coordinate rows the frames hold: the
    factor's basis rows, the other factor's identity row and the rows of
    U_g or V_h at each basis element's degree.  When those rows are
    one-hot (every factor leg that keeps its homogeneous basis, with the
    regular leg) the marking is held as one-term rows, (m, width) with
    the index of the leg indices raveled and the product of the leg
    values, and no coordinate tensor is formed; otherwise it is the dense
    (m, *legs.dims) outer product.  Returns (legs, iota_c, iota_d, pair,
    pair_residual) without assembling or certifying the product algebra.
    """
    _require_factor(c_graded, chi.group_g, "C")
    _require_factor(d_graded, chi.group_h, "D")
    if pair is None:
        pair = canonical_heisenberg(chi, tol)
    weyl, u_rows, v_rows, res = _weyl_leg(pair, chi, tol)
    c_leg, d_leg = c_graded.leg(tol), d_graded.leg(tol)
    legs = leg_frames([c_leg, d_leg, weyl], tol)
    m_c, m_d = c_graded.dim, d_graded.dim
    deg_c, deg_d = c_graded.degree_indices(), d_graded.degree_indices()
    iota_c = _outer_terms([c_leg.coord_table[:m_c], d_leg.identity_table, u_rows[deg_c]])
    iota_d = _outer_terms([c_leg.identity_table, d_leg.coord_table[:m_d], v_rows[deg_d]])
    return legs, iota_c, iota_d, pair, res


def build_from_markings(
    c_graded: GradedAlgebra,
    d_graded: GradedAlgebra,
    chi: Bicharacter,
    legs: LegFrames,
    iota_c: OneTerm | np.ndarray,
    iota_d: OneTerm | np.ndarray,
    provenance: dict | None = None,
    extra_report: dict | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> CrossedProduct:
    """Assemble and certify a crossed product from explicit markings,
    one-term rows or dense coordinate tensors."""
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
    _certificate), b[i, j] is (val[i, j] - val[j, i]) e_{idx[i, j]},
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
        if np.bincount(cols, minlength=m * m).max() <= 1:
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


def _family_map(
    src: CrossedProduct,
    a,
    target: CrossedProduct,
    require_bijective: bool,
    markings,
    tol: Tolerance,
    expansion: float = 0.0,
) -> ProductMap | None:
    """Certify f_k -> g_k = sum_l a[k, l] t_l on the two products' tables.

    f and t are the source and target families, both bases, so a, a
    matrix or a table of rows (one-term when one term a row), fixes a
    linear map phi.  None when either product has no tables (its dimension
    law failed), or when a bijection is required and a is not square and
    invertible.  With w = t @ target.onb* (project), the images a w, their
    products ((a (x) a) T) w and their adjoints (conj(a) tau) w, for T and
    tau the target's tables, go through table_defect against the source's
    tables: no product is formed, and as onb is orthonormal each defect is
    a Frobenius norm.  The slack ||phi|| r_S + |a|^k r_T is added, with r
    the products' structure_residual (multiplicative, k = 2) or
    adjoint_residual (star, k = 1), ||phi|| the operator norm and |a| the
    largest l1 norm of a row of a.  So each value bounds the dense residual
    ||phi(f_i f_j) - g_i g_j|| or ||phi(f_i*) - g_i*|| from above, as long
    as r bounds each table row's defect, which both residuals do.
    markings is a list of pairs (v1, v2) of marking tables, rows over the
    flattened leg coordinates of the source and the target, as
    _marking_pairs gives them, and its residual is the worst
    ||phi(v1) - v2|| over their rows, with
    phi(v1) = ((v1 src.onb*) coef) target.onb, so the map's
    (source x target) matrix is not formed; alignment is the worst
    ||phi(f_k) - g_k||, or the caller's expansion residual when larger.

    With scale = max(1, largest row norm of f or of the images) and m the
    source family size, the bounds are s = eps_eq * scale * max(1, m) for
    the star, markings and alignment residuals and s * scale for the
    multiplicative one: products scale as the square of the family norms.
    Every step is a matspan table operation, so between one-hot products
    and for an a with one term a row each quantity is one (index, value)
    pair a row.
    """
    if src.structure_table is None or target.structure_table is None:
        return None
    a = row_table(a)
    m, mt = a.shape
    w = project(target.family_table, target.onb_table)[0]
    c1 = project(src.family_table, src.onb_table)[0]
    images = compose(a, w)
    if require_bijective and (m != mt or rank(images, tol.eps_rank) < m):
        return None
    # f = c1 @ src.onb is sent to images @ target.onb
    coef = solve(c1, images)
    # row (i, j): g_i g_j expanded in t, a on both factors of T
    pairs = compose(a, compose(a, target.structure_table).swapaxes(0, 1)).swapaxes(0, 1)
    stars = compose(compose(a.conj(), target.star_table), w)
    hom, star = table_defect(
        src.structure_table, src.star_table, images, compose(pairs, w), stars
    )
    mark = 0.0
    for v1, v2 in markings:
        img = compose(compose(project(v1, src.onb_table)[0], coef), target.onb_table)
        mark = max(mark, float(np.max(row_distance(img, v2), initial=0.0)))
    align = float(np.max(row_distance(compose(c1, coef), images)))
    phi, row_l1 = op_norm(coef), float(np.max(row_norms(a, 1)))
    scale = max(
        1.0, float(np.max(row_norms(src.family_table))), float(np.max(row_norms(images)))
    )
    r1, r2 = src.report, target.report
    rep: dict = {
        "multiplicative": hom
        + phi * r1["structure_residual"]
        + row_l1**2 * r2["structure_residual"],
        "star": star + phi * r1["adjoint_residual"] + row_l1 * r2["adjoint_residual"],
    }
    rep["markings"] = mark
    rep["alignment"] = max(align, expansion)
    s = tol.eps_eq * scale * max(1.0, m)
    rep["passed"] = (
        rep["multiplicative"] <= s * scale
        and rep["star"] <= s
        and mark <= s
        and rep["alignment"] <= s
    )
    return ProductMap(source=src, target=target, coef=dense_table(coef), report=rep)


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


def _factor_coords(target: GradedAlgebra, mats, tol: Tolerance) -> np.ndarray:
    """Rows of coordinates of mats in target's basis, which coords_of
    raises outside of.  mats is a list of matrices, or a GradedAlgebra
    for its basis: the exact identity when it is target itself, the same
    held object in both products."""
    if mats is target:
        return np.eye(target.dim)
    if isinstance(mats, GradedAlgebra):
        mats = mats.ambient.basis
    return np.stack([target.ambient.space.coords_of(c, tol) for c in mats])


def _marking_pairs(src: CrossedProduct, target: CrossedProduct, tol: Tolerance):
    """((P, Q), markings): P and Q are the _factor_coords of src's C and D
    bases in target's, and markings is [(src.iota_c_table, C's marking
    in target), (the same for D)], the markings of src's factor bases in
    both products as tables of rows.  Target's marking rows are composed
    with P and Q, so they stay one-term when P and Q have one term a
    row."""
    p = _factor_coords(target.c_graded, src.c_graded, tol)
    q = _factor_coords(target.d_graded, src.d_graded, tol)
    markings = [
        (src.iota_c_table, compose(row_table(p), target.iota_c_table)),
        (src.iota_d_table, compose(row_table(q), target.iota_d_table)),
    ]
    return (p, q), markings


def equivalent(
    x1: CrossedProduct, x2: CrossedProduct, tol: Tolerance = DEFAULT_TOL
) -> ProductMap | None:
    """Equivalence of crossed products over the same factors, or None.

    The map is pinned on the marked families iota_C(c_i) iota_D(d_j) and
    certified on the two products' tables to be a *-isomorphism
    intertwining both markings (None when either has no tables).
    Different witnesses or routes for the same construction are
    equivalent exactly by this check.  On factors held by both products
    the alignment is the identity, which has one term a row, so the map
    between two one-hot products is (index, value) arithmetic.
    """
    _check_same_factors(x1, x2, tol)
    return _factor_map(x1, x2, tol)


def _factor_map(src: CrossedProduct, target: CrossedProduct, tol: Tolerance) -> ProductMap | None:
    """The bijection sending src's family member iota_C(c_i) iota_D(d_j)
    to the same product read in target, pinned by the _factor_coords of
    src's factor bases in target's and intertwining both markings; None
    unless it is certified."""
    (p, q), markings = _marking_pairs(src, target, tol)
    pm = _family_map(src, np.kron(p, q), target, True, markings, tol)
    return pm if pm is not None and pm.report["passed"] else None


def symmetry(
    x: CrossedProduct, tol: Tolerance = DEFAULT_TOL
) -> tuple[CrossedProduct, ProductMap]:
    """The flipped product over the dual bicharacter, with the equivalence.

    Builds D boxtimes C for the dual bicharacter and certifies the map
    sending iota_C(c) iota_D(d) to the same monomial read in the flipped
    product (C now enters through the second marking), a phase times one
    member of y's family by y's commutation law, whose residual joins the
    alignment.
    """
    chi_hat = dual_bicharacter(x.chi)
    y = build_via_heisenberg(x.d_graded, x.c_graded, chi_hat, tol=tol)
    # y marks the same factor bases, C second.  x's member (i, j) goes to
    # iota_D(c_i) iota_C(d_j) in y, which y's certified commutation law
    # puts at phase[j, i] times y's member (j, i), within its residual
    m_c, m_d = x.c_graded.dim, x.d_graded.dim
    deg_c, deg_d = y.c_graded.degree_indices(), y.d_graded.degree_indices()
    phase = chi_hat.value_table().conj()[np.ix_(deg_c, deg_d)]
    i, j = np.divmod(np.arange(m_c * m_d), m_d)
    a = OneTerm(j * m_c + i, phase[j, i], m_c * m_d)
    markings = [(x.iota_c_table, y.iota_d_table), (x.iota_d_table, y.iota_c_table)]
    pm = _family_map(x, a, y, True, markings, tol, y.report["commutation_law"])
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
    if x1.structure_table is None or x2.structure_table is None:
        raise ValueError("the induced map needs both structure tensors (dimension law failed)")

    c_imgs = [f.apply(c, tol) for c in x1.c_graded.ambient.basis]
    d_imgs = [g.apply(d, tol) for d in x1.d_graded.ambient.basis]
    a = np.kron(_factor_coords(x2.c_graded, c_imgs, tol), _factor_coords(x2.d_graded, d_imgs, tol))
    pm = _family_map(x1, a, x2, False, [], tol)
    w = project(x2.family_table, x2.onb_table)[0]
    rank2 = rank(compose(row_table(a), w), tol.eps_rank)
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
    return xa, xb, _factor_map(xa, xb, tol)
