"""Numerical subspace and *-algebra toolkit for dense complex matrices.

All operations use the Hilbert-Schmidt inner product <x, y> = trace(x* y),
under which a matrix is just its flattened complex vector.  Rank decisions
go through SVD with the relative cutoff ``eps_rank``; identity-type checks
use the absolute Frobenius threshold ``eps_eq``.  Both live in `Tolerance`.

The row-level helpers (`orthonormal_rows`, `residual_outside`, ...) work
on arrays whose rows are coordinates in *any* orthonormal frame, so the
tensor-leg machinery elsewhere can reuse them without densifying.  A
basis's product and adjoint tables come from `basis_tables`; a table
with one term a row is held as a `OneTerm`, an (index, value) pair of
arrays, which a family of monomial matrices gets by index arithmetic.
`frame` turns spanning matrices into an orthonormal frame with its
tables, a read-only `Frame`, which holds the coordinates of its
generators and of the identity (`frame_coords`) once read.

A table of rows is a `OneTerm` or a dense array, and the choice between
the two is made here, not by the callers: the table operations
(`compose`, `row_distance`, `row_norms`, `row_span`, `project`,
`expand_rows`, `solve`, `rank`, `op_norm`, with `table_defect` written
on them) each have one branch for one-term tables, by gather, scatter
and index arithmetic, and one for dense arrays, by matrix products, SVD
and least squares.  A OneTerm reshapes, indexes, conjugates and swaps
its leading axes as its dense form does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "MAX_DENSE_ENTRIES",
    "INDEX_PATH_ENTRIES",
    "BudgetError",
    "check_size",
    "cmatrix",
    "hs_inner",
    "hs_norm",
    "Subspace",
    "AlgebraBasis",
    "span_basis",
    "rank",
    "subspace_equal",
    "OneTerm",
    "dense_table",
    "compose",
    "row_distance",
    "row_norms",
    "row_span",
    "project",
    "expand_rows",
    "solve",
    "op_norm",
    "row_blocks",
    "concat_rows",
    "basis_tables",
    "read_only",
    "row_table",
    "Frame",
    "frame",
    "frame_coords",
    "multiplicative_closure",
    "internal_unit",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: eps_rank for rank cuts, eps_eq for residuals."""

    eps_rank: float = 1e-9
    eps_eq: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("eps_rank", "eps_eq"):
            v = getattr(self, name)
            if not (0.0 < v < 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3), got {v}")


DEFAULT_TOL = Tolerance()

# Most complex entries (2 GiB) that one dense array may hold.  A fixed
# constant, not a reading of free memory, so a verdict does not depend on
# the machine; callers estimate their largest array before allocating it.
MAX_DENSE_ENTRIES = 2**27

# A monomial family's tables by index arithmetic (_monomial_tables) cost
# about 0.2 ms of numpy calls at any size, the GEMM path about 35 ns per
# entry of its d^2 n^2 product stack (2 cores, OpenBLAS; break-even near
# 1.3e4 entries), so the index path is taken only above this many.
INDEX_PATH_ENTRIES = 2**14


class BudgetError(ValueError):
    """An estimated dense array above MAX_DENSE_ENTRIES."""


def check_size(entries: int, what: str) -> None:
    """Raise BudgetError stating the estimate when it exceeds the budget."""
    if entries > MAX_DENSE_ENTRIES:
        raise BudgetError(
            f"{what}: {entries} complex entries ({entries * 16 / 2**30:.3g} GiB) exceed"
            f" the budget of {MAX_DENSE_ENTRIES} ({MAX_DENSE_ENTRIES * 16 / 2**30:.3g} GiB)"
        )


def cmatrix(a, dim: int | None = None) -> np.ndarray:
    """Validate and cast input to a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"expected ambient dimension {dim}, got {m.shape[0]}")
    return m


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(x* y)."""
    return complex(np.vdot(x, y))


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


# ---------------------------------------------------------------------------
# row-coordinate core


def _cut(s: np.ndarray, eps_rank: float) -> int:
    """Number of singular values above eps_rank times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > eps_rank * s[0]))


def orthonormal_rows(rows: np.ndarray, eps_rank: float) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space, cut at eps_rank."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    if rows.size == 0:
        return np.zeros((0, rows.shape[-1]), dtype=np.complex128)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: _cut(s, eps_rank)]


def rank(rows, eps_rank: float) -> int:
    """Dimension of the row space, cut at eps_rank; singular values only.

    Counts the rows orthonormal_rows would return without computing them.
    Columns that are zero in every row leave the singular values unchanged
    and are dropped first, since LAPACK is several times slower with them;
    a wide array is passed transposed, which has the same singular values
    and which LAPACK factors about twice as fast.
    """
    if _distinct(rows):
        # orthogonal rows: the singular values are the |values|
        mags = np.abs(rows.val)
        return int(np.count_nonzero(mags > eps_rank * mags.max()))
    rows = np.atleast_2d(np.asarray(dense_table(rows), dtype=np.complex128))
    live = np.any(rows != 0, axis=0)
    if not live.all():
        rows = rows[:, live]
    if rows.size == 0:
        return 0
    if rows.shape[0] < rows.shape[1]:
        rows = rows.T
    return _cut(np.linalg.svd(rows, compute_uv=False), eps_rank)


def residual_outside(rows: np.ndarray, onb: np.ndarray) -> np.ndarray:
    """Frobenius distance of each row from the span of the orthonormal rows."""
    rows = np.atleast_2d(rows)
    if onb.shape[0] == 0:
        return np.linalg.norm(rows, axis=1)
    return _remainder_norms(rows, rows @ onb.conj().T, onb)


def _remainder_norms(rows, coeffs, onb, out=None) -> np.ndarray:
    """Row norms of rows - coeffs @ onb, formed in one rows-sized array
    (out when given) and read in place through a float view."""
    rem = np.matmul(coeffs, onb, out=out)
    np.subtract(rows, rem, out=rem)
    if rem.dtype == np.complex128:
        rem = rem.view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", rem, rem))


def expand_in_rows(
    rows: np.ndarray, family: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients expressing each row in the family's span.

    Returns (coeffs, residuals) with coeffs @ family ~= rows.
    """
    rows = np.atleast_2d(rows)
    gram = family @ family.conj().T
    rhs = rows @ family.conj().T
    coeffs = np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T
    return coeffs, _remainder_norms(rows, coeffs, family)


# ---------------------------------------------------------------------------
# product and adjoint tables


def expand_table(
    targets: np.ndarray, rows: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None, float]:
    """(table, monomial form or None, residual) of targets in the rows' span.

    When every target is one row up to eps_eq, t ~ c f_k with
    c = <f_k, t> / ||f_k||^2 (rows of any nonzero norm), the table holds
    that one term exactly, the monomial form is the pair of arrays (k, c)
    and the residual the worst ||t - c f_k||.  Otherwise, and whenever a
    row is zero, the table is the least-squares expansion of
    expand_in_rows with its worst residual.
    """
    coeffs = targets @ rows.conj().T
    sq = np.einsum("ij,ij->i", rows.conj(), rows).real
    if coeffs.size and np.all(sq > 0.0):
        r = np.arange(coeffs.shape[0])
        k = np.argmax(np.abs(coeffs) / np.sqrt(sq), axis=1)
        c = coeffs[r, k] / sq[k]
        # t - c f_k formed in the gathered array and read through a float
        # view, so no further targets-sized copy is held
        rem = rows[k]
        rem *= c[:, None]
        v = np.subtract(targets, rem, out=rem).view(np.float64)
        one_term = float(np.sqrt(np.max(np.einsum("ij,ij->i", v, v))))
        if one_term <= tol.eps_eq:
            # c is a copy, so coeffs is zeroed in place and becomes the table
            coeffs.fill(0.0)
            coeffs[r, k] = c
            return coeffs, (k, c), one_term
    coeffs, res = expand_in_rows(targets, rows)
    return coeffs, None, float(np.max(res, initial=0.0))


@dataclass(frozen=True)
class OneTerm:
    """A table with one term a row: row r is val[r] e_{idx[r]} in C^width.

    idx and val share any shape, the table's rows; a zero row has val 0
    (and idx 0).  This is how a monomial product or adjoint table, a
    one-hot family and its basis of unit rows are held: dense() forms the
    array of shape idx.shape + (width,) when one is wanted.  idx and val
    are not written after construction, so positions is formed once.
    """

    idx: np.ndarray
    val: np.ndarray
    width: int

    @property
    def shape(self) -> tuple[int, ...]:
        return self.idx.shape + (self.width,)

    @classmethod
    def of_rows(cls, rows: np.ndarray) -> OneTerm | None:
        """The rows (last axis) as one-term rows, or None unless every
        row has exactly one non-zero entry."""
        nz = rows != 0
        if not np.all(nz.sum(axis=-1) == 1):
            return None
        idx = np.argmax(nz, axis=-1)
        return cls(idx, _pick(rows, idx), rows.shape[-1])

    def __getitem__(self, key) -> OneTerm:
        return OneTerm(self.idx[key], self.val[key], self.width)

    def reshape(self, *shape) -> OneTerm:
        """The table reshaped as its dense form would be, keeping the last
        axis: shape ends in width (or -1)."""
        if shape[-1] not in (-1, self.width):
            raise ValueError(f"a one-term table keeps its last axis of {self.width}")
        if shape[:-1] == self.idx.shape:
            return self
        return OneTerm(self.idx.reshape(shape[:-1]), self.val.reshape(shape[:-1]), self.width)

    def swapaxes(self, a: int, b: int) -> OneTerm:
        """Two leading axes exchanged."""
        return OneTerm(self.idx.swapaxes(a, b), self.val.swapaxes(a, b), self.width)

    def conj(self) -> OneTerm:
        return OneTerm(self.idx, self.val.conj(), self.width)

    def dense(self) -> np.ndarray:
        """The dense array; raises BudgetError before forming it above
        MAX_DENSE_ENTRIES."""
        check_size(prod(self.shape), f"dense one-term table of shape {self.shape}")
        out = np.zeros(self.shape, dtype=np.complex128)
        np.put_along_axis(out, self.idx[..., None], self.val[..., None], axis=-1)
        return out

    @functools.cached_property
    def positions(self) -> np.ndarray | None:
        """The (flat) row at each column, -1 at a column no row has, when
        the rows are distinct; else None."""
        if not self.val.all():
            return None
        pos = np.full(self.width, -1, dtype=np.intp)
        pos[self.idx.reshape(-1)] = np.arange(self.idx.size)
        pos.flags.writeable = False
        return pos if np.count_nonzero(pos >= 0) == self.idx.size else None

    def distinct(self) -> bool:
        """Whether every row is non-zero and no two rows share a column."""
        return self.positions is not None

    def distance(self, other: OneTerm) -> np.ndarray:
        """Frobenius distance of each row from other's, broadcast."""
        a, b = np.abs(self.val), np.abs(other.val)
        return np.where(self.idx == other.idx, np.abs(self.val - other.val), np.hypot(a, b))


def dense_table(table):
    """A table as a dense array: OneTerm.dense(), or the array itself."""
    return table.dense() if isinstance(table, OneTerm) else table


def row_table(rows) -> OneTerm | np.ndarray:
    """Rows (last axis) as a table: a OneTerm as it is, else a OneTerm
    when every row has exactly one non-zero entry, else the rows
    themselves."""
    if isinstance(rows, OneTerm):
        return rows
    terms = OneTerm.of_rows(rows)
    return rows if terms is None else terms


def _pick(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[..., idx[...]] along the last axis, for idx of table's leading shape."""
    flat = table.reshape(-1, table.shape[-1])
    return flat[np.arange(flat.shape[0]), idx.reshape(-1)].reshape(idx.shape)


# ---------------------------------------------------------------------------
# table operations: one branch for one-term tables, one for dense arrays


def _distinct(table) -> bool:
    return isinstance(table, OneTerm) and table.distinct()


def compose(a, rows):
    """The rows sum_l a[..., l] rows[l], for a table a as wide as rows has
    rows.  One-term a gathers the rows it names, scaled, and keeps one-term
    rows one-term; dense a scatters its products into one-term rows'
    columns, and takes one matrix product with dense rows."""
    if isinstance(a, OneTerm):
        picked = rows[a.idx]
        if isinstance(rows, OneTerm):
            val = a.val.reshape(a.val.shape + (1,) * (rows.idx.ndim - 1))
            return OneTerm(picked.idx, val * picked.val, rows.width)
        return a.val.reshape(a.val.shape + (1,) * (rows.ndim - 1)) * picked
    n = rows.shape[0]
    coef = a.reshape(-1, n)
    if not isinstance(rows, OneTerm):
        return (coef @ rows.reshape(n, -1)).reshape(a.shape[:-1] + rows.shape[1:])
    out_shape = a.shape[:-1] + rows.shape[1:]
    check_size(prod(out_shape), "composed rows")
    r = prod(rows.idx.shape[1:])
    cols = np.arange(r) * rows.width + rows.idx.reshape(n, r)
    out = np.zeros((coef.shape[0], r * rows.width), dtype=np.complex128)
    np.add.at(out, (slice(None), cols), coef[:, :, None] * rows.val.reshape(n, r))
    return out.reshape(out_shape)


def row_distance(x, y) -> np.ndarray:
    """Frobenius distance of each row of x from y's, broadcast over the
    leading axes: OneTerm.distance for two one-term tables, else the norm
    of the difference of the dense forms."""
    if isinstance(x, OneTerm) and isinstance(y, OneTerm):
        return x.distance(y)
    return np.linalg.norm(dense_table(x) - dense_table(y), axis=-1)


def row_norms(rows, ord=None) -> np.ndarray:
    """Norm of each row (numpy.linalg.norm's ord): |value| of a one-term row."""
    if isinstance(rows, OneTerm):
        return np.abs(rows.val)
    return np.linalg.norm(rows, ord, axis=-1)


def row_span(rows, eps_rank: float):
    """An orthonormal basis of the span of the (k, S) rows, as rows: for
    one-term rows with distinct columns (orthogonal, with singular values
    their |values|) the unit rows e_s of those that pass orthonormal_rows'
    eps_rank cut, in the rows' order, else orthonormal_rows."""
    if _distinct(rows):
        mags = np.abs(rows.val)
        keep = mags > eps_rank * mags.max()
        onb = OneTerm(rows.idx[keep], np.ones(np.count_nonzero(keep), dtype=np.complex128), rows.width)
        if keep.all():
            # the same columns in the same order: the rows' positions
            onb.__dict__["positions"] = rows.positions
        return onb
    return orthonormal_rows(dense_table(rows).reshape(rows.shape[0], -1), eps_rank)


def project(rows, onb) -> tuple:
    """(rows onb*, each row's distance from the span of the orthonormal
    rows onb).  A one-term onb must be unit rows with phases, u e_s with
    |u| = 1, at distinct columns: a one-term row v e_s then has the one
    coefficient v conj(u), or none and distance |v| when no onb row is at
    s, and dense rows are read at onb's columns by gather.  A dense onb
    takes one matrix product."""
    if isinstance(onb, OneTerm):
        if isinstance(rows, OneTerm):
            p = onb.positions[rows.idx]
            out = p < 0
            coeffs = rows.val * onb.val.conj()[p]
            coeffs[out] = p[out] = 0
            return OneTerm(p, coeffs, onb.idx.size), np.abs(rows.val) * out
        # the remainder is rows off onb's columns, as |u| = 1; read
        # through a float view, so no further copy of rows is made
        rem = np.array(rows, dtype=np.complex128)
        rem[..., onb.idx] = 0.0
        rem = rem.view(np.float64)
        return rows[..., onb.idx] * onb.val.conj(), np.sqrt(np.einsum("...i,...i->...", rem, rem))
    # rows onb*, with the conjugates taken of rows and the product, not of
    # the whole basis
    rows = dense_table(rows)
    coeffs = np.conj(np.conj(rows) @ onb.T)
    return coeffs, _remainder_norms(rows, coeffs, onb)


def expand_rows(targets, family, tol: Tolerance) -> tuple:
    """(table, residual): the target rows expanded in the (m, S) family
    rows, and the worst distance of a target from their span.  In one-term
    rows with distinct columns the one-term target v e_s is v / f_k times
    the member f_k at s, or a zero row at distance |v| when no member is
    at s; any other input takes expand_table on the dense forms, whose
    table is dense on its one-term path too."""
    if isinstance(targets, OneTerm) and _distinct(family):
        k = family.positions[targets.idx]
        out = k < 0
        val = targets.val / family.val[k]
        val[out] = k[out] = 0
        residual = float(np.abs(targets.val[out]).max(initial=0.0))
        return OneTerm(k, val, family.idx.size), residual
    t, f = dense_table(targets), dense_table(family)
    table, _, residual = expand_table(t.reshape(-1, t.shape[-1]), f, tol)
    return table.reshape(t.shape[:-1] + (f.shape[0],)), residual


def solve(a, b):
    """x with a x = b, for a square table a: one-term a with distinct
    columns is a scaled permutation, whose inverse gathers b's rows (by
    compose); any other a takes numpy.linalg.solve on the dense forms."""
    if _distinct(a) and a.shape[0] == a.width:
        owner = a.positions
        return compose(OneTerm(owner, 1.0 / a.val[owner], a.width), b)
    return np.linalg.solve(dense_table(a), dense_table(b))


def op_norm(a) -> float:
    """Operator norm of a (k, n) table: for one-term rows a* a is
    diagonal, so it is the largest column norm; else numpy's 2-norm."""
    if isinstance(a, OneTerm):
        col = np.bincount(a.idx.reshape(-1), np.abs(a.val.reshape(-1)) ** 2, minlength=a.width)
        return float(np.sqrt(col.max()))
    return float(np.linalg.norm(a, 2))


def row_blocks(rows, gathered: bool) -> list[slice]:
    """The blocks of rows whose products are formed at once: all of them
    when gathered (products of one-term rows are index arithmetic) and
    they are one-term rows with distinct columns, else one row at a time,
    so that no array of all products is held."""
    if gathered and _distinct(rows):
        return [slice(None)]
    return [slice(i, i + 1) for i in range(rows.shape[0])]


def concat_rows(tables):
    """Tables of one format joined along their leading axis."""
    if isinstance(tables[0], OneTerm):
        idx = np.concatenate([t.idx for t in tables])
        return OneTerm(idx, np.concatenate([t.val for t in tables]), tables[0].width)
    return np.concatenate(tables)


def _monomial_rows(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(col, val) of a (d, n, n) family with at most one non-zero entry
    per row and per column, b[i, a, col[i, a]] = val[i, a] (val 0 on an
    empty row), or None for any other family."""
    nz = basis != 0
    if nz.sum(axis=-1).max(initial=0) > 1 or nz.sum(axis=-2).max(initial=0) > 1:
        return None
    col = np.argmax(nz, axis=-1)
    return col, _pick(basis, col)


def _support_classes(col: np.ndarray, val: np.ndarray):
    """(cls, reps, owner) of _monomial_rows' (col, val) with no zero
    matrix, or None unless any two supports are equal or disjoint.

    cls[i] is the class of matrix i.  reps[c] is class c's support as a
    column a row (n on an empty row), and reps[C], for C classes, the
    empty support.  owner[a (n + 1) + b] is the class whose support holds
    the entry (a, b), C where none does and at b = n.  One pass writes
    each matrix's entries into owner; the supports are equal or disjoint
    exactly when every matrix finds all its entries owned by one matrix
    of its own support.
    """
    d, n = col.shape
    key = np.where(val != 0, col, n)
    i, a = np.nonzero(val)
    entries = a * (n + 1) + key[i, a]
    owner = np.full(n * (n + 1), -1, dtype=np.intp)
    owner[entries] = i
    head = np.empty(d, dtype=np.intp)
    head[i] = owner[entries]
    if np.any(owner[entries] != head[i]) or np.any(key[head] != key):
        return None
    is_head = np.zeros(d + 1, dtype=bool)
    is_head[head] = is_head[d] = True
    ids = np.cumsum(is_head) - 1
    owner = ids[owner]
    return ids[head], np.vstack([key, np.full(n, n)])[is_head], owner


def _monomial_tables(basis: np.ndarray, tol: Tolerance):
    """basis_tables' (mult, star, residual) by index arithmetic, or None.

    Applies when every matrix is monomial (_monomial_rows) and non-zero,
    and any two supports are equal or disjoint (_support_classes).  The
    product of members i of class a and j of class b is the row array
    val_i * val_j[col_a] on a support that depends on (a, b) alone, and
    an adjoint is the inverse column map with conjugated values.  Each
    target t is expanded among the members of its support's class, as
    every other matrix is orthogonal to it: as in expand_table, the member
    maximising |<f_k, t>| / ||f_k|| is taken, with value
    <f_k, t> / ||f_k||^2 (an empty support gives 0 e_0), so the result is
    expand_table's one-term table.  The products of each class pair and
    the adjoints of each class form one batch of d^2 n entries (classes
    padded to the largest).  None, so that the GEMM path decides, when
    the padded batch exceeds the GEMM stack's d^2 n^2 entries (uneven
    classes), a support is not a class's or some one-term defect exceeds
    eps_eq.
    """
    d, n = basis.shape[0], basis.shape[-1]
    mono = _monomial_rows(basis)
    if mono is None:
        return None
    col, val = mono
    sq = np.einsum("ij,ij->i", val.conj(), val).real
    classes = _support_classes(col, val) if np.all(sq > 0.0) else None
    if classes is None:
        return None
    cls, reps, owner = classes
    size = np.bincount(cls)
    c_n, k_n = size.size, int(size.max())
    pairs, t_n = c_n * c_n, k_n * k_n
    # the padded batch and its coefficients; uneven classes can make them
    # larger than the GEMM stack, whose path then decides
    batch_entries = (pairs + c_n) * t_n * max(n, k_n)
    if batch_entries > d * d * n * n:
        return None
    check_size(batch_entries, f"product table of {d} {n}x{n} matrices")
    # members[c, s] is the s-th matrix of class c; the padding (d, a zero
    # row) and the empty class c_n (matrix 0 with value 0) add no term
    order = np.argsort(cls, kind="stable")
    slot = np.empty(d, dtype=np.intp)
    slot[order] = np.arange(d) - np.repeat(np.cumsum(size) - size, size)
    members = np.full((c_n + 1, k_n), d, dtype=np.intp)
    members[cls, slot] = np.arange(d)
    members[c_n] = 0
    vals = np.vstack([val, np.zeros((1, n))])[members]
    vals[c_n] = 0.0
    inv_sq = np.append(1.0 / sq, 0.0)[members]
    inv_sq[c_n] = 0.0
    live = reps[:c_n] < n
    cols = np.where(live, reps[:c_n], 0)

    # batch a c_n + b: (b_i b_j)[r] = val_i[r] val_j[cols_a[r]] on the
    # support r -> reps_b[cols_a[r]]; batch pairs + a: b_i* has row
    # reps_a[r] holding conj(val_i[r])
    targets = np.zeros((pairs + c_n, t_n, n), dtype=np.complex128)
    right = vals[:c_n, :, cols].transpose(2, 0, 1, 3)
    prods = targets[:pairs].reshape(c_n, c_n, k_n, k_n, n)
    np.multiply(vals[:c_n, None, :, None], right[:, :, None], out=prods)
    keys = np.full((pairs + c_n, n), n, dtype=np.intp)
    right_keys = reps[:c_n, cols].transpose(1, 0, 2)
    keys[:pairs] = np.where(live[:, None], right_keys, n).reshape(pairs, n)
    a, r = np.nonzero(live)
    keys[pairs + a, reps[a, r]] = r
    targets[pairs + a, :k_n, reps[a, r]] = vals[a, :, r].conj()

    # each batch's class, from the owner of its first entry
    first = np.argmax(keys < n, axis=1)
    batch = owner[first * (n + 1) + keys[np.arange(pairs + c_n), first]]
    if np.any(reps[batch] != keys):
        return None
    rows = vals[batch]
    coef = targets @ rows.conj().swapaxes(1, 2)
    parts = coef.view(np.float64).reshape(pairs + c_n, t_n, k_n, 2)
    score = np.einsum("btkc,btkc->btk", parts, parts)
    score *= inv_sq[batch][:, None, :]
    k = np.argmax(score, axis=2).reshape(-1)
    pos = k + np.repeat(np.arange(pairs + c_n) * k_n, t_n)
    gen = members[batch].reshape(-1)[pos]
    c = coef.reshape(-1, k_n)[np.arange(k.size), k] / sq[gen]
    rem = (targets.reshape(-1, n) - c[:, None] * rows.reshape(-1, n)[pos]).view(np.float64)
    res = float(np.sqrt(np.max(np.einsum("tr,tr->t", rem, rem), initial=0.0)))
    if res > tol.eps_eq:
        return None
    gen, c = gen.reshape(-1, t_n), c.reshape(-1, t_n)
    i, j = cls[:, None] * c_n + cls[None, :], slot[:, None] * k_n + slot[None, :]
    mult = OneTerm(gen[i, j], c[i, j], d)
    return mult, OneTerm(gen[pairs + cls, slot], c[pairs + cls, slot], d), res


def basis_tables(basis: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """(mult, star, residual): the product and adjoint tables of a (d, n, n)
    family of matrices, each held as a OneTerm when one term a row.

    mult expands b_i b_j and star b_i* in the family; residual is the
    worst defect of either.  A monomial family whose supports are equal
    or disjoint takes _monomial_tables when its GEMM product stack would
    exceed INDEX_PATH_ENTRIES.  Any other family, and any whose tables
    are not one term a row, takes the GEMM path: the d^2 n^2
    product stack, one GEMM (d n, n) @ (n, d n) whose (i a, j c) entry is
    (b_i b_j)[a, c], reordered to rows (i, j) (the reordering copy briefly
    holds a second such array), expanded by expand_table; a table on its
    one-term path is a OneTerm, else the dense (d, d, d) or (d, d) array.
    Raises BudgetError before forming the products when they exceed
    MAX_DENSE_ENTRIES.
    """
    basis = np.asarray(basis, dtype=np.complex128)
    d, n = basis.shape[0], basis.shape[-1]
    if d * d * n * n > INDEX_PATH_ENTRIES:
        tables = _monomial_tables(basis, tol)
        if tables is not None:
            return tables
    check_size(d * d * n * n, f"product table of {d} {n}x{n} matrices")
    rows = basis.reshape(d, n * n)
    wide = basis.transpose(1, 0, 2).reshape(n, d * n)
    prods = (basis.reshape(d * n, n) @ wide).reshape(d, n, d, n)
    prods = prods.transpose(0, 2, 1, 3).reshape(d * d, n * n)
    mult, mono, res = expand_table(prods, rows, tol)
    mult = (mult if mono is None else OneTerm(*mono, d)).reshape(d, d, d)
    adjs = basis.conj().transpose(0, 2, 1).reshape(d, n * n)
    star, s_mono, s_res = expand_table(adjs, rows, tol)
    return mult, star if s_mono is None else OneTerm(*s_mono, d), max(res, s_res)


def read_only(*tables) -> None:
    """Mark arrays, and the idx and val of OneTerm tables, read-only, so
    that an object shared by every caller cannot be written through."""
    for t in tables:
        for a in (t.idx, t.val) if isinstance(t, OneTerm) else (t,):
            a.flags.writeable = False


@dataclass(frozen=True)
class Frame:
    """Orthonormal rows spanning a *-algebra of size x size matrices, with
    their basis_tables: mult, star and the worst defect of either,
    residual.  generators are the matrices the frame was built from, at
    tolerance tol; coords and identity, their frame_coords and those of
    the identity, and coord_table and identity_table, the same rows as
    row_table gives them, are formed on first read.  Every array is
    read-only."""

    size: int
    rows: np.ndarray
    mult: OneTerm | np.ndarray
    star: OneTerm | np.ndarray
    residual: float
    generators: np.ndarray
    tol: Tolerance

    @functools.cached_property
    def coords(self) -> np.ndarray:
        """(k, dim) coordinates of the k generators, row i of generator i."""
        return _held_coords(self.rows, self.generators, self.tol)

    @functools.cached_property
    def identity(self) -> np.ndarray:
        """(dim,) coordinates of the identity."""
        return _held_coords(self.rows, np.eye(self.size), self.tol)[0]

    @functools.cached_property
    def coord_table(self) -> OneTerm | np.ndarray:
        """coords as a (k,) table, one-term when every generator is one
        frame element up to a factor."""
        table = row_table(self.coords)
        read_only(table)
        return table

    @functools.cached_property
    def identity_table(self) -> OneTerm | np.ndarray:
        """identity as a (1,) table, one-term when it is one frame element
        up to a factor."""
        table = row_table(self.identity[None])
        read_only(table)
        return table


def frame_coords(
    rows: np.ndarray, mats, tol: Tolerance = DEFAULT_TOL, what: str = "matrix"
) -> np.ndarray:
    """(N, k) coordinates of N matrices in the k orthonormal rows, one
    product for the stack.

    mats is one matrix or an (N, n, n) stack.  A matrix within
    eps_eq * max(1, ||m||) of one c f_k gets the one-hot row c e_k, so
    monomials stay exactly sparse; any other is its projection, and
    RuntimeError names what is outside the span when that projection
    misses by more than the bound.
    """
    v = np.asarray(mats, dtype=np.complex128)
    v = v.reshape(-1, v.shape[-1] * v.shape[-1])
    c = v @ rows.conj().T
    bound = tol.eps_eq * np.maximum(1.0, np.linalg.norm(v, axis=1))
    r = np.arange(v.shape[0])
    k = np.argmax(np.abs(c), axis=1)
    ck = c[r, k]
    one = np.linalg.norm(v - ck[:, None] * rows[k], axis=1) <= bound
    if not one.all():
        rest = np.flatnonzero(~one)
        if np.any(np.linalg.norm(v[rest] - c[rest] @ rows, axis=1) > bound[rest]):
            raise RuntimeError(f"{what} is outside its frame span")
        r, k, ck = r[one], k[one], ck[one]
    c[r] = 0.0
    c[r, k] = ck
    return c


def _held_coords(rows: np.ndarray, mats, tol: Tolerance) -> np.ndarray:
    """frame_coords of matrices a frame holds, read-only."""
    c = frame_coords(rows, mats, tol, "a frame's own matrix")
    c.flags.writeable = False
    return c


def _kept_generators(rows: np.ndarray, tol: Tolerance) -> np.ndarray | None:
    """The normalised generators as a frame, or None if they need rotating.

    Generators below the eps_rank cut are ignored, as orthonormal_rows
    would.  Every two of the others must overlap, |<u_i, u_j>| of the unit
    rows, below eps_eq or above 1 - eps_eq (phase repeats); the first of
    each class of repeats is kept, in order, found in one pass over the
    overlap matrix.  None when some pair overlaps partially or some input
    is not certified to lie in the span of the kept rows.
    """
    norms = np.linalg.norm(rows, axis=1)
    live = np.flatnonzero(norms > tol.eps_rank * float(np.max(norms)))
    unit = rows[live] / norms[live, None]
    overlap = np.abs(unit.conj() @ unit.T)
    if np.any((overlap > tol.eps_eq) & (overlap < 1.0 - tol.eps_eq)):
        return None
    kept = unit[~np.tril(overlap >= 1.0 - tol.eps_eq, -1).any(axis=1)]
    if np.any(residual_outside(rows, kept) > tol.eps_eq * np.maximum(1.0, norms)):
        return None
    return kept


def frame(mats, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """The certified frame of the span of some square matrices.

    The frame keeps the generators, normalised, when they are orthogonal
    up to eps_eq apart from phase repeats (which are dropped) and every
    generator is certified to lie in the span of the kept ones; otherwise
    it is the SVD basis of orthonormal_rows.  The span must be closed
    under products and adjoints: residual measures how well the tables
    hold, it is never assumed.
    """
    mats = [cmatrix(m) for m in mats]
    if not mats:
        raise ValueError("every leg needs at least one matrix")
    n = mats[0].shape[0]
    given = np.stack([cmatrix(m, n).reshape(-1) for m in mats])
    rows = _kept_generators(given, tol)
    if rows is None:
        rows = orthonormal_rows(given, tol.eps_rank)
    mult, star, res = basis_tables(rows.reshape(-1, n, n), tol)
    generators = given.reshape(-1, n, n)
    read_only(rows, mult, star, generators)
    return Frame(n, rows, mult, star, res, generators, tol)


def table_defect(mult, star, images, prods, stars) -> tuple[float, float]:
    """(product, adjoint) defect of images against a basis's tables.

    mult and star are basis_tables' tables; images[k] is the image of
    basis element k, prods[i, j] the product of images i and j, stars[i]
    the adjoint of image i, each a table of rows or dense of any shape.
    The defects are the worst row_distance of prods from
    compose(mult, images) and of stars from compose(star, images), zero
    exactly for a *-homomorphism b_k -> images[k].
    """
    m = images.shape[0]
    img = images.reshape(m, -1)
    hom = row_distance(prods.reshape(m, m, -1), compose(mult, img))
    adj = row_distance(stars.reshape(m, -1), compose(star, img))
    return float(hom.max()), float(adj.max())


# ---------------------------------------------------------------------------
# subspaces of a matrix algebra


@dataclass(frozen=True)
class Subspace:
    """HS-orthonormally based linear subspace of the n x n matrices."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, n, n), orthonormal rows when flattened

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self) -> np.ndarray:
        return self.basis.reshape(self.dim, -1)

    def contains(self, mat: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.contains_residual(mat) <= tol.eps_eq * max(1.0, hs_norm(mat))

    def coords_of(self, mat: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of mat in the basis; raises outside the span.

        The bound is eps_eq * max(1, ||mat||) on the distance from the span.
        """
        vec = cmatrix(mat, self.ambient_dim).reshape(-1)
        coords = self.coords()
        row = coords.conj() @ vec
        res = float(np.linalg.norm(vec - row @ coords))
        if res > tol.eps_eq * max(1.0, hs_norm(vec)):
            raise ValueError(f"element lies outside the subspace (residual {res:.2e})")
        return row

    def contains_residual(self, mat: np.ndarray) -> float:
        mat = cmatrix(mat, self.ambient_dim)
        return float(residual_outside(mat.reshape(1, -1), self.coords())[0])

    def project(self, mat: np.ndarray) -> np.ndarray:
        mat = cmatrix(mat, self.ambient_dim)
        c = self.coords()
        return ((mat.reshape(1, -1) @ c.conj().T) @ c).reshape(mat.shape)


@dataclass(frozen=True)
class AlgebraBasis:
    """Subspace certified closed under products and adjoints.

    closure_residual is the worst Frobenius distance of a basis product or
    adjoint from the span; contains_identity refers to the ambient identity.
    """

    space: Subspace
    contains_identity: bool
    closure_residual: float

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> np.ndarray:
        return self.space.basis


def span_basis(mats, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormalized span of a list of same-shaped square matrices."""
    mats = [cmatrix(m) for m in mats]
    if not mats:
        raise ValueError("cannot infer ambient dimension from an empty list")
    n = mats[0].shape[0]
    rows = np.stack([m.reshape(-1) for m in (cmatrix(m, n) for m in mats)])
    onb = orthonormal_rows(rows, tol.eps_rank)
    return Subspace(ambient_dim=n, basis=onb.reshape(-1, n, n))


def subspace_equal(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Mutual-projection test for equality of two subspaces."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    ra = float(np.max(residual_outside(a.coords(), b.coords())))
    rb = float(np.max(residual_outside(b.coords(), a.coords())))
    return max(ra, rb) <= tol.eps_eq


def _closure_round(
    coords: np.ndarray, n: int, tol: Tolerance, keep=None
) -> tuple[AlgebraBasis | None, np.ndarray | None, tuple[float, float] | None]:
    """(algebra, stack, own): one multiplicative_closure round on coords.

    The products b_i b_j of the orthonormal rows are formed one left
    factor at a time, then the adjoints.  They add no rank when their
    residual outside the span is below eps_rank, else `rank` of the stack
    [coords; products; adjoints] decides.  algebra is the AlgebraBasis on
    coords when closed, else None and stack is returned to grow from.
    keep = ((k, k, k), (k, k)) boolean arrays names the rows each product
    and adjoint should lie on; own is their worst distance from those.
    Raises BudgetError before forming the k-product blocks, or the
    (k^2 + 2k) n^2 rank stack, when that exceeds MAX_DENSE_ENTRIES.
    """
    k = coords.shape[0]
    check_size(k * n * n, f"closure products of {k} {n}x{n} matrices")
    basis = coords.reshape(k, n, n)
    coords_h = coords.conj().T
    adjs = basis.conj().transpose(0, 2, 1).reshape(k, n * n)
    # row i < k: the products b_i b_j, formed in a reused buffer; row k: adjoints
    outside = np.empty((k + 1, k))
    mine = np.empty((k + 1, k))
    block = np.empty((k, n, n), dtype=np.complex128)
    rem = np.empty((k, n * n), dtype=np.complex128)
    for i in range(k + 1):
        vecs = np.matmul(basis[i], basis, out=block).reshape(k, n * n) if i < k else adjs
        coeffs = vecs @ coords_h
        outside[i] = _remainder_norms(vecs, coeffs, coords, rem)
        if keep is not None:
            mask = keep[0][i] if i < k else keep[1]
            mine[i] = _remainder_norms(vecs, coeffs * mask, coords, rem)
    own = None if keep is None else (float(np.max(mine[:k])), float(np.max(mine[k])))
    # [coords; products; adjoints] has s_k >= 1 (orthonormal coords, words
    # of norm <= 1) and s_{k+1} <= ||outside||, so a residual below
    # eps_rank already means rank k; otherwise the singular values decide.
    if np.linalg.norm(outside) > tol.eps_rank:
        check_size((k * k + 2 * k) * n * n, f"closure rank stack of {k} {n}x{n} matrices")
        prods = np.matmul(basis[:, None], basis[None, :]).reshape(k * k, n * n)
        stack = np.vstack([coords, prods, adjs])
        if rank(stack, tol.eps_rank) != k:
            return None, stack, own
    id_res = float(residual_outside(np.eye(n, dtype=np.complex128).reshape(1, -1), coords)[0])
    algebra = AlgebraBasis(
        space=Subspace(ambient_dim=n, basis=basis),
        contains_identity=id_res <= tol.eps_eq * np.sqrt(n),
        closure_residual=float(np.max(outside)),
    )
    return algebra, None, own


def multiplicative_closure(generators, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Smallest *-subalgebra span containing the generators.

    Alternates span extension with pairwise products (lexicographic order)
    and adjoints until the dimension stabilizes, each round decided by
    _closure_round.  Deterministic for a fixed generator order.  The first
    basis is the normalised generators when they are exactly orthogonal,
    else their orthonormal_rows; each extension is the orthonormal_rows
    of the stack, and the last basis is returned.
    """
    gens = [cmatrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    gens = [cmatrix(g, n) for g in gens]
    rows = np.stack([g.reshape(-1) for g in gens])
    gram = rows @ rows.conj().T
    norms = np.sqrt(np.diag(gram).real)
    if not np.any(gram - np.diag(np.diag(gram))):
        # exactly orthogonal generators (disjoint supports, say) have their
        # norms as singular values: normalised, they already are a basis
        keep = norms > tol.eps_rank * np.max(norms)
        coords = rows[keep] / norms[keep, None]
    else:
        coords = orthonormal_rows(rows, tol.eps_rank)
    while True:
        algebra, stack, _ = _closure_round(coords, n, tol)
        if algebra is not None:
            return algebra
        coords = orthonormal_rows(stack, tol.eps_rank)


def internal_unit(alg: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Unit element of the algebra (its support identity), or None.

    Solves e * b = b = b * e over e in the span; every finite-dimensional
    algebra closed under products and adjoints has one, so None signals
    that the input was not actually closed.
    """
    basis = alg.basis
    d, n = alg.dim, alg.ambient_dim
    if d == 0:
        return None
    if alg.contains_identity:
        return np.eye(n, dtype=np.complex128)
    # rows indexed by (j, entry), columns by the coefficient index i
    left = np.einsum("iab,jbc->jaci", basis, basis).reshape(d * n * n, d)
    right = np.einsum("jab,ibc->jaci", basis, basis).reshape(d * n * n, d)
    rhs = basis.reshape(d * n * n)
    coeff, *_ = np.linalg.lstsq(
        np.vstack([left, right]), np.concatenate([rhs, rhs]), rcond=None
    )
    e = np.einsum("i,iab->ab", coeff, basis)
    worst = max(
        float(np.linalg.norm(e @ m - m)) + float(np.linalg.norm(m @ e - m))
        for m in basis
    )
    if worst > tol.eps_eq * d:
        return None
    return e
