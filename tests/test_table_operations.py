"""matspan's table operations: each one-term branch against the dense one.

Every operation is run on one-term tables and on their dense forms, and in
mixed formats, on rows with distinct columns, rows that share a column
and tables with a zero row; the results must agree within 1e-15.  A
one-term result must stay one-term exactly when the operation says so.
"""

import numpy as np
import pytest

from qtwist.matspan import (
    DEFAULT_TOL,
    OneTerm,
    compose,
    concat_rows,
    dense_table,
    expand_rows,
    op_norm,
    orthonormal_rows,
    project,
    rank,
    residual_outside,
    row_blocks,
    row_distance,
    row_norms,
    row_span,
    solve,
)

TOL = 1e-15
RNG = np.random.default_rng(11)


def _phases(n):
    return np.exp(2j * np.pi * RNG.random(n)) * (0.5 + RNG.random(n))


def _terms(idx, width, zero=()):
    idx = np.asarray(idx)
    val = _phases(idx.size).reshape(idx.shape)
    val[list(zero)] = 0.0
    return OneTerm(np.where(val != 0, idx, 0), val, width)


# rows over 7 columns: apart, sharing a column, and with a zero row
ROWS = {
    "distinct": _terms([3, 0, 5, 1], 7),
    "shared": _terms([2, 2, 4, 0], 7),
    "zero-row": _terms([1, 6, 3, 0], 7, zero=[1]),
}
FORMATS = ["one-term", "dense"]


def _as(table, fmt):
    return table if fmt == "one-term" else dense_table(table)


def _close(got, want):
    assert np.max(np.abs(dense_table(got) - dense_table(want)), initial=0.0) <= TOL


@pytest.mark.parametrize("rows_fmt", FORMATS)
@pytest.mark.parametrize("a_fmt", FORMATS)
@pytest.mark.parametrize("a_case", sorted(ROWS))
@pytest.mark.parametrize("rows_case", sorted(ROWS))
def test_compose(rows_case, a_case, a_fmt, rows_fmt):
    # a: (2, 4) rows over the 4 rows of rows, a one-term table of width 4
    a = ROWS[a_case]
    a = OneTerm(a.idx.reshape(2, 2) % 4, a.val.reshape(2, 2), 4)
    rows = ROWS[rows_case]
    got = compose(_as(a, a_fmt), _as(rows, rows_fmt))
    want = np.einsum("ijl,ls->ijs", dense_table(a), dense_table(rows))
    assert got.shape == want.shape
    _close(got, want)
    assert isinstance(got, OneTerm) == (a_fmt == rows_fmt == "one-term")
    # rows with two leading axes, and a table against them
    rows2 = rows.reshape(2, 2, -1)
    b = OneTerm(a.idx % 2, a.val, 2)
    got2 = compose(_as(b, a_fmt), _as(rows2, rows_fmt))
    _close(got2, np.einsum("ijl,lrs->ijrs", dense_table(b), dense_table(rows2)))


@pytest.mark.parametrize("y_fmt", FORMATS)
@pytest.mark.parametrize("x_fmt", FORMATS)
@pytest.mark.parametrize("y_case", sorted(ROWS))
@pytest.mark.parametrize("x_case", sorted(ROWS))
def test_row_distance(x_case, y_case, x_fmt, y_fmt):
    x, y = ROWS[x_case], ROWS[y_case]
    got = row_distance(_as(x, x_fmt), _as(y, y_fmt))
    want = np.linalg.norm(dense_table(x) - dense_table(y), axis=-1)
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("ord", [None, 1])
@pytest.mark.parametrize("case", sorted(ROWS))
def test_row_norms(case, ord):
    rows = ROWS[case]
    want = np.linalg.norm(dense_table(rows), ord, axis=-1)
    assert np.max(np.abs(row_norms(rows, ord) - want)) <= TOL


@pytest.mark.parametrize("case", sorted(ROWS))
def test_row_span_and_rank(case):
    rows = ROWS[case]
    dense = dense_table(rows)
    got, want = row_span(rows, DEFAULT_TOL.eps_rank), orthonormal_rows(dense, DEFAULT_TOL.eps_rank)
    assert isinstance(got, OneTerm) == rows.distinct()
    assert got.shape == want.shape
    assert np.max(residual_outside(dense_table(got), want), initial=0.0) <= TOL
    assert np.max(residual_outside(want, dense_table(got)), initial=0.0) <= TOL
    assert rank(rows, DEFAULT_TOL.eps_rank) == rank(dense, DEFAULT_TOL.eps_rank) == want.shape[0]


@pytest.mark.parametrize("onb_fmt", FORMATS)
@pytest.mark.parametrize("rows_fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(ROWS))
def test_project(case, rows_fmt, onb_fmt):
    # unit rows with phases at columns 0, 3 and 4
    onb = OneTerm(np.array([0, 3, 4]), np.exp(1j * np.array([0.3, -1.2, 2.0])), 7)
    rows = ROWS[case]
    coeffs, dist = project(_as(rows, rows_fmt), _as(onb, onb_fmt))
    dense_onb = dense_table(onb)
    want = dense_table(rows) @ dense_onb.conj().T
    _close(coeffs, want)
    assert np.max(np.abs(dist - residual_outside(dense_table(rows), dense_onb))) <= TOL
    assert isinstance(coeffs, OneTerm) == (rows_fmt == onb_fmt == "one-term")


@pytest.mark.parametrize("family_fmt", FORMATS)
@pytest.mark.parametrize("targets_fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(ROWS))
def test_expand_rows(case, targets_fmt, family_fmt):
    family = ROWS["distinct"]
    targets = ROWS[case]
    got, res = expand_rows(_as(targets, targets_fmt), _as(family, family_fmt), DEFAULT_TOL)
    dense, dense_res = expand_rows(dense_table(targets), dense_table(family), DEFAULT_TOL)
    _close(got, dense)
    assert abs(res - dense_res) <= TOL
    # and the dense form is the least-squares expansion
    coef = dense_table(targets) @ np.linalg.pinv(dense_table(family))
    want = np.max(np.linalg.norm(dense_table(targets) - coef @ dense_table(family), axis=1))
    assert np.max(np.abs(dense - coef)) <= 1e-14 and abs(dense_res - want) <= 1e-14
    assert isinstance(got, OneTerm) == (targets_fmt == family_fmt == "one-term")


@pytest.mark.parametrize("b_fmt", FORMATS)
@pytest.mark.parametrize("a_fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(ROWS))
def test_solve(case, a_fmt, b_fmt):
    # a scaled permutation of 4 rows, against right-hand sides with shared
    # columns and zero rows
    a = OneTerm(np.array([2, 0, 3, 1]), _phases(4), 4)
    b = ROWS[case]
    got = solve(_as(a, a_fmt), _as(b, b_fmt))
    _close(got, np.linalg.solve(dense_table(a), dense_table(b)))
    assert isinstance(got, OneTerm) == (a_fmt == b_fmt == "one-term")


@pytest.mark.parametrize("case", sorted(ROWS))
def test_op_norm(case):
    a = ROWS[case]
    assert abs(op_norm(a) - op_norm(dense_table(a))) <= TOL
    assert abs(op_norm(dense_table(a)) - np.linalg.norm(dense_table(a), 2)) == 0.0


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(ROWS))
def test_row_blocks_and_concat_rows(case, fmt):
    rows = _as(ROWS[case], fmt)
    at_once = fmt == "one-term" and ROWS[case].distinct()
    for gathered in (True, False):
        blocks = row_blocks(rows, gathered)
        assert len(blocks) == (1 if gathered and at_once else rows.shape[0])
        joined = concat_rows([rows[b] for b in blocks])
        assert isinstance(joined, OneTerm) == (fmt == "one-term")
        _close(joined, ROWS[case])


@pytest.mark.parametrize("case", sorted(ROWS))
def test_one_term_reshape_swapaxes_and_conj_follow_the_dense_form(case):
    rows = ROWS[case]
    dense = dense_table(rows)
    _close(rows.reshape(2, 2, -1), dense.reshape(2, 2, -1))
    _close(rows.reshape(2, 2, 7).swapaxes(0, 1), dense.reshape(2, 2, 7).swapaxes(0, 1))
    _close(rows.conj(), dense.conj())
    with pytest.raises(ValueError):
        rows.reshape(2, 14)
