"""Tests for the matrix-span toolkit."""

import numpy as np
import pytest

from qtwist.abgroup import FinAbGroup
from qtwist.coact import character_grading
from qtwist.matspan import (
    DEFAULT_TOL,
    Tolerance,
    cmatrix,
    expand_in_rows,
    hs_inner,
    hs_norm,
    multiplicative_closure,
    orthonormal_rows,
    rank,
    residual_outside,
    OneTerm,
    basis_tables,
    dense_table,
    span_basis,
    subspace_equal,
    table_defect,
)

from dense_oracle import center, find_generator_isomorphism

I2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_tolerance_bounds():
    with pytest.raises(ValueError):
        Tolerance(eps_rank=0.5)
    with pytest.raises(ValueError):
        Tolerance(eps_eq=-1e-9)
    t = Tolerance(eps_rank=1e-10, eps_eq=1e-7)
    assert t.eps_rank == 1e-10


def test_cmatrix_shape_guard():
    with pytest.raises(ValueError):
        cmatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cmatrix(I2, dim=3)
    assert cmatrix([[1, 0], [0, 1]]).dtype == np.complex128


def test_hs_inner_norm():
    assert hs_inner(SX, SY) == 0
    assert hs_inner(SX, SX) == pytest.approx(2)
    assert hs_norm(SZ) == pytest.approx(np.sqrt(2))


def test_span_basis_dimension_and_orthonormality():
    sp = span_basis([I2, SX, I2 + SX])
    assert sp.dim == 2
    gram = sp.coords() @ sp.coords().conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_containment_and_projection():
    sp = span_basis([I2, SX])
    assert sp.contains(3 * I2 - 2j * SX)
    assert not sp.contains(SY)
    assert sp.contains_residual(SY) == pytest.approx(np.sqrt(2))
    assert np.allclose(sp.project(SY), 0)
    assert np.allclose(sp.project(SX + SY), SX)


def test_subspace_equality():
    a = span_basis([I2, SX])
    b = span_basis([I2 + SX, I2 - SX])
    c = span_basis([I2, SY])
    assert subspace_equal(a, b)
    assert not subspace_equal(a, c)
    assert not subspace_equal(a, span_basis([I2]))


def test_residual_outside_matches_dense_norms():
    rng = np.random.default_rng(5)
    onb = orthonormal_rows(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)), 1e-9)
    for rows in (
        rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)),
        rng.standard_normal((4, 6)),
    ):
        want = np.linalg.norm(rows - (rows @ onb.conj().T) @ onb, axis=1)
        assert np.max(np.abs(residual_outside(rows, onb) - want)) < 1e-12
    assert np.max(residual_outside(onb, onb)) < 1e-12
    real_onb = orthonormal_rows(rng.standard_normal((2, 6)), 1e-9).real
    rows = rng.standard_normal((4, 6))
    want = np.linalg.norm(rows - (rows @ real_onb.T) @ real_onb, axis=1)
    assert np.max(np.abs(residual_outside(rows, real_onb) - want)) < 1e-12
    empty = np.zeros((0, 6), dtype=np.complex128)
    assert np.array_equal(residual_outside(rows, empty), np.linalg.norm(rows, axis=1))


def test_expand_in_rows():
    fam = np.array([[1, 0], [1, 1]], dtype=np.complex128)
    target = np.array([[0, 1]], dtype=np.complex128)
    coeffs, res = expand_in_rows(target, fam)
    assert np.allclose(coeffs, [[-1, 1]])
    assert res[0] < 1e-12


def test_multiplicative_closure_pauli_generates_m2():
    alg = multiplicative_closure([SX, SZ])
    assert alg.dim == 4
    assert alg.contains_identity
    assert alg.closure_residual < 1e-12


def test_multiplicative_closure_corner_is_not_unital():
    alg = multiplicative_closure([E11])
    assert alg.dim == 1
    assert not alg.contains_identity


def test_multiplicative_closure_off_diagonal_generates_m2():
    # e12 forces e21 (adjoint) and then both diagonal projections
    e12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    alg = multiplicative_closure([e12])
    assert alg.dim == 4
    assert alg.contains_identity


def test_multiplicative_closure_orthogonal_and_rotated_generators_agree():
    # exactly orthogonal generators are normalised, not rotated; a mixed
    # family with the same span starts from the SVD; the algebras agree
    from qtwist.qgroup import translations

    lam = list(translations(FinAbGroup((2, 2))).values())
    direct = multiplicative_closure(lam)
    mixed = multiplicative_closure([lam[0] + lam[1], lam[1], lam[2] - 1j * lam[3], lam[3]])
    assert np.array_equal(direct.basis, np.stack(lam) / 2)
    assert direct.dim == mixed.dim == 4
    assert subspace_equal(direct.space, mixed.space)
    for alg in (direct, mixed):
        assert alg.contains_identity
        assert alg.closure_residual < 1e-12
    # a zero generator is orthogonal to everything and is dropped
    assert multiplicative_closure([SX, 0 * SZ]).dim == 2


def test_center_of_full_matrix_algebra():
    alg = multiplicative_closure([SX, SZ])
    z = center(alg)
    assert z.dim == 1
    assert z.contains(I2)


def test_center_of_commutative_algebra():
    alg = multiplicative_closure([np.diag([1.0, 2.0]).astype(np.complex128)])
    assert alg.dim == 2
    z = center(alg)
    assert z.dim == 2


def test_generator_isomorphism_hadamard():
    # swapping sigma_x and sigma_z is conjugation by the Hadamard unitary
    alg = multiplicative_closure([SX, SZ])
    iso = find_generator_isomorphism(alg, [SX, SZ], alg, [SZ, SX])
    assert iso is not None
    assert iso.report["multiplicativity"] < 1e-8
    assert np.allclose(iso.apply(SX), SZ, atol=1e-8)
    h = (SX + SZ) / np.sqrt(2)
    assert np.allclose(iso.apply(SY), h @ SY @ h, atol=1e-8)
    # linearity
    assert np.allclose(iso.apply(2 * SX + 3j * SZ), 2 * SZ + 3j * SX, atol=1e-8)


def test_generator_isomorphism_detects_broken_relation():
    # sigma_z squares to 1 but diag(1, 2) does not
    alg1 = multiplicative_closure([SX, SZ])
    alg2 = multiplicative_closure([SX, np.diag([1.0, 2.0]).astype(np.complex128)])
    assert alg2.dim == 4
    assert find_generator_isomorphism(alg1, [SX, SZ], alg2, [SX, np.diag([1.0, 2.0])]) is None


def test_generator_isomorphism_dim_mismatch():
    alg1 = multiplicative_closure([SX, SZ])
    alg2 = multiplicative_closure([SX])
    assert find_generator_isomorphism(alg1, [SX, SZ], alg2, [SX, SX]) is None


def test_generator_isomorphism_family_must_generate():
    alg = multiplicative_closure([SX, SZ])
    with pytest.raises(ValueError):
        find_generator_isomorphism(alg, [I2], alg, [I2])


def test_generator_isomorphism_random_conjugation():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        b = b + b.conj().T
        alg1 = multiplicative_closure([a, b])
        assert alg1.dim == n * n  # generic pairs generate everything
        u = haar_unitary(n, rng)
        ua, ub = u @ a @ u.conj().T, u @ b @ u.conj().T
        alg2 = multiplicative_closure([ua, ub])
        iso = find_generator_isomorphism(alg1, [a, b], alg2, [ua, ub])
        assert iso is not None
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.allclose(iso.apply(c), u @ c @ u.conj().T, atol=1e-7)


# ---------------------------------------------------------------------------
# product and adjoint tables


def rebase(mult, star, t):
    """Tables of the family t @ basis from those of the basis (t unitary)."""
    return (
        np.einsum("pa,qb,abc,rc->pqr", t, t, mult, t.conj()),
        t.conj() @ star @ t.conj().T,
    )


def test_basis_tables_monomial_and_dense_paths_agree():
    graded = character_grading(FinAbGroup((6,)))
    homs = np.stack([m for _, m in graded.homogeneous_basis()])
    rotated = span_basis(list(homs)).basis
    mono, st_h, res_h = basis_tables(homs)
    mu_r, st_r, res_r = basis_tables(rotated)
    # the homogeneous basis multiplies monomially, its rotation does not
    assert isinstance(mono, OneTerm) and not isinstance(mu_r, OneTerm)
    mu_h, st_h = dense_table(mono), dense_table(st_h)
    i, j = np.indices(mono.idx.shape)
    assert np.array_equal(mu_h[i, j, mono.idx], mono.val)
    assert np.count_nonzero(mu_h) == mono.idx.size
    assert max(res_h, res_r) < 1e-12
    t = homs.reshape(6, -1) @ rotated.reshape(6, -1).conj().T
    assert np.linalg.norm(t @ t.conj().T - np.eye(6)) < 1e-12
    mu, st = rebase(mu_r, st_r, t)
    assert np.max(np.abs(mu - mu_h)) <= 1e-12
    assert np.max(np.abs(st - st_h)) <= 1e-12


def test_basis_tables_unnormalised_rows_take_the_monomial_path():
    # clock and shift monomials divided by n: orthogonal rows of norm
    # n^-1/2, whose products are single rows times phase / n, so the
    # one-term test divides by the squared row norm
    n = 4
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    shift = np.roll(np.eye(n), 1, axis=0).astype(np.complex128)
    fam = np.stack(
        [
            np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b) / n
            for a in range(n)
            for b in range(n)
        ]
    )
    m = n * n
    mult, star, res = basis_tables(fam)
    assert isinstance(mult, OneTerm)
    assert res < 1e-12
    mult, star = dense_table(mult), dense_table(star)
    rows = fam.reshape(m, -1)
    prods = np.einsum("iab,jbc->ijac", fam, fam).reshape(m * m, -1)
    want_mult, _ = expand_in_rows(prods, rows)
    want_star, _ = expand_in_rows(fam.conj().transpose(0, 2, 1).reshape(m, -1), rows)
    assert np.max(np.abs(mult.reshape(m * m, m) - want_mult)) <= 1e-12
    assert np.max(np.abs(star - want_star)) <= 1e-12


def test_rank_counts_the_rows_orthonormal_rows_returns():
    rng = np.random.default_rng(11)
    full = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    deficient = rng.standard_normal((6, 3)) @ full[:3]
    # zero columns, as in Kronecker rows, are dropped before the SVD
    sparse = np.hstack([deficient, np.zeros((6, 7))])[:, rng.permutation(16)]
    for rows in (full, deficient, sparse, np.zeros((0, 9)), np.zeros((4, 9))):
        want = orthonormal_rows(rows, DEFAULT_TOL.eps_rank).shape[0]
        assert rank(rows, DEFAULT_TOL.eps_rank) == want
    assert rank(deficient, DEFAULT_TOL.eps_rank) == rank(sparse, DEFAULT_TOL.eps_rank) == 3


def test_basis_tables_unclosed_span_reports_its_residual():
    # SX SZ = -i SY lies outside span(1, SX, SZ)
    mult, _, res = basis_tables(np.stack([I2, SX, SZ]) / np.sqrt(2))
    assert not isinstance(mult, OneTerm)
    assert res > DEFAULT_TOL.eps_eq


def test_table_defect_separates_homomorphisms_from_transposition():
    basis = np.stack([I2, SX, SY, SZ]) / np.sqrt(2)
    mult, star, _ = basis_tables(basis)
    # the Pauli basis multiplies one term a row: table_defect reads the
    # OneTerm tables by gather and their dense forms by GEMM, alike
    assert isinstance(mult, OneTerm) and isinstance(star, OneTerm)

    def defect(images, tables):
        return table_defect(
            *tables,
            images,
            np.einsum("iab,jbc->ijac", images, images),
            images.conj().transpose(0, 2, 1),
        )

    u = haar_unitary(2, np.random.default_rng(5))
    dense = (dense_table(mult), dense_table(star))
    for tables in ((mult, star), dense):
        hom, adj = defect(np.einsum("ab,ibc,cd->iad", u, basis, u.conj().T), tables)
        assert max(hom, adj) < 1e-12
        # transposition keeps adjoints but reverses products
        hom, adj = defect(basis.transpose(0, 2, 1), tables)
        assert adj < 1e-12
        assert hom > 0.1
