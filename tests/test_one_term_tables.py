"""One-term tables: the index path of basis_tables and the crossed products
held as (index, value) arrays, against the GEMM and dense-certificate oracles.

Every family that the tori (n <= 6), the crossed products over
cli.group_catalog(8) and run_suite(0, 4) pass to basis_tables is recorded;
on each monomial one, matspan._monomial_tables must give the GEMM oracle's
index arrays, with values and residual within 1e-12.  Negative controls
perturb one generator entry or use partly overlapping supports and must
leave the index path for the GEMM path, with the oracle's verdict.
table_defect, which reads a one-term table by gather, must match its
result on the dense table within 1e-15 for every grading kind over
cli.group_catalog(8), and a perturbed image must fail on both.
"""

from dataclasses import replace

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import apps, boxtimes, cli, coact, matspan
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.apps import finite_torus, reduced_crossed_product
from qtwist.boxtimes import build_via_heisenberg, heisenberg_markings
from qtwist.coact import delta_grading
from qtwist.matspan import (
    DEFAULT_TOL,
    BudgetError,
    OneTerm,
    _monomial_rows,
    _support_classes,
    basis_tables,
    dense_table,
    residual_outside,
)

TOL = 1e-12
TORI = [(n, k) for n in range(2, 7) for k in range(n)]


def _recorded(run) -> list[np.ndarray]:
    """The distinct families run() passes to basis_tables, with the shared
    gradings dropped first so that their tables and legs are formed again."""
    coact._delta_grading.cache_clear()
    coact._character_grading.cache_clear()
    seen: dict = {}
    real = matspan.basis_tables

    def record(basis, tol=DEFAULT_TOL):
        b = np.asarray(basis, dtype=np.complex128)
        seen.setdefault((b.shape, b.tobytes()), b.copy())
        return real(basis, tol)

    with pytest.MonkeyPatch.context() as mp:
        for module in (matspan, coact, apps):
            mp.setattr(module, "basis_tables", record)
        run()
    return list(seen.values())


def _tori():
    for n, k in TORI:
        finite_torus(n, k)


def _crossed():
    for cycles in cli.group_catalog(8):
        reduced_crossed_product(delta_grading(FinAbGroup(cycles)))


def _suite():
    cli.run_suite(0, 4)


def _assert_tables_match(mult, star, res, want):
    w_mult, w_star, w_res, w_mono = want
    assert abs(res - w_res) <= TOL
    assert np.max(np.abs(dense_table(mult) - w_mult), initial=0.0) <= TOL
    assert np.max(np.abs(dense_table(star) - w_star), initial=0.0) <= TOL
    if isinstance(mult, OneTerm):
        assert w_mono is not None
        assert np.array_equal(mult.idx, w_mono[0])
    if isinstance(star, OneTerm):
        assert np.array_equal(star.idx, OneTerm.of_rows(w_star).idx)


@pytest.mark.parametrize("run", [_tori, _crossed, _suite], ids=["tori", "crossed", "suite"])
def test_index_path_matches_the_gemm_oracle(run):
    families = _recorded(run)
    covered = 0
    for basis in families:
        want = oracle.gemm_structure_tables(basis)
        # the dispatching routine, whichever path it takes
        _assert_tables_match(*basis_tables(basis), want)
        got = matspan._monomial_tables(basis, DEFAULT_TOL)
        if got is None:
            # refused only where the GEMM path finds no one-term tables
            mono = _monomial_rows(basis)
            assert (
                mono is None
                or _support_classes(*mono) is None
                or want[3] is None
                or OneTerm.of_rows(want[1]) is None
            )
            continue
        covered += 1
        mult, star, res = got
        assert isinstance(mult, OneTerm) and isinstance(star, OneTerm)
        assert want[3] is not None
        _assert_tables_match(mult, star, res, want)
        assert np.max(np.abs(mult.val - want[3][1])) <= TOL
    assert covered > 0


def _weyl_leg(n=6, k=2):
    # k = 2: 18 Weyl monomials, which do not span M_6
    legs = finite_torus(n, k).objects["product"].legs
    return legs.frames[2].reshape(-1, n, n).copy()


def _falls_back_with_the_oracle_verdict(bad):
    assert matspan._monomial_tables(bad, DEFAULT_TOL) is None
    got, want = basis_tables(bad), oracle.gemm_structure_tables(bad)
    _assert_tables_match(*got, want)
    # the verdict: neither table holds within eps_eq
    assert got[2] > DEFAULT_TOL.eps_eq and want[2] > DEFAULT_TOL.eps_eq


def test_one_value_off_falls_back_to_the_gemm_path():
    bad = _weyl_leg()
    a, b = np.argwhere(bad[5] != 0)[0]
    bad[5, a, b] *= 1.0 + 1e-3  # still monomial, no longer closed
    assert _monomial_rows(bad) is not None
    _falls_back_with_the_oracle_verdict(bad)


def test_one_entry_off_the_support_falls_back_to_the_gemm_path():
    bad = _weyl_leg()
    a, b = np.argwhere(bad[5] == 0)[0]
    bad[5, a, b] = 1e-3  # two non-zero entries in one row
    assert _monomial_rows(bad) is None
    _falls_back_with_the_oracle_verdict(bad)


def test_partly_overlapping_supports_take_the_gemm_path():
    # the identity and a transposition on C^3 share only the entry (2, 2)
    swap = np.eye(3)[[1, 0, 2]]
    basis = np.stack([np.eye(3), swap]).astype(np.complex128)
    mono = _monomial_rows(basis)
    assert mono is not None and _support_classes(*mono) is None
    assert matspan._monomial_tables(basis, DEFAULT_TOL) is None
    # the span is closed (swap^2 = 1), so the GEMM path's tables are one term
    mult, star, res = basis_tables(basis)
    _assert_tables_match(mult, star, res, oracle.gemm_structure_tables(basis))
    assert isinstance(mult, OneTerm) and res <= TOL


def _uneven_classes(n):
    # n diagonal phase matrices form one support class, the n^2 - n
    # off-diagonal matrix units one class each: the padded index batch has
    # about n^7 entries, the GEMM stack n^6
    w = np.exp(2j * np.pi / n)
    diag = np.stack([np.diag(w ** (j * np.arange(n))) for j in range(n)])
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    units = np.zeros((a.size, n, n), dtype=np.complex128)
    units[np.arange(a.size), a, b] = 1.0
    return np.concatenate([diag, units])


def test_uneven_support_classes_take_the_gemm_path():
    basis = _uneven_classes(6)
    mono = _monomial_rows(basis)
    assert mono is not None and _support_classes(*mono) is not None
    assert matspan._monomial_tables(basis, DEFAULT_TOL) is None
    _assert_tables_match(*basis_tables(basis), oracle.gemm_structure_tables(basis))
    # at n = 20 the padded batch (1.3e9 entries) would exceed the budget;
    # the index path declines instead of raising, so the GEMM path decides
    assert matspan._monomial_tables(_uneven_classes(20), DEFAULT_TOL) is None


def test_densifying_a_one_term_table_checks_the_budget(monkeypatch):
    legs = finite_torus(4, 1).objects["product"].legs
    # the Weyl leg's dense product table has 16^3 entries
    monkeypatch.setattr(matspan, "MAX_DENSE_ENTRIES", 16**3 - 1)
    with pytest.raises(BudgetError):
        legs.mults
    assert legs.mult_tables[0].dense().shape == (4, 4, 4)


def _dense_rebuild(x, monkeypatch):
    """x assembled again with its products formed and the dense certificate."""
    real = boxtimes._pair_products
    with monkeypatch.context() as mp:
        mp.setattr(boxtimes, "_index_certificate", lambda *args: None)
        mp.setattr(boxtimes, "_pair_products", lambda xs, ys, legs, rows: real(xs, ys, legs, None))
        extra = {k: x.report[k] for k in ("pair_residual",) if k in x.report}
        return boxtimes.build_from_markings(
            x.c_graded, x.d_graded, x.chi, x.legs, x.iota_c, x.iota_d, x.provenance, extra
        )


def _crossed_box(n):
    return reduced_crossed_product(delta_grading(FinAbGroup((n,)))).objects["boxtimes"]


def _products():
    out = [
        pytest.param(lambda n=n, k=k: finite_torus(n, k).objects["product"], id=f"torus-{n}-{k}")
        for n, k in TORI
    ]
    out += [
        pytest.param(lambda n=n: _crossed_box(n), id=f"crossed-z{n}") for n in range(2, 9)
    ]
    return out


@pytest.mark.parametrize("make", _products())
def test_densified_tables_match_the_dense_certificate(make, monkeypatch):
    x = make()
    assert isinstance(x.family_table, OneTerm) and isinstance(x.structure_table, OneTerm)
    assert isinstance(x.onb_table, OneTerm) and isinstance(x.star_table, OneTerm)
    y = _dense_rebuild(x, monkeypatch)
    assert not isinstance(y.onb_table, OneTerm)
    oracle.assert_reports_match(x.report, y.report)
    assert x.family.shape == y.family.shape
    assert np.max(np.abs(x.family - y.family)) <= TOL
    assert np.max(np.abs(x.structure - y.structure)) <= TOL
    assert np.max(np.abs(x.star - y.star)) <= TOL
    # onb is the family's unit rows: orthonormal, with the dense span
    assert np.allclose(x.onb @ x.onb.conj().T, np.eye(x.dim), atol=TOL)
    assert np.max(residual_outside(y.onb, x.onb)) <= TOL
    assert np.max(residual_outside(x.onb, y.onb)) <= TOL


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_torus_checks_refuse_dense_leg_tables(n, k):
    # the same markings on legs whose tables are held dense: the torus
    # checks run on one-term rows only and refuse them
    x = finite_torus(n, k).objects["product"]
    legs = replace(x.legs, mult_tables=x.legs.mults, star_tables=x.legs.stars)
    extra = {"pair_residual": x.report["pair_residual"]}
    y = boxtimes.build_from_markings(
        x.c_graded, x.d_graded, x.chi, legs, x.iota_c, x.iota_d, x.provenance, extra
    )
    assert not legs.one_term
    with pytest.raises(ValueError, match="one-term"):
        apps._torus_checks(y, n, k, DEFAULT_TOL)


def test_dense_forms_are_formed_on_first_read():
    x = finite_torus(4, 1).objects["product"]
    assert not {"family", "onb", "structure", "star"} & set(vars(x))
    assert x.structure is x.structure and "structure" in vars(x)
    assert x.structure.shape == (16, 16, 16) and x.family.shape == (16,) + x.legs.dims


# ---------------------------------------------------------------------------
# matrix-grading legs keep their matrix units


def test_leg_without_the_identity_in_its_span_gets_it():
    e11 = np.diag([1.0, 0.0]).astype(np.complex128)[None]
    leg = coact._unital_leg(e11, DEFAULT_TOL)
    assert len(leg) == 2 and np.array_equal(leg[1], np.eye(2))
    units = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(np.complex128)
    assert len(coact._unital_leg(units, DEFAULT_TOL)) == 2


@pytest.mark.parametrize("kind", ["matrix_units", "inner_matrix"])
def test_matrix_grading_legs_are_monomial(kind, monkeypatch):
    G = FinAbGroup((2,))
    c = cli.random_grading(kind, G, np.random.default_rng(3), DEFAULT_TOL)
    d = delta_grading(G)
    chi = Bicharacter(G, G, ((1,),))
    legs, *_ = heisenberg_markings(c, d, chi)
    # C's leg keeps its ambient basis, unrotated, with one-term tables
    assert np.allclose(legs.frames[0], c.ambient.basis.reshape(c.dim, -1), atol=TOL)
    assert isinstance(legs.mult_tables[0], OneTerm) and isinstance(legs.star_tables[0], OneTerm)
    assert legs.one_term

    def refused(*args):
        raise AssertionError("the dense certificate was formed")

    monkeypatch.setattr(boxtimes, "_dense_certificate", refused)
    x = build_via_heisenberg(c, d, chi)
    assert x.report["passed"] and isinstance(x.structure_table, OneTerm)


# ---------------------------------------------------------------------------
# table_defect reads one-term tables by gather


def _defects(tables, images):
    prods = np.matmul(images[:, None], images[None, :])
    return matspan.table_defect(*tables, images, prods, images.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("kind", cli.GRADING_KINDS)
@pytest.mark.parametrize("cycles", cli.group_catalog(8))
def test_one_term_table_defect_matches_the_dense_tables(cycles, kind):
    graded = cli.random_grading(kind, FinAbGroup(cycles), np.random.default_rng(0), DEFAULT_TOL)
    mult, star, _ = graded.tables()
    assert isinstance(mult, OneTerm) and isinstance(star, OneTerm)
    dense = (dense_table(mult), dense_table(star))
    # the images u b u* of a *-homomorphism, for a fixed unitary u
    n = graded.ambient_dim
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    images = u @ graded.ambient.basis @ u.conj().T
    got, want = _defects((mult, star), images), _defects(dense, images)
    assert abs(got[0] - want[0]) <= 1e-15 and abs(got[1] - want[1]) <= 1e-15
    assert max(got) < TOL
    # one image moved off its place fails the product and adjoint checks
    images[-1] += 1e-3j * np.eye(n)
    got, want = _defects((mult, star), images), _defects(dense, images)
    assert min(got) > 1e-4 and min(want) > 1e-4
    assert abs(got[0] - want[0]) <= TOL and abs(got[1] - want[1]) <= TOL


def test_cached_tables_are_read_only():
    graded = delta_grading(FinAbGroup((4,)))
    mult, star, _ = graded.tables()
    for a in (mult.idx, mult.val, star.idx, star.val):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # a dense table, that of a rotated basis, is read-only too
    graded = coact.character_grading(FinAbGroup((6,)))
    space = matspan.span_basis(list(graded.ambient.basis))
    rotated = replace(graded, ambient=replace(graded.ambient, space=space))
    rot_mult, rot_star, _ = rotated.tables()
    assert not isinstance(rot_mult, OneTerm) and not isinstance(rot_star, OneTerm)
    for a in (rot_mult, rot_star):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
