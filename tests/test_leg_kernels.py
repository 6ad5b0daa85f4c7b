"""Held leg triples, flat kernel tables and batched markings.

leg_frames holds one read-only LegFrames per triple of held frames and
tolerance.  Its flat kernel tables feed _term_products and _term_stars,
which must match dense_oracle's np.unravel_index forms bit for bit.
_assemble forms both markings' products in one _term_products call and
their adjoints in one _term_stars call; its marking reports must match
_marking_report per marking and the dense oracle, and a perturbed marking
must fail.
"""

import gc
import weakref
from math import prod

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import boxtimes, cli
from qtwist.abgroup import Bicharacter, FinAbGroup
from qtwist.apps import embed_in_reduced, finite_torus, full_verify, reduced_crossed_product
from qtwist.boxtimes import (
    _marking_report,
    _term_products,
    _term_stars,
    build_from_markings,
    build_via_heisenberg,
    leg_frames,
)
from qtwist.coact import delta_grading
from qtwist.heis import composite_heisenberg, regular_pair
from qtwist.matspan import DEFAULT_TOL, OneTerm, Tolerance, concat_rows, dense_table, frame

TOL = 1e-12
TORI = [(n, k) for n in range(2, 7) for k in range(n)]
Z2 = FinAbGroup((2,))
CHI2 = Bicharacter(Z2, Z2, ((1,),))


def _products():
    def torus(n, k):
        return finite_torus(n, k).objects["product"]

    def crossed(cycles, route):
        return reduced_crossed_product(delta_grading(FinAbGroup(cycles))).objects[route]

    def embedded():
        c = delta_grading(Z2)
        return embed_in_reduced(c, c, CHI2).objects["embedded"]

    out = [pytest.param(lambda n=n, k=k: torus(n, k), id=f"torus {n} {k}") for n, k in TORI]
    out += [
        pytest.param(lambda c=c, r=r: crossed(c, r), id=f"crossed {c} {r}")
        for c in [(2,), (3,), (2, 2)]
        for r in ("boxtimes", "direct")
    ]
    out.append(pytest.param(embedded, id="embedded four legs"))
    return out


PRODUCTS = _products()


def _same_terms(got: OneTerm, want: OneTerm) -> None:
    assert got.shape == want.shape and got.width == want.width
    assert got.idx.dtype == want.idx.dtype and np.array_equal(got.idx, want.idx)
    assert got.val.dtype == want.val.dtype
    assert np.ascontiguousarray(got.val).tobytes() == np.ascontiguousarray(want.val).tobytes()


# ---------------------------------------------------------------------------
# flat kernel tables against np.unravel_index


@pytest.mark.parametrize("build", PRODUCTS)
def test_kernels_match_unravel_oracle_bit_for_bit(build):
    x = build()
    legs = x.legs
    assert legs.one_term
    # the one-hot markings and family, and random indices with random values
    size = prod(legs.dims)
    rng = np.random.default_rng(size)
    tables = [t for t in (x.iota_c_table, x.iota_d_table, x.family_table) if isinstance(t, OneTerm)]
    assert tables
    noise = OneTerm(rng.integers(0, size, 40), rng.standard_normal(40) + 1j * rng.standard_normal(40), size)
    rows = concat_rows(tables + [noise])
    # the (k, 1) x (1, k) shape of the markings and the certificate, and the
    # (2,) x (2,) shape of the torus's generator powers
    for xs, ys in ((rows[:, None], rows[None, :]), (rows[:2], rows[2:4]), (rows[-2:], rows[:2])):
        _same_terms(_term_products(xs, ys, legs), oracle.unravel_term_products(xs, ys, legs))
    for xs in (rows, rows[:2], rows[:, None]):
        _same_terms(_term_stars(xs, legs), oracle.unravel_term_stars(xs, legs))


# ---------------------------------------------------------------------------
# the held leg triple


def _arrays(legs):
    tables = legs.mult_tables + legs.star_tables
    yield from legs.frames
    yield from (a for t in tables for a in ((t.idx, t.val) if isinstance(t, OneTerm) else (t,)))
    yield from legs.flat_mult + legs.flat_star + legs.mults + legs.stars
    yield legs._digits
    yield legs.identity(DEFAULT_TOL)


def _direct_frames(cycles=(3,)):
    G = FinAbGroup(cycles)
    return [delta_grading(G).leg(DEFAULT_TOL), regular_pair(G, DEFAULT_TOL).leg]


def test_held_frames_give_one_read_only_leg_triple():
    frames = _direct_frames()
    legs = leg_frames(frames)
    assert leg_frames(list(frames)) is legs
    # the crossed product's direct route is built on this triple
    direct = reduced_crossed_product(delta_grading(FinAbGroup((3,)))).objects["direct"]
    assert direct.legs is legs
    for a in _arrays(legs):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        legs.flat_mult[0][0, 0] = 1
    # dims and the kernel tables are formed once, not on every read
    assert legs.dims is legs.dims and legs.flat_mult is legs.flat_mult


def test_tori_of_one_order_share_their_leg_triple():
    x, y = finite_torus(5, 2).objects["product"], finite_torus(5, 3).objects["product"]
    assert x.legs is y.legs


def test_another_tol_or_matrix_legs_build_a_new_triple():
    frames = _direct_frames()
    legs = leg_frames(frames)
    other = Tolerance(eps_rank=1e-10, eps_eq=1e-9)
    assert leg_frames(frames, other) is not legs
    assert leg_frames(frames, other) is leg_frames(frames, other)
    mats = [[np.eye(2), np.diag([1.0, -1.0])], [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]]
    first, second = leg_frames(mats), leg_frames(mats)
    assert first is not second and first.dims == second.dims == (2, 2)
    # one held frame among matrix legs is not held either
    assert leg_frames([frames[0], mats[0]]) is not leg_frames([frames[0], mats[0]])


def test_cache_clear_drops_the_held_triple():
    frames = _direct_frames((2, 2))
    legs = leg_frames(frames)
    boxtimes._held_leg_frames.cache_clear()
    assert len(boxtimes._held_leg_frames) == 0
    again = leg_frames(frames)
    assert again is not legs and again.dims == legs.dims
    assert np.array_equal(again.flat_mult[2], legs.flat_mult[2])


def test_the_last_maxsize_triples_are_held():
    held = boxtimes._held_leg_frames
    mats = [np.eye(2), np.diag([1.0, -1.0])]
    triples = [(frame(mats), frame(mats)) for _ in range(held.maxsize + 6)]
    first = [leg_frames(t) for t in triples]
    assert len(held) == held.maxsize
    assert leg_frames(triples[-1]) is first[-1]
    assert leg_frames(triples[0]) is not first[0]


def test_a_collected_frame_drops_its_triple():
    # a witness pair's Weyl leg is held on the pair only: once the product
    # and the pair are gone, the cache keeps neither the frame nor its tables
    c = delta_grading(Z2)
    held = boxtimes._held_leg_frames
    held.cache_clear()
    pair = composite_heisenberg(CHI2)
    x = build_via_heisenberg(c, c, CHI2, pair, label="composite")
    assert len(held) == 1
    legs = weakref.ref(x.legs)
    del x, pair
    gc.collect()
    assert legs() is None and len(held) == 0


@pytest.mark.parametrize("witness", ["composite", "amplified"])
def test_fresh_witness_frames_keep_the_cache_bounded(witness):
    # each call builds a new pair and so a new Weyl frame, dropped with it
    c = delta_grading(Z2)
    held = boxtimes._held_leg_frames

    def run():
        pair = cli.witness_pair(witness, CHI2, DEFAULT_TOL)
        assert full_verify(c, c, CHI2, DEFAULT_TOL, pair, witness).passed

    run()  # the triples of held frames that every run shares
    gc.collect()
    count = len(held)
    for _ in range(100):
        run()
        assert len(held) <= held.maxsize == 64
    gc.collect()
    assert len(held) == count


# ---------------------------------------------------------------------------
# both markings in one kernel call


@pytest.mark.parametrize("build", PRODUCTS)
def test_assembled_marking_reports_match_per_marking_and_dense(build):
    x = build()
    rep = x.report
    markings = (
        ("iota_c", x.c_graded, x.iota_c_table, x.iota_c),
        ("iota_d", x.d_graded, x.iota_d_table, x.iota_d),
    )
    for name, graded, table, iota in markings:
        got = (rep[f"{name}_hom"], rep[f"{name}_star"], rep[f"{name}_injective"])
        assert got == _marking_report(graded, table, x.legs, DEFAULT_TOL)
        want = oracle.dense_marking_report(graded, iota, x.legs)
        assert abs(got[0] - want[0]) <= TOL and abs(got[1] - want[1]) <= TOL
        assert got[2] == want[2]


def test_one_hot_markings_take_one_kernel_call_each(monkeypatch):
    calls = []
    products, stars = boxtimes._term_products, boxtimes._term_stars

    def counted_products(xs, ys, legs):
        calls.append((xs.idx.shape, ys.idx.shape))
        return products(xs, ys, legs)

    def counted_stars(xs, legs):
        calls.append((xs.idx.shape,))
        return stars(xs, legs)

    monkeypatch.setattr(boxtimes, "_term_products", counted_products)
    monkeypatch.setattr(boxtimes, "_term_stars", counted_stars)
    x = finite_torus(4, 1).objects["product"]
    m_c, m_d = x.c_graded.dim, x.d_graded.dim
    both = m_c + m_d
    assert calls.count(((both, 1), (1, both))) == 1
    assert calls.count(((both,),)) == 1
    for a in (m_c, m_d):
        assert ((a,),) not in calls
        for b in (m_c, m_d):
            assert ((a, 1), (1, b)) not in calls


def test_flipped_iota_c_row_fails_on_the_batched_path():
    x = finite_torus(4, 1).objects["product"]
    legs, iota_c = x.legs, x.iota_c_table
    val = iota_c.val.copy()
    val[1] *= -1
    bad = OneTerm(iota_c.idx, val, iota_c.width)
    y = build_from_markings(x.c_graded, x.d_graded, x.chi, legs, bad, x.iota_d_table)
    bound = DEFAULT_TOL.eps_eq * max(1.0, x.dim)
    assert x.report["passed"] and not y.report["passed"]
    assert y.report["iota_c_hom"] > bound and y.report["iota_d_hom"] <= bound
    want = oracle.dense_marking_report(x.c_graded, dense_table(bad).reshape((-1,) + legs.dims), legs)
    assert want[0] > bound and abs(y.report["iota_c_hom"] - want[0]) <= TOL
