"""Group-only data of the crossed product held once per group.

A QuantumGroupModel holds its coaction frame per tolerance: qa, to_qa, the
comultiplication coefficients dco and residuals d_res, and the matrices of
multiplication by lambda_g on both sides.  It must equal
dense_oracle.inline_coaction_frame, the computation the coaction checks
once made per call, bit for bit.  regular_bicharacter returns one
bicharacter per group.  reduced_crossed_product's direct route takes its
legs from the grading's held leg and the group's regular pair, and must
agree with dense_oracle.built_legs_crossed_product, the route on legs built
per call: dims and verdicts identical, and only the three residuals that
read the new frames (direct_closure, map_multiplicative, map_markings) may
move, within 1e-12.
"""

import numpy as np
import pytest

import dense_oracle as oracle
from qtwist import abgroup, boxtimes, cli, coact, heis, qgroup
from qtwist.abgroup import FinAbGroup, regular_bicharacter
from qtwist.apps import dual_coaction, embed_in_reduced, reduced_crossed_product
from qtwist.boxtimes import pure_coords_stack
from qtwist.coact import ad_grading, character_grading, delta_grading
from qtwist.matspan import DEFAULT_TOL, OneTerm, Tolerance
from qtwist.qgroup import build_model, translations

GROUPS = [FinAbGroup(c) for c in cli.group_catalog(8)]
SMALL = [FinAbGroup(c) for c in cli.group_catalog(6)]
LOOSE = Tolerance(eps_eq=1e-9)
KLEIN = FinAbGroup((2, 2))
FRAME_FIELDS = ("qa", "to_qa", "dco", "d_res", "right", "left")
# the residuals that read the direct route's legs; every other field of
# the report is bit-identical to the route on legs built per call
MOVED = {"direct_closure", "map_multiplicative", "map_markings"}


def _ids(group):
    return "x".join(map(str, group.cycles))


# ---------------------------------------------------------------------------
# the coaction frame


@pytest.mark.parametrize("group", GROUPS, ids=_ids)
def test_coaction_frame_equals_the_inline_computation(group):
    model = build_model(group)
    held = model.coaction_frame()
    want = oracle.inline_coaction_frame(model)
    for name in FRAME_FIELDS:
        got = getattr(held, name)
        assert got.shape == want[name].shape, name
        assert np.array_equal(got, want[name]), name


def test_coaction_frame_is_held_read_only_per_model_and_tolerance():
    model = build_model(KLEIN)
    held = model.coaction_frame()
    assert model.coaction_frame(DEFAULT_TOL) is held
    assert build_model(FinAbGroup((2, 2))).coaction_frame() is held
    loose = model.coaction_frame(LOOSE)
    assert loose is not held and model.coaction_frame(LOOSE) is loose
    for name in FRAME_FIELDS:
        a = getattr(held, name)
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_cache_clear_drops_the_model_and_its_frame():
    held = build_model(KLEIN).coaction_frame()
    qgroup._build_cached.cache_clear()
    again = build_model(KLEIN).coaction_frame()
    assert again is not held
    for name in FRAME_FIELDS:
        assert np.array_equal(getattr(again, name), getattr(held, name)), name


@pytest.mark.parametrize("cycles", [(3,), (2, 2)])
def test_checks_read_the_frame_and_form_no_qa(cycles, monkeypatch):
    """Warm, the table coaction check takes no SVD for qa and no
    comultiplication: both come from the held frame."""
    x = reduced_crossed_product(delta_grading(FinAbGroup(cycles))).objects["boxtimes"]
    want = dual_coaction(x).report

    def reached(*args, **kwargs):
        raise AssertionError("the coaction frame was formed again")

    monkeypatch.setattr(qgroup, "orthonormal_rows", reached)
    monkeypatch.setattr(qgroup.QuantumGroupModel, "comultiplication", reached)
    assert dual_coaction(x).report == want


# ---------------------------------------------------------------------------
# the regular bicharacter


@pytest.mark.parametrize("group", [FinAbGroup((4,)), KLEIN], ids=_ids)
def test_one_regular_bicharacter_per_group(group):
    chi = regular_bicharacter(group)
    assert regular_bicharacter(FinAbGroup(group.cycles)) is chi
    assert chi.value_table() is regular_bicharacter(group).value_table()
    abgroup._regular_bicharacter.cache_clear()
    again = regular_bicharacter(group)
    assert again is not chi and again == chi
    assert np.array_equal(again.value_table(), chi.value_table())


# ---------------------------------------------------------------------------
# the direct route on held legs


def _gradings(group):
    els = group.elements()
    return {
        "delta": delta_grading(group),
        "character": character_grading(group),
        "inner": ad_grading(group, [group.zero(), group.zero()]),
        "units 0 1": ad_grading(group, [group.zero(), els[1]]),
        "units 1 -1": ad_grading(group, [els[1], els[-1]]),
    }


CASES = [(g, kind) for g in SMALL for kind in _gradings(g)]


@pytest.mark.parametrize("group, kind", CASES, ids=lambda v: v if isinstance(v, str) else _ids(v))
def test_direct_route_on_held_legs_matches_built_legs(group, kind):
    graded = _gradings(group)[kind]
    got = reduced_crossed_product(graded).report
    want = oracle.built_legs_crossed_product(graded)
    oracle.assert_reports_match(got, want)
    assert got["residuals"].keys() - MOVED == {"box_closure"}
    for key, value in got["residuals"].items():
        if key not in MOVED:
            assert value == want["residuals"][key], key
    assert got["verdicts"] == want["verdicts"] and all(got["verdicts"].values())


def _count_frames(monkeypatch):
    calls = []
    for module in (boxtimes, coact, heis):
        real = module.frame

        def counted(mats, tol=DEFAULT_TOL, real=real):
            calls.append(len(mats))
            return real(mats, tol)

        monkeypatch.setattr(module, "frame", counted)
    return calls


@pytest.mark.parametrize("kind", ["delta", "character", "inner", "units 0 1"])
@pytest.mark.parametrize("group", [FinAbGroup((3,)), KLEIN], ids=_ids)
def test_warm_group_forms_no_frame(group, kind, monkeypatch):
    graded = _gradings(group)[kind]
    first = reduced_crossed_product(graded)
    calls = _count_frames(monkeypatch)
    again = reduced_crossed_product(graded)
    assert calls == []
    assert again.report == first.report
    # the direct product's legs are the grading's leg and the regular leg
    legs = again.objects["direct"].legs
    assert legs.frames[0] is graded.leg().rows
    assert legs.frames[1] is heis.regular_pair(group).leg.rows


@pytest.mark.parametrize("kind", ["delta", "character", "inner", "units 1 -1"])
def test_held_markings_equal_their_projection(kind):
    group = FinAbGroup((4,))
    graded = _gradings(group)[kind]
    x = reduced_crossed_product(graded).objects["direct"]
    lam = np.stack(list(translations(group).values()))
    want = pure_coords_stack(x.legs, [graded.ambient.basis, lam[graded.degree_indices()]])
    assert isinstance(x.iota_c_table, OneTerm)
    assert np.array_equal(x.iota_c, want)


def test_embedding_in_reduced_reads_the_same_held_legs(monkeypatch):
    G, H = FinAbGroup((4,)), KLEIN
    c, d = ad_grading(G, [G.zero(), G.elements()[1]]), character_grading(H)
    chi = list(abgroup.enumerate_bicharacters(G, H))[-1]
    assert not chi.is_trivial()
    first = embed_in_reduced(c, d, chi)
    calls = _count_frames(monkeypatch)
    again = embed_in_reduced(c, d, chi)
    assert calls == [] and again.passed and again.report == first.report
    legs = again.objects["embedded"].legs
    assert legs.frames[0] is c.leg().rows and legs.frames[2] is d.leg().rows
    assert legs.frames[1] is heis.regular_pair(G).leg.rows
    assert legs.frames[3] is heis.regular_pair(H).leg.rows
    assert isinstance(again.objects["embedded"].iota_c_table, OneTerm)
