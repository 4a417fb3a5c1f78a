from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano2ray.catalog import anticanonical_cube, family, load_catalog
from fano2ray.exclusion import (
    curve_test,
    default_h_degree,
    fibration_witness,
    smooth_point_test,
    solidity_summary,
)
from fano2ray.linkengine import run_game
from fano2ray.singular import locate

from expected import SOLID_CANDIDATES


def test_smooth_point_examples():
    rep = smooth_point_test(family(110), 15)
    assert rep.test_value == Fraction(27, 8)
    assert rep.certified
    rep = smooth_point_test(family(103), 165)
    assert rep.test_value == Fraction(4)
    assert rep.certified  # equality already yields the contradiction
    rep = smooth_point_test(family(100), 30)
    assert rep.test_value == Fraction(8)
    assert not rep.certified
    assert any("exceeds 4" in note for note in rep.notes)


def test_smooth_point_defaults():
    assert default_h_degree(family(110)) == 15
    assert default_h_degree(family(103)) == 165
    for fid in (100, 101, 102):
        rep = smooth_point_test(family(fid))
        assert rep.test_value == Fraction(8)
        assert not rep.certified


def test_smooth_point_rejects_non_integer_h():
    # int() used to truncate h = 2.9 to 2 and to accept the string "3"
    rec = family(110)
    with pytest.raises(TypeError):
        smooth_point_test(rec, 2.9)
    with pytest.raises(TypeError):
        smooth_point_test(rec, "3")
    assert smooth_point_test(rec, 3).h_degree == 3


def test_smooth_point_base_locus_note_always_present():
    rep = smooth_point_test(family(110))
    assert any("zero-dimensional" in n for n in rep.notes)


@given(st.integers(min_value=1, max_value=10**6))
def test_smooth_point_value_linear_in_h(h):
    rec = family(110)
    unit = smooth_point_test(rec, 1).test_value
    assert smooth_point_test(rec, h).test_value == h * unit


@given(st.integers(min_value=1, max_value=15))
def test_smooth_point_monotone_certification(h):
    # certified at h implies certified at every smaller h
    rec = family(110)
    assert smooth_point_test(rec, 15).certified
    assert smooth_point_test(rec, h).certified


def test_report_values_are_exact_fractions():
    # the thresholds are the int constants 4 and 1; a report and the cube
    # still carry Fractions, whatever the value
    for record in load_catalog():
        for rep in (smooth_point_test(record), curve_test(record)):
            assert type(rep.test_value) is Fraction and type(rep.threshold) is Fraction
        assert type(anticanonical_cube(record)) is Fraction


def test_curve_examples():
    assert curve_test(family(100)).test_value == Fraction(8, 15)
    assert curve_test(family(103)).test_value == Fraction(8, 165)
    rep = curve_test(family(96))
    assert rep.test_value == Fraction(24)
    assert not rep.certified


def test_curve_certified_exactly_for_solid_candidates():
    certified = {r.id for r in load_catalog() if curve_test(r).certified}
    assert certified == set(SOLID_CANDIDATES)


def test_fibration_witness_hypersurface_case():
    w = fibration_witness(family(104))
    assert w is not None
    assert w.kind == "hypersurface"
    assert w.ambient == (1, 1, 1, 1)
    assert w.degrees == (2,)
    assert w.fibre_canonical_degree == -2


def test_fibration_witness_fibre_lies_in_the_ambient_without_x1():
    # with a0 = 1 the pencil x1 = lambda * x0^a1 eliminates x1, not x0
    w = fibration_witness(family(108))
    assert w.ambient == (1, 3, 4, 5)
    assert w.fibre_canonical_degree == -1
    for rec in load_catalog():
        w = fibration_witness(rec)
        if w is None:
            continue
        a = rec.weights
        assert w.fibre_canonical_degree == a[0] * a[1] - rec.index
        assert w.fibre_canonical_degree == sum(w.degrees) - sum(w.ambient)
        if w.kind == "hypersurface":
            assert w.ambient == a[:1] + a[2:]


def test_fibration_witness_complete_intersection_case():
    w = fibration_witness(family(122))
    assert w is not None
    assert w.kind == "complete_intersection"
    assert w.ambient == (2, 3, 4, 5, 7)
    assert w.degrees == (14, 6)
    assert w.fibre_canonical_degree == -1
    assert w.pencil is not None


def test_fibration_witness_absent_for_solid_candidates():
    assert fibration_witness(family(100)) is None
    for fid in SOLID_CANDIDATES:
        assert fibration_witness(family(fid)) is None


def test_ci_branch_used_exactly_where_recorded():
    for rec in load_catalog():
        w = fibration_witness(rec)
        if w is None:
            continue
        expected = (
            "complete_intersection"
            if rec.id in {122, 127, 129, 130}
            else "hypersurface"
        )
        assert w.kind == expected
        assert w.fibre_canonical_degree < 0


def test_solidity_summary_partition():
    summary = solidity_summary()
    assert set(summary.witness_less) == {100, 101, 102, 103, 110}
    assert len(summary.witnessed) == 30
    assert set(summary.witnessed) | set(summary.witness_less) == set(range(96, 131))


@pytest.mark.parametrize("fid", sorted(SOLID_CANDIDATES))
def test_witness_less_families_have_elementary_links(fid):
    rec = family(fid)
    point = rec.expected.links[0].point
    entry = locate(rec, point)
    _, outcome = run_game(rec, entry, entry.tangent_candidates[0][1])
    assert outcome.kind == "elementary_link"
