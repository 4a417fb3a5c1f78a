"""Numerical exclusion tests and non-solidity witnesses, in exact rationals.

Two intersection-number tests rule out smooth points and curves as centers
of non-canonical singularities on the five solid-candidate families, and a
projection to the first two coordinates exhibits every other family as
birational to a fibration over the line.  No floating point is used
anywhere; all report values are :class:`fractions.Fraction`.
"""

from __future__ import annotations

import operator
from math import prod

from ._records import Record
from .catalog import FamilyRecord, Weights, anticanonical_cube, load_catalog

SMOOTH_POINT_THRESHOLD = 4
CURVE_THRESHOLD = 1

_BASE_LOCUS_NOTE = (
    "assumes the members through the point cut a zero-dimensional base locus "
    "(recorded assumption, not verified)"
)


class ExclusionReport(Record):
    """Outcome of one numerical test, certified iff value <= threshold."""

    test_value: Fraction
    threshold: Fraction
    certified: bool
    h_degree: int | None = None
    notes: tuple[str, ...] = ()


def default_h_degree(record: FamilyRecord) -> int:
    """Cutting degree used by the smooth-point test when none is given: the
    recorded ``h`` column of the catalog, else ``a1*a2*a3``."""
    if record.h_degree is not None:
        return record.h_degree
    a = record.weights
    return a[1] * a[2] * a[3]


def smooth_point_test(record: FamilyRecord, h_degree: int | None = None) -> ExclusionReport:
    """Intersection bound ``h * index^2 * degree / prod(weights)`` against 4.

    The test value scales linearly in ``h_degree``, so certification at some
    ``h`` implies certification at every smaller valid ``h``.  ``h_degree``
    must be an integer (``operator.index``): a float or a string raises
    :class:`TypeError`.
    """
    from fractions import Fraction

    h = default_h_degree(record) if h_degree is None else operator.index(h_degree)
    if h < 1:
        raise ValueError("cutting degree must be positive")
    value = Fraction(h * record.index**2 * record.degree, prod(record.weights))
    certified = value <= SMOOTH_POINT_THRESHOLD
    notes = (_BASE_LOCUS_NOTE,)
    if not certified:
        notes += (f"test value {value} exceeds 4: no exclusion at h={h}",)
    return ExclusionReport(
        test_value=value,
        threshold=Fraction(SMOOTH_POINT_THRESHOLD),
        certified=certified,
        h_degree=h,
        notes=notes,
    )


def curve_test(record: FamilyRecord) -> ExclusionReport:
    """Anticanonical cube against 1 (curves in the smooth locus)."""
    from fractions import Fraction

    value = anticanonical_cube(record)
    return ExclusionReport(
        test_value=value,
        threshold=Fraction(CURVE_THRESHOLD),
        certified=value <= CURVE_THRESHOLD,
    )


class FibrationWitness(Record):
    """Exact data exhibiting a birational map to a fibration over the line.

    The projection to the first two coordinates has fibres of canonical degree
    ``a0*a1 - index < 0``, each cut by a member of the pencil ``x1^a0 = lambda
    * x0^a1``.  When ``a0 = 1`` the member eliminates ``x1``: the fibre is a
    degree-``d`` hypersurface without it.  Else it is their complete intersection.
    """

    target: tuple[int, int]
    kind: str  # "hypersurface" | "complete_intersection"
    ambient: Weights
    degrees: tuple[int, ...]
    fibre_canonical_degree: int
    pencil: str | None = None


def fibration_witness(record: FamilyRecord) -> FibrationWitness | None:
    """The projection witness, or ``None`` when ``a0*a1 >= index``."""
    a = record.weights
    if a[0] * a[1] >= record.index:
        return None
    if a[0] > 1:
        kind, ambient, degrees = "complete_intersection", a, (record.degree, a[0] * a[1])
        pencil = f"x1^{a[0]} = lambda * x0^{a[1]}"
    else:
        kind, ambient, degrees, pencil = "hypersurface", a[:1] + a[2:], (record.degree,), None
    # adjunction: the fibre's canonical degree sum(degrees) - sum(ambient) is a0*a1 - index < 0
    canonical_degree = sum(degrees) - sum(ambient)
    return FibrationWitness(
        target=(a[0], a[1]),
        kind=kind,
        ambient=ambient,
        degrees=degrees,
        fibre_canonical_degree=canonical_degree,
        pencil=pencil,
    )


class SoliditySummary(Record):
    witnessed: tuple[int, ...]
    witness_less: tuple[int, ...]


def solidity_summary() -> SoliditySummary:
    """Partition the catalog by existence of a fibration witness."""
    witnessed = []
    witness_less = []
    for record in load_catalog():
        if fibration_witness(record) is None:
            witness_less.append(record.id)
        else:
            witnessed.append(record.id)
    return SoliditySummary(witnessed=tuple(witnessed), witness_less=tuple(witness_less))
