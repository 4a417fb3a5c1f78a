"""Quotient singularities of general members and Kawamata blow-up weights.

A general quasi-smooth member meets the singular locus of its ambient
weighted projective space in finitely many cyclic quotient points sitting at
coordinate vertices and on one-dimensional coordinate strata.  This module
locates those points combinatorially from the monomial support, normalizes
each germ ``1/r(w1,w2,w3)`` into Kawamata format ``1/r(1,a,r-a)`` with the
multiplier read off an inverse mod ``r``, and produces the fractional weight
data of the Kawamata blow-up that seeds the rank-2 toric models of
:mod:`fano2ray.toric2ray`.
"""

from __future__ import annotations

import operator
from itertools import filterfalse
from math import gcd

from ._records import Record
from .catalog import (
    AMBIENT_VARIABLES,
    FamilyRecord,
    Monomial,
    Weights,
    fano_index,
    monomial_support,
)

_UNITS = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


class NotTerminal(ValueError):
    """The germ admits no multiplier putting it in the form 1/r(1,a,r-a)."""


class UnresolvedTangent(ValueError):
    """No key monomial provides a tangent direction at the singular point."""


# ---------------------------------------------------------------------------
# sites


class Site(Record):
    """A coordinate point ``p_i`` (one variable) or the one-dimensional
    coordinate stratum through ``p_i`` and ``p_j`` (two variables)."""

    variables: tuple[int, ...]

    @property
    def label(self) -> str:
        return "p" + "p".join(map(str, self.variables))


# ---------------------------------------------------------------------------
# terminal normal form


class QuotientSingularity(Record):
    """A terminal cyclic quotient germ ``1/r(w1,w2,w3)``.

    ``local_weights`` maps the three local coordinate indices to their
    residues mod ``r``; ``multiplier`` is the smallest unit ``m`` for which
    ``m * local_weights`` is a permutation of ``kawamata_form = (1,a,r-a)``.
    """

    r: int
    local_weights: tuple[tuple[int, int], ...]
    multiplier: int
    kawamata_form: tuple[int, int, int]

    @property
    def per_variable_form(self) -> tuple[int, ...]:
        """The residues ``m * w mod r`` in local-coordinate order."""
        return tuple((self.multiplier * w) % self.r for _, w in self.local_weights)


def normalize_terminal(
    r: int, weights: tuple[int, int, int], variables: tuple[int, ...] = (0, 1, 2)
) -> QuotientSingularity:
    """Normalize ``1/r(weights)`` into Kawamata format.

    The multiplier is the least unit ``m`` in ``1..r-1`` for which some entry
    of ``m * weights mod r`` equals 1 while the other two sum to ``r``, with
    the first such entry on ties.  ``m * w_i == 1`` forces ``m = w_i^-1 mod r``,
    and the other two residues, both nonzero, then sum to ``r`` exactly when
    the other two weights sum to 0 mod ``r``; so each entry ``i`` admits at
    most one multiplier and no search is needed.  Raises :class:`NotTerminal`
    when no entry admits one (the germ is then not a terminal threefold
    point), and also when ``weights`` or ``variables`` is not of length 3.
    """
    if r < 2:
        raise NotTerminal(f"quotient order must be at least 2, got {r}")
    residues = tuple(w % r for w in weights)
    if len(residues) != 3:
        raise NotTerminal("need exactly three local weights")
    if len(variables) != 3:
        raise NotTerminal(f"need exactly three local variables, got {len(variables)}")
    for w in residues:
        if gcd(w, r) != 1:
            raise NotTerminal(f"local weight {w} shares a factor with r={r}")
    total = sum(residues)
    candidates = [(pow(w, -1, r), i) for i, w in enumerate(residues) if (total - w) % r == 0]
    if not candidates:
        raise NotTerminal(f"1/{r}{residues} admits no Kawamata normal form")
    m, i = min(candidates)
    return QuotientSingularity(
        r=r,
        local_weights=tuple(zip(variables, residues)),
        multiplier=m,
        kawamata_form=(1, *((m * w) % r for j, w in enumerate(residues) if j != i)),
    )


def _transverse(weights: Weights, pair: tuple[int, int]) -> tuple[Weights, tuple[int, ...]]:
    """The weights and indices of the three variables outside ``pair``, for
    :func:`normalize_terminal`, which callers call themselves: a
    :class:`NotTerminal`, common on non-terminal candidates, unwinds no extra frame."""
    locals_ = tuple(l for l in range(5) if l not in pair)
    return tuple(weights[l] for l in locals_), locals_


# ---------------------------------------------------------------------------
# singular locus of a general member


class SingularLocusEntry(Record):
    """One singular site of a general member, with its tangent data.

    ``tangent_candidates`` pairs each key monomial ``x_c^k * x_j`` of the
    support with the tangent variable ``j`` it determines; ``center`` is the
    variable the blow-up is centered on (for a stratum, the one whose weight
    divides the other's; ``None`` when neither does, in which case no game
    can be run from this site).  ``singularity`` is normalized with respect
    to the first tangent candidate; the germ type does not depend on that
    choice.
    """

    site: Site
    count: int
    tangent_candidates: tuple[tuple[Monomial, int], ...]
    singularity: QuotientSingularity
    center: int | None


def _vertex_entry(record: FamilyRecord, i: int) -> SingularLocusEntry | None:
    w, d = record.weights, record.degree
    r = w[i]
    if d % r == 0:
        # the pure power x_i^(d/r) lies in the support: vertex off the member
        return None
    keys = []
    for j, unit in enumerate(_UNITS):
        key = None if j == i else center_completion(w, d, i, unit)
        if key is not None and key[i]:
            keys.append((key, j))
    if not keys:
        raise UnresolvedTangent(
            f"{record.name}: vertex p{i} lies on the member but the support "
            f"has no monomial x{i}^k*x_j"
        )
    sing = normalize_terminal(r, *_transverse(w, (i, keys[0][1])))
    return SingularLocusEntry(
        site=Site((i,)), count=1, tangent_candidates=tuple(keys), singularity=sing, center=i
    )


def _stratum_entry(record: FamilyRecord, i: int, j: int) -> SingularLocusEntry | None:
    w, d = record.weights, record.degree
    r = gcd(w[i], w[j])
    # exponent pairs (e_i, e_j) of the support restricted to the stratum; up
    # to a monomial factor the restriction is a binary form of degree
    # len - 1 in x_i^(w_j/r), x_j^(w_i/r), and its roots are the points
    restricted = monomial_support((w[i], w[j]), d)
    if not restricted:
        raise NotTerminal(
            f"{record.name}: stratum p{i}p{j} is contained in the member "
            "(one-dimensional singular locus, unsupported)"
        )
    count = len(restricted) - 1
    if count == 0:
        return None
    if w[j] % w[i] == 0:
        center, tangent = i, j
    elif w[i] % w[j] == 0:
        center, tangent = j, i
    else:
        center, tangent = None, None
    candidates: tuple[tuple[Monomial, int], ...] = ()
    if center is not None:
        # w_c divides w_t and, as the restricted support is nonempty, d: so
        # the completion exists unless d < w_t, and at d = w_t it is a bare
        # x_t (the member is a linear cone)
        key = center_completion(w, d, center, _UNITS[tangent])
        if key is None or not key[center]:
            raise UnresolvedTangent(
                f"{record.name}: stratum p{i}p{j} lies on the member but the "
                f"support has no monomial x{center}^k*x{tangent} with k >= 1"
            )
        candidates = ((key, tangent),)
    return SingularLocusEntry(
        site=Site((i, j)),
        count=count,
        tangent_candidates=candidates,
        singularity=normalize_terminal(r, *_transverse(w, (i, j))),
        center=center,
    )


def singular_locus(record: FamilyRecord) -> tuple[SingularLocusEntry, ...]:
    """All quotient singularities of a general member, vertices first.

    Vertices report every tangent candidate (key monomials ``x_i^k * x_j``);
    strata report the number of points as the number of monomials of the
    restricted support less one (the degree of the restricted binary form).
    A hypersurface that is not five positive weights and a positive degree
    raises the :class:`ValueError` of :func:`~fano2ray.catalog.fano_index`.
    """
    fano_index(record.weights, record.degree)
    entries: list[SingularLocusEntry] = []
    w = record.weights
    for i in range(5):
        if w[i] > 1:
            entry = _vertex_entry(record, i)
            if entry is not None:
                entries.append(entry)
    for i in range(5):
        for j in range(i + 1, 5):
            if gcd(w[i], w[j]) > 1:
                entry = _stratum_entry(record, i, j)
                if entry is not None:
                    entries.append(entry)
    return tuple(entries)


def locate(record: FamilyRecord, label: str) -> SingularLocusEntry:
    """Find the singular locus entry with the given site label (e.g. ``p3``)."""
    for entry in singular_locus(record):
        if entry.site.label == label:
            return entry
    raise KeyError(f"{record.name} has no singular site {label!r}")


# ---------------------------------------------------------------------------
# Kawamata blow-up weights


class BlowupData(Record):
    """Weight data of the Kawamata blow-up at one center with a chosen tangent.

    ``b`` holds the blow-up weight of every variable ``x0..x4``, 0 at the
    center: non-tangent locals get the smallest positive integer congruent to
    ``multiplier * weight`` mod ``r``; the tangent variable gets the order of
    the implicit solution along the exceptional divisor, which may equal or
    exceed ``r``.  ``excluded`` lists the support monomials killed by the
    graded coordinate change that centers the point and fixes the tangent
    direction: the :func:`center_completion`, with a positive center power,
    of ``1`` and of every ``x_j`` other than the center and the tangent (the
    pure center power and the key monomials of the other tangents).  They
    must be dropped from the equation before transforming.
    ``singularity`` is the germ normalized over the locals transverse to the
    center and the tangent; its ``per_variable_form`` is the Kawamata format
    of the game, and its ``r`` the order of the point, whose center variable
    is ``center_entry.center``.
    """

    center_entry: SingularLocusEntry
    tangent: int
    b: tuple[int, ...]
    singularity: QuotientSingularity
    excluded: frozenset[Monomial]


def center_completion(
    weights: Weights, degree: int, center: int, monomial: Monomial
) -> Monomial | None:
    """``monomial`` with the power of ``x_center`` that gives it weighted
    degree ``degree``, or ``None`` when no power ``>= 0`` does."""
    k, rem = divmod(degree - sum(map(operator.mul, monomial, weights)), weights[center])
    k += monomial[center]
    if rem or k < 0:
        return None
    return monomial[:center] + (k,) + monomial[center + 1 :]


def blowup_weights(
    record: FamilyRecord, entry: SingularLocusEntry, tangent: int | str
) -> BlowupData:
    """Kawamata blow-up weights at ``entry`` with the given tangent variable.

    The tangent weight is computed as the minimum of ``sum(e_l * b_l)`` over
    the support monomials not involving the tangent variable (center weight
    zero, excluded monomials dropped); it always agrees with the congruence
    ``multiplier * weight`` mod ``r``.  The excluded monomials are read off
    the weights, and each cost is one dot product with the dense weight
    vector, whose center and tangent entries are still 0.  At the site's
    first tangent candidate, the one its normal form was taken with, the
    site's ``singularity`` is reused.  ``tangent`` is one of the names
    :data:`~fano2ray.catalog.AMBIENT_VARIABLES` or an integer
    (``operator.index``: a float raises :class:`TypeError`).  A site
    without a center raises :class:`UnresolvedTangent` before the tangent is
    read.
    """
    c = entry.center
    if c is None:
        raise UnresolvedTangent(
            f"{entry.site.label} of {record.name}: neither stratum weight "
            "divides the other, so no graded centering exists"
        )
    if isinstance(tangent, str):
        if tangent not in AMBIENT_VARIABLES:
            raise ValueError(f"bad variable name {tangent!r}")
        tangent = AMBIENT_VARIABLES.index(tangent)
    tangent = operator.index(tangent)
    if tangent not in {t for _, t in entry.tangent_candidates}:
        raise UnresolvedTangent(
            f"x{tangent} is not a tangent candidate at {entry.site.label} "
            f"of {record.name}"
        )
    w, d = record.weights, record.degree
    sing = entry.singularity
    r = sing.r
    if tangent != entry.tangent_candidates[0][1]:
        sing = normalize_terminal(r, *_transverse(w, (c, tangent)))
    m = sing.multiplier
    b = [(m * w[l]) % r if l not in (c, tangent) else 0 for l in range(5)]

    seeds = [(0,) * 5] + [_UNITS[j] for j in range(5) if j not in (c, tangent)]
    completions = [center_completion(w, d, c, seed) for seed in seeds]
    excluded = frozenset(mono for mono in completions if mono is not None and mono[c])
    b0, b1, b2, b3, b4 = b
    avoiding = filterfalse(operator.itemgetter(tangent), record.support() - excluded)
    costs = [
        e0 * b0 + e1 * b1 + e2 * b2 + e3 * b3 + e4 * b4 for e0, e1, e2, e3, e4 in avoiding
    ]
    if not costs:
        raise UnresolvedTangent(
            f"{record.name}: no support monomial avoids the tangent x{tangent}"
        )
    b_t = min(costs)
    if b_t % r != (m * w[tangent]) % r:
        raise NotTerminal(
            f"tangent weight {b_t} breaks the congruence mod {r} at "
            f"{entry.site.label} of {record.name}"
        )
    b[tangent] = b_t
    return BlowupData(
        center_entry=entry,
        tangent=tangent,
        b=tuple(b),
        singularity=sing,
        excluded=excluded,
    )
