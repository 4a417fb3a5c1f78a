"""Quotient singularities of general members and Kawamata blow-up weights.

A general quasi-smooth member meets the singular locus of its ambient
weighted projective space in finitely many cyclic quotient points sitting at
coordinate vertices and on one-dimensional coordinate strata.  This module
locates those points combinatorially from the monomial support, normalizes
each germ ``1/r(w1,w2,w3)`` into Kawamata format ``1/r(1,a,r-a)`` by an
exhaustive multiplier search, and produces the fractional weight data of the
Kawamata blow-up that seeds the rank-2 toric models of
:mod:`fano2ray.toric2ray`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .catalog import FamilyRecord, Monomial


class NotTerminal(ValueError):
    """The germ admits no multiplier putting it in the form 1/r(1,a,r-a)."""


class UnresolvedTangent(ValueError):
    """No key monomial provides a tangent direction at the singular point."""


# ---------------------------------------------------------------------------
# sites


@dataclass(frozen=True)
class Vertex:
    """A coordinate point ``p_i`` of the ambient space."""

    index: int

    @property
    def label(self) -> str:
        return f"p{self.index}"

    @property
    def variables(self) -> tuple[int, ...]:
        return (self.index,)


@dataclass(frozen=True)
class Stratum:
    """The one-dimensional coordinate stratum through ``p_i`` and ``p_j``."""

    first: int
    second: int

    @property
    def label(self) -> str:
        return f"p{self.first}p{self.second}"

    @property
    def variables(self) -> tuple[int, ...]:
        return (self.first, self.second)


Site = Vertex | Stratum


# ---------------------------------------------------------------------------
# terminal normal form


@dataclass(frozen=True)
class QuotientSingularity:
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
    """Normalize ``1/r(weights)`` into Kawamata format by multiplier search.

    Tries every unit ``m`` in ``1..r-1`` in increasing order and accepts the
    first one for which some entry of ``m * weights mod r`` equals 1 while the
    other two sum to ``r``.  Raises :class:`NotTerminal` when no multiplier
    works (the germ is then not a terminal threefold point).
    """
    if r < 2:
        raise NotTerminal(f"quotient order must be at least 2, got {r}")
    residues = tuple(w % r for w in weights)
    if len(residues) != 3:
        raise NotTerminal("need exactly three local weights")
    for w in residues:
        if gcd(w, r) != 1:
            raise NotTerminal(f"local weight {w} shares a factor with r={r}")
    for m in range(1, r):
        if gcd(m, r) != 1:
            continue
        v = tuple((m * w) % r for w in residues)
        for i in range(3):
            if v[i] != 1:
                continue
            others = tuple(v[j] for j in range(3) if j != i)
            if sum(others) == r:
                return QuotientSingularity(
                    r=r,
                    local_weights=tuple(zip(variables, residues)),
                    multiplier=m,
                    kawamata_form=(1, *others),
                )
    raise NotTerminal(f"1/{r}{residues} admits no Kawamata normal form")


# ---------------------------------------------------------------------------
# singular locus of a general member


@dataclass(frozen=True)
class SingularLocusEntry:
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

    @property
    def r(self) -> int:
        return self.singularity.r


def _vertex_entry(record: FamilyRecord, i: int) -> SingularLocusEntry | None:
    w, d = record.weights, record.degree
    r = w[i]
    if d % r == 0:
        # the pure power x_i^(d/r) lies in the support: vertex off the member
        return None
    keys = []
    for j in range(5):
        if j == i or d - w[j] <= 0 or (d - w[j]) % r != 0:
            continue
        mono = tuple((d - w[j]) // r if l == i else (1 if l == j else 0) for l in range(5))
        keys.append((mono, j))
    if not keys:
        raise UnresolvedTangent(
            f"family {record.id}: vertex p{i} lies on the member but the support "
            f"has no monomial x{i}^k*x_j"
        )
    j0 = keys[0][1]
    locals_ = tuple(l for l in range(5) if l not in (i, j0))
    sing = normalize_terminal(r, tuple(w[l] for l in locals_), locals_)
    return SingularLocusEntry(
        site=Vertex(i), count=1, tangent_candidates=tuple(keys), singularity=sing, center=i
    )


def _stratum_entry(record: FamilyRecord, i: int, j: int) -> SingularLocusEntry | None:
    w, d = record.weights, record.degree
    r = gcd(w[i], w[j])
    restricted = [
        m for m in record.support() if all(e == 0 for l, e in enumerate(m) if l not in (i, j))
    ]
    if not restricted:
        raise NotTerminal(
            f"family {record.id}: stratum p{i}p{j} is contained in the member "
            "(one-dimensional singular locus, unsupported)"
        )
    top = max(restricted, key=lambda m: m[i])
    bot = min(restricted, key=lambda m: m[i])
    count = gcd(top[i] - bot[i], top[j] - bot[j])
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
        k = (d - w[tangent]) // w[center]
        key = tuple(k if l == center else (1 if l == tangent else 0) for l in range(5))
        candidates = ((key, tangent),)
    locals_ = tuple(l for l in range(5) if l not in (i, j))
    sing = normalize_terminal(r, tuple(w[l] for l in locals_), locals_)
    return SingularLocusEntry(
        site=Stratum(i, j),
        count=count,
        tangent_candidates=candidates,
        singularity=sing,
        center=center,
    )


def singular_locus(record: FamilyRecord) -> tuple[SingularLocusEntry, ...]:
    """All quotient singularities of a general member, vertices first.

    Vertices report every tangent candidate (key monomials ``x_i^k * x_j``);
    strata report the number of points as the lattice length of the
    restricted support segment.
    """
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
    raise KeyError(f"family {record.id} has no singular site {label!r}")


# ---------------------------------------------------------------------------
# Kawamata blow-up weights


@dataclass(frozen=True)
class BlowupData:
    """Weight data of the Kawamata blow-up at one center with a chosen tangent.

    ``b`` holds the blow-up weight of every variable ``x0..x4``, 0 at the
    center: non-tangent locals get the smallest positive integer congruent to
    ``multiplier * weight`` mod ``r``; the tangent variable gets the order of
    the implicit solution along the exceptional divisor, which may equal or
    exceed ``r``.  ``excluded`` lists the support monomials killed by the
    graded coordinate change that centers the point and fixes the tangent
    direction (pure center powers and the key monomials of the other tangent
    candidates); they must be dropped from the equation before transforming.
    ``singularity`` is the germ normalized over the locals transverse to the
    center and the tangent; its ``per_variable_form`` is the Kawamata format
    of the game.
    """

    center_entry: SingularLocusEntry
    tangent: int
    b: tuple[int, ...]
    singularity: QuotientSingularity
    excluded: frozenset[Monomial]
    r: int
    center_index: int

    @property
    def multiplier(self) -> int:
        return self.singularity.multiplier


def _variable_index(tangent: int | str) -> int:
    if isinstance(tangent, str):
        if not tangent.startswith("x") or not tangent[1:].isdigit():
            raise ValueError(f"bad variable name {tangent!r}")
        return int(tangent[1:])
    return int(tangent)


def blowup_weights(
    record: FamilyRecord, entry: SingularLocusEntry, tangent: int | str
) -> BlowupData:
    """Kawamata blow-up weights at ``entry`` with the given tangent variable.

    The tangent weight is computed as the minimum of ``sum(e_l * b_l)`` over
    the support monomials not involving the tangent variable (center weight
    zero, excluded monomials dropped); it always agrees with the congruence
    ``multiplier * weight`` mod ``r``.
    """
    tangent = _variable_index(tangent)
    if tangent not in {t for _, t in entry.tangent_candidates}:
        raise UnresolvedTangent(
            f"x{tangent} is not a tangent candidate at {entry.site.label} "
            f"of family {record.id}"
        )
    c = entry.center
    if c is None:
        raise UnresolvedTangent(
            f"{entry.site.label}: neither stratum weight divides the other, "
            "no graded centering exists"
        )
    w = record.weights
    r = entry.r
    locals_ = tuple(l for l in range(5) if l not in (c, tangent))
    sing = normalize_terminal(r, tuple(w[l] for l in locals_), locals_)
    m = sing.multiplier
    b = {l: (m * w[l]) % r for l in locals_}

    support = record.support()
    excluded = set()
    for mono in support:
        nonzero = [l for l, e in enumerate(mono) if e > 0]
        if nonzero == [c]:
            excluded.add(mono)  # pure center power (vertex off-member guard / root shift)
        elif len(nonzero) == 2 and c in nonzero:
            other = nonzero[0] if nonzero[1] == c else nonzero[1]
            if other != tangent and mono[other] == 1 and mono[c] >= 1:
                excluded.add(mono)  # key monomial of a different tangent choice

    working = support - excluded
    costs = [
        sum(e * b[l] for l, e in enumerate(mono) if l in b)
        for mono in working
        if mono[tangent] == 0
    ]
    if not costs:
        raise UnresolvedTangent(
            f"family {record.id}: no support monomial avoids the tangent x{tangent}"
        )
    b_t = min(costs)
    if b_t % r != (m * w[tangent]) % r:
        raise NotTerminal(
            f"tangent weight {b_t} breaks the congruence mod {r} at "
            f"{entry.site.label} of family {record.id}"
        )
    b[tangent] = b_t
    return BlowupData(
        center_entry=entry,
        tangent=tangent,
        b=tuple(b.get(l, 0) for l in range(5)),
        singularity=sing,
        excluded=frozenset(excluded),
        r=r,
        center_index=c,
    )
