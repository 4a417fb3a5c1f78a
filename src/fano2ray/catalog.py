"""Catalog of the 35 quasi-smooth Fano threefold hypersurface families of index >= 2.

A family is a general hypersurface ``X_d`` in a weighted projective space
``P(a0,...,a4)`` whose Fano index ``sum(a_i) - d`` is at least two.  The
catalog stores the weights, the degree, the rationality of a general member
and the reference expectation data (distinguished points, end models of the
elementary links, exclusion games, recorded weight matrices) used by
:mod:`fano2ray.linkengine` to replay the full classification.

General members carry no coefficients anywhere in this package: every
downstream computation is combinatorial on monomial supports, with all
coefficients understood to be general and nonzero.

The embedded data lives in plain UTF-8 files in the ``data`` directory next
to this module (see the header comments of each file for its schema).  The
directory can be overridden with the ``FANO2RAY_DATA`` environment variable.
"""

from __future__ import annotations

import operator
import os
from math import gcd, prod

from ._records import Record

Weights = tuple[int, ...]
Monomial = tuple[int, ...]
#: The ambient variables, in exponent-vector order.
AMBIENT_VARIABLES = ("x0", "x1", "x2", "x3", "x4")
#: The recorded matrix stages of a game, in pipeline order.
MATRIX_STAGES = ("raw", "wellformed", "unprojected", "wellformed_unprojected")


class CatalogError(ValueError):
    """Embedded family data violates a structural invariant."""


# ---------------------------------------------------------------------------
# weighted-homogeneous combinatorics


def fano_index(weights: Weights, degree: int) -> int:
    """Fano index ``sum(weights) - degree`` of a degree-``degree`` hypersurface.

    A non-positive return value signals a non-Fano input; catalog loading
    rejects every record of index below 2.  Inputs must be integers
    (``operator.index``): a float or a string raises :class:`TypeError`, a
    non-positive weight :class:`ValueError`.
    """
    weights = tuple(map(operator.index, weights))
    degree = operator.index(degree)
    if len(weights) != 5:
        raise ValueError(f"expected 5 ambient weights, got {len(weights)}")
    if min(weights) <= 0:
        raise ValueError("weights must be positive")
    if degree < 1:
        raise ValueError("degree must be positive")
    return sum(weights) - degree


def _support(weights: Weights, degree: int) -> frozenset[Monomial]:
    if degree < 0:
        return frozenset()
    if len(weights) < 2:
        if not weights:
            return frozenset({()}) if degree == 0 else frozenset()
        (w,) = weights
        return frozenset({(degree // w,)}) if degree % w == 0 else frozenset()
    ascending = sorted(weights)
    least, w2 = ascending[0], ascending[1]
    # e*w2 + f*least == r needs g | r; then e runs over one residue class
    # mod least // g and f is forced
    g = gcd(w2, least)
    m = least // g
    inverse = pow(w2 // g, -1, m)
    # a vector lists its exponents in ascending order of weight, which is
    # positional when the weights are nondecreasing (every family and candidate)
    if len(weights) == 5:
        # every family and candidate: nested loops over the three heaviest
        # exponents, one tuple per vector
        a2, a3, a4 = ascending[2:]
        vectors = []
        add = vectors.append
        for e4 in range(degree // a4 + 1):
            r4 = degree - e4 * a4
            for e3 in range(r4 // a3 + 1):
                r3 = r4 - e3 * a3
                for e2 in range(r3 // a2 + 1):
                    r = r3 - e2 * a2
                    if r % g == 0:
                        for e1 in range(r // g * inverse % m, r // w2 + 1, m):
                            add(((r - e1 * w2) // least, e1, e2, e3, e4))
    else:
        # each exponent is prepended, heaviest first, carrying the residual
        partial = [(degree, ())]
        for w in reversed(ascending[2:]):
            partial = [(r - e * w, (e,) + exps) for r, exps in partial for e in range(r // w + 1)]
        vectors = (
            ((r - e * w2) // least, e) + exps
            for r, exps in partial
            if r % g == 0
            for e in range(r // g * inverse % m, r // w2 + 1, m)
        )
    if list(weights) != ascending:
        order = sorted(range(len(weights)), key=weights.__getitem__)
        positional = operator.itemgetter(*sorted(range(len(order)), key=order.__getitem__))
        vectors = map(positional, vectors)
    return frozenset(vectors)


def monomial_support(weights: Weights, degree: int) -> frozenset[Monomial]:
    """All exponent vectors ``e`` with ``sum(e_i * weights_i) == degree``.

    The exponents of all variables but the two lightest are enumerated,
    heaviest weight first, carrying the residual degree ``r``.  With five
    weights (every family and candidate) they are three nested loops, and
    each vector is built as one tuple; other arities extend partial vectors
    one variable at a time.  The last two exponents solve
    ``e * w2 + f * least == r``, with ``w2`` the second-least weight: there
    is a solution only when ``g = gcd(w2, least)`` divides ``r``, and then
    ``e`` runs over one residue class modulo ``least // g`` and ``f`` is
    forced, so every vector built is kept.  Each call builds a new set, and
    only a loaded catalog's families keep theirs (:meth:`FamilyRecord.support`):
    a candidate's, a stratum's or a wall's support is dropped as soon as its
    caller is done with it.

    Inputs must be integers (``operator.index``): a float or a string raises
    :class:`TypeError`, a non-positive weight :class:`ValueError`.  The empty
    set is a valid result (no monomials of that weighted degree).
    """
    weights = tuple(map(operator.index, weights))
    if weights and min(weights) <= 0:
        raise ValueError("weights must be positive")
    return _support(weights, operator.index(degree))


def weighted_degree(weights: Weights, monomial: Monomial) -> int:
    return sum(e * w for e, w in zip(monomial, weights, strict=True))


def well_form_weights(weights: Weights) -> Weights:
    """Well-formed weight vector of the same weighted projective space.

    Divides out the overall common factor, then repeatedly divides every
    common factor shared by all but one entry; the result is sorted
    nondecreasing.  Weights must be integers (``operator.index``): a float
    or a string raises :class:`TypeError`.
    """
    ws = [operator.index(w) for w in weights]
    if len(ws) < 2 or any(w <= 0 for w in ws):
        raise ValueError("need at least two positive weights")
    g = gcd(*ws)
    ws = [w // g for w in ws]
    changed = True
    while changed:
        changed = False
        for i in range(len(ws)):
            q = gcd(*(w for j, w in enumerate(ws) if j != i))
            if q > 1:
                ws = [w if j == i else w // q for j, w in enumerate(ws)]
                changed = True
    return tuple(sorted(ws))


# ---------------------------------------------------------------------------
# expectation data (reference tables, kept verbatim with known misprints)


class LinkExpectation(Record):
    """Recorded end model of the elementary link from one distinguished point."""

    point: str
    kawamata_type: tuple[int, int, int]
    label: str
    target_weights: Weights
    target_degrees: tuple[int, ...]
    construction: str  # "hypersurface" | "unprojection"


class ExclusionExpectation(Record):
    """Recorded exclusion game at one non-distinguished quotient singularity."""

    site: str
    tangent: str
    count: int
    local_type: tuple[int, int, int]
    #: every recorded key as ``(text, monomial)``: the ``|`` alternatives and
    #: their ``+`` terms flattened in recorded order
    keys: tuple[tuple[str, Monomial], ...]
    blowup: str
    corrected_blowup: str
    verdict: str  # "bad_link" | "no_link"


class MatrixExpectation(Record):
    """Recorded rank-2 weight matrix of a displayed model: its ``(label,
    (row1 entry, row2 entry))`` columns in recorded order."""

    point: str
    stage: str
    columns: tuple[tuple[str, tuple[int, int]], ...]


class FamilyExpectations(Record):
    links: tuple[LinkExpectation, ...] = ()
    exclusions: tuple[ExclusionExpectation, ...] = ()
    matrices: tuple[MatrixExpectation, ...] = ()


class FamilyRecord(Record):
    """``X_degree`` in ``P(weights)``: ``FamilyRecord(weights=w, degree=d)`` is
    all the geometric core reads.  A catalog entry adds its ``id``, recorded
    ``rational`` and ``expected`` data, and ``h_degree``, the recorded cutting
    degree of the smooth-point test (``None``: the rule ``a1*a2*a3``).
    """

    weights: Weights
    degree: int
    id: int | None = None
    rational: bool | None = None
    expected: FamilyExpectations = FamilyExpectations()
    h_degree: int | None = None

    @property
    def index(self) -> int:
        return fano_index(self.weights, self.degree)

    @property
    def name(self) -> str:
        """``family <id>`` for a catalog entry, else ``X_d ⊂ P(a0,...,a4)``."""
        if self.id is None:
            return f"X_{self.degree} ⊂ P({','.join(map(str, self.weights))})"
        return f"family {self.id}"

    def support(self) -> frozenset[Monomial]:
        """The monomial support, the stored one for a family of a loaded catalog."""
        support = _FAMILY_SUPPORTS.get((self.weights, self.degree))
        return monomial_support(self.weights, self.degree) if support is None else support

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FamilyRecord({self.name})"


#: The family supports of every loaded catalog, by ``(weights, degree)``:
#: ``blowup_weights`` and ``build_model`` read one in every game.  Any other
#: record builds its support per call, by ``monomial_support`` looked up per
#: call, so tracing counts every build.
_FAMILY_SUPPORTS: dict[tuple[Weights, int], frozenset[Monomial]] = {}


def anticanonical_cube(record: FamilyRecord) -> Fraction:
    """Anticanonical self-intersection ``index^3 * degree / prod(weights)``."""
    from fractions import Fraction

    return Fraction(record.index**3 * record.degree, prod(record.weights))


# ---------------------------------------------------------------------------
# parsing of the embedded data files


def parse_ambient_monomial(text: str) -> Monomial:
    """Parse ``"x2^7*x0"`` into the exponent vector ``(1, 0, 7, 0, 0)``."""
    exps = [0] * 5
    for factor in text.split("*"):
        variable, caret, exponent = factor.strip().partition("^")
        if variable not in AMBIENT_VARIABLES or caret and not _digits(exponent):
            raise CatalogError(f"bad monomial factor {factor!r} in {text!r}")
        exps[AMBIENT_VARIABLES.index(variable)] += int(exponent) if caret else 1
    return tuple(exps)


def monomial_str(monomial: Monomial, names: tuple[str, ...] = AMBIENT_VARIABLES) -> str:
    """``monomial`` over the variables ``names`` as text, e.g. ``"x0*x2^7"``;
    ``"1"`` when every exponent is 0."""
    text = "*".join(lab if e == 1 else f"{lab}^{e}" for lab, e in zip(names, monomial) if e)
    return text or "1"


def _digits(text: str) -> bool:
    """``text`` is one or more ASCII digits (``str.isdigit`` alone takes ``²``)."""
    return text.isascii() and text.isdigit()


def _int(text: str) -> int:
    """A recorded integer: ASCII digits with an optional leading ``-``."""
    if not _digits(text[1:] if text.startswith("-") else text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _ints(text: str, count: int | None = None) -> tuple[int, ...]:
    ints = tuple(map(_int, text.split(",")))
    if count is not None and len(ints) != count:
        raise ValueError(f"expected {count} integers, got {text!r}")
    return ints


def _data_dir() -> str:
    return os.environ.get("FANO2RAY_DATA") or os.path.join(os.path.dirname(__file__), "data")


def _read_rows(data_dir: str, name: str, width: int, parse) -> list:
    """``parse(*columns)`` of every data line of one data file.

    Blank lines and ``#`` comments are skipped.  A line without exactly
    ``width`` columns, or whose ``parse`` raises :class:`ValueError`, raises
    :class:`CatalogError` naming the file and the line.
    """
    path = os.path.join(data_dir, name)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = []
    for number, line in enumerate(lines, 1):
        columns = line.split()
        if not columns or columns[0].startswith("#"):
            continue
        try:
            if len(columns) != width:
                raise ValueError(f"expected {width} columns, got {len(columns)}")
            rows.append(parse(*columns))
        except ValueError as err:
            raise CatalogError(f"{path}, line {number}: {err}") from err
    return rows


def _expectations(data_dir: str, name: str, width: int, parse, ids) -> dict[int, tuple]:
    """One expectation file's rows by family id, each id one of ``ids``."""

    def row(fam, *columns):
        fam_id = _int(fam)
        if fam_id not in ids:
            raise ValueError(f"no family {fam_id} in families.txt")
        return fam_id, parse(*columns)

    table: dict[int, tuple] = {}
    for fam_id, exp in _read_rows(data_dir, name, width, row):
        table[fam_id] = table.get(fam_id, ()) + (exp,)
    return table


def _link_row(point, ktype, label, tweights, tdegrees, construction):
    if construction not in ("hypersurface", "unprojection"):
        raise ValueError(f"construction must be hypersurface or unprojection: {construction!r}")
    return LinkExpectation(
        point=point,
        kawamata_type=_ints(ktype, 3),  # type: ignore[arg-type]
        label=label,
        target_weights=_ints(tweights),
        target_degrees=_ints(tdegrees),
        construction=construction,
    )


def _exclusion_row(site, tangent, count, ltype, keys, blowup, corrected, verdict):
    if tangent not in AMBIENT_VARIABLES:
        raise ValueError(f"tangent must be one of x0..x4, got {tangent!r}")
    if verdict not in ("bad_link", "no_link"):
        raise ValueError(f"verdict must be bad_link or no_link, got {verdict!r}")
    return ExclusionExpectation(
        site=site,
        tangent=tangent,
        count=_int(count),
        local_type=_ints(ltype, 3),  # type: ignore[arg-type]
        keys=tuple((t, parse_ambient_monomial(t)) for t in keys.replace("|", "+").split("+")),
        blowup=blowup,
        corrected_blowup=blowup if corrected == "=" else corrected,
        verdict=verdict,
    )


def _matrix_row(point, stage, labels, row1, row2):
    if stage not in MATRIX_STAGES:
        raise ValueError(f"stage must be one of {', '.join(MATRIX_STAGES)}: {stage!r}")
    labels = labels.split(",")
    rows = zip(_ints(row1, len(labels)), _ints(row2, len(labels)))
    return MatrixExpectation(point=point, stage=stage, columns=tuple(zip(labels, rows)))


def _family_row(fam, weights, degree, rational, h) -> FamilyRecord:
    """A family without its expectations, which are read after every family."""
    if rational not in ("yes", "no"):
        raise ValueError(f"rational must be yes or no, got {rational!r}")
    h_degree = None if h == "-" else _int(h)
    if h_degree is not None and h_degree < 1:
        raise ValueError(f"h must be a positive integer or -, got {h!r}")
    fam_id, weights, degree = _int(fam), _ints(weights), _int(degree)
    # raises on a weight count other than 5 or a weight <= 0
    if fano_index(weights, degree) < 2:
        raise ValueError("Fano index below 2")
    # well_form_weights returns the sorted well-formed vector
    if well_form_weights(weights) != weights:
        raise ValueError("weights must be nondecreasing and well-formed")
    return FamilyRecord(
        id=fam_id,
        weights=weights,
        degree=degree,
        rational=rational == "yes",
        expected=FamilyExpectations(),
        h_degree=h_degree,
    )


def _load_catalog(data_dir: str) -> tuple[FamilyRecord, ...]:
    """Parse and validate the catalog in ``data_dir``, then store its supports."""
    families = _read_rows(data_dir, "families.txt", 5, _family_row)
    ids = {r.id for r in families}
    links = _expectations(data_dir, "link_targets.txt", 7, _link_row, ids)
    exclusions = _expectations(data_dir, "exclusions.txt", 9, _exclusion_row, ids)
    matrices = _expectations(data_dir, "reference_matrices.txt", 6, _matrix_row, ids)
    records = tuple(
        r._replace(
            expected=FamilyExpectations(
                links=links.get(r.id, ()),
                exclusions=exclusions.get(r.id, ()),
                matrices=matrices.get(r.id, ()),
            )
        )
        for r in sorted(families, key=lambda r: r.id)
    )
    path = os.path.join(data_dir, "families.txt")
    listed = [r.id for r in records]
    if listed != list(range(96, 131)):
        wrong = [f"missing {i}" for i in range(96, 131) if i not in ids]
        wrong += [f"repeated {i}" for i in sorted(ids) if listed.count(i) > 1]
        wrong += [f"unexpected {i}" for i in sorted(ids) if not 96 <= i <= 130]
        raise CatalogError(
            f"{path}: family ids must be the contiguous range 96..130; {', '.join(wrong)}"
        )
    supports = {(r.weights, r.degree): monomial_support(r.weights, r.degree) for r in records}
    for r in records:
        if not supports[r.weights, r.degree]:
            raise CatalogError(f"{path}: family {r.id}: empty monomial support")
    _FAMILY_SUPPORTS.update(supports)
    return records


#: ``load_catalog``'s records, by data directory.
_CATALOGS: dict[str, tuple[FamilyRecord, ...]] = {}


def load_catalog() -> tuple[FamilyRecord, ...]:
    """All 35 records, validated against the structural invariants: parsed
    once per data directory, the same tuple on every later call."""
    data_dir = _data_dir()
    records = _CATALOGS.get(data_dir)
    if records is None:
        records = _CATALOGS[data_dir] = _load_catalog(data_dir)
    return records


def family(family_id: int) -> FamilyRecord:
    """Look up one family by its id, in the contiguous range of the loaded ids.

    The id must be an integer (``operator.index``): a float or a string
    raises :class:`TypeError`, an id out of range :class:`KeyError`.
    """
    try:
        family_id = operator.index(family_id)
    except TypeError:
        raise TypeError(f"family id must be an integer, got {family_id!r}") from None
    records = load_catalog()
    first, last = records[0].id, records[-1].id
    if not first <= family_id <= last:
        raise KeyError(f"no family {family_id}; ids run {first}..{last}")
    return records[family_id - first]
