"""Rank-2 toric models of Kawamata blow-ups and their 2-ray games.

A model is a rank-2 weight matrix: one integer pair per variable (the rays of
a two-parameter torus action on affine space), plus the transformed defining
equation(s).  Crossing the GIT walls anticlockwise away from the blown-up
center realizes the 2-ray game; each crossing is classified first on the
ambient toric variety (flip with signed local weights, or divisorial
contraction at the last wall) and then on the hypersurface or complete
intersection inside it (isomorphism, Atiyah flop, flip, or divisorial
contraction onto a Fano model).

Everything is exact integer arithmetic.  Local weights, divisorial targets
and the position of a divisor class relative to the movable cone are all
invariant under regradings of positive determinant; the bidegrees themselves
are covariant, so numeric examples are always quoted together with the
grading they were computed in.  Every change of grading is one integral map
of the columns and the equation bidegrees alike (a bidegree is an integer
combination of columns): bidegrees are mapped, never recomputed.

A transformed monomial is a fixed-length exponent vector over
:data:`MONO_VARIABLES` (``u``, ``y0..y4`` and the unprojection variable
``y``), indexed directly by position.  Bidegrees are plain integer pairs
``(d1, d2)``: the degree of a monomial against the two rows of the weight
matrix.

When the equation lies in the irrelevant ideal, ``unproject`` adjoins a new
variable, turning the hypersurface into a codimension-2 complete
intersection.  The monomial format, the column order and the construction of
equations (only in ``build_model`` and ``unproject``, where supports are
made) are private to this module; other modules use the functions here.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul

from ._records import Record
from .catalog import FamilyRecord, Weights, monomial_str, monomial_support, well_form_weights
from .singular import BlowupData

Vec = tuple[int, int]
#: The variables of a transformed monomial, in exponent-vector order.
MONO_VARIABLES = ("u", "y0", "y1", "y2", "y3", "y4", "y")
#: A transformed monomial: one exponent per entry of :data:`MONO_VARIABLES`.
Mono = tuple[int, ...]
#: The supports ``(A, B)`` of the split ``g = u*A + y_c*B`` of an unprojection.
Pieces = tuple[frozenset[Mono], frozenset[Mono]]
_ZERO: Mono = (0,) * len(MONO_VARIABLES)
_UNIT: dict[str, Mono] = {
    lab: tuple(int(v == lab) for v in MONO_VARIABLES) for lab in MONO_VARIABLES
}


class NonHomogeneous(ValueError):
    """A transformed equation fails bihomogeneity (inconsistent weights)."""


class LatticeError(ValueError):
    """No row transformation restores a primitive column lattice."""


class DegenerateWall(ValueError):
    """A wall has no rays strictly on one side (fibration-type boundary)."""


class ZeroClass(ValueError):
    """The zero divisor class has no position relative to any cone."""


def det2(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _factors(m: Mono) -> tuple[tuple[str, int], ...]:
    return tuple((lab, e) for lab, e in zip(MONO_VARIABLES, m) if e)


def mono_str(m: Mono) -> str:
    return monomial_str(m, MONO_VARIABLES)


class TransformedEquation(Record):
    """Monomial support of one transformed equation and its bidegree."""

    support: frozenset[Mono]
    bidegree: Vec


class _Wall(Record):
    direction: Vec
    labels: tuple[str, ...]


class _ModelFields(Record):
    columns: tuple[tuple[str, Vec], ...]
    equations: tuple[TransformedEquation, ...]
    center: str


class RankTwoModel(_ModelFields):
    """A rank-2 toric ambient model with its transformed equation(s).

    ``columns`` are the rays, sorted strictly anticlockwise starting from the
    ``u``-ray (parallel rays kept adjacent); ``center`` is the label of the
    blown-up center variable, always the second ray direction.  The class
    declares no ``__slots__``: the cached ``walls`` lives in the instance
    ``__dict__``, which a bare record does not have.
    """

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.columns)

    def column_map(self) -> dict[str, Vec]:
        return dict(self.columns)

    @property
    def walls(self) -> tuple[tuple[_Wall, ...], dict[str, int]]:
        """The ray directions in column order, parallel columns grouped into
        one wall, and the wall index of every label; computed once per model."""
        cached = self.__dict__.get("walls")
        if cached is not None:
            return cached
        groups: list[tuple[Vec, list[str]]] = []
        index_of: dict[str, int] = {}
        for lab, (x, y) in self.columns:
            g = gcd(x, y)
            if g == 0:
                raise LatticeError("zero ray")
            p = (x // g, y // g)
            if not groups or groups[-1][0] != p:
                groups.append((p, []))
            groups[-1][1].append(lab)
            index_of[lab] = len(groups) - 1
        walls = tuple(_Wall(direction=d, labels=tuple(labs)) for d, labs in groups)
        self.__dict__["walls"] = cached = walls, index_of
        return cached


# ---------------------------------------------------------------------------
# anticlockwise ray order


def _sort_columns(columns) -> tuple[tuple[str, Vec], ...]:
    """The columns anticlockwise from the ``u``-ray, keyed by ``(sector, -dot *
    (L // det))`` (``det``, ``dot`` against the ``u``-ray, ``L`` the lcm of the
    nonzero dets): decreasing cotangent inside each half-plane, and parallel
    rays tie, so the stable sort keeps them adjacent in input order."""
    columns = list(columns)
    ref = dict(columns)["u"]
    dets = [ref[0] * y - ref[1] * x for _, (x, y) in columns]
    scale = lcm(*filter(None, dets))
    keys = [
        (1 if d > 0 else 3, -(ref[0] * v[0] + ref[1] * v[1]) * (scale // d))
        if d
        else (0 if ref[0] * v[0] + ref[1] * v[1] > 0 else 2, 0)
        for (_, v), d in zip(columns, dets)
    ]
    return tuple(columns[i] for i in sorted(range(len(columns)), key=keys.__getitem__))


# ---------------------------------------------------------------------------
# model construction


def build_model(record: FamilyRecord, blow: BlowupData) -> RankTwoModel:
    """Raw rank-2 model of the blow-up: ambient weights over blow-up weights.

    Row one holds the ambient weights (0 for ``u``); row two holds ``-r`` for
    ``u`` and the blow-up weights (0 for the center variable) elsewhere.  The
    equation is the proper transform of the working support (excluded
    monomials dropped): each monomial acquires the ``u``-exponent
    ``(cost - mu) / r`` where ``cost = sum(e_i b_i)`` and ``mu`` is the
    minimal cost over the support.

    Each monomial takes one dot product with the packed weights ``w_i * base
    + b_i``, where ``base = 2 * bound + 1`` and ``bound`` caps every ``|cost|``:
    the value is ``degree(m) * base + cost``, so every degree is right exactly
    when all values lie within ``bound`` of ``record.degree * base``, and
    then the values give ``mu``, the congruence and the ``u``-exponents.  The
    bidegree is ``(record.degree, mu)``.  An empty working support, a cost
    off the congruence class or a monomial of another degree raises
    :class:`NonHomogeneous`, naming the first such monomial in working order.
    """
    w, b, r, degree = record.weights, blow.b, blow.singularity.r, record.degree
    columns = _sort_columns(
        [("u", (0, -r))] + [(f"y{i}", (w[i], b[i])) for i in range(len(w))]
    )

    working = tuple(record.support() - blow.excluded)
    if not working:
        raise NonHomogeneous("empty equation support")
    bound = max(map(sum, working)) * max(map(abs, b))
    base = 2 * bound + 1
    p0, p1, p2, p3, p4 = (wi * base + bi for wi, bi in zip(w, b))
    values = [
        e0 * p0 + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 for e0, e1, e2, e3, e4 in working
    ]
    low = min(values)
    mu = low - degree * base
    if mu < -bound or max(values) > degree * base + bound or any((v - low) % r for v in values):
        # replay the costs in working order to name the first bad monomial
        costs = [sum(map(mul, m, b)) for m in working]
        mu = min(costs)
        for m, k in zip(working, costs):
            if (k - mu) % r:
                raise NonHomogeneous(
                    f"monomial cost {k} not congruent to the multiplicity {mu} mod {r}"
                )
            if sum(map(mul, m, w)) != degree:
                raise NonHomogeneous(f"monomial {m} is not of degree {degree}")
    # the least value gets u-exponent 0: the transform is proper by construction
    support = frozenset(
        ((v - low) // r, e0, e1, e2, e3, e4, 0) for v, (e0, e1, e2, e3, e4) in zip(values, working)
    )
    equation = TransformedEquation(support=support, bidegree=(degree, mu))
    center = f"y{blow.center_entry.center}"
    return RankTwoModel(columns=columns, equations=(equation,), center=center)


def _hnf_basis(vectors: list[Vec]) -> tuple[int, int, int]:
    """Hermite basis ``(A, 0), (B, C)`` of the lattice spanned by ``vectors``."""
    a = 0
    bx, by = 0, 0
    for x, y in vectors:
        if y == 0:
            a = gcd(a, x)
            continue
        if by == 0:
            bx, by = x, y
            continue
        # s*by + t*y == g: s inverts by/g modulo |y/g|, then t is exact
        g = gcd(by, y)
        s = pow(by // g, -1, abs(y // g))
        t = (g - s * by) // y
        a = gcd(a, (by // g) * x - (y // g) * bx)
        bx, by = s * bx + t * x, g
    if a == 0 or by == 0:
        raise LatticeError("columns do not span a rank-2 lattice")
    a = abs(a)
    if by < 0:
        bx, by = -bx, -by
    bx %= a
    return a, bx, by


def _regraded(model: RankTwoModel, matrix: tuple[Vec, Vec], den: int) -> RankTwoModel:
    """The model with every column and equation bidegree mapped by
    ``matrix / den``; supports are kept.  Raises :class:`LatticeError` when
    an image is not integral."""
    (p, q), (s, t) = matrix

    def image(v: Vec) -> Vec:
        x, rx = divmod(p * v[0] + q * v[1], den)
        y, ry = divmod(s * v[0] + t * v[1], den)
        if rx or ry:
            raise LatticeError(f"regrading is not integral on {v}")
        return (x, y)

    return RankTwoModel(
        columns=tuple((lab, image(v)) for lab, v in model.columns),
        equations=tuple(
            TransformedEquation(support=eq.support, bidegree=image(eq.bidegree))
            for eq in model.equations
        ),
        center=model.center,
    )


def well_form_model(model: RankTwoModel) -> RankTwoModel:
    """Re-grade so that the columns span the full lattice (minor gcd one).

    The columns are rewritten in the Hermite basis ``(A, 0), (B, C)`` of the
    lattice they span, i.e. mapped by ``((C, -B), (0, A)) / (A*C)``: the
    basis vector along the center ray becomes ``(1, 0)``-directed and the
    transformation has positive determinant, so the anticlockwise order is
    untouched.  Equations keep their supports; their bidegrees are mapped by
    the same matrix.
    """
    a, bx, by = _hnf_basis([v for _, v in model.columns])
    return _regraded(model, ((by, -bx), (0, a)), a * by)


# ---------------------------------------------------------------------------
# unprojection


def needs_unprojection(model: RankTwoModel) -> Pieces | None:
    """The split ``g = u*A + y_c*B`` when the equation lies in the irrelevant
    ideal: the supports ``(A, B)``, else ``None``.

    The equation lies there exactly when every support monomial is divisible
    both by a variable of the low side ``(u, center)`` and by one of the
    remaining variables, and the two pieces (u-multiples stripped of one
    ``u``, the rest stripped of one center variable) are both nonempty.
    """
    if len(model.equations) != 1:
        raise ValueError("unprojection test expects a single-equation model")
    eq = model.equations[0]
    c = MONO_VARIABLES.index(model.center)
    # the five positions besides u and the center: a tuple for every monomial
    rest = itemgetter(*(i for i in range(1, len(MONO_VARIABLES)) if i != c))
    # decide first (a monomial free of u and the center, or in them alone, is
    # outside the ideal), build the pieces only for an equation in the ideal
    if (0, 0) in map(itemgetter(0, c), eq.support) or (0,) * 5 in map(rest, eq.support):
        return None
    piece_u = frozenset((m[0] - 1, *m[1:]) for m in eq.support if m[0])
    piece_center = frozenset((*m[:c], m[c] - 1, *m[c + 1 :]) for m in eq.support if not m[0])
    if not piece_u or not piece_center:
        return None
    return piece_u, piece_center


def unproject(model: RankTwoModel, pieces: Pieces) -> RankTwoModel:
    """Adjoin the unprojection variable ``y = -A/y_c = B/u`` and replace ``g``
    by the two equations ``y*y_c + A`` and ``-u*y + B`` (supports only; signs
    are immaterial).  Every degree is read off the split: ``deg A = deg g -
    deg u``, ``deg B = deg g - deg y_c`` and ``deg y = deg g - deg u - deg
    y_c``.  Eliminating ``y`` from the two equations recovers ``g``."""
    cols = model.column_map()
    if "y" in cols:
        raise ValueError("model already carries an unprojection variable")
    piece_u, piece_center = pieces
    (g1, g2), (u1, u2), (c1, c2) = model.equations[0].bidegree, cols["u"], cols[model.center]
    columns = _sort_columns(list(model.columns) + [("y", (g1 - u1 - c1, g2 - u2 - c2))])
    y_center = tuple(int(lab in ("y", model.center)) for lab in MONO_VARIABLES)
    u_y = tuple(int(lab in ("u", "y")) for lab in MONO_VARIABLES)
    equations = (
        TransformedEquation(support=piece_u | {y_center}, bidegree=(g1 - u1, g2 - u2)),
        TransformedEquation(support=piece_center | {u_y}, bidegree=(g1 - c1, g2 - c2)),
    )
    return RankTwoModel(columns=columns, equations=equations, center=model.center)


# ---------------------------------------------------------------------------
# walls and the ambient walk


class DivisorialTarget(Record):
    """End model ``Z_{d...} ⊂ P(w...)`` of a divisorial contraction: its
    well-formed weights and sorted degrees.  The one end-model value: the
    divisorial step of a walk carries it, and an elementary link's outcome
    is that same object."""

    weights: tuple[int, ...]
    degrees: tuple[int, ...]

    def __str__(self) -> str:
        degrees, weights = (",".join(map(str, v)) for v in (self.degrees, self.weights))
        return f"Z_{{{degrees}}} ⊂ P({weights})"


class WallStep(Record):
    """One wall crossing: ambient classification plus the restriction to Y."""

    wall: str
    wall_variables: tuple[str, ...]
    ambient_kind: str  # "flip" | "contraction"
    ambient_weights: tuple[tuple[str, int], ...]
    contracted: str | None = None
    restricted_kind: str | None = None  # iso | flop | flip | divisorial | indeterminate
    restricted_weights: tuple[tuple[str, int], ...] | None = None
    witnesses: tuple[str, ...] = ()
    target: DivisorialTarget | None = None


def _interior_walls(model: RankTwoModel) -> list[tuple[int, tuple]]:
    """The one pass over the interior walls: each wall's group index and the
    ambient fields of its :class:`WallStep`, in field order.  Every wall is
    checked before any is returned, so a :class:`DegenerateWall` comes before
    any wall is restricted."""
    groups, index_of = model.walls
    if len(groups) < 3:
        raise DegenerateWall("fewer than three ray directions: no interior wall")
    rays = [(lab, v, index_of[lab]) for lab, v in model.columns]
    walls = []
    for gi in range(2, len(groups) - 1):
        wall = groups[gi]
        wx, wy = wall.direction
        labels, dets, beyond = [], [], []
        for lab, (x, y), gj in rays:
            if gj == gi:
                continue
            d = x * wy - y * wx  # det2((x, y), wall.direction)
            if d == 0:
                raise DegenerateWall(f"off-wall ray {lab} parallel to wall {wall.labels[0]}")
            if (d > 0) != (gj < gi):
                raise DegenerateWall("rays do not span a pointed half-plane around the wall")
            if gj > gi:
                beyond.append(lab)
            labels.append(lab)
            dets.append(d)
        g = gcd(*dets)
        contracted = beyond[0] if len(beyond) == 1 else None
        kind = "flip" if contracted is None else "contraction"
        weights = tuple(zip(labels, [d // g for d in dets]))
        walls.append((gi, (wall.labels[0], wall.labels, kind, weights, contracted)))
    return walls


def ambient_walk(model: RankTwoModel) -> tuple[WallStep, ...]:
    """Classify every interior wall of the anticlockwise walk away from ``u``.

    A wall with exactly one ray strictly beyond it is the divisorial
    contraction of that ray's divisor; every other wall is a flip with local
    weights ``det(ray, wall) / gcd``, positive on the pre-crossing side.
    These are the ambient fields of the steps of :func:`restrict_walk`.
    """
    return tuple(WallStep(*ambient) for _, ambient in _interior_walls(model))


def _multiple(v: Vec, d: Vec) -> int | None:
    """The integer ``n`` with ``v == n * d`` (``d`` primitive), or ``None``."""
    if det2(v, d):
        return None
    return (v[0] * d[0] + v[1] * d[1]) // (d[0] * d[0] + d[1] * d[1])


def _wall_monomials(
    base: Mono, rest: Vec, d: Vec, positions: tuple[int, ...], multiples: Weights
) -> list[Mono]:
    """Every ``base * w`` with ``w`` a monomial of bidegree ``rest`` in the
    wall variables: the one at exponent position ``positions[j]`` has the
    column ``multiples[j] * d``, so ``w`` exists only when ``rest == n * d``
    with ``n >= 0``, and its exponents are the ``(multiples, n)`` support."""
    n = _multiple(rest, d)
    if n is None or n < 0:
        return []
    out = []
    for exps in monomial_support(multiples, n):
        m = list(base)
        for i, e in zip(positions, exps):
            m[i] += e
        out.append(tuple(m))
    return out


def restrict_walk(model: RankTwoModel) -> tuple[WallStep, ...]:
    """Fill in the restricted classification of every wall crossing.

    Iso: some equation has a monomial supported on the wall variables alone
    (the restricted variety misses the modified locus); the witness is the
    least such monomial of the first such equation, in lexicographic order of
    the labelled factor sequences.  Flip/flop: every equation has a monomial
    ``v * wall^k`` linear in a pre-crossing off-wall variable ``v``, so each
    such ``v`` is eliminated (the least such monomial is the witness) and its
    weight dropped from the ambient local weights; the result is an Atiyah
    flop exactly when the remaining weights are ``(1,1,-1,-1)`` up to order.
    A crossing where no rule applies stays indeterminate; the final verdict
    then rests on the anticanonical position alone.

    These monomials are looked up in the support, not scanned for.  Every
    wall column is ``c_j * d`` for the wall direction ``d``, and every
    monomial of an equation has the equation's bidegree.  So the iso
    candidates are the wall monomials of degree ``n = bidegree / d``, the
    ``(c, n)`` support of :func:`~fano2ray.catalog.monomial_support`.  The
    candidates linear in ``v`` are ``v`` times the wall monomials of degree
    ``(bidegree - column_v) / d``.
    """
    groups, index_of = model.walls
    cols = model.column_map()
    steps = []
    for wall_gi, ambient in _interior_walls(model):
        _, wall_variables, _, ambient_weights, contracted = ambient
        if contracted is not None:
            steps.append(WallStep(*ambient, "divisorial", target=_target(model, contracted)))
            continue
        d = groups[wall_gi].direction
        wall = (
            tuple(MONO_VARIABLES.index(lab) for lab in wall_variables),
            tuple(_multiple(cols[lab], d) for lab in wall_variables),
        )
        iso_witness = None
        for eq in model.equations:
            found = [
                m
                for m in _wall_monomials(_ZERO, eq.bidegree, d, *wall)
                if m in eq.support and any(m)
            ]
            if found:
                iso_witness = min(found, key=_factors)
                break
        if iso_witness is not None:
            steps.append(WallStep(*ambient, "iso", witnesses=(mono_str(iso_witness),)))
            continue
        eliminated: list[str] = []
        witnesses: list[str] = []
        for eq in model.equations:
            b = eq.bidegree
            linear = [
                (lab, m)
                for lab, v in model.columns
                if index_of[lab] < wall_gi and lab not in eliminated
                for m in _wall_monomials(_UNIT[lab], (b[0] - v[0], b[1] - v[1]), d, *wall)
                if m in eq.support
            ]
            if not linear:
                eliminated = []
                break
            lab, m = min(linear, key=lambda pair: _factors(pair[1]))
            eliminated.append(lab)
            witnesses.append(mono_str(m))
        if eliminated:
            rest = tuple((lab, v) for lab, v in ambient_weights if lab not in eliminated)
            kind = "flop" if sorted(v for _, v in rest) == [-1, -1, 1, 1] else "flip"
            steps.append(WallStep(*ambient, kind, rest, tuple(witnesses)))
        else:
            steps.append(WallStep(*ambient, "indeterminate"))
    return tuple(steps)


def divisorial_target(model: RankTwoModel, wall: str) -> DivisorialTarget:
    """End model of the divisorial contraction at the given wall.

    The target weight of every remaining variable is ``|det(ray, contracted
    ray)|`` and the target degree of every equation is ``|det(bidegree,
    contracted ray)|``, all divided by their collective gcd; the weights are
    then well-formed.  Absolute determinants make the result independent of
    orientation and grading.
    """
    _, index_of = model.walls
    wall_gi = index_of[wall]
    beyond = [lab for lab, _ in model.columns if index_of[lab] > wall_gi]
    if len(beyond) != 1:
        raise DegenerateWall(f"wall {wall} does not contract a unique divisor")
    return _target(model, beyond[0])


def _target(model: RankTwoModel, contracted: str) -> DivisorialTarget:
    """:func:`divisorial_target` of the contraction of the ray ``contracted``.

    The weights are well-formed exactly when every weight but one is coprime:
    :func:`~fano2ray.catalog.well_form_weights` then only sorts them, and it
    runs only to name what they would well-form to (or to reject a zero).
    """
    v = model.column_map()[contracted]
    vals = [abs(det2(col, v)) for lab, col in model.columns if lab != contracted]
    degs = [abs(det2(eq.bidegree, v)) for eq in model.equations]
    g = gcd(*vals, *degs)
    weights = tuple(x // g for x in vals)
    if 0 in weights or any(gcd(*weights[:i], *weights[i + 1 :]) != 1 for i in range(len(weights))):
        raise LatticeError(
            f"target weights {weights} well-form to {well_form_weights(weights)}; "
            "degree data would be stale"
        )
    degrees = tuple(sorted(d // g for d in degs))
    return DivisorialTarget(weights=tuple(sorted(weights)), degrees=degrees)


# ---------------------------------------------------------------------------
# anticanonical class and the movable cone


def minus_k(model: RankTwoModel) -> Vec:
    """Anticanonical bidegree: column sum minus the equation bidegrees."""
    d1 = sum(v[0] for _, v in model.columns) - sum(eq.bidegree[0] for eq in model.equations)
    d2 = sum(v[1] for _, v in model.columns) - sum(eq.bidegree[1] for eq in model.equations)
    return (d1, d2)


def movable_position(model: RankTwoModel, cls: Vec) -> str:
    """Position of a class relative to the cone of the second and
    second-to-last ray directions: ``interior``, ``boundary`` or ``outside``.
    """
    if cls == (0, 0):
        raise ZeroClass("the zero class has no cone position")
    groups, _ = model.walls
    if len(groups) < 3:
        raise DegenerateWall("no movable cone with fewer than three ray directions")
    lo = groups[1].direction
    hi = groups[-2].direction
    d_lo = det2(lo, cls)
    d_hi = det2(cls, hi)
    if d_lo > 0 and d_hi > 0:
        return "interior"
    on_lo = d_lo == 0 and lo[0] * cls[0] + lo[1] * cls[1] > 0
    on_hi = d_hi == 0 and hi[0] * cls[0] + hi[1] * cls[1] > 0
    if on_lo or on_hi:
        return "boundary"
    return "outside"


# ---------------------------------------------------------------------------
# matching a model against a recorded matrix in another grading


def match_recorded_grading(
    model: RankTwoModel, recorded: dict[str, Vec]
) -> dict[str, Vec]:
    """Express the model's columns in the grading of a recorded matrix.

    The rational regrading is determined by the non-``u`` columns; the
    returned map gives every column, in particular the ``u``-column that the
    recorded grading forces.  Raises :class:`LatticeError` when the non-``u``
    columns of the two presentations are not related by any regrading.
    """
    mine = model.column_map()
    if set(mine) != set(recorded):
        raise LatticeError(f"label mismatch: {sorted(mine)} vs {sorted(recorded)}")
    pairs = [(mine[lab], recorded[lab]) for lab in mine if lab != "u"]
    base = next((b for b in combinations(pairs, 2) if det2(b[0][0], b[1][0])), None)
    if base is None:
        raise LatticeError("non-u columns do not span the plane")
    (m1, r1), (m2, r2) = base
    # M sends m1 -> r1 and m2 -> r2: Cramer's numerators over det(m1, m2).
    numerators = (
        (r1[0] * m2[1] - r2[0] * m1[1], r2[0] * m1[0] - r1[0] * m2[0]),
        (r1[1] * m2[1] - r2[1] * m1[1], r2[1] * m1[0] - r1[1] * m2[0]),
    )
    out = _regraded(model, numerators, det2(m1, m2)).column_map()
    for lab, image in out.items():
        if lab != "u" and image != recorded[lab]:
            raise LatticeError(f"column {lab} maps to {image}, recorded {recorded[lab]}")
    return out
