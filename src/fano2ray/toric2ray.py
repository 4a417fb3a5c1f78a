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
grading they were computed in.

A transformed monomial is a fixed-length exponent vector over
:data:`MONO_VARIABLES` (``u``, ``y0..y4`` and the unprojection variable
``y``), indexed directly by position.  Bidegrees are plain integer pairs
``(d1, d2)``: the degree of a monomial against the two rows of the weight
matrix.

When the equation lies in the irrelevant ideal, ``unproject`` adjoins a new
variable, turning the hypersurface into a codimension-2 complete
intersection.  The monomial format, the column order and the construction of
equations are private to this module; other modules use the functions here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd
from operator import mul

from .catalog import FamilyRecord, well_form_weights
from .singular import BlowupData

Vec = tuple[int, int]
#: The variables of a transformed monomial, in exponent-vector order.
MONO_VARIABLES = ("u", "y0", "y1", "y2", "y3", "y4", "y")
#: A transformed monomial: one exponent per entry of :data:`MONO_VARIABLES`.
Mono = tuple[int, ...]


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


def _primitive(v: Vec) -> Vec:
    g = gcd(v[0], v[1])
    if g == 0:
        raise LatticeError("zero ray")
    return (v[0] // g, v[1] // g)


def _factors(m: Mono) -> tuple[tuple[str, int], ...]:
    return tuple((lab, e) for lab, e in zip(MONO_VARIABLES, m) if e)


def mono_str(m: Mono) -> str:
    factors = _factors(m)
    if not factors:
        return "1"
    return "*".join(lab if e == 1 else f"{lab}^{e}" for lab, e in factors)


@dataclass(frozen=True)
class TransformedEquation:
    """Monomial support of one transformed equation and its bidegree."""

    support: frozenset[Mono]
    bidegree: Vec

    @cached_property
    def ordered_support(self) -> tuple[Mono, ...]:
        """The support sorted once, in lexicographic order of the labelled
        factor sequences (the order witnesses are picked in)."""
        return tuple(sorted(self.support, key=_factors))


@dataclass(frozen=True)
class _Wall:
    direction: Vec
    labels: tuple[str, ...]


@dataclass(frozen=True)
class RankTwoModel:
    """A rank-2 toric ambient model with its transformed equation(s).

    ``columns`` are the rays, sorted strictly anticlockwise starting from the
    ``u``-ray (parallel rays kept adjacent); ``center`` is the label of the
    blown-up center variable, always the second ray direction.
    """

    columns: tuple[tuple[str, Vec], ...]
    equations: tuple[TransformedEquation, ...]
    center: str

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.columns)

    def column_map(self) -> dict[str, Vec]:
        return dict(self.columns)

    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            tuple(v[0] for _, v in self.columns),
            tuple(v[1] for _, v in self.columns),
        )

    @cached_property
    def walls(self) -> tuple[tuple[_Wall, ...], dict[str, int]]:
        """The ray directions in column order, parallel columns grouped into
        one wall, and the wall index of every label."""
        groups: list[tuple[Vec, list[str]]] = []
        for lab, v in self.columns:
            p = _primitive(v)
            if groups and groups[-1][0] == p:
                groups[-1][1].append(lab)
            else:
                groups.append((p, [lab]))
        walls = tuple(_Wall(direction=d, labels=tuple(labs)) for d, labs in groups)
        return walls, {lab: gi for gi, w in enumerate(walls) for lab in w.labels}


def _make_equation(support, cols: dict[str, Vec]) -> TransformedEquation:
    support = frozenset(support)
    if not support:
        raise NonHomogeneous("empty equation support")
    row1, row2 = zip(*(cols.get(lab, (0, 0)) for lab in MONO_VARIABLES))
    degrees = {(sum(map(mul, m, row1)), sum(map(mul, m, row2))) for m in support}
    if len(degrees) != 1:
        raise NonHomogeneous(f"support carries multiple bidegrees {sorted(degrees)}")
    if all(m[0] > 0 for m in support):
        raise NonHomogeneous("u divides every monomial (not a proper transform)")
    return TransformedEquation(support=support, bidegree=degrees.pop())


# ---------------------------------------------------------------------------
# anticlockwise ray order


def _angle_cmp(ref: Vec):
    """Total cyclic order on nonzero rays, anticlockwise starting at ``ref``."""

    def sector(v: Vec) -> int:
        d = det2(ref, v)
        dot = ref[0] * v[0] + ref[1] * v[1]
        if d == 0:
            return 0 if dot > 0 else 2
        return 1 if d > 0 else 3

    def cmp(a: tuple[str, Vec], b: tuple[str, Vec]) -> int:
        sa, sb = sector(a[1]), sector(b[1])
        if sa != sb:
            return -1 if sa < sb else 1
        d = det2(a[1], b[1])
        if d == 0:
            return 0  # parallel rays stay adjacent, original order kept
        return -1 if d > 0 else 1

    return cmp_to_key(cmp)


def _sort_columns(columns) -> tuple[tuple[str, Vec], ...]:
    columns = list(columns)
    ref = dict(columns)["u"]
    return tuple(sorted(columns, key=_angle_cmp(ref)))


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
    """
    w, b, r = record.weights, blow.b, blow.r
    columns = _sort_columns(
        [("u", (0, -r))] + [(f"y{i}", (w[i], b[i])) for i in range(len(w))]
    )

    working = record.support() - blow.excluded
    cost = {m: sum(map(mul, m, b)) for m in working}
    mu = min(cost.values())
    support = []
    for m, k in cost.items():
        if (k - mu) % r != 0:
            raise NonHomogeneous(
                f"monomial cost {k} not congruent to the multiplicity {mu} mod {r}"
            )
        support.append(((k - mu) // r, *m, 0))
    equation = _make_equation(support, dict(columns))
    return RankTwoModel(columns=columns, equations=(equation,), center=f"y{blow.center_index}")


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
        g, s, t = _xgcd(by, y)
        a = gcd(a, (by // g) * x - (y // g) * bx)
        bx, by = s * bx + t * x, g
    if a == 0 or by == 0:
        raise LatticeError("columns do not span a rank-2 lattice")
    a = abs(a)
    if by < 0:
        bx, by = -bx, -by
    bx %= a
    return a, bx, by


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # g, s, t with s*a + t*b == g
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


def well_form_model(model: RankTwoModel) -> RankTwoModel:
    """Re-grade so that the columns span the full lattice (minor gcd one).

    The columns are rewritten in the Hermite basis of the lattice they span:
    the basis vector along the center ray becomes ``(1, 0)``-directed and the
    transformation has positive determinant, so the anticlockwise order is
    untouched.  Equations keep their supports and acquire the regraded
    bidegrees.
    """
    a, bx, by = _hnf_basis([v for _, v in model.columns])
    new_cols = []
    for lab, (x, y) in model.columns:
        if y % by != 0 or (x - bx * (y // by)) % a != 0:
            raise LatticeError("column outside the computed lattice basis")
        t = y // by
        new_cols.append((lab, ((x - bx * t) // a, t)))
    columns = tuple(new_cols)
    colmap = dict(columns)
    equations = tuple(_make_equation(eq.support, colmap) for eq in model.equations)
    return RankTwoModel(columns=columns, equations=equations, center=model.center)


def regrade(model: RankTwoModel, matrix: tuple[tuple[int, int], tuple[int, int]]) -> RankTwoModel:
    """Apply a unimodular row transformation of positive determinant."""
    (p, q), (s, t) = matrix
    if p * t - q * s != 1:
        raise LatticeError("regrading matrix must have determinant one")
    columns = tuple(
        (lab, (p * x + q * y, s * x + t * y)) for lab, (x, y) in model.columns
    )
    colmap = dict(columns)
    equations = tuple(_make_equation(eq.support, colmap) for eq in model.equations)
    return RankTwoModel(columns=columns, equations=equations, center=model.center)


# ---------------------------------------------------------------------------
# unprojection


@dataclass(frozen=True)
class UnprojectionData:
    """The split ``g = u*A + y_c*B`` and the weight of the new variable.

    ``piece_u`` is the support of ``A`` and ``piece_center`` the support of
    ``B``; the unprojection variable ``y = -A/y_c = B/u`` has bidegree
    ``deg(g) - deg(u) - deg(y_c)`` in the grading of the model the split was
    computed in.  Eliminating ``y`` from the two equations recovers ``g``.
    """

    piece_u: frozenset[Mono]
    piece_center: frozenset[Mono]
    weight: Vec


def needs_unprojection(model: RankTwoModel) -> UnprojectionData | None:
    """The split of the equation when it lies in the irrelevant ideal.

    The equation lies there exactly when every support monomial is divisible
    both by a variable of the low side ``(u, center)`` and by one of the
    remaining variables, and the two pieces (u-multiples stripped of one
    ``u``, the rest stripped of one center variable) are both nonempty;
    otherwise the result is ``None``.
    """
    if len(model.equations) != 1:
        raise ValueError("unprojection test expects a single-equation model")
    eq = model.equations[0]
    c = MONO_VARIABLES.index(model.center)
    rest = [i for i in range(1, len(MONO_VARIABLES)) if i != c]
    piece_u = set()
    piece_center = set()
    for m in eq.support:
        if not any(m[i] for i in rest):
            return None
        if m[0]:
            piece_u.add((m[0] - 1, *m[1:]))
        elif m[c]:
            piece_center.add((*m[:c], m[c] - 1, *m[c + 1 :]))
        else:
            return None
    if not piece_u or not piece_center:
        return None
    cols = model.column_map()
    u, center = cols["u"], cols[model.center]
    weight = (eq.bidegree[0] - u[0] - center[0], eq.bidegree[1] - u[1] - center[1])
    return UnprojectionData(
        piece_u=frozenset(piece_u), piece_center=frozenset(piece_center), weight=weight
    )


def unproject(model: RankTwoModel, pieces: UnprojectionData) -> RankTwoModel:
    """Adjoin the unprojection variable and replace ``g`` by the two equations
    ``y*y_c + A`` and ``-u*y + B`` (supports only; signs are immaterial)."""
    if "y" in model.column_map():
        raise ValueError("model already carries an unprojection variable")
    columns = _sort_columns(list(model.columns) + [("y", pieces.weight)])
    colmap = dict(columns)
    y_center = tuple(int(lab in ("y", model.center)) for lab in MONO_VARIABLES)
    u_y = tuple(int(lab in ("u", "y")) for lab in MONO_VARIABLES)
    eq1 = {y_center} | pieces.piece_u
    eq2 = {u_y} | pieces.piece_center
    equations = (_make_equation(eq1, colmap), _make_equation(eq2, colmap))
    return RankTwoModel(columns=columns, equations=equations, center=model.center)


# ---------------------------------------------------------------------------
# walls and the ambient walk


@dataclass(frozen=True)
class DivisorialTarget:
    """End model of the final divisorial contraction."""

    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    contracted: str

    def __str__(self) -> str:
        degs = ",".join(map(str, self.degrees))
        ws = ",".join(map(str, self.weights))
        return f"Z_{{{degs}}} ⊂ P({ws})"


@dataclass(frozen=True)
class WallStep:
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

    def weight_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.ambient_weights)

    def restricted_values(self) -> tuple[int, ...] | None:
        if self.restricted_weights is None:
            return None
        return tuple(v for _, v in self.restricted_weights)


def ambient_walk(model: RankTwoModel) -> tuple[WallStep, ...]:
    """Classify every interior wall of the anticlockwise walk away from ``u``.

    A wall with exactly one ray strictly beyond it is the divisorial
    contraction of that ray's divisor; every other wall is a flip with local
    weights ``det(ray, wall) / gcd``, positive on the pre-crossing side.
    """
    groups, index_of = model.walls
    if len(groups) < 3:
        raise DegenerateWall("fewer than three ray directions: no interior wall")
    steps = []
    for gi in range(2, len(groups) - 1):
        wall = groups[gi]
        weights = []
        beyond = []
        for lab, v in model.columns:
            if index_of[lab] == gi:
                continue
            d = det2(v, wall.direction)
            if d == 0:
                raise DegenerateWall(f"off-wall ray {lab} parallel to wall {wall.labels[0]}")
            if (d > 0) != (index_of[lab] < gi):
                raise DegenerateWall("rays do not span a pointed half-plane around the wall")
            if index_of[lab] > gi:
                beyond.append(lab)
            weights.append((lab, d))
        g = gcd(*(abs(d) for _, d in weights))
        contraction = len(beyond) == 1
        steps.append(
            WallStep(
                wall=wall.labels[0],
                wall_variables=wall.labels,
                ambient_kind="contraction" if contraction else "flip",
                ambient_weights=tuple((lab, d // g) for lab, d in weights),
                contracted=beyond[0] if contraction else None,
            )
        )
    return tuple(steps)


def restrict_walk(model: RankTwoModel) -> tuple[WallStep, ...]:
    """Fill in the restricted classification of every wall crossing.

    Iso: some equation has a monomial supported on the wall variables alone
    (the restricted variety misses the modified locus); the witness is the
    least such monomial of the first such equation.  Flip/flop: every
    equation has a monomial ``v * wall^k`` linear in a pre-crossing off-wall
    variable ``v``, so each such ``v`` is eliminated and its weight dropped
    from the ambient local weights; the result is an Atiyah flop exactly when
    the remaining weights are ``(1,1,-1,-1)`` up to order.  A crossing where
    no rule applies stays indeterminate; the final verdict then rests on the
    anticanonical position alone.
    """
    _, index_of = model.walls
    steps = []
    for step in ambient_walk(model):
        wall_gi = index_of[step.wall]
        if step.ambient_kind == "contraction":
            steps.append(
                replace(
                    step,
                    restricted_kind="divisorial",
                    target=divisorial_target(model, step.wall),
                )
            )
            continue
        off_wall = [
            i for i, lab in enumerate(MONO_VARIABLES) if lab not in step.wall_variables
        ]
        iso_witness = next(
            (
                m
                for eq in model.equations
                for m in eq.ordered_support
                if any(m) and not any(m[i] for i in off_wall)
            ),
            None,
        )
        if iso_witness is not None:
            steps.append(
                replace(step, restricted_kind="iso", witnesses=(mono_str(iso_witness),))
            )
            continue
        eliminated: list[str] = []
        witnesses: list[str] = []
        for eq in model.equations:
            found = None
            for m in eq.ordered_support:
                off = [i for i in off_wall if m[i]]
                if len(off) != 1 or m[off[0]] != 1:
                    continue
                lab = MONO_VARIABLES[off[0]]
                if index_of[lab] < wall_gi and lab not in eliminated:
                    found = (lab, m)
                    break
            if found is None:
                eliminated = []
                break
            eliminated.append(found[0])
            witnesses.append(mono_str(found[1]))
        if eliminated:
            rest = tuple((lab, v) for lab, v in step.ambient_weights if lab not in eliminated)
            kind = "flop" if sorted(v for _, v in rest) == [-1, -1, 1, 1] else "flip"
            steps.append(
                replace(
                    step,
                    restricted_kind=kind,
                    restricted_weights=rest,
                    witnesses=tuple(witnesses),
                )
            )
        else:
            steps.append(replace(step, restricted_kind="indeterminate"))
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
    v = model.column_map()[beyond[0]]
    vals = [
        (lab, abs(det2(col, v))) for lab, col in model.columns if lab != beyond[0]
    ]
    degs = [abs(det2(eq.bidegree, v)) for eq in model.equations]
    g = gcd(*(x for _, x in vals), *degs)
    weights = tuple(x // g for _, x in vals)
    degrees = tuple(sorted(d // g for d in degs))
    formed = well_form_weights(weights)
    if formed != tuple(sorted(weights)):
        raise LatticeError(
            f"target weights {weights} well-form to {formed}; degree data would be stale"
        )
    return DivisorialTarget(weights=formed, degrees=degrees, contracted=beyond[0])


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
    base = None
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if det2(pairs[i][0], pairs[j][0]) != 0:
                base = (pairs[i], pairs[j])
                break
        if base:
            break
    if base is None:
        raise LatticeError("non-u columns do not span the plane")
    (m1, r1), (m2, r2) = base
    d = det2(m1, m2)
    # M sends m1 -> r1 and m2 -> r2; entries solved by Cramer's rule.
    m = (
        (Fraction(r1[0] * m2[1] - r2[0] * m1[1], d), Fraction(r2[0] * m1[0] - r1[0] * m2[0], d)),
        (Fraction(r1[1] * m2[1] - r2[1] * m1[1], d), Fraction(r2[1] * m1[0] - r1[1] * m2[0], d)),
    )

    def apply(v: Vec) -> Vec:
        x = m[0][0] * v[0] + m[0][1] * v[1]
        y = m[1][0] * v[0] + m[1][1] * v[1]
        if x.denominator != 1 or y.denominator != 1:
            raise LatticeError("regrading is not integral on the columns")
        return (int(x), int(y))

    out = {}
    for lab, v in mine.items():
        image = apply(v)
        if lab != "u" and image != recorded[lab]:
            raise LatticeError(f"column {lab} maps to {image}, recorded {recorded[lab]}")
        out[lab] = image
    return out
