"""Orchestration of the birational games and replay of the reference tables.

``run_game`` is the one place a game's stages are derived: Kawamata blow-up
weights, the raw rank-2 model, its well-formed regrading, the unprojection
(in the raw grading, done in :mod:`fano2ray.toric2ray`) when the hypersurface
equation sits in the irrelevant ideal, the restricted 2-ray game, and the
final verdict read off from the position of the anticanonical class in the
movable cone (interior: elementary link to a Fano model; boundary: bad link;
outside: no link).  The returned :class:`GameTrace` carries every stage.
There is one end-model value, the walk's own
:class:`~fano2ray.toric2ray.DivisorialTarget`: an elementary link's
``LinkOutcome.model`` is ``GameTrace.final_target``, checked against the
Fano adjunction bound ``sum(degrees) < sum(weights)``.  ``run_game`` reads
no recorded value, so ``FamilyRecord(weights=w, degree=d)`` runs as a catalog
row does; the ``game`` verb attaches a link's recorded label where it prints.

``verify_tables`` is one walk over the recorded tables (links, exclusions,
matrices).  Each table gives a row's recorded fields, its failure name, the
site and tangent of its game and a check that reads the computed fields off
the game's trace; the walk computes each family's singular locus once and
runs each (family, site, tangent) game once.  A row whose game cannot run is
written by the walk alone: one failure, and the row with the table's
computed fields null and ``matched`` false.  The expectations are typed:
:mod:`fano2ray.catalog` checks every recorded value as it loads.  Every
known discrepancy in the reference data (misprinted Kawamata formats,
degree-inconsistent key monomials, mislabelled blow-up rows, the u-column of
the unprojected 110 matrix) is a deviation with both the recorded and the
derived value.  The families without a fibration witness must be exactly
the families with a recorded link.  Its :class:`Report` is the one verify
verdict; the CLI only renders it.
"""

from __future__ import annotations

from ._records import Record
from .catalog import (
    AMBIENT_VARIABLES,
    MATRIX_STAGES,
    FamilyRecord,
    load_catalog,
    monomial_str,
    monomial_support,
    weighted_degree,
)
from .exclusion import SoliditySummary, smooth_point_test, solidity_summary
from .singular import (
    BlowupData,
    SingularLocusEntry,
    blowup_weights,
    center_completion,
    locate,
    singular_locus,
)
from .toric2ray import (
    DivisorialTarget,
    LatticeError,
    RankTwoModel,
    Vec,
    WallStep,
    build_model,
    match_recorded_grading,
    minus_k,
    movable_position,
    needs_unprojection,
    restrict_walk,
    unproject,
    well_form_model,
)


# ---------------------------------------------------------------------------
# running one game


class LinkOutcome(Record):
    """Verdict of one game; an elementary link always carries its Fano model.

    ``kind`` is ``elementary_link``, ``bad_link`` or ``no_link`` for every
    game of the classified families; games run on other families can
    additionally end in a ``fibration`` (interior anticanonical class but a
    multi-ray final boundary instead of a divisorial contraction).  An
    elementary link's ``model`` is the walk's final target (the same object
    as ``GameTrace.final_target``), ``None`` otherwise.  No recorded value
    (such as a link's singularity label) is part of it.
    """

    kind: str
    model: DivisorialTarget | None
    minus_k: Vec
    position: str
    warnings: tuple[str, ...] = ()


class GameTrace(Record):
    """Every stage of one game.  ``raw_unprojected`` is ``None`` when the
    equation is not in the irrelevant ideal; ``game_model``, the model the
    walk runs on, is the well-formed ``raw_unprojected`` or ``well_formed``."""

    blowup: BlowupData
    raw: RankTwoModel
    well_formed: RankTwoModel
    raw_unprojected: RankTwoModel | None
    game_model: RankTwoModel
    steps: tuple[WallStep, ...]

    @property
    def unprojected(self) -> bool:
        return self.raw_unprojected is not None

    @property
    def final_target(self) -> DivisorialTarget | None:
        """End model of the divisorial contraction, always the last step."""
        return self.steps[-1].target if self.steps else None


def run_game(
    record: FamilyRecord, entry: SingularLocusEntry, tangent: int | str
) -> tuple[GameTrace, LinkOutcome]:
    """Blow up, well-form, unproject if needed, walk the walls and classify."""
    blow = blowup_weights(record, entry, tangent)
    raw = build_model(record, blow)
    wf = well_form_model(raw)
    pieces = needs_unprojection(raw)
    raw_unprojected = unproject(raw, pieces) if pieces else None
    game_model = well_form_model(raw_unprojected) if pieces else wf
    trace = GameTrace(
        blowup=blow,
        raw=raw,
        well_formed=wf,
        raw_unprojected=raw_unprojected,
        game_model=game_model,
        steps=restrict_walk(game_model),
    )
    if any(s.target for s in trace.steps[:-1]):
        raise LatticeError("divisorial step must be unique and last")

    mk = minus_k(game_model)
    position = movable_position(game_model, mk)
    warnings: list[str] = []
    if any(s.restricted_kind == "indeterminate" for s in trace.steps):
        warnings.append(
            "some wall crossings are indeterminate; the verdict rests on the "
            "anticanonical position alone"
        )
    model = None
    if position == "interior":
        if trace.final_target:
            kind = "elementary_link"
            model = trace.final_target
            if sum(model.degrees) >= sum(model.weights):
                raise ValueError(
                    f"Z_{model.degrees} in P{model.weights} fails the Fano adjunction bound"
                )
        else:
            # the walk ran off a multi-ray boundary instead of contracting a
            # divisor; the 2-ray game ends in a fibration, not a Fano model
            kind = "fibration"
            warnings.append(
                "no divisorial contraction: the final boundary carries several "
                "rays, so the game ends in a fibration"
            )
    elif position == "boundary":
        kind = "bad_link"
    else:
        kind = "no_link"
    return trace, LinkOutcome(
        kind=kind,
        model=model,
        minus_k=mk,
        position=position,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# replay of the reference tables


class Deviation(Record):
    """A recorded reference value that recomputation contradicts."""

    kind: str
    family: int | None
    site: str
    recorded: str
    derived: str


class Report:
    """Rows, deviations and failures of one replay of the reference tables,
    and the solidity partition of the catalog that the links are checked by."""

    def __init__(self) -> None:
        self.catalog_count = 0
        self.solidity = SoliditySummary(witnessed=(), witness_less=())
        self.links_confirmed = False
        self.link_rows: list[dict] = []
        self.exclusion_rows: list[dict] = []
        self.matrix_rows: list[dict] = []
        self.deviations: list[Deviation] = []
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def add_deviation(self, *args, **kwargs) -> None:
        dev = Deviation(*args, **kwargs)
        if dev not in self.deviations:
            self.deviations.append(dev)


def _raw_blowup_row(model: RankTwoModel) -> str:
    tokens = []
    for lab, (a, b) in model.columns:
        if lab == "u":
            tokens.append(f"{b}u")
        elif lab == "y":
            tokens.append(f"{b}y({a})")
        else:
            tokens.append(f"{b}{lab}")
    return ",".join(tokens)


def _quotient_type(r: int, weights) -> str:
    """The quotient singularity type ``1/r(w1,w2,w3)`` as text."""
    return "1/%d(%s)" % (r, ",".join(map(str, weights)))


def _memo(games: dict, key, compute, *args):
    """``compute(*args)`` memoised in ``games`` under ``key``; a call that
    raises is memoised as the text of its error."""
    if key not in games:
        try:
            games[key] = compute(*args)
        except (KeyError, ValueError) as err:
            # str() of a KeyError is the repr of its message
            games[key] = err.args[0] if isinstance(err, KeyError) else str(err)
    return games[key]


def _game(games: dict, record: FamilyRecord, point: str, tangent: str | None):
    """``run_game`` memoised within one replay: each family's singular locus
    is computed once, and each game once per (family, site, tangent index).
    ``tangent=None`` stands for the site's first tangent candidate, the one
    the link and matrix tables refer to (none at a site without one, where
    the blow-up raises).  A locus or game that cannot be computed gives the
    text of its error."""
    locus = _memo(games, record.id, singular_locus, record)
    if isinstance(locus, str):
        return locus
    entry = next((e for e in locus if e.site.label == point), None)
    if entry is None:
        # locate raises the KeyError that names a site the locus lacks
        return _memo(games, (record.id, point), locate, record, point)
    first = next((t for _, t in entry.tangent_candidates), None)
    tangent = first if tangent is None else AMBIENT_VARIABLES.index(tangent)
    return _memo(games, (record.id, point, tangent), run_game, record, entry, tangent)


def _check_keys(record, entry, exp, report: Report) -> None:
    candidates = {key for key, _ in entry.tangent_candidates}
    if len(entry.site.variables) == 2:
        i, j = entry.site.variables
        w = record.weights
        candidates |= {
            tuple(a if l == i else (b if l == j else 0) for l in range(5))
            for a, b in monomial_support((w[i], w[j]), record.degree)
        }
    for text, monomial in exp.keys:
        if weighted_degree(record.weights, monomial) != record.degree:
            fix = center_completion(record.weights, record.degree, entry.center, monomial)
            keys = sorted(monomial_str(k) for k, _ in entry.tangent_candidates)
            derived = "|".join(keys) if fix is None else monomial_str(fix)
            report.add_deviation(
                "key_monomial_degree",
                record.id,
                entry.site.label,
                text,
                derived,
            )
        elif monomial not in candidates:
            report.failures.append(
                f"family {record.id} {entry.site.label}: recorded key {text} is "
                "degree-consistent but not in the support data"
            )


def _link_row(record: FamilyRecord, exp):
    """A link row: the recorded end model of the link from ``exp.point``."""
    expected = DivisorialTarget(exp.target_weights, tuple(sorted(exp.target_degrees)))
    name = f"family {record.id} {exp.point}"

    def check(report: Report, trace: GameTrace, outcome: LinkOutcome):
        target = trace.final_target
        computed = str(target) if target else "(no divisorial contraction)"
        matched = outcome.model == expected and trace.unprojected == (
            exp.construction == "unprojection"
        )
        if not matched:
            report.failures.append(f"{name}: expected {expected}, got {computed} ({outcome.kind})")
        r = trace.blowup.singularity.r
        derived_type = trace.blowup.singularity.per_variable_form
        if tuple(exp.kawamata_type) != derived_type:
            report.add_deviation(
                "kawamata_format",
                record.id,
                exp.point,
                _quotient_type(r, exp.kawamata_type),
                _quotient_type(r, derived_type),
            )
        return computed, trace.unprojected, matched

    row = dict(family=record.id, point=exp.point, label=exp.label, expected=str(expected))
    return row, name, exp.point, None, check


def _exclusion_row(record: FamilyRecord, exp):
    """An exclusion row: the recorded game at ``exp.site`` with ``exp.tangent``."""
    name = f"family {record.id} {exp.site} tangent {exp.tangent}"

    def check(report: Report, trace: GameTrace, outcome: LinkOutcome):
        entry = trace.blowup.center_entry
        verdict_ok = outcome.kind == exp.verdict
        if not verdict_ok:
            report.failures.append(f"{name}: expected {exp.verdict}, got {outcome.kind}")
        if entry.count != exp.count:
            report.failures.append(
                f"family {record.id} {exp.site}: point count {entry.count} != "
                f"recorded {exp.count}"
            )
        blowup = _raw_blowup_row(trace.raw_unprojected or trace.raw)
        blowup_ok = blowup == exp.corrected_blowup
        if not blowup_ok:
            report.failures.append(
                f"{name}: blow-up row {blowup} != recorded {exp.corrected_blowup}"
            )
        if exp.blowup != exp.corrected_blowup:
            report.add_deviation(
                "blowup_row_label", record.id, exp.site, exp.blowup, exp.corrected_blowup
            )
        sing = trace.blowup.singularity
        derived_raw = tuple(w for _, w in sing.local_weights)
        if tuple(exp.local_type) != derived_raw:
            report.add_deviation(
                "singularity_type",
                record.id,
                exp.site,
                _quotient_type(sing.r, exp.local_type),
                f"{_quotient_type(sing.r, derived_raw)}, "
                f"normalized {_quotient_type(sing.r, sing.per_variable_form)}",
            )
        _check_keys(record, entry, exp, report)
        minus_k = list(outcome.minus_k)
        return entry.count, outcome.kind, minus_k, outcome.position, verdict_ok and blowup_ok

    row = dict(family=record.id, site=exp.site, tangent=exp.tangent, expected_verdict=exp.verdict)
    return row, name, exp.site, exp.tangent, check


#: Recorded matrix stage -> the GameTrace field holding that model.
_STAGE_FIELDS = dict(
    zip(MATRIX_STAGES, ("raw", "well_formed", "raw_unprojected", "game_model"), strict=True)
)


def _matrix_row(record: FamilyRecord, exp):
    """A matrix row: the recorded weight matrix of one stage of the game at
    ``exp.point``."""
    name = f"family {record.id} {exp.point} {exp.stage}"

    def check(report: Report, trace: GameTrace, outcome: LinkOutcome):
        if "unprojected" in exp.stage and not trace.unprojected:
            report.failures.append(f"{name}: the game has no such model")
            return "exact", False
        field = _STAGE_FIELDS[exp.stage]
        model = getattr(trace, field)
        mine, recorded = model.column_map(), dict(exp.columns)
        if mine == recorded:
            return "exact", True
        if field in ("raw", "raw_unprojected"):
            report.failures.append(
                f"{name}: computed columns {sorted(mine.items())} != "
                f"recorded {sorted(recorded.items())}"
            )
            return "exact", False
        # a well-formed matrix is recorded up to a rational regrading
        try:
            image = match_recorded_grading(model, recorded)
        except LatticeError as err:
            report.failures.append(f"{name}: {err}")
            return "regrade", False
        if image["u"] != recorded["u"]:
            report.add_deviation(
                "grading_u_column", record.id, exp.point, str(recorded["u"]), str(image["u"])
            )
        return "regrade", True

    row = dict(family=record.id, point=exp.point, stage=exp.stage)
    return row, name, exp.point, None, check


def verify_tables() -> Report:
    """Replay the whole classification against the embedded reference data.

    Returns a :class:`Report` with one row per checked item and the full
    deviations list.  It is not ``ok`` when recomputation genuinely disagrees
    with a corrected reference value (known misprints are deviations, not
    failures), when a recorded game cannot run, or when the families without
    a fibration witness are not exactly the families with a recorded link.
    Every recorded family's singular locus is computed once and every
    recorded game runs once.  Deterministic and idempotent.
    """
    records = load_catalog()
    report = Report()
    report.catalog_count = len(records)
    report.add_deviation(
        "ambient_header",
        None,
        "catalog",
        "P(a_0,a_2,a_2,a_3,a_4)",
        "P(a_0,a_1,a_2,a_3,a_4)",
    )
    games: dict = {}
    # each table: its rows, its expectations, the fields a game computes and
    # the function giving a row's recorded fields, name, site, tangent, check
    for rows, table, computed, row_of in (
        (report.link_rows, "links", ("computed", "unprojected"), _link_row),
        (
            report.exclusion_rows,
            "exclusions",
            ("count", "computed_verdict", "minus_k", "position"),
            _exclusion_row,
        ),
        (report.matrix_rows, "matrices", ("method",), _matrix_row),
    ):
        for record in records:
            for exp in getattr(record.expected, table):
                row, name, site, tangent, check = row_of(record, exp)
                game = _game(games, record, site, tangent)
                if isinstance(game, str):
                    # a recorded row whose game cannot run is a failure row
                    report.failures.append(f"{name}: {game}")
                    values = (None,) * len(computed) + (False,)
                else:
                    values = check(report, *game)
                row.update(zip((*computed, "matched"), values, strict=True))
                rows.append(row)
    # a family with a fibration witness is not solid, so it has no link and
    # needs no smooth-point exclusion
    report.solidity = solidity_summary()
    witness_less = set(report.solidity.witness_less)
    linked = {row["family"] for row in report.link_rows}
    if witness_less != linked:
        report.failures.append(
            f"families without a fibration witness {sorted(witness_less)} != "
            f"families with a recorded link {sorted(linked)}"
        )
    report.links_confirmed = witness_less == linked and all(
        row["matched"] for row in report.link_rows
    )
    for record in (r for r in records if r.id in witness_less):
        rep = smooth_point_test(record)
        if not rep.certified:
            report.add_deviation(
                "smooth_point_bound",
                record.id,
                "smooth point",
                "claimed contradiction 2 > a0",
                f"test value {rep.test_value} exceeds 4 at h={rep.h_degree}; "
                "no exclusion follows as recorded",
            )
    return report


__all__ = [
    "Deviation",
    "GameTrace",
    "LinkOutcome",
    "Report",
    "run_game",
    "verify_tables",
]
