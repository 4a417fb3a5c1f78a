"""Orchestration of the birational games and replay of the reference tables.

``run_game`` is the one place a game's stages are derived: Kawamata blow-up
weights, the raw rank-2 model, its well-formed regrading, the unprojection
(in the raw grading, done in :mod:`fano2ray.toric2ray`) when the hypersurface
equation sits in the irrelevant ideal, the restricted 2-ray game, and the
final verdict read off from the position of the anticanonical class in the
movable cone (interior: elementary link to a Fano model; boundary: bad link;
outside: no link).  The returned :class:`GameTrace` carries every stage.

``verify_tables`` runs each recorded (family, site, tangent) game once and
reads every checked value off its trace, confirming the computed end models,
verdicts and weight matrices and reporting every known discrepancy
in the reference data (misprinted Kawamata formats, degree-inconsistent key
monomials, mislabelled blow-up rows, the inconsistent u-column of the
unprojected 110 matrix) as a deviation with both the recorded and the
derived value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import (
    SOLID_CANDIDATES,
    FamilyRecord,
    Monomial,
    ambient_monomial_str,
    load_catalog,
    parse_ambient_monomial,
    weighted_degree,
)
from .exclusion import smooth_point_test
from .singular import (
    BlowupData,
    SingularLocusEntry,
    Stratum,
    blowup_weights,
    locate,
    singular_locus,
)
from .toric2ray import (
    DivisorialTarget,
    LatticeError,
    RankTwoModel,
    UnprojectionData,
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


class VerificationFailure(Exception):
    """Replay of the reference tables found genuine mismatches."""

    def __init__(self, report: "Report"):
        self.report = report
        super().__init__("; ".join(report.failures))


# ---------------------------------------------------------------------------
# running one game


@dataclass(frozen=True)
class FanoModel:
    """End model of an elementary link, with its expected singularity label."""

    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        if sum(self.degrees) >= sum(self.weights):
            raise ValueError(
                f"Z_{self.degrees} in P{self.weights} fails the Fano adjunction bound"
            )

    def __str__(self) -> str:
        degs = ",".join(map(str, self.degrees))
        ws = ",".join(map(str, self.weights))
        return f"Z_{{{degs}}} ⊂ P({ws})"


@dataclass(frozen=True)
class LinkOutcome:
    """Verdict of one game; an elementary link always carries its Fano model.

    ``kind`` is ``elementary_link``, ``bad_link`` or ``no_link`` for every
    game of the classified families; games run on other catalog families can
    additionally end in a ``fibration`` (interior anticanonical class but a
    multi-ray final boundary instead of a divisorial contraction).
    """

    kind: str
    model: FanoModel | None
    minus_k: Vec
    position: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class GameTrace:
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
        for step in self.steps:
            if step.restricted_kind == "divisorial":
                return step.target
        return None


def _expected_label(record: FamilyRecord, point: str) -> str | None:
    for exp in record.expected.links:
        if exp.point == point:
            return exp.label
    return None


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
    steps = restrict_walk(game_model)

    divisorial = [i for i, s in enumerate(steps) if s.restricted_kind == "divisorial"]
    if len(divisorial) > 1 or (divisorial and divisorial[0] != len(steps) - 1):
        raise LatticeError("divisorial step must be unique and last")

    mk = minus_k(game_model)
    position = movable_position(game_model, mk)
    warnings: list[str] = []
    if any(s.restricted_kind == "indeterminate" for s in steps):
        warnings.append(
            "some wall crossings are indeterminate; the verdict rests on the "
            "anticanonical position alone"
        )
    model = None
    if position == "interior":
        if divisorial:
            kind = "elementary_link"
            target = steps[divisorial[0]].target
            model = FanoModel(
                weights=target.weights,
                degrees=target.degrees,
                label=_expected_label(record, entry.site.label),
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
    trace = GameTrace(
        blowup=blow,
        raw=raw,
        well_formed=wf,
        raw_unprojected=raw_unprojected,
        game_model=game_model,
        steps=steps,
    )
    return trace, LinkOutcome(
        kind=kind, model=model, minus_k=mk, position=position, warnings=tuple(warnings)
    )


# ---------------------------------------------------------------------------
# replay of the reference tables


@dataclass(frozen=True)
class Deviation:
    """A recorded reference value that recomputation contradicts."""

    kind: str
    family: int | None
    site: str
    recorded: str
    derived: str


@dataclass
class Report:
    catalog_count: int = 0
    index_mismatches: tuple[int, ...] = ()
    link_rows: list[dict] = field(default_factory=list)
    exclusion_rows: list[dict] = field(default_factory=list)
    matrix_rows: list[dict] = field(default_factory=list)
    deviations: list[Deviation] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

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


def _replay_game(games: dict, record: FamilyRecord, point: str, tangent: int | None = None):
    """``run_game`` memoised by (family, site, tangent) within one replay;
    ``tangent=None`` stands for the site's first tangent candidate, the one
    the link and matrix tables refer to."""
    key = (record.id, point, tangent)
    if key not in games:
        entry = locate(record, point)
        if tangent is None:
            tangent = entry.tangent_candidates[0][1]
        games[key] = run_game(record, entry, tangent)
    return games[key]


def _consistent_key_fix(record: FamilyRecord, bad: Monomial, center: int) -> str | None:
    # adjust the center-variable power so the weighted degree comes out right
    rest = sum(e * w for l, (e, w) in enumerate(zip(bad, record.weights)) if l != center)
    need = record.degree - rest
    if need >= 0 and need % record.weights[center] == 0:
        fixed = tuple(
            need // record.weights[center] if l == center else e for l, e in enumerate(bad)
        )
        return ambient_monomial_str(fixed)
    return None


def _check_keys(record, entry, exp, report: Report) -> None:
    candidates = {key for key, _ in entry.tangent_candidates}
    if isinstance(entry.site, Stratum):
        i, j = entry.site.variables
        candidates |= {
            m
            for m in record.support()
            if all(e == 0 for l, e in enumerate(m) if l not in (i, j))
        }
    center = entry.center if entry.center is not None else entry.site.variables[0]
    for text in exp.keys:
        for part in text.split("+"):
            monomial = parse_ambient_monomial(part)
            if weighted_degree(record.weights, monomial) != record.degree:
                fix = _consistent_key_fix(record, monomial, center)
                derived = fix or "|".join(
                    sorted(ambient_monomial_str(k) for k, _ in entry.tangent_candidates)
                )
                report.add_deviation(
                    "key_monomial_degree",
                    record.id,
                    entry.site.label,
                    part,
                    derived,
                )
            elif monomial not in candidates:
                report.failures.append(
                    f"family {record.id} {entry.site.label}: recorded key {part} is "
                    "degree-consistent but not in the support data"
                )


def _check_links(records, games: dict, report: Report) -> None:
    for record in records:
        for exp in record.expected.links:
            trace, outcome = _replay_game(games, record, exp.point)
            target = trace.final_target
            computed = str(target) if target else "(no divisorial contraction)"
            degs = ",".join(map(str, sorted(exp.target_degrees)))
            ws = ",".join(map(str, exp.target_weights))
            expected = f"Z_{{{degs}}} ⊂ P({ws})"
            matched = (
                outcome.kind == "elementary_link"
                and target is not None
                and target.weights == exp.target_weights
                and target.degrees == tuple(sorted(exp.target_degrees))
                and trace.unprojected == (exp.construction == "unprojection")
            )
            if not matched:
                report.failures.append(
                    f"family {record.id} {exp.point}: expected {expected}, got {computed} "
                    f"({outcome.kind})"
                )
            r = trace.blowup.r
            derived_type = trace.blowup.singularity.per_variable_form
            if tuple(exp.kawamata_type) != derived_type:
                report.add_deviation(
                    "kawamata_format",
                    record.id,
                    exp.point,
                    "1/%d(%s)" % (r, ",".join(map(str, exp.kawamata_type))),
                    "1/%d(%s)" % (r, ",".join(map(str, derived_type))),
                )
            report.link_rows.append(
                {
                    "family": record.id,
                    "point": exp.point,
                    "label": exp.label,
                    "expected": expected,
                    "computed": computed,
                    "unprojected": trace.unprojected,
                    "matched": matched,
                }
            )


def _check_exclusions(records, games: dict, report: Report) -> None:
    for record in records:
        for exp in record.expected.exclusions:
            trace, outcome = _replay_game(games, record, exp.site, int(exp.tangent[1:]))
            entry = trace.blowup.center_entry
            verdict_ok = outcome.kind == exp.verdict
            if not verdict_ok:
                report.failures.append(
                    f"family {record.id} {exp.site} tangent {exp.tangent}: expected "
                    f"{exp.verdict}, got {outcome.kind}"
                )
            if entry.count != exp.count:
                report.failures.append(
                    f"family {record.id} {exp.site}: point count {entry.count} != "
                    f"recorded {exp.count}"
                )
            row = _raw_blowup_row(trace.raw_unprojected or trace.raw)
            blowup_ok = row == exp.corrected_blowup
            if not blowup_ok:
                report.failures.append(
                    f"family {record.id} {exp.site} tangent {exp.tangent}: blow-up row "
                    f"{row} != recorded {exp.corrected_blowup}"
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
                    "1/%d(%s)" % (sing.r, ",".join(map(str, exp.local_type))),
                    "1/%d(%s), normalized 1/%d(%s)"
                    % (
                        sing.r,
                        ",".join(map(str, derived_raw)),
                        sing.r,
                        ",".join(map(str, sing.per_variable_form)),
                    ),
                )
            _check_keys(record, entry, exp, report)
            report.exclusion_rows.append(
                {
                    "family": record.id,
                    "site": exp.site,
                    "tangent": exp.tangent,
                    "count": entry.count,
                    "expected_verdict": exp.verdict,
                    "computed_verdict": outcome.kind,
                    "minus_k": list(outcome.minus_k),
                    "position": outcome.position,
                    "matched": verdict_ok and blowup_ok,
                }
            )


#: Recorded matrix stage -> the GameTrace field holding that model.
_STAGE_FIELDS = {
    "raw": "raw",
    "wellformed": "well_formed",
    "unprojected": "raw_unprojected",
    "wellformed_unprojected": "game_model",
}


def _check_matrices(records, games: dict, report: Report) -> None:
    for record in records:
        for exp in record.expected.matrices:
            trace, _ = _replay_game(games, record, exp.point)
            model = getattr(trace, _STAGE_FIELDS[exp.stage])
            recorded = dict(exp.columns())
            mine = model.column_map()
            method = "exact"
            matched = True
            if exp.stage in ("raw", "unprojected"):
                matched = mine == recorded
                if not matched:
                    report.failures.append(
                        f"family {record.id} {exp.point} {exp.stage}: computed columns "
                        f"{sorted(mine.items())} != recorded {sorted(recorded.items())}"
                    )
            else:
                if tuple((lab, mine[lab]) for lab in exp.labels) != exp.columns():
                    method = "regrade"
                    try:
                        image = match_recorded_grading(model, recorded)
                    except LatticeError as err:
                        matched = False
                        report.failures.append(
                            f"family {record.id} {exp.point} {exp.stage}: {err}"
                        )
                    else:
                        if image["u"] != recorded["u"]:
                            report.add_deviation(
                                "grading_u_column",
                                record.id,
                                exp.point,
                                str(recorded["u"]),
                                str(image["u"]),
                            )
            report.matrix_rows.append(
                {
                    "family": record.id,
                    "point": exp.point,
                    "stage": exp.stage,
                    "method": method,
                    "matched": matched,
                }
            )


def verify_tables() -> Report:
    """Replay the whole classification against the embedded reference data.

    Returns a :class:`Report` with one row per checked item and the full
    deviations list; raises :class:`VerificationFailure` when recomputation
    genuinely disagrees with a corrected reference value (known misprints are
    deviations, not failures).  Every recorded game runs once.  Deterministic
    and idempotent.
    """
    records = load_catalog()
    report = Report()
    report.catalog_count = len(records)
    report.index_mismatches = tuple(
        r.id for r in records if sum(r.weights) - r.degree != r.index
    )
    if report.catalog_count != 35 or report.index_mismatches:
        report.failures.append("catalog integrity check failed")

    report.add_deviation(
        "ambient_header",
        None,
        "catalog",
        "P(a_0,a_2,a_2,a_3,a_4)",
        "P(a_0,a_1,a_2,a_3,a_4)",
    )
    games: dict = {}
    _check_links(records, games, report)
    _check_exclusions(records, games, report)
    _check_matrices(records, games, report)
    for rep in (smooth_point_test(r) for r in records if r.id in SOLID_CANDIDATES):
        if not rep.certified:
            report.add_deviation(
                "smooth_point_bound",
                rep.family,
                "smooth point",
                "claimed contradiction 2 > a0",
                f"test value {rep.test_value} exceeds 4 at h={rep.h_degree}; "
                "no exclusion follows as recorded",
            )
    if not report.ok:
        raise VerificationFailure(report)
    return report


__all__ = [
    "Deviation",
    "FanoModel",
    "GameTrace",
    "LinkOutcome",
    "Report",
    "UnprojectionData",
    "VerificationFailure",
    "needs_unprojection",
    "run_game",
    "singular_locus",
    "unproject",
    "verify_tables",
]
