"""Golden tables of every 2-ray game of the 35 families.

``games.txt`` has one line per (family, site, tangent), read off the
``game --format json`` document: for each wall the ambient kind and local
weights, the restricted kind and weights (with the end model of a divisorial
contraction) and the witnesses; then the anticanonical class, its position,
the outcome kind and the end model.  ``models.txt`` has one line per game in
the same order, read off the ``GameTrace``: the columns and equation
bidegrees of the raw, well-formed, raw-grading unprojected (``-`` when the
game needs no unprojection) and game models.  ``verbs.txt`` has the
``catalog`` document, then the ``analyze`` and the ``exclude`` documents of
every family, one compact sorted-key JSON line each.  ``markdown.md`` has
the markdown documents of the same ``catalog``, ``analyze`` and ``exclude``
commands and then of every game, separated by blank lines.  Regenerate with
``PYTHONPATH=src python tests/test_golden_games.py games > tests/golden/games.txt``
(or ``models > tests/golden/models.txt``, ``verbs > tests/golden/verbs.txt``,
``markdown > tests/golden/markdown.md``) when a change to the outputs is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from fano2ray.catalog import load_catalog
from fano2ray.cli import Command, run, serialize
from fano2ray.linkengine import run_game
from fano2ray.singular import singular_locus

GOLDEN = Path(__file__).parent / "golden"


def _weights(pairs) -> str:
    return ",".join(f"{lab}:{w}" for lab, w in pairs or ())


def game_line(report: dict) -> str:
    walls = []
    for step in report["trace"]:
        ambient, restricted = step["ambient"], step["restricted"]
        target = f" to {step['target']['display']}" if step["target"] else ""
        walls.append(
            f"{step['wall']} {ambient['kind']}({_weights(ambient['weights'])}) "
            f"{restricted['kind']}({_weights(restricted['weights'])}){target} "
            f"[{' '.join(restricted['witnesses'])}]"
        )
    outcome = report["outcome"]
    target = outcome["target"]["display"] if outcome["target"] else "-"
    head = f"{report['family']} {report['point']} {report['tangent']}"
    tail = (
        f"-K=({','.join(map(str, report['minus_k']))}) {report['position']} "
        f"{outcome['kind']} {target}"
    )
    return " | ".join([head, *walls, tail])


def _games():
    for record in load_catalog():
        for entry in singular_locus(record):
            for _, tangent in entry.tangent_candidates:
                yield record, entry, tangent


def _game_commands():
    for record, entry, tangent in _games():
        yield Command(verb="game", family=record.id, point=entry.site.label, tangent=f"x{tangent}")


def games_table() -> str:
    lines = [game_line(run(command)[1]) for command in _game_commands()]
    return "\n".join(lines) + "\n"


def model_text(model) -> str:
    if model is None:
        return "-"
    columns = " ".join(f"{lab}:{x},{y}" for lab, (x, y) in model.columns)
    degrees = " ".join(f"({d1},{d2})" for d1, d2 in (eq.bidegree for eq in model.equations))
    return f"{columns} ; {degrees}"


def models_table() -> str:
    lines = []
    for record, entry, tangent in _games():
        trace, _ = run_game(record, entry, tangent)
        stages = (trace.raw, trace.well_formed, trace.raw_unprojected, trace.game_model)
        head = f"{record.id} {entry.site.label} x{tangent}"
        lines.append(" | ".join([head, *map(model_text, stages)]))
    return "\n".join(lines) + "\n"


def _verb_commands():
    yield Command(verb="catalog")
    for verb in ("analyze", "exclude"):
        for record in load_catalog():
            yield Command(verb=verb, family=record.id)


def verbs_table() -> str:
    lines = [json.dumps(run(command)[1], sort_keys=True) for command in _verb_commands()]
    return "\n".join(lines) + "\n"


def markdown_table() -> str:
    commands = (*_verb_commands(), *_game_commands())
    return "\n".join(serialize(run(command)[1], "markdown") for command in commands)


def test_every_game_matches_golden():
    table = games_table()
    assert table.count("\n") == 87
    assert table.encode("utf-8") == (GOLDEN / "games.txt").read_bytes()


def test_every_game_model_matches_golden():
    table = models_table()
    assert table.count("\n") == 87
    assert table.encode("utf-8") == (GOLDEN / "models.txt").read_bytes()


def test_every_other_verb_matches_golden():
    table = verbs_table()
    assert table.count("\n") == 1 + 2 * 35
    assert table.encode("utf-8") == (GOLDEN / "verbs.txt").read_bytes()


def test_every_markdown_document_matches_golden():
    table = markdown_table()
    assert table.count("\n\n# ") == 1 + 2 * 35 + 87 - 1
    assert table.encode("utf-8") == (GOLDEN / "markdown.md").read_bytes()


if __name__ == "__main__":
    tables = {
        "games": games_table,
        "models": models_table,
        "verbs": verbs_table,
        "markdown": markdown_table,
    }
    sys.stdout.write(tables[sys.argv[1]]())
