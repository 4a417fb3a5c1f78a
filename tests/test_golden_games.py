"""Golden table of every 2-ray game of the 35 families.

One line per (family, site, tangent), read off the ``game --format json``
document: for each wall the ambient kind and local weights, the restricted
kind and weights (with the end model of a divisorial contraction) and the
witnesses; then the anticanonical class, its position, the outcome kind and
the end model.  Regenerate with
``PYTHONPATH=src python tests/test_golden_games.py > tests/golden/games.txt``
when a change to the games is intended.
"""

from __future__ import annotations

import sys
from pathlib import Path

from fano2ray.catalog import load_catalog
from fano2ray.cli import Command, run
from fano2ray.singular import singular_locus

GOLDEN_GAMES = Path(__file__).parent / "golden" / "games.txt"


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


def games_table() -> str:
    lines = []
    for record in load_catalog():
        for entry in singular_locus(record):
            for _, tangent in entry.tangent_candidates:
                command = Command(
                    verb="game", family=record.id, point=entry.site.label, tangent=f"x{tangent}"
                )
                _, report = run(command)
                lines.append(game_line(report))
    return "\n".join(lines) + "\n"


def test_every_game_matches_golden():
    table = games_table()
    assert table.count("\n") == 87
    assert table.encode("utf-8") == GOLDEN_GAMES.read_bytes()


if __name__ == "__main__":
    sys.stdout.write(games_table())
