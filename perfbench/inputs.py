"""Seeded inputs and independent reference counts for the benchmark.

Nothing here imports fano2ray: `run.py` generates inputs with it, and the
child checks the package's answers against it.
"""

from __future__ import annotations

import random
from math import gcd

MAX_WEIGHT = 20
INDICES = (2, 20)

#: End models of the six link games, as printed in the paper (PAPER.md):
#: (family, point, equation degrees, ambient weights, via unprojection).
PAPER_LINKS = (
    (100, "p3", (10,), (1, 1, 1, 3, 5), False),
    (101, "p3", (12,), (1, 1, 1, 4, 6), False),
    (102, "p3", (14,), (1, 1, 2, 4, 7), False),
    (103, "p3", (22,), (1, 1, 3, 7, 11), False),
    (110, "p4", (7,), (1, 1, 1, 2, 3), False),
    (110, "p2", (6, 7), (1, 1, 2, 2, 3, 5), True),
)


def is_well_formed(weights) -> bool:
    """Nondecreasing, and every four of the five weights are coprime."""
    ws = tuple(weights)
    if list(ws) != sorted(ws) or any(w <= 0 for w in ws):
        return False
    return all(gcd(*(w for j, w in enumerate(ws) if j != i)) == 1 for i in range(len(ws)))


def candidate_stream(seed: int):
    """Endless stream of distinct scan candidates ``(weights, degree)``.

    Each has five nondecreasing well-formed weights <= 20 and Fano index
    ``sum(weights) - degree`` in 2..20 with a positive degree.  The same seed
    always yields the same stream.
    """
    rng = random.Random(seed)
    seen = set()
    while True:
        weights = tuple(sorted(rng.randint(1, MAX_WEIGHT) for _ in range(5)))
        index = rng.randint(*INDICES)
        degree = sum(weights) - index
        if degree < 1 or not is_well_formed(weights):
            continue
        cand = (weights, degree)
        if cand in seen:
            continue
        seen.add(cand)
        yield cand


def support_count(weights, degree: int) -> int:
    """Number of monomials of weighted degree ``degree``.

    The coefficient of ``t^degree`` in ``prod 1/(1 - t^w)``, by the
    coin-change recurrence; independent of ``catalog.monomial_support``.
    """
    if degree < 0:
        return 0
    ways = [1] + [0] * degree
    for w in weights:
        for s in range(w, degree + 1):
            ways[s] += ways[s - w]
    return ways[degree]
