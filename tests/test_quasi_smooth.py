"""Every bundled row is quasi-smooth by an independent oracle, and passes
the filter that the package's own functions make.

The oracle is Iano-Fletcher's criterion for a hypersurface ``X_d ⊂
P(a0,...,a4)`` ("Working with weighted complete intersections", 2000, Thm
8.1): a general member is quasi-smooth iff for every nonempty subset ``I``
of ``{0,...,4}`` either some monomial in the ``x_I`` alone has degree ``d``,
or there are ``|I|`` distinct ``e`` outside ``I``, each with a monomial
``x_I^M * x_e`` of degree ``d``.  It reads only the weights and the degree.

The filter is built from the package: the weights are well formed and
nondecreasing (``well_form_weights(w) == w``), no weight equals ``d`` (no
linear cone), the support is nonempty, and ``singular_locus`` raises no
``ValueError``, so every quotient singularity on a general member is
terminal and every vertex on it has a key monomial.

The filter also derives the bundled set: over every nondecreasing five
weights ``<= 20`` and index 2..20 it keeps exactly the bundled ``(weights,
degree)`` pairs, so the catalog needs no rule that names its ids.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import pytest

from expected import INDEX_ONE
from fano2ray.catalog import FamilyRecord, load_catalog, monomial_support, well_form_weights
from fano2ray.singular import singular_locus

BUNDLED = [(r.weights, r.degree) for r in load_catalog()]


def _sums(degree: int, weights: list[int]) -> list[bool]:
    """For each ``n`` in ``0..degree``, whether ``n`` is a sum of the weights
    with repetition (the degree of a monomial in their variables)."""
    reach = [True] + [False] * degree
    for n in range(1, degree + 1):
        reach[n] = any(w <= n and reach[n - w] for w in weights)
    return reach


def criterion_failures(weights, degree) -> list[tuple[int, ...]]:
    """The subsets ``I`` at which Iano-Fletcher's criterion fails, by size
    and then in lexicographic order; empty iff a general member is
    quasi-smooth."""
    failing = []
    for size in range(1, 6):
        for subset in combinations(range(5), size):
            reach = _sums(degree, [weights[i] for i in subset])
            if reach[degree]:
                continue
            others = [e for e in range(5) if e not in subset and weights[e] <= degree]
            if sum(reach[degree - weights[e]] for e in others) < size:
                failing.append(subset)
    return failing


def filter_failure(weights, degree) -> str | None:
    """Why the filter rejects ``X_degree ⊂ P(weights)``, or ``None``."""
    if well_form_weights(weights) != weights:
        return "weights not well formed and nondecreasing"
    return _degree_failure(weights, degree)


def _degree_failure(weights, degree) -> str | None:
    """The filter's checks after the weights', cheapest first."""
    if degree in weights:
        return "a weight equals the degree"
    try:
        singular_locus(FamilyRecord(weights=weights, degree=degree))
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    if not monomial_support(weights, degree):
        return "empty support"
    return None


def search(max_weight: int, prune: bool = True) -> list[tuple[tuple[int, ...], int]]:
    """Every ``(weights, degree)`` the filter keeps over nondecreasing weights
    ``<= max_weight`` and index 2..20, in the order of the weights.

    The weights are checked once per tuple.  With ``prune``, a degree whose
    heaviest vertex ``p4`` lies on the member (``a4 > 1`` and ``a4 ∤ d``)
    with no key monomial ``x4^k * x_j`` (``k >= 1``) is skipped before
    ``singular_locus``, which raises :class:`UnresolvedTangent` there.
    """
    kept = []
    for weights in combinations_with_replacement(range(1, max_weight + 1), 5):
        if well_form_weights(weights) != weights:
            continue
        top = weights[4]
        for index in range(2, 21):
            degree = sum(weights) - index
            if degree < 1:
                break
            if prune and top > 1 and degree % top:
                if not any((degree - a) % top == 0 and degree - a >= top for a in weights[:4]):
                    continue
            if _degree_failure(weights, degree) is None:
                kept.append((weights, degree))
    return kept


@pytest.mark.parametrize(
    "weights, degree", BUNDLED + INDEX_ONE, ids=[f"X{d}{w}" for w, d in BUNDLED + INDEX_ONE]
)
def test_every_row_passes_the_oracle_and_the_filter(weights, degree):
    assert criterion_failures(weights, degree) == []
    assert filter_failure(weights, degree) is None


def test_a_degree_that_breaks_quasi_smoothness_fails_both():
    # family 100 is X_18 ⊂ P(1,2,3,5,9); at degree 19 no monomial of x2, x4
    # has degree 19, and only x0 completes one
    assert criterion_failures((1, 2, 3, 5, 9), 19) == [(2, 4)]
    assert filter_failure((1, 2, 3, 5, 9), 19).startswith("NotTerminal: ")


def test_a_quasi_smooth_but_not_terminal_row_fails_the_filter_only():
    # family 98 is X_6 ⊂ P(1,1,1,2,3); at degree 5 the vertex p4 is on the
    # member and quasi-smooth, but its germ 1/3(1,1,1) is not terminal
    assert criterion_failures((1, 1, 1, 2, 3), 5) == []
    assert filter_failure((1, 1, 1, 2, 3), 5) == (
        "NotTerminal: 1/3(1, 1, 1) admits no Kawamata normal form"
    )


def _degree_shifts():
    return [(w, d + step) for w, d in BUNDLED for step in (-1, 1)]


def _small_weights():
    # every nondecreasing five weights <= 8 at every degree of index >= 1
    # above the largest weight
    return [
        (w, d)
        for w in combinations_with_replacement(range(1, 9), 5)
        for d in range(w[-1] + 1, sum(w))
    ]


@pytest.mark.parametrize(
    "candidates, examples, kept",
    [(_degree_shifts, 70, 8), (_small_weights, 11616, 73)],
    ids=["degree-shifts-of-the-35", "weights-up-to-8"],
)
def test_the_filter_implies_the_oracle(candidates, examples, kept):
    pairs = candidates()
    passed = [(w, d) for w, d in pairs if filter_failure(w, d) is None]
    assert (len(pairs), len(passed)) == (examples, kept)
    assert [(w, d) for w, d in passed if criterion_failures(w, d)] == []


def test_the_filter_keeps_exactly_the_bundled_pairs():
    # the bundled rows are derived, not listed: a search over every
    # nondecreasing five weights <= 20 and index 2..20 keeps them all, and
    # nothing else
    assert sorted(search(20)) == sorted(BUNDLED)


def test_the_vertex_prune_hides_no_family():
    # the same search without the prune keeps the same pairs: the 33 bundled
    # rows with weights <= 12 (all but 102 and 103)
    pruned = search(12)
    assert pruned == search(12, prune=False)
    assert sorted(pruned) == sorted((w, d) for w, d in BUNDLED if w[4] <= 12)
    assert len(pruned) == 33
