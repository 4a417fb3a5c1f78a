"""Values the tests expect of the bundled catalog, and readers the tests
share for model fields."""

#: Families with no fibration witness; conjecturally the solid ones.
SOLID_CANDIDATES = frozenset({100, 101, 102, 103, 110})


def rows(model):
    """The two rows of a rank-2 model's weight matrix, in column order."""
    return tuple(zip(*(v for _, v in model.columns)))


def values(weights):
    """The numbers of labelled weights ``((label, value), ...)``; ``None``
    stays ``None`` (a wall crossing without restricted weights)."""
    return None if weights is None else tuple(v for _, v in weights)
