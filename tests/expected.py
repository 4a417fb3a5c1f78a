"""Values the tests expect of the bundled catalog, readers the tests share
for model fields, and the change of grading the invariance tests apply."""

from fano2ray.toric2ray import LatticeError, RankTwoModel, TransformedEquation

#: Families with no fibration witness; conjecturally the solid ones.
SOLID_CANDIDATES = frozenset({100, 101, 102, 103, 110})


def rows(model):
    """The two rows of a rank-2 model's weight matrix, in column order."""
    return tuple(zip(*(v for _, v in model.columns)))


def values(weights):
    """The numbers of labelled weights ``((label, value), ...)``; ``None``
    stays ``None`` (a wall crossing without restricted weights)."""
    return None if weights is None else tuple(v for _, v in weights)


def regrade(model, matrix):
    """``model`` with every column and equation bidegree mapped by a
    unimodular ``matrix`` of determinant one, which keeps the anticlockwise
    order; supports are kept."""
    (p, q), (s, t) = matrix
    if p * t - q * s != 1:
        raise LatticeError("regrading matrix must have determinant one")

    def image(v):
        return (p * v[0] + q * v[1], s * v[0] + t * v[1])

    return RankTwoModel(
        columns=tuple((lab, image(v)) for lab, v in model.columns),
        equations=tuple(
            TransformedEquation(support=eq.support, bidegree=image(eq.bidegree))
            for eq in model.equations
        ),
        center=model.center,
    )
