"""Values the tests expect of the bundled catalog, eleven families of index
one outside it, readers the tests share
for model fields, the change of grading the invariance tests apply, the
command-line parser written out by hand, and an editable copy of the
bundled data."""

import argparse
import shutil
from pathlib import Path

import fano2ray
from fano2ray.toric2ray import LatticeError, RankTwoModel, TransformedEquation

#: The ids of the bundled families, in order (``test_catalog`` pins them to
#: the data).
FAMILY_IDS = range(96, 131)

#: Families with no fibration witness; conjecturally the solid ones.
SOLID_CANDIDATES = frozenset({100, 101, 102, 103, 110})

#: Eleven of the 95 families of Fano index 1, as literal weights and degree.
INDEX_ONE = [
    ((1, 1, 1, 1, 2), 5),
    ((1, 1, 1, 2, 3), 7),
    ((1, 1, 1, 3, 4), 9),
    ((1, 1, 2, 3, 3), 9),
    ((1, 1, 2, 3, 5), 11),
    ((1, 1, 2, 5, 7), 15),
    ((1, 1, 3, 4, 7), 15),
    ((1, 1, 4, 5, 6), 16),
    ((1, 2, 3, 5, 7), 17),
    ((1, 3, 4, 5, 7), 19),
    ((1, 1, 3, 7, 10), 21),
]


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


def hand_written_parser():
    """The CLI parser written out call by call, with argparse's own help
    formatter, which reads ``COLUMNS`` through ``shutil``: the reference for
    the help texts of the table-driven ``fano2ray.cli.build_parser``."""
    parser = argparse.ArgumentParser(
        prog="fano2ray",
        description="Birational analysis of the index >= 2 Fano threefold hypersurfaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("markdown", "json"), default="markdown", dest="format"
        )

    add_format(sub.add_parser("catalog", help="replay the family table"))
    p = sub.add_parser("analyze", help="singular locus of one family")
    p.add_argument("family", type=int)
    add_format(p)
    p = sub.add_parser("game", help="run one 2-ray game")
    p.add_argument("family", type=int)
    p.add_argument("--point", required=True, help="site label, e.g. p3 or p2p4")
    p.add_argument("--tangent", help="tangent variable, e.g. x2")
    add_format(p)
    p = sub.add_parser("exclude", help="numerical tests and fibration witness")
    p.add_argument("family", type=int)
    add_format(p)
    add_format(sub.add_parser("verify", help="replay all reference tables"))
    return parser


def data_copy(tmp_path, monkeypatch):
    """A copy of the bundled data directory under ``tmp_path``, which
    ``FANO2RAY_DATA`` then names: a test edits its files before the catalog
    is next loaded."""
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    monkeypatch.setenv("FANO2RAY_DATA", str(data))
    return data
