"""Every public record is an immutable tuple of its fields."""

from __future__ import annotations

import pytest

from fano2ray import catalog, cli, exclusion, linkengine, singular, toric2ray
from fano2ray.catalog import family
from fano2ray.exclusion import curve_test, fibration_witness, solidity_summary
from fano2ray.linkengine import run_game, verify_tables
from fano2ray.singular import locate
from fano2ray.toric2ray import needs_unprojection

MODULES = (catalog, singular, toric2ray, linkengine, exclusion, cli)


def _public_record_types() -> set[type]:
    return {
        obj
        for mod in MODULES
        for name, obj in vars(mod).items()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and obj.__module__ == mod.__name__
        and not name.startswith("_")
    }


def _one_of_each() -> dict[type, object]:
    """One instance of every public record type, from the catalog, the CLI,
    the exclusion tests and two games (a direct one and an unprojected one)."""
    f100, f110 = family(100), family(110)
    stratum = locate(f100, "p2p4")
    objs = [
        f100,
        f100.expected,
        f100.expected.links[0],
        f100.expected.exclusions[0],
        f110.expected.matrices[0],
        stratum,
        stratum.site,
        stratum.singularity,
        verify_tables().deviations[0],
        curve_test(f100),
        fibration_witness(family(96)),
        solidity_summary(),
        cli.Command(verb="verify"),
    ]
    for record, point, tangent in ((f100, "p3", "x2"), (f110, "p2", "x0")):
        trace, outcome = run_game(record, locate(record, point), tangent)
        objs += [trace, outcome, outcome.model, trace.blowup, trace.blowup.center_entry.site]
        objs += [trace.raw, trace.raw.equations[0], trace.steps[0], trace.final_target]
        objs.append(needs_unprojection(trace.raw))
    return {type(obj): obj for obj in objs if obj is not None}


RECORDS = _one_of_each()


def test_every_public_record_type_is_covered():
    assert set(RECORDS) == _public_record_types()


@pytest.mark.parametrize("obj", RECORDS.values(), ids=lambda obj: type(obj).__name__)
def test_records_refuse_field_assignment(obj):
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    assert obj == tuple(obj)
    assert hash(obj) == hash(tuple(obj))
