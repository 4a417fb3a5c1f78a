"""Every public record is an immutable tuple of its fields."""

from __future__ import annotations

import ast
import copy
import inspect
import pickle
import sys
import types
from typing import NamedTuple

import pytest

from fano2ray import catalog, cli, exclusion, linkengine, singular, toric2ray
from fano2ray._records import _NEW, Record
from fano2ray.catalog import family
from fano2ray.exclusion import curve_test, fibration_witness, solidity_summary
from fano2ray.linkengine import run_game, verify_tables
from fano2ray.singular import locate

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
    return {type(obj): obj for obj in objs if obj is not None}


RECORDS = _one_of_each()

#: Each record instance by the name of its type; ``Site`` is checked in both
#: of its shapes, a coordinate point ``Vertex`` and a coordinate ``Stratum``.
CASES = {type(obj).__name__: obj for obj in RECORDS.values() if not isinstance(obj, singular.Site)}
CASES["Vertex"] = locate(family(100), "p3").site
CASES["Stratum"] = locate(family(100), "p2p4").site


#: Every class built by ``Record``, private ones included.
RECORD_CLASSES = {
    obj
    for mod in MODULES
    for obj in vars(mod).values()
    if isinstance(obj, type) and obj.__module__ == mod.__name__ and "_fields" in vars(obj)
}


def test_every_public_record_type_is_covered():
    assert set(RECORDS) == _public_record_types()


def test_site_cases_are_a_vertex_and_a_stratum():
    assert len(CASES["Vertex"].variables) == 1
    assert len(CASES["Stratum"].variables) == 2


@pytest.mark.parametrize("obj", CASES.values(), ids=CASES)
def test_records_refuse_field_assignment(obj):
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    assert obj == tuple(obj)
    assert hash(obj) == hash(tuple(obj))


def test_record_classes_are_their_annotated_fields_and_docstring():
    # every class written `class X(Record)` has the annotated names of its
    # body as fields, in source order, and its docstring as __doc__; and no
    # record class of the package is built another way
    built = set()
    for mod in MODULES:
        tree = ast.parse(inspect.getsource(mod))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                continue
            cls = getattr(mod, node.name)
            names = tuple(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            )
            assert cls._fields == names, node.name
            docstring = ast.get_docstring(node)
            if docstring is None:
                assert cls.__doc__ is None, node.name
            else:
                assert inspect.cleandoc(cls.__doc__) == docstring, node.name
            built.add(cls)
    assert RECORD_CLASSES == built


#: One class body, built once on ``typing.NamedTuple`` and once on ``Record``
#: in two modules of its own, so that names, reprs and pickling can be compared.
POINT_SOURCE = '''
from __future__ import annotations

from functools import cached_property


class Point(Base):
    """A labelled point of the plane."""

    x: int
    y: int = 0
    label: str | None = None

    def norm(self) -> int:
        return self.x * self.x + self.y * self.y

    @property
    def swapped(self) -> Point:
        return self._replace(x=self.y, y=self.x)


class CachedPoint(Point):
    @cached_property
    def twice(self) -> int:
        return 2 * self.norm()
'''


def _point_module(name: str, base: type) -> types.ModuleType:
    module = types.ModuleType(name)
    module.Base = base
    sys.modules[name] = module
    exec(POINT_SOURCE, vars(module))
    return module


TYPED = _point_module("fano2ray_test_points_typed", NamedTuple)
PLAIN = _point_module("fano2ray_test_points_record", Record)


@pytest.mark.parametrize("name", ["Point", "CachedPoint"])
def test_record_class_matches_typing_namedtuple(name):
    typed, plain = getattr(TYPED, name), getattr(PLAIN, name)
    for attr in ("_fields", "__doc__", "__qualname__", "__name__"):
        assert getattr(plain, attr) == getattr(typed, attr), attr
    assert [c.__name__ for c in plain.__mro__] == [c.__name__ for c in typed.__mro__]


def test_record_annotations_stay_strings():
    assert PLAIN.Point.__annotations__ == {"x": "int", "y": "int", "label": "str | None"}


def _behaviour(module: types.ModuleType) -> list:
    point = module.Point(3, 4, "p")
    cached = module.CachedPoint(1)
    return [
        repr(point),
        repr(module.Point(1)),
        repr(point._replace(y=1)),
        point._asdict(),
        point.norm(),
        repr(point.swapped),
        point == (3, 4, "p"),
        hash(point) == hash((3, 4, "p")),
        pickle.loads(pickle.dumps(point)) == point,
        type(pickle.loads(pickle.dumps(cached))) is module.CachedPoint,
        repr(cached),
        cached.twice,
        "twice" in vars(cached),
    ]


def test_record_instances_behave_as_typing_namedtuple_instances():
    assert _behaviour(PLAIN) == _behaviour(TYPED)
    point = PLAIN.Point(3)
    with pytest.raises(AttributeError):
        point.x = 1


@pytest.mark.parametrize("base", [NamedTuple, Record], ids=["typing", "record"])
def test_a_field_without_default_after_a_default_is_refused(base):
    with pytest.raises(TypeError):

        class Bad(base):
            first: int = 0
            second: int


@pytest.mark.parametrize("base", [NamedTuple, Record], ids=["typing", "record"])
def test_a_field_starting_with_an_underscore_is_refused(base):
    with pytest.raises(ValueError, match="underscore: '_private'"):

        class Bad(base):
            first: int
            _private: int


def test_a_record_with_more_fields_than_constructors_is_refused():
    limit = len(_NEW) - 1
    assert limit == max(len(cls._fields) for cls in RECORD_CLASSES)
    fields = {f"f{i}": int for i in range(limit + 1)}
    with pytest.raises(TypeError, match=f"more than the {limit} allowed"):
        types.new_class("Wide", (Record,), exec_body=lambda ns: ns.update(__annotations__=fields))


def _typed_twin(cls: type) -> type:
    """The ``typing.NamedTuple`` class of the record ``cls`` is built on:
    the same name, fields and defaults."""
    record = next(base for base in cls.__mro__ if "_fields" in vars(base))
    fields, defaults = record._fields, record.__new__.__defaults__ or ()
    body = {
        "__module__": __name__,
        "__annotations__": dict.fromkeys(fields, object),
        **dict(zip(fields[len(fields) - len(defaults) :], defaults)),
    }
    return types.new_class(record.__name__, (NamedTuple,), exec_body=lambda ns: ns.update(body))


def _unannotated(signature: inspect.Signature) -> inspect.Signature:
    # typing.NamedTuple annotates __new__ with the field types; namedtuple does not
    parameters = [p.replace(annotation=p.empty) for p in signature.parameters.values()]
    return signature.replace(parameters=parameters)


def _outcome(call) -> tuple[type, str] | None:
    try:
        call()
    except Exception as error:  # the error itself is compared
        return type(error), str(error)
    return None


def _class_surface(cls: type) -> list:
    """What a caller sees of a record class: its constructor, its fields and
    the errors of bad calls (an unexpected keyword, no argument)."""
    values = tuple(range(len(cls._fields)))
    return [
        _unannotated(inspect.signature(cls.__new__)),
        cls.__new__.__defaults__,
        cls.__new__.__qualname__,
        cls.__slots__,
        [(type(d), d.__doc__) for d in (inspect.getattr_static(cls, f) for f in cls._fields)],
        _outcome(lambda: cls(*values, no_such_field=1)),
        _outcome(lambda: cls()),
    ]


#: Each record class, public record type and test class, by name, with the
#: ``typing.NamedTuple`` class it is compared with.
TWINS = {cls.__name__: (cls, _typed_twin(cls)) for cls in RECORD_CLASSES | set(RECORDS)}
TWINS |= {name: (getattr(PLAIN, name), getattr(TYPED, name)) for name in ("Point", "CachedPoint")}


@pytest.mark.parametrize("name", TWINS)
def test_record_class_surface_matches_typing_namedtuple(name):
    plain, typed = TWINS[name]
    assert _class_surface(plain) == _class_surface(typed)


@pytest.mark.parametrize("name", TWINS)
def test_replacing_an_unknown_field_raises_type_error(name):
    # typing.NamedTuple raises ValueError here before Python 3.13
    cls = TWINS[name][0]
    record = cls(*range(len(cls._fields)))
    with pytest.raises(TypeError, match=r"^Got unexpected field names: \['no_such_field'\]$"):
        record._replace(no_such_field=1)


def _cached_model() -> toric2ray.RankTwoModel:
    model = RECORDS[toric2ray.RankTwoModel]._replace()  # a copy with no cache
    assert vars(model) == {}
    model.walls
    return model


#: Every public record instance, and a model whose walls are already cached.
COPIED = {type(obj).__name__: obj for obj in RECORDS.values()}
COPIED["RankTwoModel-walls-cached"] = _cached_model()


@pytest.mark.parametrize("obj", COPIED.values(), ids=COPIED)
@pytest.mark.parametrize(
    "clone",
    [lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_records_survive_pickle_and_copy(obj, clone):
    copied = clone(obj)
    assert type(copied) is type(obj)
    assert copied == obj
    if hasattr(obj, "__dict__"):  # a model's cached walls travel with it
        assert vars(copied) == vars(obj)
