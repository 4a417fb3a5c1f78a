"""``Record``: immutable records written as class bodies, built as the
classes :func:`collections.namedtuple` builds, without compiling source.

``class Site(Record):`` with annotated fields in order, defaults, a
docstring, methods and properties gives the class ``typing.NamedTuple``
would give, without importing :mod:`typing` (a few milliseconds of every
cold start) or turning each annotation into a ``ForwardRef``: the
annotations stay the strings of the source.

``namedtuple`` compiles each class's ``__new__`` from a string with
``eval``, most of the time it takes to build a class. Here ``__new__`` is
the constructor of its arity in ``_NEW``, compiled once into this module's
bytecode, with its arguments renamed to the fields, so the interpreter
still binds keywords and defaults. Fields are read by ``namedtuple``'s own
descriptors.
"""

import sys
from _collections import _tuplegetter

_tuple_new = tuple.__new__
#: ``types.FunctionType``, without importing :mod:`types`
FunctionType = type(lambda: None)
#: ``namedtuple`` from Python 3.13: ``__replace__`` serves ``copy.replace``,
#: and ``_replace`` of an unknown field raises ``TypeError``, not ``ValueError``.
_PY313 = sys.version_info >= (3, 13)
_UNKNOWN_FIELD = TypeError if _PY313 else ValueError

#: The constructor of each arity, the number of fields; a record may have
#: at most ``len(_NEW) - 1`` fields.
_NEW = (
    lambda _cls: _tuple_new(_cls, ()),
    lambda _cls, a: _tuple_new(_cls, (a,)),
    lambda _cls, a, b: _tuple_new(_cls, (a, b)),
    lambda _cls, a, b, c: _tuple_new(_cls, (a, b, c)),
    lambda _cls, a, b, c, d: _tuple_new(_cls, (a, b, c, d)),
    lambda _cls, a, b, c, d, e: _tuple_new(_cls, (a, b, c, d, e)),
    lambda _cls, a, b, c, d, e, f: _tuple_new(_cls, (a, b, c, d, e, f)),
    lambda _cls, a, b, c, d, e, f, g: _tuple_new(_cls, (a, b, c, d, e, f, g)),
    lambda _cls, a, b, c, d, e, f, g, h: _tuple_new(_cls, (a, b, c, d, e, f, g, h)),
    lambda _cls, a, b, c, d, e, f, g, h, i: _tuple_new(_cls, (a, b, c, d, e, f, g, h, i)),
)


def _namespace(name: str, fields: tuple[str, ...], defaults: tuple) -> dict:
    """The class namespace ``namedtuple(name, fields, defaults=defaults)`` builds."""
    count = len(fields)
    if count >= len(_NEW):
        raise TypeError(f"record {name}: {count} fields, more than the {len(_NEW) - 1} allowed")
    arg_list = ", ".join(fields) + ("," if count == 1 else "")
    repr_fmt = "(" + ", ".join(f"{field}=%r" for field in fields) + ")"

    code = _NEW[count].__code__
    renamed = {"co_name": "__new__", "co_varnames": ("_cls", *fields)}
    if hasattr(code, "co_qualname"):  # Python 3.11+
        renamed["co_qualname"] = f"{name}.__new__"
    __new__ = FunctionType(code.replace(**renamed), globals(), "__new__", defaults)
    __new__.__doc__ = f"Create new instance of {name}({arg_list})"

    @classmethod
    def _make(cls, iterable):
        result = _tuple_new(cls, iterable)
        if len(result) != count:
            raise TypeError(f"Expected {count} arguments, got {len(result)}")
        return result

    _make.__func__.__doc__ = f"Make a new {name} object from a sequence or iterable"

    def _replace(self, /, **kwds):
        result = self._make(map(kwds.pop, fields, self))
        if kwds:
            raise _UNKNOWN_FIELD(f"Got unexpected field names: {list(kwds)!r}")
        return result

    _replace.__doc__ = f"Return a new {name} object replacing specified fields with new values"

    def __repr__(self):
        "Return a nicely formatted representation string"
        return self.__class__.__name__ + repr_fmt % self

    def _asdict(self):
        "Return a new dict which maps field names to their values."
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        "Return self as a plain tuple.  Used by copy and pickle."
        return tuple(self)

    for method in (__new__, _make.__func__, _replace, __repr__, _asdict, __getnewargs__):
        method.__qualname__ = f"{name}.{method.__name__}"
    namespace = {
        "__doc__": f"{name}({arg_list})",
        "__slots__": (),
        "_fields": fields,
        "_field_defaults": dict(zip(fields[count - len(defaults) :], defaults)),
        "__new__": __new__,
        "_make": _make,
        "_replace": _replace,
        "__repr__": __repr__,
        "_asdict": _asdict,
        "__getnewargs__": __getnewargs__,
        "__match_args__": fields,
    }
    if _PY313:
        namespace["__replace__"] = _replace
    for index, field in enumerate(fields):
        namespace[field] = _tuplegetter(index, f"Alias for field number {index}")
    return namespace


class _RecordMeta(type):
    def __new__(mcls, name, bases, ns):
        if not bases:  # Record itself
            return super().__new__(mcls, name, bases, ns)
        fields = tuple(ns.get("__annotations__", {}))
        required = sum(field not in ns for field in fields)
        if any(field in ns for field in fields[:required]):
            raise TypeError(f"record {name}: a field without a default follows a default")
        for field in fields:
            if field.startswith("_"):
                raise ValueError(f"Field names cannot start with an underscore: {field!r}")
        namespace = _namespace(name, fields, tuple(ns[f] for f in fields[required:]))
        # docstring, qualified name, string annotations, methods, properties
        namespace.update((key, value) for key, value in ns.items() if key not in fields)
        return type(name, (tuple,), namespace)


class Record(metaclass=_RecordMeta):
    """Base of the package's records: each subclass is a tuple class with
    named fields, the class ``collections.namedtuple`` would build."""
