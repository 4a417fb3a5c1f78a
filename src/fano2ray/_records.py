"""``Record``: immutable records written as class bodies, built as tuple
classes with named fields, without compiling source.

``class Site(Record):`` with annotated fields in order, defaults, a
docstring, methods and properties gives a tuple class whose fields are
read-only attributes. It has the ``__new__`` signature ``typing.NamedTuple``
would give, ``_fields``, ``_replace``, ``_asdict``, a ``repr`` naming the
fields, and it pickles and copies as its class; it may be subclassed. It
does not import :mod:`typing` or :mod:`collections` (a few milliseconds of
every cold start), and the annotations stay the strings of the source.

``namedtuple`` compiles each class's ``__new__`` from a string with
``eval``. Here ``__new__`` is the constructor of its arity in ``_NEW``,
compiled once into this module's bytecode, with its arguments renamed to
the fields, so the interpreter still binds keywords and defaults. Fields
are read by ``namedtuple``'s own descriptors; the other methods are shared
by every record class.
"""

from _collections import _tuplegetter

_tuple_new = tuple.__new__
#: ``types.FunctionType``, without importing :mod:`types`
FunctionType = type(lambda: None)

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


def _replace(self, /, **kwds):
    result = _tuple_new(type(self), map(kwds.pop, self._fields, self))
    if kwds:
        raise TypeError(f"Got unexpected field names: {list(kwds)!r}")
    return result


def __repr__(self):
    pairs = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self))
    return f"{type(self).__name__}({pairs})"


def _asdict(self):
    return dict(zip(self._fields, self))


def __getnewargs__(self):  # for pickle and copy
    return tuple(self)


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
        count = len(fields)
        if count >= len(_NEW):
            raise TypeError(f"record {name}: {count} fields, more than the {len(_NEW) - 1} allowed")
        code = _NEW[count].__code__.replace(co_name="__new__", co_varnames=("_cls", *fields))
        new = FunctionType(code, globals(), "__new__", tuple(ns[f] for f in fields[required:]))
        new.__qualname__ = f"{name}.__new__"  # argument errors name it
        namespace = {"__slots__": (), "_fields": fields, "__new__": new, "_replace": _replace}
        namespace |= {"__repr__": __repr__, "_asdict": _asdict, "__getnewargs__": __getnewargs__}
        for index, field in enumerate(fields):
            namespace[field] = _tuplegetter(index, f"Alias for field number {index}")
        # docstring, qualified name, string annotations, methods, properties
        namespace.update((key, value) for key, value in ns.items() if key not in fields)
        return type(name, (tuple,), namespace)


class Record(metaclass=_RecordMeta):
    """Base of the package's records: each subclass is a tuple class with
    named fields."""
