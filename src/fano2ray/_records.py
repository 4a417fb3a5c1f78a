"""``Record``: immutable records written as class bodies, built on
:func:`collections.namedtuple`.

``class Site(Record):`` with annotated fields in order, defaults, a
docstring, methods and properties gives the class ``typing.NamedTuple``
would give, without importing :mod:`typing` (a few milliseconds of every
cold start) or turning each annotation into a ``ForwardRef``: the
annotations stay the strings of the source.
"""

from collections import namedtuple


class _RecordMeta(type):
    def __new__(mcls, name, bases, ns):
        if not bases:  # Record itself
            return super().__new__(mcls, name, bases, ns)
        fields = list(ns.get("__annotations__", {}))
        required = sum(field not in ns for field in fields)
        if any(field in ns for field in fields[:required]):
            raise TypeError(f"record {name}: a field without a default follows a default")
        cls = namedtuple(
            name, fields, defaults=[ns[f] for f in fields[required:]], module=ns["__module__"]
        )
        # docstring, qualified name, string annotations, methods, properties
        for key, value in ns.items():
            if key not in fields:
                setattr(cls, key, value)
        return cls


class Record(metaclass=_RecordMeta):
    """Base of the package's records: each subclass is a namedtuple class."""
