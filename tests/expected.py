"""Values the tests expect of the bundled catalog."""

#: Families with no fibration witness; conjecturally the solid ones.
SOLID_CANDIDATES = frozenset({100, 101, 102, 103, 110})
