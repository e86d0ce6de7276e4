"""Built-in example sets exposed to the CLI under stable names.

These pin the exact operator listings of the published example sets this
library reproduces: the weakly unextendible two-qubit triple and the
strongly unextendible triples and five-class set in dimensions 4 and 8.
Every listing is letter strings. The published listings that only the tests
compare against (the leftover operators, the alternate partitions and the
basis vectors of the dimension-4 strong set) live with the tests.
"""

from __future__ import annotations

from mubforge.classes import ClassSet, class_from_strings

# Weakly unextendible triple on two qubits; its nine operators admit a
# second partition giving two contexts per operator.
WEAK_TRIPLE_D4 = (
    ("YY", "IY", "YI"),
    ("YZ", "ZX", "XY"),
    ("XI", "IZ", "XZ"),
)

# Strongly unextendible triple on two qubits: no single unit vector is
# unbiased to all three eigenbases.
STRONG_TRIPLE_D4 = (
    ("YY", "IY", "YI"),
    ("YZ", "XX", "ZY"),
    ("ZI", "IZ", "ZZ"),
)

# Strongly unextendible set of five classes on three qubits.
STRONG_FIVE_D8 = (
    ("IIY", "YYI", "YYY", "IYY", "YII", "IYI", "YIY"),
    ("IXI", "XIX", "XXX", "IXX", "IIX", "XII", "XXI"),
    ("ZII", "IZZ", "ZZZ", "IIZ", "IZI", "ZIZ", "ZZI"),
    ("IZX", "YZI", "YIX", "ZYY", "XYZ", "ZXZ", "XXY"),
    ("XIZ", "XYI", "IYZ", "ZXX", "YZX", "YXY", "ZZY"),
)


def _class_set(listing: tuple[tuple[str, ...], ...], n: int) -> ClassSet:
    return ClassSet(n, tuple(class_from_strings(group) for group in listing))


def weak_triple_d4() -> ClassSet:
    return _class_set(WEAK_TRIPLE_D4, 2)


def strong_triple_d4() -> ClassSet:
    return _class_set(STRONG_TRIPLE_D4, 2)


def strong_five_d8() -> ClassSet:
    return _class_set(STRONG_FIVE_D8, 3)


NAMED_CLASS_SETS = {
    "paper-d4-weak": weak_triple_d4,
    "paper-d4-strong": strong_triple_d4,
    "paper-d8-strong": strong_five_d8,
}


def named_class_set(name: str) -> ClassSet:
    """Resolve a built-in source name used by the CLI."""
    try:
        return NAMED_CLASS_SETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown named set {name!r}; choose from {sorted(NAMED_CLASS_SETS)}"
        ) from None
