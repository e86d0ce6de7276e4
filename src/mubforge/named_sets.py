"""Built-in example sets exposed to the CLI under stable names.

``NAMED_CLASS_SETS`` holds the exact operator listings of the published
example sets this library reproduces, under the names the CLI and the
certificates use: the weakly unextendible two-qubit triple and the strongly
unextendible triples and five-class set in dimensions 4 and 8. Every
listing is letter strings, and ``named_class_set`` builds the ``ClassSet``,
taking the qubit count from the letters. The published listings that only
the tests compare against (the leftover operators, the alternate partitions
and the basis vectors of the dimension-4 strong set) live with the tests.
"""

from __future__ import annotations

from mubforge.classes import ClassSet, class_from_strings

NAMED_CLASS_SETS = {
    # Weakly unextendible triple on two qubits; its nine operators admit a
    # second partition giving two contexts per operator.
    "paper-d4-weak": (
        ("YY", "IY", "YI"),
        ("YZ", "ZX", "XY"),
        ("XI", "IZ", "XZ"),
    ),
    # Strongly unextendible triple on two qubits: no single unit vector is
    # unbiased to all three eigenbases.
    "paper-d4-strong": (
        ("YY", "IY", "YI"),
        ("YZ", "XX", "ZY"),
        ("ZI", "IZ", "ZZ"),
    ),
    # Strongly unextendible set of five classes on three qubits.
    "paper-d8-strong": (
        ("IIY", "YYI", "YYY", "IYY", "YII", "IYI", "YIY"),
        ("IXI", "XIX", "XXX", "IXX", "IIX", "XII", "XXI"),
        ("ZII", "IZZ", "ZZZ", "IIZ", "IZI", "ZIZ", "ZZI"),
        ("IZX", "YZI", "YIX", "ZYY", "XYZ", "ZXZ", "XXY"),
        ("XIZ", "XYI", "IYZ", "ZXX", "YZX", "YXY", "ZZY"),
    ),
}


def named_class_set(name: str) -> ClassSet:
    """Resolve a built-in source name used by the CLI."""
    try:
        listing = NAMED_CLASS_SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown named set {name!r}; choose from {sorted(NAMED_CLASS_SETS)}"
        ) from None
    return ClassSet(len(listing[0][0]), tuple(class_from_strings(g) for g in listing))
