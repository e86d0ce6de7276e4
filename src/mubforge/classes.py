"""Maximal commuting classes, disjointness, and complete-set constructions.

A maximal commuting class on n qubits is an abelian subgroup of the
projective Pauli group minus the identity: n independent commuting
generators and their 2**n - 1 nonidentity products. A complete set is a
partition of all 4**n - 1 operators into 2**n + 1 mutually disjoint classes;
their joint eigenbases form a full family of mutually unbiased bases.

A class stores its generators and one bit mask of its elements (bit
``key - 1`` per element, as in mubforge.search); every element view, the
equality test and the disjointness test read that mask. Elements are
operators modulo phase, so the views return each as its standard Hermitian
``PauliOperator`` and membership reads only the key. ``class_from_mask``
turns any mask, such as a member of the search family, back into a class
with canonical generators.

Complete sets come from one exact-cover routine over the canonical class
family, seeded with any disjoint classes (none for the canonical four-qubit
set, two for ``complete_set_from_two``). The canonical two- and three-qubit
sets are pinned listings, because certificates embed their exact classes
and generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from mubforge.pauli import (
    PauliOperator,
    commutes,
    independent,
    pauli_from_string,
)
from mubforge.search import (
    all_maximal_classes,
    full_mask,
    keys_of_mask,
    mask_of_keys,
)

# The standard two-qubit complete set used as the canonical fixture.
CANONICAL_D4_COMPLETE = (
    ("ZI", "IZ", "ZZ"),
    ("XI", "IX", "XX"),
    ("XZ", "ZY", "YX"),
    ("YI", "IY", "YY"),
    ("YZ", "ZX", "XY"),
)

# The canonical three-qubit complete set as generator triples. The generators
# are part of every certificate that embeds the set, so they are pinned as
# listed, not rebuilt from the element sets.
CANONICAL_D8_GENERATORS = (
    ("IIZ", "IZI", "ZII"),
    ("IIX", "IXI", "XII"),
    ("IIY", "IYI", "YII"),
    ("XIZ", "XYI", "ZXX"),
    ("IXZ", "YXI", "XYX"),
    ("IZX", "XXZ", "YIX"),
    ("XZI", "XIY", "YXX"),
    ("ZIX", "IYX", "XXY"),
    ("ZXI", "IXY", "XZX"),
)


@dataclass(frozen=True, eq=False)
class CommutingClass:
    """A maximal commuting class: n generators plus the mask of their closure.

    Bit ``key - 1`` of ``mask`` is set for each nonidentity element (see
    mubforge.search). Equality and hashing go by the mask, so the same class
    reached through different generator choices compares equal.
    """

    n: int
    generators: tuple[PauliOperator, ...]
    mask: int

    @property
    def sorted_elements(self) -> tuple[PauliOperator, ...]:
        return tuple(
            PauliOperator.from_key(self.n, k) for k in keys_of_mask(self.mask)
        )

    @property
    def elements(self) -> frozenset[PauliOperator]:
        return frozenset(self.sorted_elements)

    def letters(self) -> tuple[str, ...]:
        return _mask_letters(self.n, self.mask)

    def __contains__(self, op: PauliOperator) -> bool:
        """Membership modulo phase: reads the key, never the phase."""
        k = op.key
        return op.n == self.n and k > 0 and (self.mask >> (k - 1)) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommutingClass):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"CommutingClass({'+'.join(self.letters())})"


@lru_cache(maxsize=4096)  # certificates spell the same classes many times
def _mask_letters(n: int, mask: int) -> tuple[str, ...]:
    return tuple(PauliOperator.from_key(n, k).to_string() for k in keys_of_mask(mask))


def class_from_generators(gens: Sequence[PauliOperator]) -> CommutingClass:
    """Close n independent commuting Hermitian generators into a class."""
    if not gens:
        raise ValueError("no generators given")
    n = gens[0].n
    if len(gens) != n:
        raise ValueError(f"expected {n} generators for n={n}, got {len(gens)}")
    for g in gens:
        if g.n != n:
            raise ValueError("generators act on different qubit counts")
        if not g.is_hermitian:
            raise ValueError(f"generator {g.to_string()} is not Hermitian")
        if g.is_projective_identity:
            raise ValueError("identity cannot generate a class")
    for a, b in combinations(gens, 2):
        if not commutes(a, b):
            raise ValueError(
                f"generators {a.to_string()} and {b.to_string()} anticommute"
            )
    if not independent(gens):
        raise ValueError("generators are dependent; closure would be degenerate")
    span = [0]
    for g in gens:
        span += [k ^ g.key for k in span]
    return CommutingClass(n, tuple(gens), mask_of_keys(span[1:]))


def class_from_mask(n: int, mask: int) -> CommutingClass:
    """Rebuild a class from its element mask, choosing canonical generators.

    The generator chain picks the smallest element outside the running span
    at every step, which makes the result stable for certificates.
    """
    if mask <= 0:
        raise ValueError("element mask must be a positive integer")
    span = {0}
    gen_keys: list[int] = []
    for k in keys_of_mask(mask):
        if k not in span:
            gen_keys.append(k)
            span |= {s ^ k for s in span}
    cls = class_from_generators([PauliOperator.from_key(n, k) for k in gen_keys])
    if cls.mask != mask:
        raise ValueError("element set is not closed under products")
    return cls


def class_from_elements(elements: Iterable[PauliOperator]) -> CommutingClass:
    """Rebuild a class from its elements (modulo phase); see ``class_from_mask``."""
    ops = list(elements)
    if not ops:
        raise ValueError("empty element set")
    n = ops[0].n
    if any(p.n != n for p in ops):
        raise ValueError("elements act on different qubit counts")
    if any(p.is_projective_identity for p in ops):
        raise ValueError("element set is not closed under products")
    return class_from_mask(n, mask_of_keys(p.key for p in ops))


def class_from_strings(letters: Iterable[str]) -> CommutingClass:
    return class_from_elements(pauli_from_string(s) for s in letters)


def disjoint(c1: CommutingClass, c2: CommutingClass) -> bool:
    """True iff the element sets do not intersect."""
    if c1.n != c2.n:
        raise ValueError("classes act on different qubit counts")
    return not (c1.mask & c2.mask)


def commuting_overlap(p: PauliOperator, c: CommutingClass) -> frozenset[PauliOperator]:
    """The subset of class elements commuting with ``p``.

    For a maximal class in a disjoint position this has exactly
    2**(n-1) - 1 members.
    """
    if p.is_projective_identity:
        raise ValueError("identity has no meaningful commuting overlap")
    if p in c:
        raise ValueError("operator lies in the class; overlap is degenerate")
    return frozenset(e for e in c.elements if commutes(p, e))


@dataclass(frozen=True)
class ClassSet:
    """An ordered collection of mutually disjoint maximal commuting classes."""

    n: int
    classes: tuple[CommutingClass, ...]
    complete: bool = False

    def __post_init__(self) -> None:
        union = 0
        for c in self.classes:
            if c.n != self.n:
                raise ValueError("class qubit count does not match the set")
            if union & c.mask:
                raise ValueError("classes are not pairwise disjoint")
            union |= c.mask
        if self.complete:
            expected = (1 << self.n) + 1
            if len(self.classes) != expected:
                raise ValueError(
                    f"complete set needs {expected} classes, got {len(self.classes)}"
                )
            if union != full_mask(self.n):
                raise ValueError("complete set does not cover all operators")

    def __iter__(self) -> Iterator[CommutingClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, i: int) -> CommutingClass:
        return self.classes[i]

    @property
    def union_mask(self) -> int:
        union = 0
        for c in self.classes:
            union |= c.mask
        return union

    def operators(self) -> tuple[PauliOperator, ...]:
        return tuple(
            PauliOperator.from_key(self.n, k) for k in keys_of_mask(self.union_mask)
        )


def _exact_cover(n: int, seeds: Sequence[CommutingClass]) -> ClassSet:
    """Complete the seed classes to a complete set by exact-cover backtracking.

    The smallest uncovered operator is covered first, by the first class of
    the canonical family that fits (Knuth's Algorithm X without the dancing
    links); the first full partition found wins, so the result is
    deterministic. The seeds come first in the returned order.
    """
    by_low: dict[int, list[int]] = {}  # family masks by their lowest set bit
    for mask in all_maximal_classes(n):
        by_low.setdefault(mask & -mask, []).append(mask)
    chosen: list[int] = []

    def fill(remaining: int) -> bool:
        if remaining == 0:
            return True
        for mask in by_low.get(remaining & -remaining, ()):
            if mask & ~remaining:
                continue
            chosen.append(mask)
            if fill(remaining & ~mask):
                return True
            chosen.pop()
        return False

    remaining = full_mask(n)
    for c in seeds:
        remaining &= ~c.mask
    if not fill(remaining):
        raise ValueError(f"no complete set on {n} qubits contains the seed classes")
    rest = tuple(class_from_mask(n, mask) for mask in chosen)
    return ClassSet(n, tuple(seeds) + rest, complete=True)


def complete_set_from_two(c1: CommutingClass, c2: CommutingClass) -> ClassSet:
    """Extend two disjoint maximal classes to a complete set (1 to 4 qubits).

    The seeds stay first; the remaining classes come from the exact cover.
    On two qubits the completion is unique, on more qubits it is the first
    one in the cover's search order.
    """
    if c1.n != c2.n:
        raise ValueError("classes act on different qubit counts")
    if not disjoint(c1, c2):
        raise ValueError("seed classes are not disjoint")
    return _exact_cover(c1.n, (c1, c2))


@lru_cache(maxsize=None)
def canonical_complete_set(n: int) -> ClassSet:
    """A fixed, deterministic complete set for each supported qubit count.

    Two and three qubits: the pinned listings CANONICAL_D4_COMPLETE and
    CANONICAL_D8_GENERATORS. Four qubits: the unseeded exact cover over the
    canonical class family; nothing distinguishes this choice, so consumers
    must embed it rather than assume it.
    """
    if n == 2:
        return ClassSet(
            2,
            tuple(class_from_strings(group) for group in CANONICAL_D4_COMPLETE),
            complete=True,
        )
    if n == 3:
        return ClassSet(
            3,
            tuple(
                class_from_generators([pauli_from_string(s) for s in gens])
                for gens in CANONICAL_D8_GENERATORS
            ),
            complete=True,
        )
    if n == 4:
        return _exact_cover(4, ())
    raise ValueError("canonical complete sets cover 2, 3 or 4 qubits")


def classes_to_json(cs: ClassSet) -> dict:
    return {
        "n": cs.n,
        "classes": [class_to_json(c) for c in cs.classes],
        "complete": cs.complete,
    }


def class_to_json(c: CommutingClass) -> dict:
    return {
        "n": c.n,
        "generators": [g.to_string() for g in c.generators],
        "elements": list(c.letters()),
    }


def class_from_json(data: dict) -> CommutingClass:
    cls = class_from_generators(
        [pauli_from_string(s) for s in data["generators"]]
    )
    if list(cls.letters()) != list(data["elements"]):
        raise ValueError("class elements do not match the closure of generators")
    return cls


def classes_from_json(data: dict) -> ClassSet:
    return ClassSet(
        int(data["n"]),
        tuple(class_from_json(c) for c in data["classes"]),
        complete=bool(data["complete"]),
    )
