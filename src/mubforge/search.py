"""Class search engine over the canonical Pauli enumeration.

Nonidentity projective operators are addressed by ``key - 1`` where
``key = (x << n) | z``, so a set of operators is one Python integer and a
subset test is a single AND. That mask is the one representation of a class
throughout the package (``CommutingClass.mask``), and ascending bit order is
ascending key order. Maximal commuting classes are the Lagrangian subgroups
of the symplectic space; for n <= 4 there are only 15, 135 and 2295 of them,
so their masks are built once per qubit count, and "which classes fit inside
this universe" is one AND per family member.

Census queries over the sub-collections of a complete set use owner masks
instead. Inside a fixed complete set every nonidentity operator belongs to
exactly one class, so each maximal class has an owner mask: the set of
complete-set classes its operators come from. A class lies inside the
union of a sub-collection C iff its owner is a subset of C, and it draws
from every class of C iff its owner equals C. Answers are counts in flat
``array`` tables of 2**len(parts) entries indexed by the sub-collection
mask: the census's ``spanning`` table counts the classes each C owns. At
n = 4 a table is 2**17 16-bit counts, 256 KiB.

The census also carries the swap rule of the unextendible constructions,
built once beside the owner masks it reads: a choice C of ``swap_size`` =
2**(n-1) + 1 classes owns a class when that class's owner equals C, and
the swap of C is valid when C owns exactly one class
(``OwnerCensus.swaps``). ``count_extras`` takes the census alone: it lifts
each owner to its supersets of ``swap_size`` classes, so its cost follows
the answers it finds, not the 2**(2**n + 1) possible sub-collections, and
the same pass checks every swap, since a class fits inside the union of
C minus the traded class S exactly when its owner lies inside C and it
has no key in S.

The family itself is built in closed form from the quadratic-form picture
of stabilizer states (Dehaene and De Moor, quant-ph/0304125): the
x-projection of a Lagrangian subspace L is a subspace V, and L is
{(x, Bx + w) : x in V, w in V-perp} for one symmetric form B on V. Every
reduced echelon basis of V with every B gives each class exactly once. The
tests keep a depth-first enumeration of canonical generator chains as the
independent oracle.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:  # classes builds on this module
    from mubforge.classes import ClassSet

MAX_SEARCH_QUBITS = 4

# byte b maps to b with its eight bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def full_mask(n: int) -> int:
    """Mask of all 4**n - 1 nonidentity operators on n searchable qubits."""
    if not 1 <= n <= MAX_SEARCH_QUBITS:
        raise ValueError(
            f"class searches support 1..{MAX_SEARCH_QUBITS} qubits, got {n}"
        )
    return (1 << ((1 << (2 * n)) - 1)) - 1


def mask_of_keys(keys) -> int:
    mask = 0
    for k in keys:
        mask |= 1 << (k - 1)
    return mask


def keys_of_mask(mask: int) -> list[int]:
    if mask < 0:
        raise ValueError(f"an operator mask is non-negative, got {mask}")
    keys = []
    while mask:
        low = mask & -mask
        keys.append(low.bit_length())
        mask ^= low
    return keys


def _echelon_bases(n: int):
    """Reduced echelon bases of every subspace V of GF(2)**n, as (pivots, rows).

    Row i leads with bit ``pivots[i]``, which no other row holds; its lower
    bits are free outside the pivots. The reduced echelon form of a subspace
    is unique, so each one comes once.
    """
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            pivot_mask = sum(1 << p for p in pivots)
            options = [
                [v for v in range(1 << p, 2 << p) if v & pivot_mask == 1 << p]
                for p in pivots
            ]
            for rows in product(*options):
                yield pivots, rows


@lru_cache(maxsize=None)
def all_maximal_classes(n: int) -> tuple[int, ...]:
    """Masks of every maximal commuting class on n qubits, canonically ordered.

    The order is ascending by the tuple of ascending element keys.

    For the x-projection V with echelon rows v_i and pivots p_i, a symmetric
    form B is fixed by the z-parts c_i = sum_j B_ij e(p_j) of the generators
    (v_i, c_i), since v_j . c_i = B_ij. Setting B_ij = B_ji flips the z-part
    of the graph element sum_l a_l (v_l, c_l) by a_i e(p_j) | a_j e(p_i), so
    the graphs of all forms come from doubling the graph of B = 0 once per
    entry. Each graph element (x, z) stands for the coset {(x, z + w) : w in
    V-perp}, whose bits are the mask of z + V-perp shifted to x's block of
    2**n keys. Those shifted masks are tabled once per x in V, and each
    class is one sum over the table rows.
    """
    full_mask(n)
    found = []
    for pivots, rows in _echelon_bases(n):
        k = len(pivots)
        perp = [
            w for w in range(1 << n)
            if not any((w & v).bit_count() & 1 for v in rows)
        ]
        coset = [sum(1 << (z ^ w) for w in perp) for z in range(1 << n)]
        xs = [0]
        for v in rows:
            xs += [x ^ v for x in xs]
        # row a: the coset of each z-part in the block of xs[a]
        table = [[c << (x << n) for c in coset] for x in xs]
        graphs = [[0] * len(xs)]  # the z-parts of each graph, in xs order
        for i in range(k):
            for j in range(i, k):
                flip = [
                    (a >> i & 1) << pivots[j] | (a >> j & 1) << pivots[i]
                    for a in range(1 << k)
                ]
                graphs += [[g ^ f for g, f in zip(graph, flip)] for graph in graphs]
        for graph in graphs:  # bit 0 is the identity, which no mask holds
            found.append(sum(map(list.__getitem__, table, graph)) >> 1)
    # A precedes B in key-tuple order exactly when the lowest key in only
    # one of them is in A, so the order is descending on bit-reversed masks.
    # A mask's little-endian bytes, each with its bits reversed, are the
    # big-endian bytes of its reversal, so as bytes they compare the same.
    size = (full_mask(n).bit_length() + 7) // 8
    found.sort(
        key=lambda m: m.to_bytes(size, "little").translate(_REVERSED_BITS),
        reverse=True,
    )
    return tuple(found)


def classes_within_mask(n: int, universe_mask: int) -> list[int]:
    """Masks of the maximal commuting classes contained in the universe mask."""
    family = all_maximal_classes(n)
    if universe_mask < 0 or universe_mask & ~full_mask(n):
        raise ValueError(
            f"universe mask is not a set of nonidentity operators on {n} qubits"
        )
    return [m for m in family if m & universe_mask == m]


class OwnerCensus(NamedTuple):
    """Owner masks of the class family with respect to one complete set.

    ``parts`` are the class masks of the complete set, in its order, and
    ``owners[i]`` is the owner mask of ``all_maximal_classes(n)[i]``: bit j
    is set when the class holds an operator of ``parts[j]``. A
    sub-collection of the complete set is a mask C of the same kind. A
    single-bit owner marks a complete-set class itself; every other class
    is an extra class.

    ``spanning[C]`` counts the extra classes whose owner is C, the ones
    that draw from every class of C: a flat table of 2**len(parts) unsigned
    16-bit entries, since a count never passes the family size (2295 at
    n = 4). C owns those classes. ``swaps`` maps each choice C of
    ``swap_size`` = 2**(n-1) + 1 classes that owns exactly one class to
    that class's family index: the swap of C trades it for that class.
    Both are read-only, since every caller shares the cached census.
    """

    n: int
    parts: tuple[int, ...]
    owners: tuple[int, ...]
    spanning: memoryview
    swap_size: int
    swaps: Mapping[int, int]


@lru_cache(maxsize=16)
def owner_census(complete: ClassSet) -> OwnerCensus:
    """Owner census of a complete class set; any other set is refused."""
    if not complete.complete:
        raise ValueError("an owner census needs a complete class set")
    n, parts = complete.n, tuple(c.mask for c in complete)
    bits = [(1 << j, m) for j, m in enumerate(parts)]
    owners = tuple(
        sum(bit for bit, m in bits if m & cls) for cls in all_maximal_classes(n)
    )
    spanning = array("H", [0]) * (1 << len(parts))
    for owner in owners:
        if owner & (owner - 1):
            spanning[owner] += 1
    size = (1 << (n - 1)) + 1
    swaps = {
        owner: i
        for i, owner in enumerate(owners)
        if owner.bit_count() == size and spanning[owner] == 1
    }
    return OwnerCensus(
        n, parts, owners, memoryview(spanning).toreadonly(), size,
        MappingProxyType(swaps),
    )


class ExtrasTable(NamedTuple):
    """What ``count_extras`` found for the swap-size sub-collections of a census.

    ``within[C]`` is the number of extra classes inside the union of C, for
    every C of ``swap_size`` classes (other entries stay 0).
    ``failed_swaps`` holds the choices of ``swaps`` whose traded set is
    extendible: the union of C, minus the class C is traded for, still
    holds a maximal class.
    """

    within: array
    failed_swaps: frozenset[int]


def count_extras(census: OwnerCensus) -> ExtrasTable:
    """Count the extra classes inside every union of ``swap_size`` classes.

    An extra class lies inside the union of C exactly when its owner is a
    subset of C, so every extra owner of at most ``swap_size`` bits is
    lifted to its supersets of that size and each lift adds one to a flat
    table indexed by the sub-collection mask; an owner of ``swap_size`` bits
    lifts only to itself. The cost is the number of (class,
    sub-collection) pairs, and the memory one table of 2**len(parts)
    counts, however many sub-collections are read back.

    The same pass checks each swap. The classes whose owner lies inside C
    are its extras and its complete-set classes, and one of them fits in
    what is left of the union of C once the traded class is taken out
    exactly when it shares no operator with that class: for a complete-set
    class, when the traded class's owner misses it.
    """
    family = all_maximal_classes(census.n)
    owners, size, swaps = census.owners, census.swap_size, census.swaps
    within = array("H", [0]) * (1 << len(census.parts))
    failed = {c for c, r in swaps.items() if c & ~owners[r]}
    bits = [1 << j for j in range(len(census.parts))]
    for i, owner in enumerate(owners):
        p = owner.bit_count()
        if not 2 <= p <= size:
            continue
        cls = family[i]
        free = [b for b in bits if not owner & b] if p < size else ()
        # the added bits are free, so each sum is a union with the owner
        for c in map(owner.__add__, map(sum, combinations(free, size - p))):
            within[c] += 1
            r = swaps.get(c)
            if r is not None and not cls & family[r]:
                failed.add(c)
    return ExtrasTable(within, frozenset(failed))
