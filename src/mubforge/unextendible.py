"""Unextendible class sets: constructions, exhaustive checks, the scanner, KS contexts.

A set of disjoint maximal commuting classes is (weakly) unextendible when no
further maximal class can be formed from the operators outside the set. The
searches here are exhaustive: every maximal commuting class on n qubits is
known (see mubforge.search). Every "which classes fit inside this
universe" query is one filter of that family and answers with the classes
it found, so an empty answer from ``extendibility_check`` is the
weak-unextendibility certificate.

Questions asked of many sub-collections of one complete set read its owner
census instead. Inside a complete set every nonidentity operator belongs
to exactly one class, so each maximal class has an owner mask: the set of
complete-set classes its operators come from. A sub-collection is a mask C
of the same kind. A class lies inside the union of C iff its owner is a
subset of C, and C owns it iff its owner equals C. The census's
``spanning`` table counts the classes each C owns: a flat ``array`` of
2**len(parts) 16-bit counts indexed by C, 256 KiB at n = 4.

The swap construction has one rule at every n, held by the census: a
choice C of ``swap_size`` = 2**(n-1) + 1 classes is a valid swap when it
owns exactly one class, and ``OwnerCensus.swaps`` maps each valid C to that
class. The construction trades C for it, and the scanner counts and checks
the same swaps. ``count_extras(census)`` lifts each owner to its supersets
of ``swap_size`` classes, so its cost follows the answers it finds, not
the 2**(2**n + 1) possible sub-collections, and counts the lifts in a
second table of the same shape. The same pass checks every swap, since a
class fits inside the union of C minus the traded class exactly when its
owner lies inside C and it shares no operator with the traded class. So
the scan keeps its 24,310 choice masks in a 4-byte array (a sampled scan
only the positions numpy's generator picks from it) and reads two counts
for each. Its working set, measured with ``tracemalloc`` once the family
and the census are cached, is about 0.7 MiB.

On two qubits, any three classes of a complete set admit exactly one extra
class inside their union, and no weakly unextendible four-set exists; the
tests confirm the latter by direct enumeration, since no command needs it.
On three qubits, five classes admit exactly one extra class while every
other count admits none; the tests count this from the owner census. So at
n <= 3 every choice is a valid swap and its owned class is the one extra
class in its union, a tested fact rather than the rule. On four qubits a
nine-class union also holds the extra classes of its smaller
sub-collections, and 1870 of the 24,310 choices own exactly one class; the
rest own none. The four-qubit scanner gathers evidence for the analogous
statement, which is an open conjecture; its report never claims more than
the counts it observed.

The nine operators of an unextendible two-qubit triple split a second way,
into the three extra classes within its union, each taking one operator
from every class of the triple (``ks_alternate_partition``). Each operator
then lies in two of the six contexts, so when an odd number of the context
products are minus the identity (``context_sign``) no noncontextual value
assignment exists: a state-independent Kochen-Specker proof. The tests
check all 20 unextendible triples among the 80 disjoint two-qubit triples:
each gives three contexts that cover its nine operators, with odd parity,
and the 60 extendible triples are refused. No command needs the paper's
d = 8 double contexts, so only the tests check them, as the extra classes
within the five-class set's union.

Each call returns only what it computed: ``build_unextendible_set`` the
unextendible class set itself, the unchosen classes in their order and the
owned class last, ``conjecture_scan`` the counts, not the budget or seed it
was given, and ``ks_alternate_partition`` the three alternate contexts,
whose signs ``context_sign`` gives one by one. The certificates record
those inputs, and the sign parity, beside the result.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from mubforge.classes import (
    ClassSet,
    CommutingClass,
    canonical_complete_set,
    class_from_mask,
)
from mubforge.pauli import multiply
from mubforge.search import all_maximal_classes, classes_within_mask, full_mask


def extra_classes_within_union(cs: ClassSet) -> tuple[CommutingClass, ...]:
    """All maximal commuting classes formable from the union of ``cs``.

    The input classes themselves are excluded.
    """
    own = {c.mask for c in cs}
    return tuple(
        class_from_mask(cs.n, mask)
        for mask in classes_within_mask(cs.n, cs.union_mask)
        if mask not in own
    )


def extendibility_check(cs: ClassSet) -> tuple[CommutingClass, ...]:
    """All maximal classes formable from the operators outside ``cs``.

    An empty answer is the weak-unextendibility certificate for ``cs``.
    """
    leftover = full_mask(cs.n) & ~cs.union_mask
    return tuple(
        class_from_mask(cs.n, mask) for mask in classes_within_mask(cs.n, leftover)
    )


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


def build_unextendible_set(complete: ClassSet, chosen: Sequence[int]) -> ClassSet:
    """Trade the chosen classes of a complete set for the one class they own.

    ``chosen`` selects ``swap_size`` = 2**(n-1) + 1 classes, and the swap
    takes the class the owner census's ``swaps`` maps them to: the sole
    maximal class drawing from every chosen class and from no other. The
    unchosen classes in their order, then that class last, form an
    unextendible set, which is certified here by an extendibility check. A
    choice that owns no class, or several, is refused with ValueError, as
    is a result the check finds extendible or a set that is not complete.
    """
    n = complete.n
    chosen = tuple(chosen)
    if len(set(chosen)) != len(chosen) or any(not 0 <= i < len(complete) for i in chosen):
        raise ValueError("chosen indices repeat or fall outside the complete set")
    census = owner_census(complete)
    if len(chosen) != census.swap_size:
        raise ValueError(
            f"need exactly {census.swap_size} chosen classes at n={n}, got {len(chosen)}"
        )
    owned = census.swaps.get(sum(1 << i for i in chosen))
    if owned is None:
        raise ValueError("the chosen classes do not own exactly one spanning class")
    rest = tuple(c for i, c in enumerate(complete) if i not in chosen)
    result = ClassSet(n, (*rest, class_from_mask(n, all_maximal_classes(n)[owned])))
    if extendibility_check(result):
        raise ValueError("the swapped set is extendible")
    return result


class ConjectureScanReport(NamedTuple):
    """Evidence-only census of extra classes over nine-class choices at n=4.

    The underlying statement is an open conjecture; this report records what
    the scan observed and nothing more. Two counts are kept per choice: all
    classes inside the union beyond the nine chosen, and the spanning ones
    that draw operators from every chosen class (the shape the proven lower
    dimensional statements have). A class confined to a proper
    sub-collection is that sub-collection's extra class and reappears inside
    every larger union, which is why the census statements count spanning
    classes. Whenever a choice admits exactly one spanning class, the
    swapped nine-set (spanning class plus the eight unchosen ones) gets an
    exact extendibility check. Its leftover operators are the union of the
    choice minus the spanning class, so a class fits there exactly when its
    owner lies inside the choice and it misses the spanning class; the
    extras lifted into the choice, tested against the spanning class as
    they are counted, and the chosen classes themselves are all the
    candidates.
    """

    exhaustive: bool
    subsets_scanned: int
    within_union_distribution: dict[int, int]
    spanning_distribution: dict[int, int]
    swap_passes: int
    swap_failures: tuple[tuple[int, ...], ...]


def conjecture_scan(
    budget: Optional[int] = None, seed: int = 0
) -> ConjectureScanReport:
    """Scan nine-class choices from the canonical four-qubit complete set.

    ``budget=None`` scans all 24,310 choices; otherwise ``budget`` distinct
    choices are sampled deterministically from ``seed``. The report carries
    full count distributions and never asserts the conjectured value.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    complete = canonical_complete_set(4)
    census = owner_census(complete)
    size = census.swap_size
    # every choice as a bit mask, in itertools.combinations order (the bits
    # are distinct, so their sum is their union)
    bits = [1 << i for i in range(len(complete))]
    total = comb(len(bits), size)
    # 4 bytes per choice, read once by each count below
    subsets = array("I", map(sum, combinations(bits, size)))
    exhaustive = budget is None or budget >= total
    if not exhaustive:
        import numpy as np  # its generator fixes which choices a seed samples

        picks = np.random.default_rng(seed).choice(total, size=budget, replace=False)
        subsets = array("I", map(subsets.__getitem__, sorted(picks.tolist())))

    table = count_extras(census)
    within = Counter(map(table.within.__getitem__, subsets))
    owned = Counter(map(census.spanning.__getitem__, subsets))
    failures = [
        tuple(i for i in range(len(complete)) if c >> i & 1)
        for c in filter(table.failed_swaps.__contains__, subsets)
    ]
    return ConjectureScanReport(
        exhaustive=exhaustive,
        subsets_scanned=within.total(),
        within_union_distribution=dict(sorted(within.items())),
        spanning_distribution=dict(sorted(owned.items())),
        swap_passes=owned[1] - len(failures),
        swap_failures=tuple(failures),
    )


def context_sign(context: CommutingClass) -> int:
    """Ordered product of the Hermitian representatives as +/- identity.

    Members commute, so the outcome does not depend on the order.
    """
    ordered = context.sorted_elements
    prod = ordered[0]
    for op in ordered[1:]:
        prod = multiply(prod, op)
    if not prod.is_projective_identity or prod.phase % 2:
        raise ValueError("context product is not plus or minus identity")
    return 1 if prod.phase == 0 else -1


def ks_alternate_partition(cs: ClassSet) -> tuple[CommutingClass, ...]:
    """Second partition of an unextendible two-qubit triple's nine operators.

    The new contexts are the extra classes within the union, ordered by
    their lowest operator key. Each takes one operator from each original
    class, since two operators of one class would bring in their product
    and make it that class. Extendible triples do not admit such a
    partition and are rejected.
    """
    if cs.n != 2 or len(cs) != 3:
        raise ValueError("expected a triple of two-qubit classes")
    if extendibility_check(cs):
        raise ValueError("triple is extendible; no alternate partition exists")
    return tuple(sorted(extra_classes_within_union(cs), key=lambda c: c.mask & -c.mask))
