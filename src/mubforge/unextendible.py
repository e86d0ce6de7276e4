"""Unextendible class sets: constructions, exhaustive checks, and the scanner.

A set of disjoint maximal commuting classes is (weakly) unextendible when no
further maximal class can be formed from the operators outside the set. The
searches here are exhaustive: every maximal commuting class on n qubits is
known (see mubforge.search). Every "which classes fit inside this
universe" query is one filter of that family and answers with the classes
it found, so an empty answer from ``extendibility_check`` is the
weak-unextendibility certificate. The scanner, which asks the same
question of many sub-collections of one complete set, reads every answer
from that set's owner-mask census instead: which complete-set classes each
maximal class draws from, lifted to the sub-collections of the census's
``swap_size`` whose union holds it. ``count_extras(census)`` counts the
lifts in one flat table indexed by the sub-collection mask and, in the same
pass, finds the swaps of the census whose traded set is extendible; the
census counts the classes each choice owns in a second table. So the scan
keeps its 24,310 choice masks in a 4-byte array (a sampled scan only the
positions numpy's generator picks from it) and reads two counts for each.
The scan's working set, measured with ``tracemalloc`` once the family and
the census are cached, is about 0.7 MiB.

The swap construction has one rule at every n, read from the same
census: a choice C of 2**(n-1) + 1 classes of a complete set owns a maximal
class when that class's owner mask equals C, and the swap of C is valid
when C owns exactly one class. The census holds that size as
``swap_size`` and the valid swaps as ``swaps``, each choice mapped to the
class it owns. The construction trades C for that class, and the scanner
counts and checks the same swaps.

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

Each call returns only what it computed: ``build_unextendible_set`` the
unextendible class set itself, the unchosen classes in their order and the
owned class last, and ``conjecture_scan`` the counts, not the budget or
seed it was given. The certificates record those inputs beside the result.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional, Sequence

from mubforge.classes import (
    ClassSet,
    CommutingClass,
    canonical_complete_set,
    class_from_mask,
)
from mubforge.search import (
    all_maximal_classes,
    classes_within_mask,
    count_extras,
    full_mask,
    owner_census,
)


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
