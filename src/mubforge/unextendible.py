"""Unextendible class sets: constructions, exhaustive checks, and the scanner.

A set of disjoint maximal commuting classes is (weakly) unextendible when no
further maximal class can be formed from the operators outside the set. The
searches here are exhaustive: every maximal commuting class on n qubits is
known (see mubforge.search). Every "which classes fit inside this
universe" query is one filter of that family. The census and the scanner,
which ask the same question of many sub-collections of one complete set,
read every answer from that set's owner-mask census instead: one histogram
of which complete-set classes each maximal class draws from, plus its
subset-sum transform.

On two qubits, any three classes of a complete set admit exactly one extra
class inside their union, and no unextendible four-set exists. On three
qubits, five classes admit exactly one extra class while every other count
admits none. The four-qubit scanner gathers evidence for the analogous
statement, which is an open conjecture; its report never claims more than
the counts it observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Optional, Sequence

import numpy as np

from mubforge.classes import (
    ClassSet,
    CommutingClass,
    _class_from_record,
    canonical_complete_set,
    disjoint,
)
from mubforge.pauli import ProjectivePauli
from mubforge.search import (
    all_maximal_classes,
    classes_within_mask,
    keys_of_mask,
    owner_census,
    pauli_index,
)

UniverseTag = Literal["within-union", "remaining-operators"]

WITHIN_UNION: UniverseTag = "within-union"
REMAINING_OPERATORS: UniverseTag = "remaining-operators"


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of an exhaustive extra-class search over a declared universe."""

    input: ClassSet
    universe: UniverseTag
    found: tuple[CommutingClass, ...]
    exhaustive: bool

    @property
    def universe_mask(self) -> int:
        union = self.input.union_mask
        if self.universe == WITHIN_UNION:
            return union
        return pauli_index(self.input.n).full_mask & ~union

    def universe_operators(self) -> tuple[ProjectivePauli, ...]:
        n = self.input.n
        return tuple(
            ProjectivePauli.from_key(n, k) for k in keys_of_mask(self.universe_mask)
        )

    @property
    def is_empty(self) -> bool:
        return not self.found


@dataclass(frozen=True)
class Provenance:
    """Where an unextendible set came from: a complete set and chosen indices."""

    complete: ClassSet
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class UnextendibleSet:
    """A class set certified unextendible by an empty extendibility report."""

    classes: ClassSet
    provenance: Optional[Provenance]
    extra_class: CommutingClass
    extendibility: ExtensionReport


def _classes_within(
    n: int, universe_mask: int, exclude_masks: frozenset[int] = frozenset()
) -> tuple[CommutingClass, ...]:
    return tuple(
        _class_from_record(n, rec)
        for rec in classes_within_mask(n, universe_mask)
        if rec.mask not in exclude_masks
    )


def extra_classes_within_union(cs: ClassSet) -> ExtensionReport:
    """All maximal commuting classes formable from the union of ``cs``.

    The input classes themselves are excluded.
    """
    found = _classes_within(cs.n, cs.union_mask, frozenset(c.mask for c in cs))
    return ExtensionReport(cs, WITHIN_UNION, found, exhaustive=True)


def extendibility_check(cs: ClassSet) -> ExtensionReport:
    """All maximal classes formable from the operators outside ``cs``.

    An empty report is the weak-unextendibility certificate for ``cs``.
    """
    universe = pauli_index(cs.n).full_mask & ~cs.union_mask
    found = _classes_within(cs.n, universe)
    return ExtensionReport(cs, REMAINING_OPERATORS, found, exhaustive=True)


def build_unextendible_set(
    complete: ClassSet, chosen: Sequence[int]
) -> UnextendibleSet:
    """Trade the chosen half of a complete set for its unique extra class.

    ``chosen`` selects 2**(n-1) + 1 classes. Their union supports exactly one
    further maximal class S; S together with the unchosen classes is an
    unextendible set, which is certified here by an extendibility check.
    """
    if not complete.complete:
        raise ValueError("provenance requires a complete class set")
    n = complete.n
    expected = (1 << (n - 1)) + 1
    chosen = tuple(chosen)
    if len(set(chosen)) != len(chosen):
        raise ValueError("chosen indices repeat")
    if any(not 0 <= i < len(complete) for i in chosen):
        raise ValueError("chosen index out of range")
    if len(chosen) != expected:
        raise ValueError(
            f"need exactly {expected} chosen classes at n={n}, got {len(chosen)}"
        )
    sub = ClassSet(n, tuple(complete[i] for i in chosen))
    report = extra_classes_within_union(sub)
    if len(report.found) != 1:
        raise RuntimeError(
            f"expected exactly one extra class, found {len(report.found)}; "
            "the construction's uniqueness guarantee is violated"
        )
    extra = report.found[0]
    rest = tuple(c for i, c in enumerate(complete) if i not in chosen)
    result = ClassSet(n, rest + (extra,))
    ext = extendibility_check(result)
    if not ext.is_empty:
        raise RuntimeError("constructed set is extendible; construction is broken")
    return UnextendibleSet(result, Provenance(complete, chosen), extra, ext)


def _weak4_candidates(complete: ClassSet, i: int, j: int) -> list[CommutingClass]:
    """Candidate third classes disjoint from classes i and j.

    This mirrors the uniqueness argument: candidates are the three remaining
    classes of the complete set plus the single extra class their union
    supports.
    """
    others = tuple(c for k, c in enumerate(complete) if k not in (i, j))
    report = extra_classes_within_union(ClassSet(complete.n, others))
    return list(others) + list(report.found)


def verify_no_weak_4set_d4(complete: ClassSet) -> bool:
    """Exhaustively confirm that no four-class set is weakly unextendible.

    For every pair of classes from the complete two-qubit set, every pair of
    disjoint maximal classes formable from the remaining operators must leave
    an extendible four-set (adding its extra class recovers a complete set).
    """
    if complete.n != 2 or not complete.complete:
        raise ValueError("requires a complete two-qubit class set")
    for i, j in combinations(range(len(complete)), 2):
        candidates = _weak4_candidates(complete, i, j)
        examined = 0
        for ca, cb in combinations(candidates, 2):
            if not disjoint(ca, cb):
                continue
            four = ClassSet(2, (complete[i], complete[j], ca, cb))
            examined += 1
            if extendibility_check(four).is_empty:
                return False
        if examined == 0:
            raise RuntimeError("vacuous search: no disjoint candidate pair examined")
    return True


def _subset_mask(indices: Sequence[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _distribution(counts: np.ndarray) -> dict[int, int]:
    values, freq = np.unique(counts, return_counts=True)
    return {int(v): int(f) for v, f in zip(values, freq)}


def theorem4_census(complete: ClassSet, k: int) -> int:
    """Max count of spanning extra classes over all k-subsets of a d=8 set.

    A spanning extra class uses operators of every chosen class. Exactly one
    exists for every choice of five classes, none for any other k: with
    seven commuting slots to fill from k disjoint classes, the class-wise
    intersection sizes must be 1 or 3, and only 3+1+1+1+1 adds up.
    """
    if complete.n != 3 or not complete.complete:
        raise ValueError("requires a complete three-qubit class set")
    if not 2 <= k <= 7:
        raise ValueError(f"subset size must be in [2, 7], got {k}")
    census = owner_census(3, tuple(c.mask for c in complete))
    return max(
        int(census.spanning[_subset_mask(subset)])
        for subset in combinations(range(len(complete)), k)
    )


@dataclass(frozen=True)
class ConjectureScanReport:
    """Evidence-only census of extra classes over nine-class choices at n=4.

    The underlying statement is an open conjecture; this report records what
    the scan observed and nothing more. Two counts are kept per choice: all
    classes inside the union beyond the nine chosen, and the spanning ones
    that draw operators from every chosen class (the shape the proven lower
    dimensional statements have). A class confined to a proper
    sub-collection is that sub-collection's extra class and reappears inside
    every larger union, which is why the census statements count spanning
    classes. Whenever a choice admits exactly one spanning class, the
    swapped nine-set (spanning class plus the eight unchosen ones) is put
    through a full extendibility check.
    """

    n: int
    seed: int
    budget: Optional[int]
    exhaustive: bool
    subsets_scanned: int
    within_union_distribution: dict[int, int]
    spanning_distribution: dict[int, int]
    swap_passes: int
    swap_failures: tuple[tuple[int, ...], ...]

    @property
    def conjecture_consistent(self) -> bool:
        """True only if every scanned choice behaved as conjectured."""
        return (
            self.spanning_distribution == {1: self.subsets_scanned}
            and not self.swap_failures
        )


def conjecture_scan(
    n: int = 4, budget: Optional[int] = None, seed: int = 0
) -> ConjectureScanReport:
    """Scan nine-class choices from the canonical four-qubit complete set.

    ``budget=None`` scans all C(17, 9) choices; otherwise ``budget`` distinct
    choices are sampled deterministically from ``seed``. The report carries
    full count distributions and never asserts the conjectured value.
    """
    if n != 4:
        raise ValueError("the scanner targets four qubits")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    complete = canonical_complete_set(4)
    masks = [c.mask for c in complete]
    full = pauli_index(4).full_mask
    combos = list(combinations(range(len(complete)), 9))
    if budget is None or budget >= len(combos):
        selected = combos
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(combos), size=budget, replace=False)
        selected = [combos[i] for i in sorted(picks)]
        exhaustive = False

    census = owner_census(4, tuple(masks))
    records = all_maximal_classes(4)
    subsets = np.array([_subset_mask(combo) for combo in selected], dtype=np.int32)
    within = census.within[subsets]
    spanning = census.spanning[subsets]
    passes = 0
    failures: list[tuple[int, ...]] = []
    for pos in np.flatnonzero(spanning == 1):
        combo = selected[pos]
        # the one spanning class is the record whose owner is this choice
        owned = np.flatnonzero(census.owners == subsets[pos])
        swapped_union = records[owned[0]].mask
        for idx in range(len(complete)):
            if idx not in combo:
                swapped_union |= masks[idx]
        leftover = full & ~swapped_union
        if not classes_within_mask(4, leftover):
            passes += 1
        else:
            failures.append(combo)
    return ConjectureScanReport(
        n=4,
        seed=seed,
        budget=budget,
        exhaustive=exhaustive,
        subsets_scanned=len(selected),
        within_union_distribution=_distribution(within),
        spanning_distribution=_distribution(spanning),
        swap_passes=passes,
        swap_failures=tuple(failures),
    )
