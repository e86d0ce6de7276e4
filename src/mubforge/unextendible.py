"""Unextendible class sets: constructions, exhaustive checks, and the scanner.

A set of disjoint maximal commuting classes is (weakly) unextendible when no
further maximal class can be formed from the operators outside the set. The
searches here are exhaustive: every maximal commuting class on n qubits is
known (see mubforge.search). Every "which classes fit inside this
universe" query is one filter of that family. The census and the scanner,
which ask the same question of many sub-collections of one complete set,
read every answer from that set's owner-mask census instead: which
complete-set classes each maximal class draws from, lifted to the
sub-collections whose union holds it.

On two qubits, any three classes of a complete set admit exactly one extra
class inside their union, and no unextendible four-set exists. On three
qubits, five classes admit exactly one extra class while every other count
admits none. The four-qubit scanner gathers evidence for the analogous
statement, which is an open conjecture; its report never claims more than
the counts it observed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Optional, Sequence

from mubforge.classes import (
    ClassSet,
    CommutingClass,
    canonical_complete_set,
    class_from_mask,
    disjoint,
)
from mubforge.pauli import PauliOperator
from mubforge.search import (
    classes_fit_in_union_minus,
    classes_within_mask,
    extras_within,
    full_mask,
    keys_of_mask,
    owner_census,
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
        return full_mask(self.input.n) & ~union

    def universe_operators(self) -> tuple[PauliOperator, ...]:
        n = self.input.n
        return tuple(
            PauliOperator.from_key(n, k) for k in keys_of_mask(self.universe_mask)
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
    provenance: Provenance
    extra_class: CommutingClass
    extendibility: ExtensionReport


def _classes_within(
    n: int, universe_mask: int, exclude_masks: frozenset[int] = frozenset()
) -> tuple[CommutingClass, ...]:
    return tuple(
        class_from_mask(n, mask)
        for mask in classes_within_mask(n, universe_mask)
        if mask not in exclude_masks
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
    universe = full_mask(cs.n) & ~cs.union_mask
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


def _distribution(counts: Sequence[int]) -> dict[int, int]:
    return dict(sorted(Counter(counts).items()))


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
    # the spanning classes of a choice C are those whose owner is C
    owners = owner_census(3, tuple(c.mask for c in complete)).owners
    return max(Counter(o for o in owners if o.bit_count() == k).values(), default=0)


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
    swapped nine-set (spanning class plus the eight unchosen ones) gets an
    exact extendibility check. Its leftover operators are the union of the
    choice minus the spanning class, so a class fits there exactly when its
    owner lies inside the choice and it misses the spanning class; the
    extras the census found inside the choice, with the chosen classes
    themselves, are all the candidates.
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
    # every nine-class choice as a bit mask, in itertools.combinations order
    # (the bits are distinct, so their sum is their union)
    bits = [1 << i for i in range(len(complete))]
    choices = list(map(sum, combinations(bits, 9)))
    if budget is None or budget >= len(choices):
        subsets = choices
        exhaustive = True
    else:
        import numpy as np  # its generator fixes which choices a seed samples

        picks = np.random.default_rng(seed).choice(
            len(choices), size=budget, replace=False
        )
        subsets = [choices[i] for i in sorted(picks.tolist())]
        exhaustive = False

    census = owner_census(4, tuple(c.mask for c in complete))
    extras = extras_within(census, subsets)
    owned: dict[int, list[int]] = {}  # owner -> the family indices it owns
    for i, owner in enumerate(census.owners):
        owned.setdefault(owner, []).append(i)
    # the spanning classes of a choice C are the classes C owns; with exactly
    # one, S, the swapped set is extendible exactly when some class fits in
    # the union of C minus S
    spanning = [len(owned.get(c, ())) for c in subsets]
    one = [c for c, count in zip(subsets, spanning) if count == 1]
    fits = classes_fit_in_union_minus(census, one, extras, [owned[c][0] for c in one])
    failures = [
        tuple(i for i in range(len(complete)) if c >> i & 1)
        for c, fit in zip(one, fits)
        if fit
    ]
    return ConjectureScanReport(
        n=4,
        seed=seed,
        budget=budget,
        exhaustive=exhaustive,
        subsets_scanned=len(subsets),
        within_union_distribution=_distribution([len(extras[c]) for c in subsets]),
        spanning_distribution=_distribution(spanning),
        swap_passes=spanning.count(1) - len(failures),
        swap_failures=tuple(failures),
    )
