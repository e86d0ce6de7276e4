"""Bit-mask search engine over the canonical Pauli enumeration.

Nonidentity projective operators are addressed by ``key - 1`` where
``key = (x << n) | z``, so a set of operators is one Python integer and a
subset test is a single AND. Maximal commuting classes are the Lagrangian
subgroups of the symplectic space; for n <= 4 there are only 15, 135 and
2295 of them, so they are enumerated once per qubit count. A single
containment query ("which classes fit inside this operator set") is a
filter over that cached family.

Census queries over the sub-collections of a complete set use owner masks
instead. Inside a fixed complete set every nonidentity operator belongs to
exactly one class, so each maximal class has an owner mask: the set of
complete-set classes its operators come from. A class lies inside the union
of a sub-collection C iff its owner is a subset of C, and it draws from
every class of C iff its owner equals C. One histogram of owner masks and
one subset-sum transform over its 2**(2**n + 1) entries then answer the
census counts of every sub-collection at once.

The family itself comes from a depth-first enumeration of canonical
generator chains, which can also be restricted to any universe; the tests
use that restricted enumeration as the oracle for the filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_SEARCH_QUBITS = 4

_LIMBS = 4  # 4 * 64 bits cover the 255 operators at n = 4


def _parity(v: int) -> int:
    return v.bit_count() & 1


@dataclass(frozen=True)
class ClassRecord:
    """One maximal commuting class as canonical element keys plus a bit mask."""

    elements: tuple[int, ...]
    mask: int


class PauliIndex:
    """Per-qubit-count tables: commutation adjacency and the class family."""

    __slots__ = ("n", "count", "full_mask", "comm")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_SEARCH_QUBITS:
            raise ValueError(
                f"class searches support 1..{MAX_SEARCH_QUBITS} qubits, got {n}"
            )
        self.n = n
        self.count = (1 << (2 * n)) - 1
        self.full_mask = (1 << self.count) - 1
        nbits = (1 << n) - 1
        xs = [key >> n for key in range(1, self.count + 1)]
        zs = [key & nbits for key in range(1, self.count + 1)]
        comm = [0] * self.count
        for i in range(self.count):
            xi, zi = xs[i], zs[i]
            row = 1 << i
            for j in range(i + 1, self.count):
                if (_parity(xi & zs[j]) ^ _parity(xs[j] & zi)) == 0:
                    row |= 1 << j
                    comm[j] |= 1 << i
            comm[i] |= row
        self.comm = comm


@lru_cache(maxsize=None)
def pauli_index(n: int) -> PauliIndex:
    return PauliIndex(n)


def mask_of_keys(keys) -> int:
    mask = 0
    for k in keys:
        mask |= 1 << (k - 1)
    return mask


def keys_of_mask(mask: int) -> list[int]:
    keys = []
    while mask:
        low = mask & -mask
        keys.append(low.bit_length())
        mask ^= low
    return keys


def enumerate_classes_in(n: int, universe_mask: int) -> list[ClassRecord]:
    """All maximal commuting classes whose closure lies inside the universe.

    Depth-first search over canonical generator chains: each class is
    produced exactly once, from the chain whose k-th generator is the
    smallest class element outside the span of the previous ones. Candidate
    generators must commute with the current span, exceed the previous
    generator, and keep the whole closure inside the universe.
    """
    idx = pauli_index(n)
    comm = idx.comm
    depth_target = n
    results: list[ClassRecord] = []

    def extend(span_keys: tuple[int, ...], span_mask: int, cand: int, depth: int):
        if depth == depth_target:
            results.append(ClassRecord(tuple(sorted(span_keys)), span_mask))
            return
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            gk = low.bit_length()
            new_keys = [gk]
            ok = True
            for s in span_keys:
                t = gk ^ s
                # canonical chain: gk must open its coset; closure stays inside
                if t < gk or not (universe_mask >> (t - 1)) & 1:
                    ok = False
                    break
                new_keys.append(t)
            if not ok:
                continue
            new_mask = span_mask
            for t in new_keys:
                new_mask |= 1 << (t - 1)
            above = -1 << gk  # bits strictly greater than index gk - 1
            next_cand = cand & comm[gk - 1] & above & ~new_mask
            extend(span_keys + tuple(new_keys), new_mask, next_cand, depth + 1)

    rest = universe_mask
    while rest:
        low = rest & -rest
        rest ^= low
        gk = low.bit_length()
        above = -1 << gk
        extend((gk,), low, universe_mask & comm[gk - 1] & above, 1)
    results.sort(key=lambda r: r.elements)
    return results


@lru_cache(maxsize=None)
def all_maximal_classes(n: int) -> tuple[ClassRecord, ...]:
    """Every maximal commuting class on n qubits, canonically ordered."""
    return tuple(enumerate_classes_in(n, pauli_index(n).full_mask))


@lru_cache(maxsize=None)
def _class_mask_matrix(n: int) -> np.ndarray:
    records = all_maximal_classes(n)
    mat = np.zeros((len(records), _LIMBS), dtype=np.uint64)
    for i, rec in enumerate(records):
        m = rec.mask
        for limb in range(_LIMBS):
            mat[i, limb] = (m >> (64 * limb)) & 0xFFFFFFFFFFFFFFFF
    return mat


def _mask_limbs(mask: int) -> np.ndarray:
    return np.array(
        [(mask >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(_LIMBS)],
        dtype=np.uint64,
    )


def classes_within_mask(n: int, universe_mask: int) -> list[ClassRecord]:
    """Maximal commuting classes entirely contained in the universe mask."""
    records = all_maximal_classes(n)
    hits = np.flatnonzero(
        ((_class_mask_matrix(n) & ~_mask_limbs(universe_mask)) == 0).all(axis=1)
    )
    return [records[i] for i in hits]


@dataclass(frozen=True)
class OwnerCensus:
    """Extra-class counts for every sub-collection of one complete set.

    ``owners[i]`` is the owner mask of ``all_maximal_classes(n)[i]``. Both
    count arrays are indexed by a sub-collection mask C (bit j set when
    complete-set class j is chosen) and leave out the complete-set classes
    themselves: ``within[C]`` counts the extra classes inside the union of
    C, ``spanning[C]`` those that use operators of every class in C.
    """

    owners: np.ndarray
    within: np.ndarray
    spanning: np.ndarray


@lru_cache(maxsize=16)  # about 1 MB per four-qubit complete set
def owner_census(n: int, part_masks: tuple[int, ...]) -> OwnerCensus:
    """Owner-mask census of the complete set whose class masks are given."""
    size = (1 << n) - 1
    union = 0
    for m in part_masks:
        union |= m
    if (
        len(part_masks) != size + 2
        or any(m.bit_count() != size for m in part_masks)
        or union != pauli_index(n).full_mask
    ):
        raise ValueError(
            f"part masks do not partition the operators into {size + 2} classes"
        )
    k = len(part_masks)
    parts = np.stack([_mask_limbs(m) for m in part_masks])
    uses = ((_class_mask_matrix(n)[:, None, :] & parts[None, :, :]) != 0).any(axis=2)
    owners = (uses.astype(np.int32) << np.arange(k, dtype=np.int32)).sum(
        axis=1, dtype=np.int32
    )
    # a single-bit owner is a complete-set class itself, not an extra class
    extras = owners[(owners & (owners - 1)) != 0]
    spanning = np.bincount(extras, minlength=1 << k).astype(np.int32)
    within = spanning.copy()
    for bit in range(k):  # in-place subset-sum (zeta) transform
        view = within.reshape(-1, 2, 1 << bit)
        view[:, 1, :] += view[:, 0, :]
    for arr in (owners, within, spanning):
        arr.flags.writeable = False
    return OwnerCensus(owners, within, spanning)
