"""Class search engine over the canonical Pauli enumeration.

Nonidentity projective operators are addressed by ``key - 1`` where
``key = (x << n) | z``, so a set of operators is one Python integer and a
subset test is a single AND. That mask is the one representation of a class
throughout the package (``CommutingClass.mask``), and ascending bit order is
ascending key order. Maximal commuting classes are the Lagrangian subgroups
of the symplectic space; for n <= 4 there are only 15, 135 and 2295 of them,
so their key rows are built once per qubit count, and every query is a
gather on those rows through a lookup table indexed by operator key.

Census queries over the sub-collections of a complete set use owner masks
instead. Inside a fixed complete set every nonidentity operator belongs to
exactly one class, so each maximal class has an owner mask: the set of
complete-set classes its operators come from. A class lies inside the union
of a sub-collection C iff its owner is a subset of C, and it draws from
every class of C iff its owner equals C. One histogram of owner masks and
one subset-sum transform over its 2**(2**n + 1) entries then answer the
census counts of every sub-collection at once.

The same owners answer "does any class fit inside the union of C minus one
class S" for many choices at once: such a class has its owner inside C and
no key in S (``classes_fit_in_union_minus``).

The family itself is built in closed form from the quadratic-form picture
of stabilizer states (Dehaene and De Moor, quant-ph/0304125): every
Lagrangian subspace is the graph {(x, Sx)} of a symmetric GF(2) matrix S in
one of the 2**n Hadamard charts. All 2**n x 2**(n(n+1)/2) graphs are
formed as one numpy array and deduplicated. The tests keep a depth-first
enumeration of canonical generator chains as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_SEARCH_QUBITS = 4


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


def _lagrangian_keys(n: int) -> np.ndarray:
    """Element keys of every maximal class, one ascending row per class.

    In the Hadamard chart T (qubits in T have x and z swapped) the graph
    {(u, Su)} of a symmetric GF(2) matrix S is a Lagrangian subspace, and
    every Lagrangian subspace is such a graph in at least one of the 2**n
    charts. The 2**(n(n+1)/2) graphs of each chart are built as one array
    and each row's keys are sorted; a set of the rows as bytes drops the
    graphs that recur across charts, and sorting it gives ascending
    lexicographic order.
    """
    full_mask(n)  # validates n; keys then fit in uint8
    dim = 1 << n
    su = np.zeros((1, dim), dtype=np.uint8)  # row S: S u for u = 0 .. dim - 1
    for i in range(n):
        for j in range(i, n):
            # putting 1 at (i, j) and (j, i) of S flips bit i of S u when u_j
            # is set and bit j when u_i is set; every S gets both versions
            flip = [(v >> j & 1) << i | (v >> i & 1) << j for v in range(dim)]
            su = np.concatenate([su, su ^ np.array(flip, dtype=np.uint8)])
    u = np.arange(1, dim, dtype=np.uint8)  # u = 0 is the identity
    su = su[:, 1:]
    rows: set[bytes] = set()
    for chart in range(dim):  # qubits in ``chart`` have x and z swapped
        kept = (dim - 1) ^ chart
        keys = (((u & kept) | (su & chart)) << n) | (su & kept) | (u & chart)
        keys.sort(axis=1)
        rows.update(keys.view(np.dtype((np.void, dim - 1))).ravel().tolist())
    return np.frombuffer(b"".join(sorted(rows)), dtype=np.uint8).reshape(-1, dim - 1)


@lru_cache(maxsize=None)
def _family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only key rows and membership table of the class family.

    ``keys[i]`` lists the keys of class i in ascending order, and
    ``member[i, key]`` says whether class i holds ``key``.
    """
    keys = _lagrangian_keys(n)
    member = np.zeros((len(keys), 1 << (2 * n)), dtype=bool)
    member[np.arange(len(keys))[:, None], keys] = True
    for arr in (keys, member):
        arr.flags.writeable = False
    return keys, member


def _key_table(n: int, mask: int) -> np.ndarray:
    """An operator mask as a boolean table indexed by key (key 0 is False)."""
    size = 1 << (2 * n)
    data = ((mask << 1) & ((1 << size) - 1)).to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[:size].astype(bool)


@lru_cache(maxsize=None)
def all_maximal_classes(n: int) -> tuple[int, ...]:
    """Masks of every maximal commuting class on n qubits, canonically ordered.

    The order is ascending by the tuple of ascending element keys.
    """
    packed = np.packbits(_family(n)[1], axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") >> 1 for row in packed)


def classes_within_mask(n: int, universe_mask: int) -> list[int]:
    """Masks of the maximal commuting classes contained in the universe mask."""
    keys = _family(n)[0]  # validates n before the key table is sized by it
    inside = _key_table(n, universe_mask)
    # np.take, and a reduction over the leading axis, are numpy's fast forms
    hits = np.flatnonzero(np.take(inside, keys.T).all(axis=0))
    family = all_maximal_classes(n)
    return [family[i] for i in hits]


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
        or union != full_mask(n)
    ):
        raise ValueError(
            f"part masks do not partition the operators into {size + 2} classes"
        )
    k = len(part_masks)
    part_bit = np.zeros(1 << (2 * n), dtype=np.int32)  # key -> 1 << its class
    for j, m in enumerate(part_masks):
        part_bit[_key_table(n, m)] = 1 << j
    owners = np.bitwise_or.reduce(part_bit[_family(n)[0]], axis=1)
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


_FIT_CHUNK = 64  # choices per block: a 64 x 2295 int32 subset test is 0.6 MB


def classes_fit_in_union_minus(
    n: int, census: OwnerCensus, choices: np.ndarray, removed: np.ndarray
) -> np.ndarray:
    """Whether any maximal class fits in the union of ``choices[i]`` minus one class.

    ``choices`` holds sub-collection masks of the census's complete set and
    ``removed`` the family index of the class taken out of each union. A
    class fits exactly when its owner is a subset of the choice and it
    shares no operator with the removed class. The choices go through in
    fixed-size blocks, so the temporaries stay small however many there are.
    """
    keys, member = _family(n)
    fits = np.zeros(len(choices), dtype=bool)
    for start in range(0, len(choices), _FIT_CHUNK):
        block = choices[start:start + _FIT_CHUNK]
        row, cls = np.nonzero((census.owners & ~block[:, None]) == 0)
        row += start
        misses = ~member[removed[row][:, None], keys[cls]].any(axis=1)
        fits[row[misses]] = True
    return fits
