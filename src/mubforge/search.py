"""The maximal commuting class family, and which classes fit in a universe.

Nonidentity projective operators are addressed by ``key - 1`` where
``key = (x << n) | z``, so a set of operators is one Python integer and a
subset test is a single AND. That mask is the one representation of a class
throughout the package (``CommutingClass.mask``), and ascending bit order is
ascending key order. Maximal commuting classes are the Lagrangian subgroups
of the symplectic space; for n <= 4 there are only 15, 135 and 2295 of them,
so their masks are built once per qubit count, and "which classes fit inside
this universe" is one AND per family member.

The family itself is built in closed form from the quadratic-form picture
of stabilizer states (Dehaene and De Moor, quant-ph/0304125): the
x-projection of a Lagrangian subspace L is a subspace V, and L is
{(x, Bx + w) : x in V, w in V-perp} for one symmetric form B on V. Every
reduced echelon basis of V with every B gives each class exactly once. The
tests keep a depth-first enumeration of canonical generator chains as the
independent oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from mubforge.pauli import check_qubits

# byte b maps to b with its eight bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def full_mask(n: int) -> int:
    """Mask of all 4**n - 1 nonidentity operators on n qubits."""
    check_qubits(n)
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
