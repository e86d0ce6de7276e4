"""Independent oracles for the exact Pauli arithmetic and the class family.

The dense-matrix helpers are built straight from letter strings with
literal 2x2 matrices and Kronecker products, deliberately bypassing the
package's symplectic representation, so agreement between the two routes
is a real check rather than a tautology. ``enumerate_classes_in`` finds the
maximal commuting classes inside a universe by a depth-first search over
generator chains, a different route from the package's closed-form
family. ``residual_jacobian`` forms the strong search's residuals and their
full Jacobian by broadcasting, the route the package's normal-equation
kernel avoids. ``enumerate_nonidentity``, ``operators``,
``commuting_overlap`` and ``theorem4_census`` are the operator listings of
all of n qubits and of a class set, the commuting-overlap sets and the
d = 8 spanning census, which only the tests ask for. ``independent``
decides GF(2) independence by pivot elimination; it is the oracle for the
library's refusal of dependent generators, which the library reads off
the span it closes instead. ``start_angles`` draws the strong search's
starting phases with one numpy generator per start, the route the
package's block draw avoids.
``sign_columns`` reads each class element's eigenvalue signs off a basis
through those dense matrices, and ``unbiasedness_deviation`` measures how
far two bases are from mutually unbiased. ``BASIS_LISTING_*`` are the
published eigenbases of two dimension-4 classes, as reference data for the
synthesized ones; the other published listings that no command reads (the
weak triple's leftover operators and the alternate partitions at d = 4 and
d = 8) sit beside them. ``WITNESS_THRESHOLD`` is the residual below which
the tests count a strong search's vector as an extension witness.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from mubforge.classes import ClassSet, CommutingClass
from mubforge.pauli import PauliOperator, check_qubits, commutes
from mubforge.search import keys_of_mask
from mubforge.unextendible import owner_census

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

LETTER_MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}

# Joint eigenbasis of the class {YY, IY, YI}, as published.
BASIS_LISTING_D4_YY = 0.5 * np.array(
    [
        [1, 1j, 1j, -1],
        [1, -1j, -1j, -1],
        [1, -1j, 1j, 1],
        [1, 1j, -1j, 1],
    ],
    dtype=complex,
)

# Joint eigenbasis of the class {YZ, XX, ZY}, as published.
BASIS_LISTING_D4_YZXXZY = 0.5 * np.array(
    [
        [1, -1j, -1j, 1],
        [1, -1j, 1j, -1],
        [1, 1j, -1j, -1],
        [1, 1j, 1j, 1],
    ],
    dtype=complex,
)


# A strong search residual below this is an extension witness.
WITNESS_THRESHOLD = 1e-10

# The six operators left over by the weakly unextendible two-qubit triple.
WEAK_TRIPLE_D4_LEFTOVER = ("IX", "XX", "YX", "ZI", "ZY", "ZZ")

# Second partition of the weak triple's nine operators, giving two contexts
# per operator.
ALTERNATE_TRIPLE_D4 = (
    ("YY", "ZX", "XZ"),
    ("IY", "XY", "XI"),
    ("YI", "YZ", "IZ"),
)

# Second partition of the 35 operators in the strong five-class set at
# d = 8: class i keeps a commuting triple of class i and takes one operator
# from each other class.
ALTERNATE_FIVE_D8 = (
    ("IIY", "YYI", "YYY", "XXI", "ZZI", "XXY", "ZZY"),
    ("IXI", "XIX", "XXX", "ZIZ", "ZXZ", "YXY", "YIY"),
    ("ZII", "IZZ", "ZZZ", "ZYY", "ZXX", "IYY", "IXX"),
    ("IZX", "YZI", "YIX", "YZX", "YII", "IIX", "IZI"),
    ("XIZ", "XYI", "IYZ", "IYI", "XII", "IIZ", "XYZ"),
)


def matrix_from_letters(s: str) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for ch in s:
        m = np.kron(m, LETTER_MATS[ch])
    return m


def sign_columns(vectors: np.ndarray, letters) -> dict[str, str]:
    """Each element's sign column over a basis, read off the vectors.

    ``vectors`` holds the basis vectors as rows. Bit k of the column for the
    letter string s is 1 when <v_k|M|v_k> = -1 and 0 when it is +1, M being
    the dense matrix of s; every vector must be an eigenvector of every M.
    """
    columns = {}
    for s in letters:
        moved = vectors @ matrix_from_letters(s).T  # row k is M|v_k>
        signs = np.sum(vectors.conj() * moved, axis=1).real
        assert np.allclose(np.abs(signs), 1.0, atol=1e-12)
        assert np.allclose(moved, signs[:, None] * vectors, atol=1e-12)
        columns[s] = "".join("1" if sign < 0 else "0" for sign in signs)
    return columns


def unbiasedness_deviation(b1: np.ndarray, b2: np.ndarray) -> float:
    """Max over row pairs of | |<a|b>|^2 - 1/d |, for bases held as rows."""
    if b1.shape != b2.shape:
        raise ValueError("bases have different dimensions")
    overlaps = np.abs(b1.conj() @ b2.T) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / len(b1))))


def enumerate_nonidentity(n: int) -> list[PauliOperator]:
    """All 4**n - 1 nonidentity operators modulo phase, as their standard
    Hermitian representatives in canonical key order."""
    check_qubits(n)
    return [PauliOperator.from_key(n, key) for key in range(1, 1 << (2 * n))]


def independent(ops: Sequence[PauliOperator]) -> bool:
    """GF(2) linear independence of the symplectic vectors (x||z).

    Equivalently: no nonempty sub-product of ``ops`` is projectively the
    identity.
    """
    if not ops:
        raise ValueError("empty operator list")
    n = ops[0].n
    pivots: dict[int, int] = {}
    for op in ops:
        if op.n != n:
            raise ValueError(f"qubit counts differ: {n} vs {op.n}")
        v = (op.x << n) | op.z
        while v:
            msb = v.bit_length() - 1
            if msb not in pivots:
                pivots[msb] = v
                break
            v ^= pivots[msb]
        else:
            return False
    return True


def operators(cs: ClassSet) -> list[PauliOperator]:
    """The operators of a class set's union, in key order."""
    return [PauliOperator.from_key(cs.n, k) for k in keys_of_mask(cs.union_mask)]


def commuting_overlap(p: PauliOperator, c: CommutingClass) -> frozenset[PauliOperator]:
    """The subset of class elements commuting with ``p``.

    For a maximal class in a disjoint position this has exactly
    2**(n-1) - 1 members.
    """
    if p.is_projective_identity:
        raise ValueError("identity has no meaningful commuting overlap")
    if p in c:
        raise ValueError("operator lies in the class; overlap is degenerate")
    return frozenset(e for e in c.sorted_elements if commutes(p, e))


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
    owners = owner_census(complete).owners
    return max(Counter(o for o in owners if o.bit_count() == k).values(), default=0)


def matrices_commute(a: np.ndarray, b: np.ndarray) -> bool:
    return np.allclose(a @ b, b @ a, atol=1e-12)


def assert_same_basis(got: np.ndarray, want: np.ndarray, tol: float = 1e-12):
    """Basis equality up to vector order and global phases.

    Both arguments hold basis vectors as rows. Requires the absolute overlap
    matrix to be a permutation matrix within tol.
    """
    overlaps = np.abs(got.conj() @ want.T)
    d = got.shape[0]
    assert overlaps.shape == (d, d)
    for i in range(d):
        hits = np.flatnonzero(overlaps[i] > 1 - tol)
        assert hits.size == 1, f"vector {i} matches {hits.size} partners"
    cols = {int(np.argmax(overlaps[i])) for i in range(d)}
    assert len(cols) == d, "vector matching is not a bijection"
    assert np.all((overlaps > 1 - tol) | (overlaps < tol)), (
        "overlap matrix is not a clean permutation"
    )


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


@lru_cache(maxsize=None)
def commutation_rows(n: int) -> tuple[int, ...]:
    """Row i is the mask of the operators that commute with key i + 1.

    Keys are ``(x << n) | z``; two operators commute when their symplectic
    product x1.z2 + x2.z1 is even.
    """
    count = (1 << (2 * n)) - 1
    low = (1 << n) - 1
    rows = []
    for a in range(1, count + 1):
        row = 0
        for b in range(1, count + 1):
            product = (a >> n) & b & low ^ (b >> n) & a & low
            if product.bit_count() % 2 == 0:
                row |= 1 << (b - 1)
        rows.append(row)
    return tuple(rows)


def enumerate_classes_in(n: int, universe_mask: int) -> list[int]:
    """Masks of every maximal commuting class lying inside the universe.

    Depth-first search over canonical generator chains: each class is
    produced exactly once, from the chain whose k-th generator is the
    smallest class element outside the span of the previous ones. Candidate
    generators must commute with the current span, exceed the previous
    generator, and keep the whole closure inside the universe. The masks
    come sorted by their ascending element keys.
    """
    comm = commutation_rows(n)
    results: list[tuple[tuple[int, ...], int]] = []

    def extend(span_keys: tuple[int, ...], span_mask: int, cand: int, depth: int):
        if depth == n:
            results.append((tuple(sorted(span_keys)), span_mask))
            return
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            gk = low.bit_length()
            new_keys = [gk]
            for s in span_keys:
                t = gk ^ s
                # canonical chain: gk must open its coset; closure stays inside
                if t < gk or not (universe_mask >> (t - 1)) & 1:
                    break
                new_keys.append(t)
            else:
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
        extend((gk,), low, universe_mask & comm[gk - 1] & (-1 << gk), 1)
    results.sort()
    return [mask for _, mask in results]


def residual_jacobian(bases, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r and Jacobian J = dr/dtheta of the unbiased-vector search.

    Built from the bases alone: the candidate (1/sqrt(d)) (1, e^(i t_1), ..)
    is read in the frame where the first basis is computational, and r_a =
    |<c_a|psi>|^2 - 1/d over the rotated vectors c_a of the other bases.
    ``theta`` has shape (B, d-1); r has shape (B, m) and J the full
    (B, m, d-1) broadcast shape.
    """
    d = len(bases[0])
    w = bases[0].conj()
    conditions = np.vstack([(b @ w.T).conj() for b in bases[1:]])
    scale = 1.0 / math.sqrt(d)
    terms = conditions[:, 1:] * (scale * np.exp(1j * np.asarray(theta)))[..., None, :]
    o = conditions[:, 0] * scale + terms.sum(axis=-1)
    r = o.real**2 + o.imag**2 - 1.0 / d
    return r, -2.0 * (o.conj()[..., None] * terms).imag


def start_angles(seed: int, ks, n: int) -> np.ndarray:
    """The strong search's starting phases, drawn start by start with numpy.

    Start k draws n phases from its own generator, default_rng([seed, k]),
    as uniform(0, 2 pi); the rows come in the order of ``ks``.
    """
    return np.array(
        [np.random.default_rng([seed, int(k)]).uniform(0.0, 2.0 * math.pi, n) for k in ks]
    ).reshape(len(ks), n)
