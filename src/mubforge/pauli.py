"""Exact n-qubit Pauli arithmetic in the binary symplectic representation.

An operator is a pair of n-bit masks (x, z) plus a global phase exponent p,
encoding ``i**p * prod_j X_j**x_j * Z_j**z_j`` with the X factor to the left
of the Z factor on every qubit. Qubit 0 is the leftmost letter of the string
form and the most significant bit of each mask, so integer order on the
concatenated key ``x||z`` coincides with lexicographic order on bit strings.

An operator modulo phase, the unit of class membership, is its standard
Hermitian representative: phase exponent |x & z| mod 4, one factor of i per
Y letter, as ``from_key`` builds it. Operators order by (n, x, z, phase),
which is key order among Hermitian representatives.

Everything here is exact integer arithmetic; dense matrices never appear in
this module.

The package works on 1 to MAX_QUBITS = 4 qubits: the paper builds its sets
at d = 4 and 8 and scans its n > 3 conjecture at d = 16. That is the one
bound on a qubit count, and ``check_qubits`` checks it wherever a count
enters: an operator, a letter string, a class set, a search's full mask.
ROADMAP item 11 (d = 32, 64) raises it here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

MAX_QUBITS = 4

_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def check_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")


# certificates spell the same few operators many times over; the keys are
# bounded by MAX_QUBITS, so the cache is too (at most 4**4 per qubit count)
@lru_cache(maxsize=None)
def _letters(n: int, x: int, z: int) -> str:
    return "".join(
        _XZ_LETTER[(x >> (n - 1 - j)) & 1, (z >> (n - 1 - j)) & 1] for j in range(n)
    )


class _PauliFields(NamedTuple):
    n: int
    x: int
    z: int
    phase: int = 0


class PauliOperator(_PauliFields):
    """A phase-tracked Pauli operator ``i**phase * X^x Z^z``.

    Instances are immutable values and all operations on them are pure.
    Equality, hashing and order are those of the tuple (n, x, z, phase).
    """

    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int, phase: int = 0) -> "PauliOperator":
        check_qubits(n)
        top = 1 << n
        if not (0 <= x < top and 0 <= z < top):
            raise ValueError("x/z masks out of range for qubit count")
        return tuple.__new__(cls, (n, x, z, phase % 4))

    @classmethod
    def _make(cls, fields) -> "PauliOperator":  # so that _replace validates too
        return cls(*fields)

    @property
    def key(self) -> int:
        """Canonical sort key: the 2n-bit string x||z read as an integer."""
        return (self.x << self.n) | self.z

    @property
    def is_projective_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def is_hermitian(self) -> bool:
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    @classmethod
    def from_key(cls, n: int, key: int) -> "PauliOperator":
        """The standard Hermitian operator with symplectic key ``key``."""
        x, z = key >> n, key & ((1 << n) - 1)
        return cls(n, x, z, (x & z).bit_count() % 4)

    def to_string(self) -> str:
        """Letter form of the projective part; the phase is not encoded."""
        return _letters(self.n, self.x, self.z)


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def pauli_from_string(s: str) -> PauliOperator:
    """Encode a letter string such as ``"XIZ"`` as a Hermitian operator.

    The first letter acts on qubit 0 (most significant position). Each Y
    contributes one factor of i so that the encoded operator equals the
    standard Hermitian Y and the result always squares to +identity.
    """
    check_qubits(len(s))
    x = z = 0
    for ch in s:
        try:
            xb, zb = _LETTER_XZ[ch]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {ch!r} in {s!r}") from None
        x = (x << 1) | xb
        z = (z << 1) | zb
    return PauliOperator.from_key(len(s), (x << len(s)) | z)


def _require_same_n(a: PauliOperator, b: PauliOperator) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact product a*b, phase included.

    Reordering the Z factor of ``a`` past the X factor of ``b`` contributes
    a sign per overlapping qubit, which is the whole phase rule:
    ``phase = p_a + p_b + 2*|z_a & x_b|  (mod 4)``.
    """
    _require_same_n(a, b)
    phase = (a.phase + b.phase + 2 * (a.z & b.x).bit_count()) % 4
    return PauliOperator(a.n, a.x ^ b.x, a.z ^ b.z, phase)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic form x_a.z_b + x_b.z_a vanishes mod 2."""
    _require_same_n(a, b)
    return (((a.x & b.z).bit_count() + (b.x & a.z).bit_count()) & 1) == 0
