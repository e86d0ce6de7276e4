"""Joint eigenbases of commuting Pauli classes via character projectors.

For a class with Hermitian generators g_1 .. g_n, the 2**n exact products
g_T = prod_{i in T} g_i (phases tracked, so each g_T is +/- the standard
Hermitian representative of its projective part) form a group isomorphic to
Z_2^n. The rank-one projector onto the joint eigenvector labeled by the
n-bit string e is the character sum

    P_e = (1/d) * sum_T (-1)^(e.T) g_T,

and g_i P_e = (-1)^(e_i) P_e. Taking characters over the actual signed
products, rather than over re-signed abstract generators, keeps the formula
correct without choosing a sign convention for the class.

Dense complex matrices are confined to this module and to the analysis
layer; everything upstream is exact GF(2) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mubforge.classes import CommutingClass
from mubforge.pauli import PauliOperator, identity, multiply

UNITARY_TOL = 1e-12

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}


def operator_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of a phase-tracked operator, qubit 0 leftmost."""
    m = np.ones((1, 1), dtype=complex)
    for j in range(op.n):
        xb = (op.x >> (op.n - 1 - j)) & 1
        zb = (op.z >> (op.n - 1 - j)) & 1
        m = np.kron(m, _SINGLE[(xb, zb)])
    return (1j ** op.phase) * m


@dataclass(frozen=True)
class SignedGroup:
    """The 2**n signed Hermitian products of a class's generators.

    ``members[t]`` is the exact product over the generator subset with bit
    mask ``t``; every member has phase exponent 0 or 2, i.e. it is plus or
    minus the standard Hermitian representative, and minus identity never
    occurs.
    """

    n: int
    members: tuple[PauliOperator, ...]

    @classmethod
    def from_class(cls, c: CommutingClass) -> "SignedGroup":
        members: list[PauliOperator] = [identity(c.n)]
        for t in range(1, 1 << c.n):
            low = t & -t
            gen = c.generators[low.bit_length() - 1]
            members.append(multiply(gen, members[t ^ low]))
        for t, m in enumerate(members):
            if not m.is_hermitian:
                raise ValueError("signed product is not Hermitian")
            if t and m.is_projective_identity:
                raise ValueError("dependent generators: product collapses to identity")
        return cls(c.n, tuple(members))

    def subset_of_key(self, key: int) -> int:
        """Generator subset whose product has the given projective key."""
        for t, m in enumerate(self.members):
            if m.key == key:
                return t
        raise KeyError(f"projective key {key} is not in the group")

    def hermitian_sign(self, t: int) -> int:
        """Sign of member t relative to the standard Hermitian representative."""
        member = self.members[t]
        herm = member.projective().hermitian()
        return 1 if member.phase == herm.phase else -1


@dataclass(frozen=True)
class MubBasis:
    """An orthonormal joint eigenbasis, vectors ordered by their n-bit label.

    ``vectors[k]`` is the eigenvector whose label is k as an n-bit binary
    counter; bit i of the label gives the eigenvalue (-1)**bit of signed
    generator product i. Global phases are fixed by making the first nonzero
    amplitude real positive.
    """

    n: int
    d: int
    labels: tuple[str, ...]
    vectors: np.ndarray
    source: CommutingClass

    def vector(self, label: str) -> np.ndarray:
        return self.vectors[int(label, 2)]


def _label_genmask(label_index: int, n: int) -> int:
    """Label bit i (string position i) maps to generator i (subset bit i)."""
    mask = 0
    for i in range(n):
        if (label_index >> (n - 1 - i)) & 1:
            mask |= 1 << i
    return mask


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    for amp in v:
        if abs(amp) > 1e-9:
            return v * (amp.conjugate() / abs(amp))
    raise ValueError("zero vector cannot be normalized")


def eigenbasis(c: CommutingClass) -> MubBasis:
    """Synthesize the joint eigenbasis of a maximal commuting class.

    Each projector is Hermitian, idempotent and rank one by construction;
    all three properties plus completeness are still verified numerically to
    UNITARY_TOL before the basis is returned.
    """
    if c.n > 4:
        raise ValueError("eigenbases are synthesized for up to 4 qubits")
    n, d = c.n, 1 << c.n
    group = SignedGroup.from_class(c)
    mats = [operator_matrix(m) for m in group.members]
    vectors = np.empty((d, d), dtype=complex)
    labels = []
    proj_sum = np.zeros((d, d), dtype=complex)
    for e in range(d):
        genmask = _label_genmask(e, n)
        proj = np.zeros((d, d), dtype=complex)
        for t in range(d):
            sign = -1.0 if (t & genmask).bit_count() & 1 else 1.0
            proj += sign * mats[t]
        proj /= d
        if np.max(np.abs(proj - proj.conj().T)) > UNITARY_TOL:
            raise ValueError("projector is not Hermitian")
        if np.max(np.abs(proj @ proj - proj)) > UNITARY_TOL:
            raise ValueError("projector is not idempotent")
        proj_sum += proj
        col = int(np.argmax(np.linalg.norm(proj, axis=0)))
        v = proj[:, col]
        v = v / np.linalg.norm(v)
        vectors[e] = _normalize_phase(v)
        labels.append(format(e, f"0{n}b"))
    if np.max(np.abs(proj_sum - np.eye(d))) > UNITARY_TOL:
        raise ValueError("projectors do not resolve the identity")
    gram = vectors.conj() @ vectors.T
    if np.max(np.abs(gram - np.eye(d))) > UNITARY_TOL:
        raise ValueError("eigenbasis is not orthonormal")
    return MubBasis(n, d, tuple(labels), vectors, c)


def unbiasedness_deviation(b1: MubBasis, b2: MubBasis) -> float:
    """Max over vector pairs of | |<a|b>|^2 - 1/d |."""
    if b1.d != b2.d:
        raise ValueError("bases have different dimensions")
    overlaps = np.abs(b1.vectors.conj() @ b2.vectors.T) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / b1.d)))


def element_sign_labels(b: MubBasis) -> dict[str, str]:
    """Per-element eigenvalue labels: element letters -> bits across vectors.

    Bit k of the string for element sigma is 0 when the standard Hermitian
    representative of sigma fixes vector k and 1 when it flips its sign.
    Computed exactly from the signed group, no floating point involved.
    """
    group = SignedGroup.from_class(b.source)
    out: dict[str, str] = {}
    for elem in b.source.sorted_elements:
        t = group.subset_of_key(elem.key)
        flip = group.hermitian_sign(t) < 0
        bits = []
        for e in range(b.d):
            bit = (t & _label_genmask(e, b.n)).bit_count() & 1
            bits.append(str(bit ^ int(flip)))
        out[elem.to_string()] = "".join(bits)
    return out


def labels_have_hamming_weight_two(columns: Sequence[str]) -> bool:
    """True iff every bit string has exactly two ones."""
    return all(col.count("1") == 2 for col in columns)


def labels_hamming_check(b: MubBasis) -> bool:
    """Two-qubit label lemma: each element's sign column has weight two.

    Equivalently, the per-element label strings of any two basis vectors are
    at Hamming distance two.
    """
    if b.n != 2:
        raise ValueError("the label lemma check applies to two-qubit bases")
    return labels_have_hamming_weight_two(list(element_sign_labels(b).values()))

