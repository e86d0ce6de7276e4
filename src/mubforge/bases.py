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

The label contract: character i of a label (the i-th letter of its bit
string) is the eigenvalue sign of signed generator i. ``_label_bits`` is the
one place that pairs string positions with generator subsets; the bases and
the per-element labels are both read from it, and every basis is checked
against its label strings before it is returned.

Dense complex matrices are confined to this module and to the analysis
layer; everything upstream is exact GF(2) arithmetic. numpy is imported by
the functions that compute with arrays, so importing this module does not
load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from mubforge.classes import CommutingClass
from mubforge.pauli import PauliOperator, identity, multiply
from mubforge.search import MAX_SEARCH_QUBITS

UNITARY_TOL = 1e-12

@lru_cache(maxsize=None)
def _single_qubit_matrices() -> dict:
    """X**x Z**z as a dense 2 x 2 matrix, keyed by (x, z)."""
    import numpy as np

    return {
        (0, 0): np.eye(2, dtype=complex),
        (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
        (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
    }


def operator_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of a phase-tracked operator, qubit 0 leftmost."""
    import numpy as np

    single = _single_qubit_matrices()
    m = np.ones((1, 1), dtype=complex)
    for j in range(op.n):
        xb = (op.x >> (op.n - 1 - j)) & 1
        zb = (op.z >> (op.n - 1 - j)) & 1
        m = np.kron(m, single[(xb, zb)])
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

    def hermitian_sign(self, t: int) -> int:
        """Sign of member t relative to the standard Hermitian representative."""
        member = self.members[t]
        return 1 if member == member.hermitian() else -1


def _label_bits(n: int) -> np.ndarray:
    """The label convention: ``bits[e, t] = 1`` when signed member t flips vector e.

    Vector e carries the n-bit label of e, and character i of that label
    (bit n-1-i of e) pairs with generator i (bit i of the subset t), so the
    entry is the GF(2) inner product of the two.
    """
    import numpy as np

    index = np.arange(1 << n)
    label = (index[:, None] >> np.arange(n - 1, -1, -1)) & 1
    subset = (index[:, None] >> np.arange(n)) & 1
    return (label @ subset.T) & 1


@dataclass(frozen=True)
class MubBasis:
    """An orthonormal joint eigenbasis, vectors ordered by their n-bit label.

    ``vectors[k]`` is the eigenvector labeled ``labels[k]``, k written as an
    n-bit binary counter; signed generator i multiplies it by
    (-1)**int(labels[k][i]). ``eigenbasis`` checks that contract, and
    orthonormality, before it returns a basis. Global phases are fixed by
    making the first nonzero amplitude real positive.
    """

    n: int
    d: int
    labels: tuple[str, ...]
    vectors: np.ndarray
    source: CommutingClass


def eigenbasis(c: CommutingClass) -> MubBasis:
    """Synthesize the joint eigenbasis of a maximal commuting class.

    All d character projectors come from one product of the label table's
    signs with the stacked group matrices; each vector is its projector's
    heaviest column, normalized and phase-fixed. Before the basis is
    returned, each signed generator i must map vector k to
    (-1)**label_k[i] times itself, with the sign read from the label string,
    and the vectors must be orthonormal, both to UNITARY_TOL. Together these
    say the vectors are the joint eigenbasis with the stated labels.
    """
    import numpy as np

    if c.n > MAX_SEARCH_QUBITS:
        raise ValueError(
            f"eigenbases are synthesized for up to {MAX_SEARCH_QUBITS} qubits"
        )
    n, d = c.n, 1 << c.n
    mats = np.array([operator_matrix(m) for m in SignedGroup.from_class(c).members])
    signs = 1 - 2 * _label_bits(n)
    projs = (signs @ mats.reshape(d, d * d)).reshape(d, d, d) / d
    rows = np.arange(d)
    cols = np.argmax(np.linalg.norm(projs, axis=1), axis=1)
    vectors = projs[rows, :, cols]
    vectors = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    amps = vectors[rows, np.argmax(np.abs(vectors) > 1e-9, axis=1)]
    vectors = vectors * (amps.conj() / np.abs(amps))[:, None]
    labels = tuple(format(e, f"0{n}b") for e in range(d))
    for i in range(n):
        eigenvalues = np.array([-1.0 if label[i] == "1" else 1.0 for label in labels])
        moved = vectors @ mats[1 << i].T - eigenvalues[:, None] * vectors
        if not np.all(np.abs(moved) <= UNITARY_TOL):
            raise ValueError(f"vectors are not eigenvectors of generator {i}")
    gram = vectors.conj() @ vectors.T
    if not np.all(np.abs(gram - np.eye(d)) <= UNITARY_TOL):
        raise ValueError("eigenbasis is not orthonormal")
    return MubBasis(n, d, labels, vectors, c)


def unbiasedness_deviation(b1: MubBasis, b2: MubBasis) -> float:
    """Max over vector pairs of | |<a|b>|^2 - 1/d |."""
    import numpy as np

    if b1.d != b2.d:
        raise ValueError("bases have different dimensions")
    overlaps = np.abs(b1.vectors.conj() @ b2.vectors.T) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / b1.d)))


def element_sign_labels(b: MubBasis) -> dict[str, str]:
    """Per-element eigenvalue labels: element letters -> bits across vectors.

    Bit k of the string for element sigma is 0 when the standard Hermitian
    representative of sigma fixes vector k and 1 when it flips its sign.
    Read exactly from the label table and the signed group, no floating
    point involved; elements come in ascending key order.
    """
    group = SignedGroup.from_class(b.source)
    bits = _label_bits(b.n)
    out: dict[str, str] = {}
    for t in sorted(range(1, b.d), key=lambda t: group.members[t].key):
        flip = int(group.hermitian_sign(t) < 0)
        column = "".join(str(bit ^ flip) for bit in bits[:, t])
        out[group.members[t].to_string()] = column
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
