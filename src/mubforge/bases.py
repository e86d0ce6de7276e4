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

The label contract: row k of a basis is the eigenvector labeled
``format(k, f"0{n}b")``, and character i of a label (the i-th letter of its
bit string) is the eigenvalue sign of signed generator i. ``_label_bits`` is
the one place that pairs string positions with generator subsets, and every
basis is checked against its labels before it is returned. No command reads
the sign columns of the other class elements; the tests read them off the
vectors, and check there that each has weight two on two qubits, as the
paper's label lemma says.

Dense complex matrices are confined to this module and to the analysis
layer; everything upstream is exact GF(2) arithmetic. numpy is imported by
the functions that compute with arrays, so importing this module does not
load it.
"""

from __future__ import annotations

from mubforge.classes import CommutingClass
from mubforge.pauli import PauliOperator, identity, multiply

UNITARY_TOL = 1e-12


def operator_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of a phase-tracked operator, qubit 0 leftmost.

    The operator is the monomial i**phase X^x Z^z, which maps |j> to
    i**phase (-1)**(z.j) |j XOR x>.
    """
    import numpy as np

    d = 1 << op.n
    cols = np.arange(d)
    m = np.zeros((d, d), dtype=complex)
    m[cols ^ op.x, cols] = [(-1) ** (op.z & j).bit_count() for j in range(d)]
    return (1j ** op.phase) * m


def signed_group(c: CommutingClass) -> tuple[PauliOperator, ...]:
    """The 2**n exact products of a class's generators.

    Member t is the product over the generator subset with bit mask t.
    """
    members = [identity(c.n)]
    for t in range(1, 1 << c.n):
        low = t & -t
        members.append(multiply(c.generators[low.bit_length() - 1], members[t ^ low]))
    return tuple(members)


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


def eigenbasis(c: CommutingClass) -> np.ndarray:
    """The joint eigenbasis of a maximal commuting class, as read-only rows.

    All d character projectors come from one product of the label table's
    signs with the stacked group matrices; each vector is its projector's
    heaviest column, normalized, with its first nonzero amplitude made real
    positive. Before the basis is returned, each signed generator i must
    map row k to (-1)**(bit n-1-i of k) times itself, and the rows must be
    orthonormal, both to UNITARY_TOL. Together these say the rows are the
    joint eigenbasis with the stated labels. A set of generators that is
    not a maximal class of independent Hermitian operators fails them.
    """
    import numpy as np

    n, d = c.n, 1 << c.n
    mats = np.array([operator_matrix(m) for m in signed_group(c)])
    signs = 1 - 2 * _label_bits(n)
    projs = (signs @ mats.reshape(d, d * d)).reshape(d, d, d) / d
    rows = np.arange(d)
    cols = np.argmax(np.linalg.norm(projs, axis=1), axis=1)
    vectors = projs[rows, :, cols]
    vectors = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    amps = vectors[rows, np.argmax(np.abs(vectors) > 1e-9, axis=1)]
    vectors = vectors * (amps.conj() / np.abs(amps))[:, None]
    for i in range(n):
        eigenvalues = 1.0 - 2.0 * ((rows >> (n - 1 - i)) & 1)
        moved = vectors @ mats[1 << i].T - eigenvalues[:, None] * vectors
        if not np.all(np.abs(moved) <= UNITARY_TOL):
            raise ValueError(f"vectors are not eigenvectors of generator {i}")
    gram = vectors.conj() @ vectors.T
    if not np.all(np.abs(gram - np.eye(d)) <= UNITARY_TOL):
        raise ValueError("eigenbasis is not orthonormal")
    vectors.flags.writeable = False
    return vectors
