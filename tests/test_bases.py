"""Eigenbasis synthesis, unbiasedness, and the label-weight lemma."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from mubforge.bases import eigenbasis, operator_matrix, signed_group
from mubforge.classes import (
    CommutingClass,
    canonical_complete_set,
    class_from_elements,
    class_from_mask,
    class_from_strings,
)
from mubforge.named_sets import named_class_set
from mubforge.pauli import PauliOperator, identity, pauli_from_string
from mubforge.search import all_maximal_classes
from oracles import (
    BASIS_LISTING_D4_YY,
    BASIS_LISTING_D4_YZXXZY,
    assert_same_basis,
    matrix_from_letters,
    sign_columns,
    unbiasedness_deviation,
)

TOL = 1e-12


def basis_of(*letters: str) -> np.ndarray:
    return eigenbasis(class_from_strings(letters))


class TestOperatorMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_kronecker_oracle(self, n):
        # every operator, at every phase, against literal 2 x 2 factors
        for key in range(1 << (2 * n)):
            herm = PauliOperator.from_key(n, key)
            want = matrix_from_letters(herm.to_string())
            for turn in range(4):
                op = herm._replace(phase=herm.phase + turn)
                assert np.array_equal(operator_matrix(op), 1j**turn * want)


class TestSignedGroup:
    def test_members_are_signed_hermitian_representatives(self):
        group = signed_group(class_from_strings(("YY", "IY", "YI")))
        assert len(group) == 4
        for member in group:
            assert member.is_hermitian
            herm = PauliOperator.from_key(member.n, member.key)
            assert (member.phase - herm.phase) % 4 in (0, 2)

    def test_identity_is_positive(self):
        group = signed_group(class_from_strings(("ZI", "IZ", "ZZ")))
        assert group[0] == identity(2)

    def test_closed_under_multiplication_as_matrices(self):
        group = signed_group(class_from_strings(("YZ", "XX", "ZY")))
        mats = [operator_matrix(m) for m in group]
        for s in range(4):
            for t in range(4):
                assert np.allclose(mats[s] @ mats[t], mats[s ^ t], atol=TOL)


class TestEigenbasis:
    def test_z_class_gives_computational_basis(self):
        b = basis_of("ZI", "IZ", "ZZ")
        assert_same_basis(b, np.eye(4, dtype=complex))

    def test_yy_class_matches_published_listing(self):
        b = basis_of("YY", "IY", "YI")
        assert_same_basis(b, BASIS_LISTING_D4_YY)

    def test_second_strong_class_matches_published_listing(self):
        b = basis_of("YZ", "XX", "ZY")
        assert_same_basis(b, BASIS_LISTING_D4_YZXXZY)

    def test_single_qubit_z(self):
        b = eigenbasis(class_from_elements([pauli_from_string("Z")]))
        assert_same_basis(b, np.eye(2, dtype=complex))

    def test_vectors_are_joint_eigenvectors_with_character_signs(self):
        # the product of the generators in subset t, as dense matrices, acts
        # on each vector by the product of their label signs
        for n in (2, 3):
            for c in canonical_complete_set(n):
                b = eigenbasis(c)
                gens = [matrix_from_letters(g.to_string()) for g in c.generators]
                for t in range(1, len(b)):
                    product = np.eye(len(b), dtype=complex)
                    for i in range(n):
                        if t >> i & 1:
                            product = product @ gens[i]
                    signs = np.array([
                        (-1.0) ** sum(int(label[i]) for i in range(n) if t >> i & 1)
                        for label in [format(k, f"0{n}b") for k in range(len(b))]
                    ])
                    moved = b @ product.T  # row k is product |b_k>
                    assert np.max(np.abs(moved - signs[:, None] * b)) < TOL

    def test_generators_act_by_their_label_signs(self):
        for n in (2, 3):
            for c in canonical_complete_set(n):
                b = eigenbasis(c)
                for i, gen in enumerate(c.generators):
                    # a pinned generator is the standard Hermitian form of its letters
                    assert gen == pauli_from_string(gen.to_string())
                    mat = matrix_from_letters(gen.to_string())
                    for k in range(len(b)):
                        label = format(k, f"0{n}b")
                        expected = -1.0 if label[i] == "1" else 1.0
                        residual_norm = np.linalg.norm(mat @ b[k] - expected * b[k])
                        assert residual_norm < TOL

    def test_orthonormal_and_phase_normalized(self):
        for c in canonical_complete_set(3):
            b = eigenbasis(c)
            gram = b.conj() @ b.T
            assert np.max(np.abs(gram - np.eye(len(b)))) < TOL
            for row in b:
                first = row[np.flatnonzero(np.abs(row) > 1e-9)[0]]
                assert abs(first.imag) < TOL and first.real > 0

    def test_labels_count_in_binary(self):
        # generator i's sign on row k, read off the dense matrices, is
        # character i of k written as an n-bit binary counter
        for n in (2, 3):
            for c in canonical_complete_set(n):
                gens = [g.to_string() for g in c.generators]
                columns = sign_columns(eigenbasis(c), gens)
                words = ["".join(columns[g][k] for g in gens) for k in range(1 << n)]
                assert words == [format(k, f"0{n}b") for k in range(1 << n)]

    @pytest.mark.parametrize(
        "letters, phase",
        [(("ZI", "ZI"), 0), (("ZII", "IZI", "ZZI"), 0), (("ZI", "XI"), 0), (("ZI", "IZ"), 1)],
        ids=["repeated", "dependent", "anticommuting", "non-hermitian"],
    )
    def test_generators_that_are_not_a_class_are_rejected(self, letters, phase):
        # the eigenvector and orthonormality checks refuse what the class
        # constructors never build; dependent generators leave empty
        # projectors, whose NaN rows fail both checks
        gens = [pauli_from_string(s) for s in letters]
        gens[0] = gens[0]._replace(phase=gens[0].phase + phase)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            eigenbasis(CommutingClass(len(letters[0]), tuple(gens), 0))

    def test_rows_are_read_only(self):
        b = basis_of("ZI", "IZ", "ZZ")
        with pytest.raises(ValueError):
            b[0, 0] = 0.0


class TestFourQubitBases:
    def test_sixteen_dimensional_synthesis(self):
        cs = canonical_complete_set(4)
        b0, b1 = eigenbasis(cs[0]), eigenbasis(cs[1])
        assert len(b0) == 16
        gram = b0.conj() @ b0.T
        assert np.max(np.abs(gram - np.eye(16))) < TOL
        assert unbiasedness_deviation(b0, b1) < TOL
        for elem in cs[0].sorted_elements:
            mat = matrix_from_letters(elem.to_string())
            applied = b0 @ mat.T  # row k holds sigma|b_k> transposed
            overlap = np.abs(np.sum(applied * b0.conj(), axis=1))
            assert np.max(np.abs(overlap - 1.0)) < TOL

    def test_larger_sizes_rejected(self):
        # no 5-qubit class comes from generators; one made from a bare mask
        # fails at its first operator, before any 32 x 32 matrix
        with pytest.raises(ValueError, match=r"\[1, 4\], got 5$"):
            eigenbasis(CommutingClass(5, (), 1))


class TestUnbiasedness:
    @pytest.mark.parametrize("n", [2, 3])
    def test_complete_set_bases_are_mutually_unbiased(self, n):
        bases = [eigenbasis(c) for c in canonical_complete_set(n)]
        for b1, b2 in combinations(bases, 2):
            assert unbiasedness_deviation(b1, b2) < TOL

    def test_named_five_are_mutually_unbiased(self):
        bases = [eigenbasis(c) for c in named_class_set("paper-d8-strong")]
        for b1, b2 in combinations(bases, 2):
            assert unbiasedness_deviation(b1, b2) < TOL

    def test_self_deviation_is_one_minus_inverse_dimension(self):
        b = basis_of("ZI", "IZ", "ZZ")
        assert abs(unbiasedness_deviation(b, b) - 0.75) < TOL

    def test_dimension_mismatch_rejected(self):
        b2 = basis_of("ZI", "IZ", "ZZ")
        b3 = eigenbasis(canonical_complete_set(3)[0])
        with pytest.raises(ValueError):
            unbiasedness_deviation(b2, b3)


def label_weights(c) -> list[int]:
    """Weights of the sign columns of a class's elements over its eigenbasis."""
    columns = sign_columns(eigenbasis(c), c.letters())
    return [column.count("1") for column in columns.values()]


class TestLabelLemma:
    def test_all_two_qubit_classes_satisfy_the_lemma(self):
        for rec in all_maximal_classes(2):
            assert label_weights(class_from_mask(2, rec)) == [2, 2, 2]

    def test_canonical_complete_set_classes(self):
        for c in canonical_complete_set(2):
            assert label_weights(c) == [2, 2, 2]

    def test_label_pairs_at_hamming_distance_two(self):
        b = basis_of("YY", "IY", "YI")
        columns = list(sign_columns(b, ("YY", "IY", "YI")).values())
        words = ["".join(col[k] for col in columns) for k in range(len(b))]
        for w1, w2 in combinations(words, 2):
            dist = sum(ch1 != ch2 for ch1, ch2 in zip(w1, w2))
            assert dist == 2

    def test_wrong_size_rejected(self):
        # the lemma is a two-qubit statement: each element flips half of
        # the d vectors, so at three qubits every column has weight four
        for c in canonical_complete_set(3):
            assert label_weights(c) == [4] * 7
