"""Eigenbasis synthesis, unbiasedness, and the label-weight lemma."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from mubforge.bases import (
    MubBasis,
    SignedGroup,
    eigenbasis,
    element_sign_labels,
    labels_hamming_check,
    labels_have_hamming_weight_two,
    operator_matrix,
    unbiasedness_deviation,
)
from mubforge.classes import (
    canonical_complete_set,
    class_from_elements,
    class_from_mask,
    class_from_strings,
)
from mubforge.named_sets import strong_five_d8
from mubforge.pauli import pauli_from_string
from mubforge.search import all_maximal_classes
from oracles import (
    BASIS_LISTING_D4_YY,
    BASIS_LISTING_D4_YZXXZY,
    assert_same_basis,
    matrix_from_letters,
)

TOL = 1e-12


def basis_of(*letters: str) -> MubBasis:
    return eigenbasis(class_from_strings(letters))


class TestSignedGroup:
    def test_members_are_signed_hermitian_representatives(self):
        group = SignedGroup.from_class(class_from_strings(("YY", "IY", "YI")))
        assert len(group.members) == 4
        for t, member in enumerate(group.members):
            assert member.is_hermitian
            herm = member.hermitian()
            assert (member.phase - herm.phase) % 4 in (0, 2)
            assert group.hermitian_sign(t) in (-1, 1)

    def test_identity_is_positive(self):
        group = SignedGroup.from_class(class_from_strings(("ZI", "IZ", "ZZ")))
        assert group.members[0].is_identity

    def test_closed_under_multiplication_as_matrices(self):
        group = SignedGroup.from_class(class_from_strings(("YZ", "XX", "ZY")))
        mats = [operator_matrix(m) for m in group.members]
        for s in range(4):
            for t in range(4):
                assert np.allclose(mats[s] @ mats[t], mats[s ^ t], atol=TOL)


class TestEigenbasis:
    def test_z_class_gives_computational_basis(self):
        b = basis_of("ZI", "IZ", "ZZ")
        assert_same_basis(b.vectors, np.eye(4, dtype=complex))

    def test_yy_class_matches_published_listing(self):
        b = basis_of("YY", "IY", "YI")
        assert_same_basis(b.vectors, BASIS_LISTING_D4_YY)

    def test_second_strong_class_matches_published_listing(self):
        b = basis_of("YZ", "XX", "ZY")
        assert_same_basis(b.vectors, BASIS_LISTING_D4_YZXXZY)

    def test_single_qubit_z(self):
        b = eigenbasis(class_from_elements([pauli_from_string("Z")]))
        assert_same_basis(b.vectors, np.eye(2, dtype=complex))

    def test_vectors_are_joint_eigenvectors_with_character_signs(self):
        for n in (2, 3):
            for c in canonical_complete_set(n):
                b = eigenbasis(c)
                signs = element_sign_labels(b)
                for elem in c.sorted_elements:
                    mat = matrix_from_letters(elem.to_string())
                    bits = signs[elem.to_string()]
                    for k in range(b.d):
                        expected = -1.0 if bits[k] == "1" else 1.0
                        residual_norm = np.linalg.norm(
                            mat @ b.vectors[k] - expected * b.vectors[k]
                        )
                        assert residual_norm < TOL

    def test_generators_act_by_their_label_signs(self):
        for n in (2, 3):
            for c in canonical_complete_set(n):
                b = eigenbasis(c)
                for i, gen in enumerate(c.generators):
                    # a pinned generator is the standard Hermitian form of its letters
                    assert gen == pauli_from_string(gen.to_string())
                    mat = matrix_from_letters(gen.to_string())
                    for k, label in enumerate(b.labels):
                        expected = -1.0 if label[i] == "1" else 1.0
                        residual_norm = np.linalg.norm(
                            mat @ b.vectors[k] - expected * b.vectors[k]
                        )
                        assert residual_norm < TOL

    def test_orthonormal_and_phase_normalized(self):
        for c in canonical_complete_set(3):
            b = eigenbasis(c)
            gram = b.vectors.conj() @ b.vectors.T
            assert np.max(np.abs(gram - np.eye(b.d))) < TOL
            for row in b.vectors:
                first = row[np.flatnonzero(np.abs(row) > 1e-9)[0]]
                assert abs(first.imag) < TOL and first.real > 0

    def test_labels_count_in_binary(self):
        b = basis_of("ZI", "IZ", "ZZ")
        assert b.labels == ("00", "01", "10", "11")


class TestFourQubitBases:
    def test_sixteen_dimensional_synthesis(self):
        cs = canonical_complete_set(4)
        b0, b1 = eigenbasis(cs[0]), eigenbasis(cs[1])
        assert b0.d == 16
        gram = b0.vectors.conj() @ b0.vectors.T
        assert np.max(np.abs(gram - np.eye(16))) < TOL
        assert unbiasedness_deviation(b0, b1) < TOL
        for elem in cs[0].sorted_elements:
            mat = matrix_from_letters(elem.to_string())
            applied = b0.vectors @ mat.T  # row k holds sigma|b_k> transposed
            overlap = np.abs(np.sum(applied * b0.vectors.conj(), axis=1))
            assert np.max(np.abs(overlap - 1.0)) < TOL

    def test_larger_sizes_rejected(self):
        from mubforge.classes import class_from_generators

        five_qubit_z = class_from_generators(
            [pauli_from_string("I" * k + "Z" + "I" * (4 - k)) for k in range(5)]
        )
        with pytest.raises(ValueError, match="up to 4"):
            eigenbasis(five_qubit_z)


class TestUnbiasedness:
    @pytest.mark.parametrize("n", [2, 3])
    def test_complete_set_bases_are_mutually_unbiased(self, n):
        bases = [eigenbasis(c) for c in canonical_complete_set(n)]
        for b1, b2 in combinations(bases, 2):
            assert unbiasedness_deviation(b1, b2) < TOL

    def test_named_five_are_mutually_unbiased(self):
        bases = [eigenbasis(c) for c in strong_five_d8()]
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


class TestLabelLemma:
    def test_all_two_qubit_classes_satisfy_the_lemma(self):
        for rec in all_maximal_classes(2):
            cls = class_from_mask(2, rec)
            assert labels_hamming_check(eigenbasis(cls))

    def test_canonical_complete_set_classes(self):
        for c in canonical_complete_set(2):
            assert labels_hamming_check(eigenbasis(c))

    def test_hand_built_counterexample(self):
        # columns of consecutive counting labels have weights 0, 2 and 2
        assert not labels_have_hamming_weight_two(["0000", "0011", "0101"])

    def test_label_pairs_at_hamming_distance_two(self):
        b = basis_of("YY", "IY", "YI")
        columns = list(element_sign_labels(b).values())
        words = ["".join(col[k] for col in columns) for k in range(b.d)]
        for w1, w2 in combinations(words, 2):
            dist = sum(ch1 != ch2 for ch1, ch2 in zip(w1, w2))
            assert dist == 2

    def test_wrong_size_rejected(self):
        b = eigenbasis(canonical_complete_set(3)[0])
        with pytest.raises(ValueError):
            labels_hamming_check(b)
