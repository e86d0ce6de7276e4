"""Exact Pauli arithmetic against the independent dense-matrix oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from mubforge.pauli import (
    PauliOperator,
    commutes,
    enumerate_nonidentity,
    identity,
    independent,
    multiply,
    pauli_from_string,
)
from oracles import LETTER_MATS, matrices_commute, matrix_from_letters


def op_matrix(op: PauliOperator) -> np.ndarray:
    """Oracle-side matrix of the internal form i**p X^x Z^z."""
    m = np.ones((1, 1), dtype=complex)
    for j in range(op.n):
        xb = (op.x >> (op.n - 1 - j)) & 1
        zb = (op.z >> (op.n - 1 - j)) & 1
        factor = np.eye(2, dtype=complex)
        if xb:
            factor = factor @ LETTER_MATS["X"]
        if zb:
            factor = factor @ LETTER_MATS["Z"]
        m = np.kron(m, factor)
    return (1j**op.phase) * m


def all_strings(n: int):
    return ("".join(t) for t in itertools.product("IXYZ", repeat=n))


class TestEncoding:
    def test_example_xiz(self):
        op = pauli_from_string("XIZ")
        assert (op.x, op.z, op.phase) == (0b100, 0b001, 0)

    def test_single_y_matches_standard_matrix(self):
        op = pauli_from_string("Y")
        assert np.allclose(op_matrix(op), LETTER_MATS["Y"])

    @pytest.mark.parametrize("s", ["Y", "YZ", "XIZ", "IYYX"])
    def test_round_trip(self, s):
        assert pauli_from_string(s).to_string() == s

    def test_round_trip_all_strings_up_to_three_letters(self):
        for n in (1, 2, 3):
            for s in all_strings(n):
                assert pauli_from_string(s).to_string() == s

    def test_encoded_operators_are_hermitian_and_square_to_identity(self):
        for s in all_strings(2):
            op = pauli_from_string(s)
            assert op.is_hermitian
            assert multiply(op, op) == identity(2)
            m = matrix_from_letters(s)
            assert np.allclose(op_matrix(op), m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pauli_from_string("")
        with pytest.raises(ValueError):
            pauli_from_string("XQ")
        with pytest.raises(ValueError):
            pauli_from_string("X" * 9)

    def test_identity_flags(self):
        assert identity(2).is_identity
        assert PauliOperator(2, 0, 0, 2).is_projective_identity
        assert not PauliOperator(2, 0, 0, 2).is_identity


class TestMultiply:
    def test_x_times_y_is_i_z(self):
        prod = multiply(pauli_from_string("X"), pauli_from_string("Y"))
        assert (prod.x, prod.z, prod.phase) == (0, 1, 1)

    def test_three_fold_product_is_minus_identity(self):
        ops = [pauli_from_string(s) for s in ("YZ", "ZX", "XY")]
        prod = multiply(multiply(ops[0], ops[1]), ops[2])
        assert prod.is_projective_identity and prod.phase == 2
        oracle = (
            matrix_from_letters("YZ")
            @ matrix_from_letters("ZX")
            @ matrix_from_letters("XY")
        )
        assert np.allclose(oracle, -np.eye(4))

    def test_identity_is_neutral(self):
        op = pauli_from_string("XZ")
        assert multiply(op, identity(2)) == op
        assert multiply(identity(2), op) == op

    def test_phase_exact_against_matrices_all_two_qubit_pairs(self):
        ops = [p.hermitian() for p in enumerate_nonidentity(2)]
        for a in ops:
            for b in ops:
                mb = op_matrix(b)
                for pa in range(4):
                    aa = PauliOperator(2, a.x, a.z, pa)
                    prod = multiply(aa, b)
                    assert np.allclose(op_matrix(prod), op_matrix(aa) @ mb)

    def test_associativity_sampled_three_qubits(self):
        rng = np.random.default_rng(5)
        ops = enumerate_nonidentity(3)

        def random_op() -> PauliOperator:
            base = ops[int(rng.integers(len(ops)))]
            return PauliOperator(3, base.x, base.z, int(rng.integers(4)))

        for _ in range(300):
            a, b, c = random_op(), random_op(), random_op()
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            multiply(pauli_from_string("X"), pauli_from_string("XX"))


class TestCommutes:
    def test_disjoint_supports_commute(self):
        assert commutes(pauli_from_string("XI"), pauli_from_string("IX"))

    def test_listed_pair_commutes(self):
        assert commutes(pauli_from_string("YZ"), pauli_from_string("ZX"))

    def test_single_qubit_anticommuting_pair(self):
        assert not commutes(pauli_from_string("X"), pauli_from_string("Z"))

    def test_agrees_with_matrix_commutator_two_qubits(self):
        ops = list(enumerate_nonidentity(2))
        for a in ops:
            ma = matrix_from_letters(a.to_string())
            for b in ops:
                mb = matrix_from_letters(b.to_string())
                assert commutes(a, b) == matrices_commute(ma, mb)

    def test_commuting_iff_products_share_phase(self):
        # exhaustive on two qubits
        herms2 = [p.hermitian() for p in enumerate_nonidentity(2)]
        for a in herms2:
            for b in herms2:
                assert commutes(a, b) == (
                    multiply(a, b).phase == multiply(b, a).phase
                )
        # randomized on three qubits
        rng = np.random.default_rng(9)
        ops3 = enumerate_nonidentity(3)
        for _ in range(500):
            i, j = rng.integers(len(ops3), size=2)
            a, b = ops3[i].hermitian(), ops3[j].hermitian()
            assert commutes(a, b) == (multiply(a, b).phase == multiply(b, a).phase)

    def test_census_of_commuting_partners(self):
        # every operator commutes with 4**n/2 - 2 others
        for n in (2, 3):
            expected = (4**n) // 2 - 2
            ops = enumerate_nonidentity(n)
            for p in ops:
                count = sum(1 for q in ops if q != p and commutes(p, q))
                assert count == expected


class TestEnumerateAndIndependence:
    def test_counts(self):
        assert len(enumerate_nonidentity(2)) == 15
        assert len(enumerate_nonidentity(3)) == 63
        assert len(enumerate_nonidentity(4)) == 255
        assert len(enumerate_nonidentity(5)) == 1023

    def test_single_qubit_canonical_order(self):
        assert [p.to_string() for p in enumerate_nonidentity(1)] == ["Z", "X", "Y"]

    def test_order_is_lexicographic_on_x_then_z(self):
        keys = [p.key for p in enumerate_nonidentity(3)]
        assert keys == sorted(keys) == list(range(1, 64))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_nonidentity(0)
        with pytest.raises(ValueError):
            enumerate_nonidentity(9)

    def test_dependent_triple(self):
        ops = [pauli_from_string(s) for s in ("XI", "IX", "XX")]
        assert not independent(ops)

    def test_pooled_generators_of_disjoint_classes_independent(self):
        gens = [pauli_from_string(s) for s in ("ZI", "IZ", "XI", "IX")]
        assert independent(gens)

    def test_single_operator_independent(self):
        assert independent([pauli_from_string("Z")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            independent([])

    def test_identity_breaks_independence(self):
        assert not independent([identity(1)])


def test_projective_ordering_matches_key():
    ops = enumerate_nonidentity(2)
    assert ops == sorted(ops)
    assert [PauliOperator.from_key(2, p.key) for p in ops] == ops


def test_every_public_name_resolves():
    import mubforge

    assert len(set(mubforge.__all__)) == len(mubforge.__all__)
    for name in mubforge.__all__:
        assert getattr(mubforge, name) is not None, name
