"""Unbiased-vector search, collision entropy, and context verification."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest

from mubforge.analysis import (
    UnbiasedVectorProblem,
    collision_entropy,
    d8_double_partition_verify,
    eur_bound,
    eur_check,
    ks_alternate_partition,
    ks_sign_verify,
    residual,
    strong_unext_search,
)
from mubforge.bases import eigenbasis
from mubforge.classes import ClassSet, canonical_complete_set, class_from_strings
from mubforge.named_sets import (
    ALTERNATE_FIVE_D8,
    ALTERNATE_TRIPLE_D4,
    STRONG_FIVE_D8,
    strong_five_d8,
    strong_triple_d4,
    weak_triple_d4,
)
from mubforge.pauli import multiply
from mubforge.unextendible import build_unextendible_set, extra_classes_within_union
from oracles import matrix_from_letters, random_state


def triple_bases(cs):
    return [eigenbasis(c) for c in cs]


class TestResidual:
    def test_computational_vector_against_own_basis(self):
        cs = canonical_complete_set(2)
        b = eigenbasis(cs[0])
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        d = 4
        expected = (1 - 1 / d) ** 2 + (d - 1) * (1 / d) ** 2
        assert abs(residual(psi, [b]) - expected) < 1e-14

    def test_member_of_fourth_basis_is_an_exact_witness(self):
        cs = canonical_complete_set(2)
        bases = triple_bases(cs.classes[:3])
        fourth = eigenbasis(cs[3])
        for vec in fourth.vectors:
            assert residual(vec, bases) < 1e-14

    def test_invariant_under_global_phase(self):
        cs = canonical_complete_set(2)
        bases = triple_bases(cs.classes[:3])
        rng = np.random.default_rng(1)
        psi = random_state(rng, 4)
        r1 = residual(psi, bases)
        r2 = residual(np.exp(0.83j) * psi, bases)
        assert abs(r1 - r2) < 1e-14

    def test_rejects_non_unit_vectors(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError):
            residual(np.ones(4), [eigenbasis(cs[0])])


class TestUnbiasedVectorProblem:
    def test_analytic_gradient_matches_central_differences(self):
        cs = canonical_complete_set(2)
        problem = UnbiasedVectorProblem.from_bases(triple_bases(cs.classes[:3]))
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi, 3)
            _, grad = problem.residual_and_gradient(theta)
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                fp, _ = problem.residual_and_gradient(theta + step)
                fm, _ = problem.residual_and_gradient(theta - step)
                numeric = (fp - fm) / (2 * h)
                scale = max(1.0, abs(numeric))
                assert abs(grad[j] - numeric) / scale < 1e-6

    def test_candidates_are_unbiased_to_the_first_basis(self):
        cs = canonical_complete_set(2)
        bases = triple_bases(cs.classes[1:4])
        problem = UnbiasedVectorProblem.from_bases(bases)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, 3)
            psi = problem.vector(theta)
            probs = np.abs(bases[0].vectors.conj() @ psi) ** 2
            assert np.max(np.abs(probs - 0.25)) < 1e-12

    def test_problem_residual_matches_full_residual(self):
        cs = canonical_complete_set(2)
        bases = triple_bases(cs.classes[:3])
        problem = UnbiasedVectorProblem.from_bases(bases)
        rng = np.random.default_rng(8)
        theta = rng.uniform(0, 2 * np.pi, 3)
        f, _ = problem.residual_and_gradient(theta)
        assert abs(f - residual(problem.vector(theta), bases)) < 1e-13


class TestStrongSearch:
    def test_extendible_triples_always_yield_witnesses(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            bases = triple_bases([cs[i] for i in picks])
            out = strong_unext_search(bases, starts=50, seed=3, stop_below=1e-12)
            assert out.min_residual < 1e-10
            rest = [eigenbasis(cs[i]) for i in range(5) if i not in picks]
            overlap = max(
                float(np.max(np.abs(b.vectors.conj() @ out.best_vector)))
                for b in rest
            )
            assert overlap > 1 - 1e-4

    def test_strong_triple_has_a_high_floor_quick(self):
        bases = triple_bases(strong_triple_d4())
        out = strong_unext_search(bases, starts=60, seed=5)
        assert out.min_residual > 1e-3
        assert out.starts == 60

    def test_early_stop_equals_the_shorter_run(self):
        # a run that stop_below ends after k starts is the run of k starts;
        # three iterations per start keep the first starts above the bar
        cs = canonical_complete_set(2)
        bases = triple_bases([cs[0], cs[1], cs[2]])
        opts = {"seed": 9, "max_iterations": 3}
        stopped = strong_unext_search(bases, starts=50, stop_below=1e-3, **opts)
        assert 1 < stopped.starts < 50
        short = strong_unext_search(bases, starts=stopped.starts, **opts)
        assert stopped.min_residual == short.min_residual
        assert np.array_equal(stopped.best_vector, short.best_vector)
        assert stopped.converged_starts == short.converged_starts
        assert stopped.config["best_start_index"] == stopped.starts - 1
        assert short.config["best_start_index"] == stopped.starts - 1

    def test_rejects_biased_inputs_and_zero_starts(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError, match="unbiased"):
            strong_unext_search(
                [eigenbasis(cs[0]), eigenbasis(cs[0])], starts=5, seed=0
            )
        with pytest.raises(ValueError):
            strong_unext_search(triple_bases(cs.classes[:3]), starts=0, seed=0)

    def test_outcome_records_configuration(self):
        bases = triple_bases(strong_triple_d4())
        out = strong_unext_search(bases, starts=8, seed=2)
        assert out.seed == 2
        assert out.config["starts_requested"] == 8
        assert out.converged_starts <= out.starts


class TestCollisionEntropy:
    def test_own_basis_vector_gives_zero(self):
        b = eigenbasis(canonical_complete_set(2)[0])
        assert collision_entropy(b, b.vectors[2]) == 0.0

    def test_unbiased_vector_gives_log_d(self):
        cs = canonical_complete_set(2)
        b0 = eigenbasis(cs[0])
        other = eigenbasis(cs[1])
        assert abs(collision_entropy(b0, other.vectors[0]) - 2.0) < 1e-12

    def test_extra_class_eigenstate_gives_exactly_one_bit(self):
        weak = weak_triple_d4()
        extra = extra_classes_within_union(weak).found[0]
        states = eigenbasis(extra)
        for c in weak:
            b = eigenbasis(c)
            for k in range(4):
                assert abs(collision_entropy(b, states.vectors[k]) - 1.0) < 1e-12


class TestEur:
    def test_bound_value(self):
        assert eur_bound(3, 4) == 1.0

    def test_weak_triple_saturates_for_every_extra_class(self):
        weak = weak_triple_d4()
        for extra in extra_classes_within_union(weak).found:
            report = eur_check(weak, extra)
            assert report.saturated
            for state in report.states:
                assert all(abs(h - 1.0) <= 1e-12 for h in state.per_basis)
                assert abs(state.average - report.bound) <= 1e-12

    def test_complete_set_triples_saturate(self):
        cs = canonical_complete_set(2)
        triple = ClassSet(2, cs.classes[:3])
        extra = extra_classes_within_union(triple).found[0]
        report = eur_check(triple, extra)
        assert report.saturated and report.bound == 1.0

    def test_random_states_respect_the_bound(self):
        weak = weak_triple_d4()
        bases = triple_bases(weak)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            psi = random_state(rng, 4)
            avg = sum(collision_entropy(b, psi) for b in bases) / 3
            assert avg >= 1.0 - 1e-9

    def test_rejects_foreign_extra_class(self):
        weak = weak_triple_d4()
        with pytest.raises(ValueError):
            eur_check(weak, class_from_strings(("ZI", "IZ", "ZZ")))


class TestKsContexts:
    def test_alternate_partition_matches_published_classes(self):
        ctx = ks_alternate_partition(weak_triple_d4())
        got = {frozenset(c.letters()) for c in ctx.alternate}
        want = {frozenset(group) for group in ALTERNATE_TRIPLE_D4}
        assert got == want
        assert len(ctx.operators) == 9

    def test_every_operator_sits_in_exactly_two_contexts(self):
        ctx = ks_alternate_partition(weak_triple_d4())
        for op in ctx.operators:
            holders = [c for c in ctx.contexts if op in c]
            assert len(holders) == 2

    def test_sign_pattern_and_parity(self):
        ctx = ks_alternate_partition(weak_triple_d4())
        report = ks_sign_verify(ctx)
        assert report.minus_identity_count == 1
        assert report.parity_odd
        minus_context = ctx.contexts[report.signs.index(-1)]
        assert set(minus_context.letters()) == {"YZ", "ZX", "XY"}

    def test_signs_against_dense_matrix_oracle(self):
        ctx = ks_alternate_partition(weak_triple_d4())
        report = ks_sign_verify(ctx)
        for context, sign in zip(ctx.contexts, report.signs):
            m = np.eye(4, dtype=complex)
            for p in context.sorted_elements:
                m = m @ matrix_from_letters(p.to_string())
            assert np.allclose(m, sign * np.eye(4), atol=1e-12)

    def test_context_products_are_order_independent(self):
        ctx = ks_alternate_partition(weak_triple_d4())
        for context in ctx.contexts:
            ops = [p.hermitian() for p in context.sorted_elements]
            results = set()
            for perm in permutations(ops):
                prod = perm[0]
                for op in perm[1:]:
                    prod = multiply(prod, op)
                results.add((prod.key, prod.phase))
            assert len(results) == 1

    def test_squared_slot_product_is_plus_identity(self):
        # multiplying every operator twice, copies adjacent, gives +identity
        ctx = ks_alternate_partition(weak_triple_d4())
        m = np.eye(4, dtype=complex)
        for op in ctx.operators:
            mat = matrix_from_letters(op.to_string())
            m = m @ mat @ mat
        assert np.allclose(m, np.eye(4), atol=1e-12)

    def test_strong_triple_also_has_an_alternate_partition(self):
        ctx = ks_alternate_partition(strong_triple_d4())
        report = ks_sign_verify(ctx)
        assert report.parity_odd

    def test_all_constructed_triples_have_odd_parity(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            us = build_unextendible_set(cs, picks)
            report = ks_sign_verify(ks_alternate_partition(us))
            assert report.parity_odd

    def test_extendible_triple_rejected(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError, match="extendible"):
            ks_alternate_partition(ClassSet(2, cs.classes[:3]))


class TestD8DoublePartition:
    def test_published_double_partition_verifies(self):
        assert d8_double_partition_verify(strong_five_d8(), ALTERNATE_FIVE_D8)

    def test_first_against_itself_fails(self):
        assert not d8_double_partition_verify(strong_five_d8(), STRONG_FIVE_D8)

    def test_swapped_operator_fails(self):
        tampered = [list(group) for group in ALTERNATE_FIVE_D8]
        tampered[0][3], tampered[1][3] = tampered[1][3], tampered[0][3]
        assert not d8_double_partition_verify(strong_five_d8(), tampered)

    def test_different_operator_sets_raise(self):
        altered = [list(group) for group in ALTERNATE_FIVE_D8]
        altered[0][0] = "XXZ"  # not among the 35 operators
        with pytest.raises(ValueError):
            d8_double_partition_verify(strong_five_d8(), altered)
