"""Unbiased-vector search, collision entropy, and context verification."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest

from mubforge import analysis
from mubforge.analysis import (
    UnbiasedVectorProblem,
    collision_entropy,
    context_sign,
    d8_double_partition_verify,
    eur_bound,
    eur_check,
    ks_alternate_partition,
    residual,
    strong_unext_search,
)
from mubforge.bases import eigenbasis
from mubforge.certificates import strong_content
from mubforge.classes import (
    ClassSet,
    canonical_complete_set,
    class_from_mask,
    class_from_strings,
)
from mubforge.named_sets import (
    ALTERNATE_FIVE_D8,
    ALTERNATE_TRIPLE_D4,
    STRONG_FIVE_D8,
    strong_five_d8,
    strong_triple_d4,
    weak_triple_d4,
)
from mubforge.pauli import multiply
from mubforge.search import all_maximal_classes
from mubforge.unextendible import (
    build_unextendible_set,
    extendibility_check,
    extra_classes_within_union,
)
from oracles import matrix_from_letters, random_state, residual_jacobian


def triple_bases(cs):
    return [eigenbasis(c) for c in cs]


def ks_contexts(cs):
    """The classes of ``cs``, then the alternate partition of their operators."""
    return (*cs, *ks_alternate_partition(cs))


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
        # g = J^T r is half the gradient of F, and H = J^T J is the
        # Gauss-Newton matrix of the broadcast Jacobian oracle
        h = 1e-6
        for sets in (canonical_complete_set(2).classes[:3], strong_five_d8()):
            bases = triple_bases(sets)
            problem = UnbiasedVectorProblem.from_bases(bases)
            n = problem.d - 1
            theta = np.random.default_rng(17).uniform(0, 2 * np.pi, (40, n))
            r, g, gauss = problem.residual_and_gradient(theta)
            r_oracle, jac = residual_jacobian(bases, theta)
            assert np.max(np.abs(r - r_oracle)) < 1e-13
            assert np.max(np.abs(gauss - jac.transpose(0, 2, 1) @ jac)) < 1e-12
            for j in range(n):
                step = np.zeros(n)
                step[j] = h
                r_plus, _ = residual_jacobian(bases, theta + step)
                r_minus, _ = residual_jacobian(bases, theta - step)
                assert np.max(np.abs(jac[:, :, j] - (r_plus - r_minus) / (2 * h))) < 1e-6
                f_plus, f_minus = (
                    np.array([residual(problem.vector(t), bases) for t in theta + shift])
                    for shift in (step, -step)
                )
                numeric = (f_plus - f_minus) / (2 * h)
                scale = np.maximum(1.0, np.abs(numeric))
                assert np.all(np.abs(2.0 * g[:, j] - numeric) / scale < 1e-6)

    def test_newton_hessian_matches_central_differences_of_the_gradient(self):
        # in Newton mode H is the Jacobian of g = J^T r, half the Hessian of F
        h = 1e-5
        for sets in (strong_triple_d4(), strong_five_d8()):
            problem = UnbiasedVectorProblem.from_bases(triple_bases(sets))
            n = problem.d - 1
            theta = np.random.default_rng(21).uniform(0, 2 * np.pi, (40, n))
            _, _, hess = problem.residual_and_gradient(theta, True)
            for j in range(n):
                step = np.zeros(n)
                step[j] = h
                _, g_plus, _ = problem.residual_and_gradient(theta + step)
                _, g_minus, _ = problem.residual_and_gradient(theta - step)
                assert np.max(np.abs(hess[:, :, j] - (g_plus - g_minus) / (2 * h))) < 1e-6

    def test_unflagged_rows_are_the_gauss_newton_call(self):
        for sets in (canonical_complete_set(2).classes[:3], strong_five_d8()):
            problem = UnbiasedVectorProblem.from_bases(triple_bases(sets))
            theta = np.random.default_rng(5).uniform(0, 2 * np.pi, (33, problem.d - 1))
            plain = problem.residual_and_gradient(theta)
            for flags in (False, np.zeros(33, dtype=bool)):
                for a, b in zip(plain, problem.residual_and_gradient(theta, flags)):
                    assert a.tobytes() == b.tobytes()
            # the Newton term changes H alone
            r, g, hess = problem.residual_and_gradient(theta, True)
            assert r.tobytes() == plain[0].tobytes()
            assert g.tobytes() == plain[1].tobytes()
            assert not np.array_equal(hess, plain[2])

    def test_batch_rows_equal_single_point_calls(self):
        # each row of a batch is computed on its own, in its own mode:
        # exactly the 1-row call, whatever the batch size and the other
        # rows' modes
        for sets in (canonical_complete_set(2).classes[:3], strong_five_d8()):
            problem = UnbiasedVectorProblem.from_bases(triple_bases(sets))
            n = problem.d - 1
            m = len(problem.conditions)
            rng = np.random.default_rng(4)
            for size in (1, 2, 3, 17, 64, 1000):
                theta = rng.uniform(0, 2 * np.pi, (size, n))
                for newton in (False, rng.random(size) < 0.5):
                    batch = problem.residual_and_gradient(theta, newton)
                    assert [a.shape for a in batch] == [(size, m), (size, n), (size, n, n)]
                    flags = np.broadcast_to(newton, size)
                    for b in range(size):
                        single = problem.residual_and_gradient(theta[b], flags[b])
                        row = problem.residual_and_gradient(
                            theta[b : b + 1], flags[b : b + 1]
                        )
                        for whole, one, first in zip(batch, single, row):
                            assert np.array_equal(one, whole[b])
                            assert np.array_equal(first[0], whole[b])

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
        for cs in (canonical_complete_set(2).classes[:3], strong_five_d8()):
            bases = triple_bases(cs)
            problem = UnbiasedVectorProblem.from_bases(bases)
            theta = np.random.default_rng(8).uniform(0, 2 * np.pi, (10, problem.d - 1))
            r, _, _ = problem.residual_and_gradient(theta)
            for row, t in zip(r, theta):
                assert abs(np.sum(row * row) - residual(problem.vector(t), bases)) < 1e-13


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

    def test_every_start_on_an_extendible_triple_reaches_a_witness(self):
        # the switch to the full Hessian must not cost witnesses: every one
        # of the 60 extendible disjoint d = 4 triples, from each of 50 starts
        classes = [class_from_mask(2, rec) for rec in all_maximal_classes(2)]
        extendible = 0
        for trio in combinations(classes, 3):
            masks = [c.mask for c in trio]
            if (masks[0] & masks[1]) | (masks[0] & masks[2]) | (masks[1] & masks[2]):
                continue
            cs = ClassSet(2, trio)
            if not extendibility_check(cs):
                continue
            extendible += 1
            problem = UnbiasedVectorProblem.from_bases(triple_bases(cs))
            final_f, _, _ = analysis._multistart(
                problem, 50, 3, None, analysis.DEFAULT_MAX_ITERATIONS, analysis.DEFAULT_F_TOL
            )
            assert np.max(final_f) < 1e-10
        assert extendible == 60

    @pytest.mark.parametrize(
        "sets, floor", [(strong_triple_d4, 0.25), (strong_five_d8, 0.125)], ids=["d4", "d8"]
    )
    def test_floors_hold_and_almost_every_start_converges(self, sets, floor):
        # the calibrated floors over twenty seeds at the default 1000
        # starts; at most 2% of starts may end unconverged, so a tail of
        # starts crawling to max_iterations cannot return unnoticed
        bases = triple_bases(sets())
        for seed in range(500, 520):
            out = strong_unext_search(bases, seed=seed)
            assert out.starts == 1000
            assert abs(out.min_residual - floor) < 1e-9
            assert out.converged_starts >= 980

    def test_a_singular_system_fails_only_its_own_row(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 4, 4))
        normal = a @ a.transpose(0, 2, 1) + np.eye(4)
        normal[2] = [[1.0, 2.0, 0, 0], [2.0, 4.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
        rhs = rng.normal(size=(5, 4))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(normal, rhs[..., None])
        step, solved = analysis._solve_rows(normal, rhs)
        assert solved.tolist() == [True, True, False, True, True]
        assert not step[2].any()
        for i in (0, 1, 3, 4):
            alone = np.linalg.solve(normal[i : i + 1], rhs[i : i + 1, :, None])
            assert np.array_equal(step[i], alone[0, :, 0])
        whole, all_solved = analysis._solve_rows(normal[[0, 1, 3, 4]], rhs[[0, 1, 3, 4]])
        assert all_solved.all()
        assert np.array_equal(whole, step[[0, 1, 3, 4]])

    def test_strong_triple_has_a_high_floor_quick(self):
        bases = triple_bases(strong_triple_d4())
        out = strong_unext_search(bases, starts=60, seed=5)
        assert out.min_residual > 1e-3
        assert out.starts == 60

    def test_early_stop_equals_the_shorter_run(self):
        # a run that stop_below ends after k starts is the run of k starts;
        # one iteration per start keeps the first starts above the bar
        cs = canonical_complete_set(2)
        bases = triple_bases([cs[0], cs[1], cs[2]])
        opts = {"seed": 9, "max_iterations": 1}
        stopped = strong_unext_search(bases, starts=50, stop_below=1e-3, **opts)
        assert 1 < stopped.starts < 50
        short = strong_unext_search(bases, starts=stopped.starts, **opts)
        assert stopped.min_residual == short.min_residual
        assert np.array_equal(stopped.best_vector, short.best_vector)
        assert stopped.converged_starts == short.converged_starts
        assert stopped.best_start_index == stopped.starts - 1
        assert short.best_start_index == stopped.starts - 1

    def test_rejects_biased_inputs_and_zero_starts(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError, match="unbiased"):
            strong_unext_search(
                [eigenbasis(cs[0]), eigenbasis(cs[0])], starts=5, seed=0
            )
        with pytest.raises(ValueError):
            strong_unext_search(triple_bases(cs.classes[:3]), starts=0, seed=0)

    @pytest.mark.parametrize(
        "opts",
        [{"max_iterations": 0}, {"max_iterations": -3}, {"f_tol": -1.0},
         {"f_tol": float("nan")}, {"f_tol": float("inf")},
         {"max_iterations": float("nan")}, {"max_iterations": 2.5},
         {"max_iterations": 3.0}, {"max_iterations": True},
         {"stop_below": float("nan")}, {"stop_below": float("inf")},
         {"stop_below": float("-inf")}],
        ids=["zero-iterations", "negative-iterations", "negative-f-tol",
             "nan-f-tol", "infinite-f-tol", "nan-iterations",
             "fractional-iterations", "float-iterations", "bool-iterations",
             "nan-stop-below", "infinite-stop-below", "minus-infinite-stop-below"],
    )
    def test_rejects_unusable_optimizer_settings(self, opts):
        bases = triple_bases(canonical_complete_set(2).classes[:3])
        with pytest.raises(ValueError):
            strong_unext_search(bases, starts=5, seed=0, **opts)

    @pytest.mark.parametrize(
        "source, opts",
        [("d4-strong", {"starts": 300, "seed": 11}),
         ("d8-strong", {"starts": 120, "seed": 4}),
         ("d4-extendible", {"starts": 50, "seed": 9, "max_iterations": 1,
                            "stop_below": 1e-3})],
    )
    def test_batch_split_does_not_change_results(self, monkeypatch, source, opts):
        # every start's result is its own: how the starts are batched
        # together, down to one at a time, changes nothing
        bases = triple_bases({
            "d4-strong": strong_triple_d4(),
            "d8-strong": strong_five_d8(),
            "d4-extendible": canonical_complete_set(2).classes[:3],
        }[source])
        outcomes = []
        for cap in (1, 7, analysis._BATCH_CAP):
            monkeypatch.setattr(analysis, "_BATCH_CAP", cap)
            outcomes.append(strong_unext_search(bases, **opts))
        first = outcomes[0]
        for out in outcomes[1:]:
            assert out.min_residual == first.min_residual
            assert np.array_equal(out.best_vector, first.best_vector)
            assert out.starts == first.starts
            assert out.converged_starts == first.converged_starts
            assert out.best_start_index == first.best_start_index

    def test_outcome_records_configuration(self):
        # the search returns what it computed; the certificate content
        # records the settings it ran the search with
        bases = triple_bases(strong_triple_d4())
        out = strong_unext_search(bases, starts=8, seed=2)
        assert out.converged_starts <= out.starts == 8
        assert 0 <= out.best_start_index < out.starts
        config, payload = strong_content("paper-d4-strong", strong_triple_d4(), 8, 2, None)
        assert config == {
            "source": "paper-d4-strong", "starts": 8, "seed": 2, "stop_below": None,
        }
        assert payload["seed"] == 2
        assert payload["config"]["starts_requested"] == 8
        assert payload["starts"] == out.starts
        assert payload["config"]["best_start_index"] == out.best_start_index


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
        extra = extra_classes_within_union(weak)[0]
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
        for extra in extra_classes_within_union(weak):
            entropies = eur_check(weak, extra)
            assert list(entropies) == ["00", "01", "10", "11"]
            for per_basis in entropies.values():
                assert all(abs(h - 1.0) <= 1e-12 for h in per_basis)
                assert abs(sum(per_basis) / len(per_basis) - eur_bound(3, 4)) <= 1e-12

    def test_complete_set_triples_saturate(self):
        cs = canonical_complete_set(2)
        triple = ClassSet(2, cs.classes[:3])
        extra = extra_classes_within_union(triple)[0]
        entropies = eur_check(triple, extra)  # raises unless saturated
        assert len(entropies) == 4
        for per_basis in entropies.values():
            assert abs(sum(per_basis) / len(per_basis) - 1.0) <= 1e-12

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
        weak = weak_triple_d4()
        alternate = ks_alternate_partition(weak)
        got = {frozenset(c.letters()) for c in alternate}
        want = {frozenset(group) for group in ALTERNATE_TRIPLE_D4}
        assert got == want
        # the alternate contexts cover the same nine operators
        assert ClassSet(2, alternate).union_mask == weak.union_mask
        assert len(weak.operators()) == 9

    def test_every_operator_sits_in_exactly_two_contexts(self):
        weak = weak_triple_d4()
        contexts = ks_contexts(weak)
        for op in weak.operators():
            holders = [c for c in contexts if op in c]
            assert len(holders) == 2

    def test_sign_pattern_and_parity(self):
        contexts = ks_contexts(weak_triple_d4())
        signs = [context_sign(c) for c in contexts]
        assert signs.count(-1) == 1  # so the parity is odd
        minus_context = contexts[signs.index(-1)]
        assert set(minus_context.letters()) == {"YZ", "ZX", "XY"}

    def test_signs_against_dense_matrix_oracle(self):
        for context in ks_contexts(weak_triple_d4()):
            sign = context_sign(context)
            m = np.eye(4, dtype=complex)
            for p in context.sorted_elements:
                m = m @ matrix_from_letters(p.to_string())
            assert np.allclose(m, sign * np.eye(4), atol=1e-12)

    def test_context_products_are_order_independent(self):
        for context in ks_contexts(weak_triple_d4()):
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
        m = np.eye(4, dtype=complex)
        for op in weak_triple_d4().operators():
            mat = matrix_from_letters(op.to_string())
            m = m @ mat @ mat
        assert np.allclose(m, np.eye(4), atol=1e-12)

    def test_strong_triple_also_has_an_alternate_partition(self):
        signs = [context_sign(c) for c in ks_contexts(strong_triple_d4())]
        assert signs.count(-1) % 2 == 1

    def test_all_constructed_triples_have_odd_parity(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            us = build_unextendible_set(cs, picks)
            signs = [context_sign(c) for c in ks_contexts(us)]
            assert signs.count(-1) % 2 == 1

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
