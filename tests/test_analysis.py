"""Unbiased-vector search and collision entropy."""

from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mubforge import analysis
from mubforge.analysis import (
    UnbiasedVectorProblem,
    collision_entropy,
    eur_bound,
    eur_check,
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
from mubforge.named_sets import named_class_set
from mubforge.search import all_maximal_classes
from mubforge.unextendible import (
    build_unextendible_set,
    extendibility_check,
    extra_classes_within_union,
)
from oracles import WITNESS_THRESHOLD, random_state, residual_jacobian, start_angles


def triple_bases(cs):
    return [eigenbasis(c) for c in cs]


def first_three():
    """The first three classes of the canonical two-qubit complete set."""
    return ClassSet(2, canonical_complete_set(2).classes[:3])


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
        for vec in fourth:
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
        for sets in (first_three(), named_class_set("paper-d8-strong")):
            problem = UnbiasedVectorProblem.from_classes(sets)
            bases = triple_bases(sets)
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
        for sets in (named_class_set("paper-d4-strong"), named_class_set("paper-d8-strong")):
            problem = UnbiasedVectorProblem.from_classes(sets)
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
        for sets in (first_three(), named_class_set("paper-d8-strong")):
            problem = UnbiasedVectorProblem.from_classes(sets)
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

    def test_batch_rows_equal_one_row_calls(self):
        # each row of a batch is computed on its own, in its own mode:
        # exactly the 1-row call, whatever the batch size and the other
        # rows' modes
        for sets in (first_three(), named_class_set("paper-d8-strong")):
            problem = UnbiasedVectorProblem.from_classes(sets)
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
                        row = problem.residual_and_gradient(
                            theta[b : b + 1], flags[b : b + 1]
                        )
                        for whole, first in zip(batch, row):
                            assert np.array_equal(first[0], whole[b])

    def test_candidates_are_unbiased_to_the_first_basis(self):
        cs = canonical_complete_set(2)
        problem = UnbiasedVectorProblem.from_classes(ClassSet(2, cs.classes[1:4]))
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, 3)
            psi = problem.vector(theta)
            probs = np.abs(eigenbasis(cs[1]).conj() @ psi) ** 2
            assert np.max(np.abs(probs - 0.25)) < 1e-12

    def test_problem_residual_matches_full_residual(self):
        for cs in (first_three(), named_class_set("paper-d8-strong")):
            problem = UnbiasedVectorProblem.from_classes(cs)
            bases = triple_bases(cs)
            theta = np.random.default_rng(8).uniform(0, 2 * np.pi, (10, problem.d - 1))
            r, _, _ = problem.residual_and_gradient(theta)
            for row, t in zip(r, theta):
                assert abs(np.sum(row * row) - residual(problem.vector(t), bases)) < 1e-13


class TestStrongSearch:
    def test_extendible_triples_always_yield_witnesses(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            out = strong_unext_search(
                ClassSet(2, tuple(cs[i] for i in picks)), starts=50, seed=3, stop_below=1e-12
            )
            assert out.min_residual < WITNESS_THRESHOLD
            rest = [eigenbasis(cs[i]) for i in range(5) if i not in picks]
            overlap = max(
                float(np.max(np.abs(b.conj() @ out.best_vector)))
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
            problem = UnbiasedVectorProblem.from_classes(cs)
            final_f, _, _ = analysis._settle(problem, analysis._start_angles(3, np.arange(50), 3))
            assert np.max(final_f) < WITNESS_THRESHOLD
        assert extendible == 60

    @pytest.mark.parametrize(
        "name, floor", [("paper-d4-strong", 0.25), ("paper-d8-strong", 0.125)],
        ids=["d4", "d8"],
    )
    def test_floors_hold_and_almost_every_start_converges(self, name, floor):
        # the calibrated floors over twenty seeds at the default 1000
        # starts; at most 2% of starts may end unconverged, so a tail of
        # starts crawling to max_iterations cannot return unnoticed
        cs = named_class_set(name)
        for seed in range(500, 520):
            out = strong_unext_search(cs, seed=seed)
            assert out.starts == 1000
            assert abs(out.min_residual - floor) < 1e-9
            assert out.converged_starts >= 980

    def test_sixteen_dimensional_calibration_both_ways(self):
        # a four-qubit swap set ends at the floor 1/16, which is evidence,
        # not proof, that no vector is unbiased to all nine bases; nine
        # classes of the complete set, which its other eight extend, yield
        # a witness
        cs = canonical_complete_set(4)
        out = strong_unext_search(build_unextendible_set(cs, range(9)), starts=200)
        assert abs(out.min_residual - 1 / 16) < 1e-9
        for picks in (range(9), range(8, 17), range(0, 17, 2)):
            out = strong_unext_search(
                ClassSet(4, tuple(cs[i] for i in picks)), starts=50,
                stop_below=WITNESS_THRESHOLD,
            )
            assert out.min_residual < WITNESS_THRESHOLD

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
        out = strong_unext_search(named_class_set("paper-d4-strong"), starts=60, seed=5)
        assert out.min_residual > 1e-3
        assert out.starts == 60

    def test_early_stop_equals_the_shorter_run(self, monkeypatch):
        # a run that stop_below ends after k starts is the run of k starts;
        # one iteration per start keeps the first starts above the bar
        cs = first_three()
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 1)
        stopped = strong_unext_search(cs, starts=50, seed=9, stop_below=1e-3)
        assert 1 < stopped.starts < 50
        short = strong_unext_search(cs, starts=stopped.starts, seed=9)
        assert stopped.min_residual == short.min_residual
        assert np.array_equal(stopped.best_vector, short.best_vector)
        assert stopped.converged_starts == short.converged_starts
        assert stopped.best_start_index == stopped.starts - 1
        assert short.best_start_index == stopped.starts - 1

    def test_rejects_biased_inputs_and_zero_starts(self):
        # the search takes a class set, whose classes are disjoint, so two
        # copies of one class (whose bases are biased) never reach it
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            ClassSet(2, (cs[0], cs[0]))
        with pytest.raises(ValueError, match="need at least two classes"):
            strong_unext_search(ClassSet(2, (cs[0],)), starts=5, seed=0)
        with pytest.raises(ValueError):
            strong_unext_search(first_three(), starts=0, seed=0)

    def test_more_starts_than_one_index_word_holds_are_refused_at_once(self):
        # every start index is one uint32 word: one start more is refused,
        # and 2**32 starts run, here ending at the first, which the floor
        # 0.25 puts below the bar
        cs = named_class_set("paper-d4-strong")
        with pytest.raises(ValueError, match=r"in \[1, 4294967296\], got 4294967297$"):
            strong_unext_search(cs, starts=2**32 + 1)
        out = strong_unext_search(cs, starts=2**32, stop_below=1.0)
        assert out.starts == 1 and out.best_start_index == 0
        assert out.min_residual < 1.0

    @pytest.mark.parametrize("name", ["paper-d4-strong", "paper-d8-strong"])
    def test_a_batch_makes_at_most_max_iterations_plus_one_kernel_calls(
        self, monkeypatch, name
    ):
        # the 25 starts of check's spot re-run are one batch: its start
        # points, then one trial per step
        calls = []
        kernel = UnbiasedVectorProblem.residual_and_gradient

        def spy(self, theta, newton=False):
            calls.append(len(theta))
            return kernel(self, theta, newton)

        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 3)
        monkeypatch.setattr(UnbiasedVectorProblem, "residual_and_gradient", spy)
        strong_unext_search(named_class_set(name), starts=25, seed=1)
        assert calls[0] == 25
        assert len(calls) <= 4

    @pytest.mark.parametrize(
        "opts, error",
        [({"max_iterations": 0}, TypeError), ({"max_iterations": -3}, TypeError),
         ({"f_tol": -1.0}, TypeError), ({"f_tol": float("nan")}, TypeError),
         ({"f_tol": float("inf")}, TypeError), ({"max_iterations": float("nan")}, TypeError),
         ({"max_iterations": 2.5}, TypeError), ({"max_iterations": 3.0}, TypeError),
         ({"max_iterations": True}, TypeError), ({"stop_below": float("nan")}, ValueError),
         ({"stop_below": float("inf")}, ValueError),
         ({"stop_below": float("-inf")}, ValueError), ({"stop_below": 10**400}, ValueError),
         ({"starts": True}, TypeError), ({"starts": 5.0}, TypeError)],
        ids=["zero-iterations", "negative-iterations", "negative-f-tol",
             "nan-f-tol", "infinite-f-tol", "nan-iterations",
             "fractional-iterations", "float-iterations", "bool-iterations",
             "nan-stop-below", "infinite-stop-below", "minus-infinite-stop-below",
             "huge-int-stop-below", "bool-starts", "float-starts"],
    )
    def test_rejects_unusable_optimizer_settings(self, monkeypatch, opts, error):
        # the step cap and f_tol are constants, not options, so the search
        # takes no value for them; stop_below must be None or finite, and
        # starts an integer; each is refused before any eigenbasis is built
        def built(c):
            raise AssertionError("an eigenbasis was built")

        cs = first_three()
        monkeypatch.setattr(analysis, "eigenbasis", built)
        with pytest.raises(error):
            strong_unext_search(cs, **{"starts": 5, "seed": 0, **opts})

    @pytest.mark.parametrize(
        "source, opts",
        [("d4-strong", {"starts": 300, "seed": 11}),
         ("d8-strong", {"starts": 120, "seed": 4}),
         ("d4-extendible", {"starts": 50, "seed": 9, "stop_below": 1e-3})],
    )
    def test_batch_split_does_not_change_results(self, monkeypatch, source, opts):
        # every start's result is its own: how the starts are batched
        # together, down to one at a time, at the default cap (1393 rows at
        # d = 4 from the byte budget, 256 at d = 8), or at 1024 rows,
        # changes nothing; on the extendible triple, one iteration per start
        # keeps the first starts above the bar, so stop_below ends the run
        # part-way
        if source == "d4-extendible":
            monkeypatch.setattr(analysis, "MAX_ITERATIONS", 1)
        cs = first_three() if source == "d4-extendible" else named_class_set(f"paper-{source}")
        outcomes = []
        default = (analysis._BATCH_ROWS, analysis._BATCH_BYTES)
        for rows, budget in ((1, 0), (7, 0), default, (1024, 0)):
            monkeypatch.setattr(analysis, "_BATCH_ROWS", rows)
            monkeypatch.setattr(analysis, "_BATCH_BYTES", budget)
            outcomes.append(strong_unext_search(cs, **opts))
        first = outcomes[0]
        for out in outcomes[1:]:
            assert out.min_residual == first.min_residual
            assert np.array_equal(out.best_vector, first.best_vector)
            assert out.starts == first.starts
            assert out.converged_starts == first.converged_starts
            assert out.best_start_index == first.best_start_index

    def test_search_peak_memory_is_bounded(self):
        # a batch holds at most 256 starts at d = 8, where the byte budget
        # allows no more than the row floor; the problem tables and bases
        # are built once before measuring
        cs = named_class_set("paper-d8-strong")
        assert analysis._BATCH_BYTES // (8 * 7 * 7) == analysis._BATCH_ROWS == 256
        strong_unext_search(cs, starts=5, seed=1)
        tracemalloc.start()
        try:
            out = strong_unext_search(cs, starts=1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.starts == 1000
        assert peak < 2 << 20, f"the d = 8 search peaked at {peak} bytes"

    def test_search_memory_does_not_grow_with_the_starts_requested(self):
        # both runs end after their first start, below the bar; a search
        # that sized an array by the starts requested would peak far higher
        # on the second
        cs = named_class_set("paper-d8-strong")
        strong_unext_search(cs, starts=5, seed=1)
        peaks = []
        for starts in (1000, 10**6):
            tracemalloc.start()
            try:
                out = strong_unext_search(cs, starts=starts, seed=1, stop_below=1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert out.starts == 1
        assert peaks[1] <= 2 * peaks[0], f"peaks {peaks} bytes"

    def test_outcome_records_configuration(self):
        # the search returns what it computed; the certificate content
        # records the settings it ran the search with
        out = strong_unext_search(named_class_set("paper-d4-strong"), starts=8, seed=2)
        assert out.converged_starts <= out.starts == 8
        assert 0 <= out.best_start_index < out.starts
        config, payload = strong_content("paper-d4-strong", named_class_set("paper-d4-strong"), 8, 2, None)
        assert config == {
            "source": "paper-d4-strong", "starts": 8, "seed": 2, "stop_below": None,
        }
        assert payload["seed"] == 2
        assert payload["config"]["starts_requested"] == 8
        assert payload["starts"] == out.starts
        assert payload["config"]["best_start_index"] == out.best_start_index


class TestStartAngles:
    # the search draws its starting phases a block of starts at a time; each
    # start's row must be, bit for bit, what its own numpy generator draws
    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize(
        "seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 9, 2**130 + 1],
        ids=["0", "2^32-1", "2^32", "2^64+5", "2^100+9", "2^130+1"],
    )
    def test_block_draw_matches_a_generator_per_start(self, seed, n):
        # the lowest and the highest start indices a search can make
        ks = np.concatenate([np.arange(0, 5), np.arange(2**32 - 3, 2**32)])
        got = analysis._start_angles(seed, ks, n)
        assert got.shape == (len(ks), n) and got.dtype == np.float64
        assert got.tobytes() == start_angles(seed, ks, n).tobytes()

    @pytest.mark.parametrize("cap", [1, 7, 256])
    def test_the_search_starts_where_the_generators_do(self, monkeypatch, cap):
        # each batch of cap starts is drawn in one call, and the rows the
        # search starts from are the per-start draws whatever the batch
        # boundaries
        monkeypatch.setattr(analysis, "_BATCH_ROWS", cap)
        monkeypatch.setattr(analysis, "_BATCH_BYTES", 0)
        monkeypatch.setattr(analysis, "MAX_ITERATIONS", 1)
        calls = []
        draw = analysis._start_angles

        def spy(seed, ks, n):
            calls.append(ks.copy())
            return draw(seed, ks, n)

        starts = []
        kernel = UnbiasedVectorProblem.residual_and_gradient

        def first_points(self, theta, newton=False):
            if newton is False:  # called only on the start points
                starts.append(np.array(theta))
            return kernel(self, theta, newton)

        monkeypatch.setattr(analysis, "_start_angles", spy)
        monkeypatch.setattr(UnbiasedVectorProblem, "residual_and_gradient", first_points)
        strong_unext_search(named_class_set("paper-d8-strong"), starts=600, seed=17)
        assert [(int(k[0]), len(k)) for k in calls] == [
            (first, min(cap, 600 - first)) for first in range(0, 600, cap)
        ]
        assert np.array_equal(np.concatenate(calls), np.arange(600))
        assert np.concatenate(starts).tobytes() == start_angles(17, range(600), 7).tobytes()

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            analysis._start_angles(-1, np.arange(3), 3)
        with pytest.raises(ValueError, match="non-negative"):
            strong_unext_search(named_class_set("paper-d4-strong"), starts=5, seed=-1)


class TestCollisionEntropy:
    def test_own_basis_vector_gives_zero(self):
        b = eigenbasis(canonical_complete_set(2)[0])
        assert collision_entropy(b, b[2]) == 0.0

    def test_unbiased_vector_gives_log_d(self):
        cs = canonical_complete_set(2)
        b0 = eigenbasis(cs[0])
        other = eigenbasis(cs[1])
        assert abs(collision_entropy(b0, other[0]) - 2.0) < 1e-12

    def test_extra_class_eigenstate_gives_exactly_one_bit(self):
        weak = named_class_set("paper-d4-weak")
        extra = extra_classes_within_union(weak)[0]
        states = eigenbasis(extra)
        for c in weak:
            b = eigenbasis(c)
            for k in range(4):
                assert abs(collision_entropy(b, states[k]) - 1.0) < 1e-12


class TestEur:
    def test_bound_value(self):
        assert eur_bound(3, 4) == 1.0

    def test_weak_triple_saturates_for_every_extra_class(self):
        weak = named_class_set("paper-d4-weak")
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
        weak = named_class_set("paper-d4-weak")
        bases = triple_bases(weak)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            psi = random_state(rng, 4)
            avg = sum(collision_entropy(b, psi) for b in bases) / 3
            assert avg >= 1.0 - 1e-9

    def test_rejects_foreign_extra_class(self):
        weak = named_class_set("paper-d4-weak")
        with pytest.raises(ValueError):
            eur_check(weak, class_from_strings(("ZI", "IZ", "ZZ")))

    def test_an_average_that_misses_the_bound_is_refused(self, monkeypatch):
        # no average deviates by less than zero, so every state misses
        monkeypatch.setattr(analysis, "SATURATION_TOL", -1.0)
        weak = named_class_set("paper-d4-weak")
        with pytest.raises(ValueError, match="saturation failed"):
            eur_check(weak, extra_classes_within_union(weak)[0])
