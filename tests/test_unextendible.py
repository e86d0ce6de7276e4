"""Unextendibility constructions and their exhaustive verification."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from mubforge.classes import (
    ClassSet,
    canonical_complete_set,
    class_from_strings,
    complete_set_from_two,
)
from mubforge.named_sets import (
    WEAK_TRIPLE_D4_LEFTOVER,
    strong_five_d8,
    weak_triple_d4,
)
from mubforge.pauli import commutes
from mubforge.search import enumerate_classes_in, owner_census
from mubforge.unextendible import (
    _weak4_candidates,
    build_unextendible_set,
    conjecture_scan,
    extendibility_check,
    extra_classes_within_union,
    theorem4_census,
    verify_no_weak_4set_d4,
)


class TestExtraClassesWithinUnion:
    def test_unique_extra_class_for_first_triple(self):
        cs = canonical_complete_set(2)
        report = extra_classes_within_union(ClassSet(2, cs.classes[:3]))
        assert report.exhaustive
        assert len(report.found) == 1
        assert set(report.found[0].letters()) == {"XI", "IZ", "XZ"}

    def test_every_triple_of_the_complete_set_has_exactly_one(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            sub = ClassSet(2, tuple(cs[i] for i in picks))
            report = extra_classes_within_union(sub)
            assert len(report.found) == 1

    def test_extra_class_structure(self):
        # the extra class takes one element from each input class; its two
        # smaller members multiply to the third and pair up as commuting
        # partners across the inputs
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            sub = ClassSet(2, tuple(cs[i] for i in picks))
            extra = extra_classes_within_union(sub).found[0]
            per_class = [extra.elements & cs[i].elements for i in picks]
            assert all(len(part) == 1 for part in per_class)
            w1, w2, w3 = (next(iter(part)) for part in per_class)
            assert w1.key ^ w2.key == w3.key
            assert commutes(w1, w2)

    def test_restricted_search_agrees(self):
        # both queries against the direct enumeration over the same
        # universe, for every triple and every pair of the complete set
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            sub = ClassSet(2, tuple(cs[i] for i in picks))
            own = {c.element_keys for c in sub}
            oracle = [
                frozenset(r.elements)
                for r in enumerate_classes_in(2, sub.union_mask)
                if frozenset(r.elements) not in own
            ]
            found = extra_classes_within_union(sub).found
            assert [c.element_keys for c in found] == oracle
        for picks in combinations(range(5), 2):
            sub = ClassSet(2, tuple(cs[i] for i in picks))
            report = extendibility_check(sub)
            oracle = enumerate_classes_in(2, report.universe_mask)
            assert [c.element_keys for c in report.found] == [
                frozenset(r.elements) for r in oracle
            ]

    def test_five_class_subsets_at_d8(self):
        cs = canonical_complete_set(3)
        for picks in [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (0, 2, 4, 6, 8)]:
            sub = ClassSet(3, tuple(cs[i] for i in picks))
            report = extra_classes_within_union(sub)
            assert len(report.found) == 1

    def test_four_class_subsets_have_none(self):
        cs = canonical_complete_set(3)
        for picks in [(0, 1, 2, 3), (5, 6, 7, 8), (0, 3, 5, 7)]:
            sub = ClassSet(3, tuple(cs[i] for i in picks))
            assert extra_classes_within_union(sub).found == ()


class TestExtendibilityCheck:
    def test_weak_triple_is_unextendible_with_pinned_leftover(self):
        report = extendibility_check(weak_triple_d4())
        assert report.is_empty and report.exhaustive
        leftover = {p.to_string() for p in report.universe_operators()}
        assert leftover == set(WEAK_TRIPLE_D4_LEFTOVER)

    def test_two_classes_leave_the_remaining_three_plus_their_extra(self):
        # the nine leftover operators carry the three remaining classes of
        # the complete set and exactly one further class (the unique extra
        # class of that remaining triple); these four are the candidate
        # third classes in the no-weak-four-set argument
        cs = canonical_complete_set(2)
        report = extendibility_check(ClassSet(2, cs.classes[:2]))
        found = {c.element_keys for c in report.found}
        remaining = {c.element_keys for c in cs.classes[2:]}
        assert remaining <= found
        assert len(found) == 4
        extra = extra_classes_within_union(ClassSet(2, cs.classes[2:]))
        assert found - remaining == {extra.found[0].element_keys}

    def test_full_complete_set_leaves_nothing(self):
        cs = canonical_complete_set(2)
        report = extendibility_check(cs)
        assert report.is_empty
        assert report.universe_operators() == ()

    def test_named_five_is_unextendible(self):
        assert extendibility_check(strong_five_d8()).is_empty


class TestBuildUnextendibleSet:
    def test_two_qubit_construction_matches_named_triple(self):
        cs = canonical_complete_set(2)
        us = build_unextendible_set(cs, (0, 1, 2))
        got = {frozenset(c.letters()) for c in us.classes}
        want = {frozenset(g) for g in (("YY", "IY", "YI"), ("YZ", "ZX", "XY"), ("XI", "IZ", "XZ"))}
        assert got == want
        assert us.extendibility.is_empty
        assert set(us.extra_class.letters()) == {"XI", "IZ", "XZ"}

    def test_every_choice_of_three_works(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            us = build_unextendible_set(cs, picks)
            assert us.extendibility.is_empty
            assert len(us.classes) == 3

    def test_three_qubit_construction(self):
        cs = canonical_complete_set(3)
        us = build_unextendible_set(cs, (0, 1, 2, 3, 4))
        assert len(us.classes) == 5
        assert us.extendibility.is_empty

    def test_wrong_sizes_rejected(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError):
            build_unextendible_set(cs, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            build_unextendible_set(cs, (0, 1))
        with pytest.raises(ValueError):
            build_unextendible_set(cs, (0, 0, 1))
        with pytest.raises(ValueError):
            build_unextendible_set(cs, (0, 1, 7))

    def test_incomplete_input_rejected(self):
        triple = weak_triple_d4()
        with pytest.raises(ValueError):
            build_unextendible_set(triple, (0, 1, 2))


def _brute_candidates(cs, i, j):
    """Masks of every class inside the nine operators left by classes i, j."""
    union = 0
    for k, c in enumerate(cs):
        if k not in (i, j):
            union |= c.mask
    return [r.mask for r in enumerate_classes_in(cs.n, union)]


class TestNoWeakFourSet:
    def test_structured_verification(self):
        assert verify_no_weak_4set_d4(canonical_complete_set(2)) is True

    def test_brute_force_agrees(self):
        # the verdict again, with candidates and extendibility taken from
        # the direct enumeration instead of the library's queries
        cs = canonical_complete_set(2)
        full = (1 << 15) - 1
        for i, j in combinations(range(5), 2):
            brute = _brute_candidates(cs, i, j)
            for a, b in combinations(brute, 2):
                if a & b:
                    continue
                union = cs[i].mask | cs[j].mask | a | b
                assert enumerate_classes_in(2, full & ~union)
        assert verify_no_weak_4set_d4(cs) is True

    def test_candidate_routes_agree_and_are_nonvacuous(self):
        cs = canonical_complete_set(2)
        for i, j in combinations(range(5), 2):
            structured = _weak4_candidates(cs, i, j)
            brute = _brute_candidates(cs, i, j)
            assert {c.mask for c in structured} == set(brute)
            # there are always the three leftover classes plus one extra
            assert len(brute) == 4
            pairs = [(a, b) for a, b in combinations(brute, 2) if not a & b]
            assert len(pairs) >= 1

    def test_rejects_wrong_input(self):
        with pytest.raises(ValueError):
            verify_no_weak_4set_d4(weak_triple_d4())
        with pytest.raises(ValueError):
            verify_no_weak_4set_d4(canonical_complete_set(3))


class TestCensus:
    @pytest.mark.parametrize("k,expected", [(2, 0), (3, 0), (4, 0), (5, 1), (6, 0), (7, 0)])
    def test_census_values(self, k, expected):
        assert theorem4_census(canonical_complete_set(3), k) == expected

    def test_bad_k_rejected(self):
        cs = canonical_complete_set(3)
        with pytest.raises(ValueError):
            theorem4_census(cs, 1)
        with pytest.raises(ValueError):
            theorem4_census(cs, 8)

    def test_triple_products_distribute_across_distinct_classes(self):
        # for each commuting triple {u, v, uv} of a host class and its unique
        # commuting partner in a second chosen class, the three products fall
        # into three distinct classes of the complete set; over the choice of
        # host class, exactly one triple lands entirely inside the chosen
        # five, pinning down the unique extra class
        cs = canonical_complete_set(3)
        class_of = {}
        for idx, c in enumerate(cs.classes):
            for p in c.elements:
                class_of[p.key] = idx

        def inside_count(picks, host_pos):
            chosen = set(picks)
            host = cs[picks[host_pos]]
            partner_class = cs[picks[(host_pos + 1) % 5]]
            elems = host.sorted_elements
            triples = [
                (a, b)
                for a, b in combinations(elems, 2)
                if a.key < b.key < (a.key ^ b.key)
            ]
            assert len(triples) == 7
            inside = 0
            for a, b in triples:
                partners = [
                    w
                    for w in partner_class.sorted_elements
                    if commutes(w, a) and commutes(w, b)
                ]
                assert len(partners) == 1
                w = partners[0]
                product_classes = {
                    class_of[a.key ^ w.key],
                    class_of[b.key ^ w.key],
                    class_of[a.key ^ b.key ^ w.key],
                }
                assert len(product_classes) == 3
                if product_classes <= chosen:
                    inside += 1
            return inside

        for picks in combinations(range(9), 5):
            counts = [inside_count(picks, host) for host in range(5)]
            assert all(v in (0, 1) for v in counts)
            assert sum(counts) == 1


def test_searches_reject_oversized_qubit_counts():
    from mubforge.classes import class_from_generators
    from mubforge.pauli import pauli_from_string

    z5 = class_from_generators(
        [pauli_from_string("I" * k + "Z" + "I" * (4 - k)) for k in range(5)]
    )
    with pytest.raises(ValueError, match="support"):
        extra_classes_within_union(ClassSet(5, (z5,)))


def _oracle_counts(n, part_masks, subset):
    """Within-union and spanning counts rebuilt by direct enumeration."""
    chosen = [part_masks[i] for i in range(len(part_masks)) if subset >> i & 1]
    union = 0
    for m in chosen:
        union |= m
    within = [r for r in enumerate_classes_in(n, union) if r.mask not in chosen]
    spanning = [r for r in within if all(r.mask & m for m in chosen)]
    return len(within), len(spanning)


def _assert_engine_matches_oracle(n, complete, subsets):
    masks = tuple(c.mask for c in complete)
    census = owner_census(n, masks)
    for subset in subsets:
        got = (int(census.within[subset]), int(census.spanning[subset]))
        assert got == _oracle_counts(n, masks, subset), bin(subset)


class TestOwnerCensus:
    def test_every_subset_of_the_canonical_three_qubit_set(self):
        _assert_engine_matches_oracle(3, canonical_complete_set(3), range(1 << 9))

    def test_every_subset_of_a_second_three_qubit_set(self):
        seed = class_from_strings(("IIX", "IXI", "IXX", "YII", "YIX", "YXI", "YXX"))
        z_class = canonical_complete_set(3)[0]
        other = complete_set_from_two(seed, z_class)
        assert other.partition_key() != canonical_complete_set(3).partition_key()
        _assert_engine_matches_oracle(3, other, range(1 << 9))

    def test_sampled_subsets_at_four_qubits(self):
        rng = random.Random(40)
        subsets = []
        for size in [0, 1, 2, 3, 5, 8, 9, 9, 10, 13, 16, 17] + [
            rng.randrange(18) for _ in range(28)
        ]:
            subsets.append(sum(1 << i for i in rng.sample(range(17), size)))
        assert len(subsets) == 40
        _assert_engine_matches_oracle(4, canonical_complete_set(4), subsets)

    def test_arrays_are_small_and_read_only(self):
        census = owner_census(4, tuple(c.mask for c in canonical_complete_set(4)))
        assert census.within.shape == census.spanning.shape == (1 << 17,)
        assert census.owners.shape == (2295,)
        for arr in (census.owners, census.within, census.spanning):
            assert arr.dtype == np.int32
            assert not arr.flags.writeable

    def test_rejects_masks_that_are_not_a_partition(self):
        masks = tuple(c.mask for c in canonical_complete_set(3))
        with pytest.raises(ValueError, match="partition"):
            owner_census(3, masks[:-1])
        with pytest.raises(ValueError, match="partition"):
            owner_census(3, masks[:-1] + (masks[0],))


class TestConjectureScan:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan(budget=0)
        with pytest.raises(ValueError):
            conjecture_scan(n=3)

    def test_deterministic_given_seed(self):
        a = conjecture_scan(budget=40, seed=123)
        b = conjecture_scan(budget=40, seed=123)
        assert a == b
        c = conjecture_scan(budget=40, seed=124)
        assert a != c

    def test_sampled_scan_reports_counts(self):
        report = conjecture_scan(budget=60, seed=2)
        assert report.subsets_scanned == 60
        assert sum(report.within_union_distribution.values()) == 60
        assert sum(report.spanning_distribution.values()) == 60
        assert not report.exhaustive
        # swaps are only attempted for unique spanning classes, and every
        # attempted swap so far verifies unextendible
        assert report.swap_passes == report.spanning_distribution.get(1, 0)
        assert report.swap_failures == ()

    def test_exhaustive_distributions_are_frozen(self):
        # regression values from the deterministic exhaustive scan; the same
        # spanning distribution was observed for eight distinct complete
        # sets, so these counts look like invariants of the dimension rather
        # than accidents of the canonical partition
        report = conjecture_scan(budget=None, seed=0)
        assert report.exhaustive and report.subsets_scanned == 24310
        assert report.within_union_distribution == {
            0: 2040, 1: 12240, 2: 8160, 3: 510, 4: 1360
        }
        assert report.spanning_distribution == {0: 22440, 1: 1870}
        assert report.swap_passes == 1870
        assert report.swap_failures == ()
        assert not report.conjecture_consistent
