"""Unextendibility constructions, their exhaustive verification and the KS contexts."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from types import MappingProxyType

import numpy as np
import pytest

from mubforge.certificates import scan_content
from mubforge.classes import (
    ClassSet,
    canonical_complete_set,
    class_from_mask,
    class_from_strings,
    complete_set_from,
)
from mubforge.named_sets import named_class_set
from mubforge.pauli import commutes, multiply
from mubforge import search, unextendible
from mubforge.search import classes_within_mask, full_mask
from mubforge.unextendible import (
    build_unextendible_set,
    conjecture_scan,
    context_sign,
    count_extras,
    extendibility_check,
    extra_classes_within_union,
    ks_alternate_partition,
    owner_census,
)
from oracles import (
    ALTERNATE_TRIPLE_D4,
    enumerate_classes_in,
    matrix_from_letters,
    operators,
    theorem4_census,
)


class TestExtraClassesWithinUnion:
    def test_extra_class_structure(self):
        # the extra class takes one element from each input class; its two
        # smaller members multiply to the third and pair up as commuting
        # partners across the inputs
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            sub = ClassSet(2, tuple(cs[i] for i in picks))
            extra = extra_classes_within_union(sub)[0]
            per_class = [[p for p in extra.sorted_elements if p in cs[i]] for i in picks]
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
            own = {c.mask for c in sub}
            oracle = [
                r for r in enumerate_classes_in(2, sub.union_mask) if r not in own
            ]
            found = extra_classes_within_union(sub)
            assert [c.mask for c in found] == oracle
        for picks in combinations(range(5), 2):
            sub = ClassSet(2, tuple(cs[i] for i in picks))
            oracle = enumerate_classes_in(2, full_mask(2) & ~sub.union_mask)
            assert [c.mask for c in extendibility_check(sub)] == oracle

    def test_five_class_subsets_at_d8(self):
        cs = canonical_complete_set(3)
        for picks in [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (0, 2, 4, 6, 8)]:
            sub = ClassSet(3, tuple(cs[i] for i in picks))
            assert len(extra_classes_within_union(sub)) == 1

    def test_four_class_subsets_have_none(self):
        cs = canonical_complete_set(3)
        for picks in [(0, 1, 2, 3), (5, 6, 7, 8), (0, 3, 5, 7)]:
            sub = ClassSet(3, tuple(cs[i] for i in picks))
            assert extra_classes_within_union(sub) == ()


class TestExtendibilityCheck:
    def test_two_classes_leave_the_remaining_three_plus_their_extra(self):
        # the nine leftover operators carry the three remaining classes of
        # the complete set and exactly one further class (the unique extra
        # class of that remaining triple); these four are the candidate
        # third classes in the no-weak-four-set argument
        cs = canonical_complete_set(2)
        found = {c.mask for c in extendibility_check(ClassSet(2, cs.classes[:2]))}
        remaining = {c.mask for c in cs.classes[2:]}
        assert remaining <= found
        assert len(found) == 4
        extra = extra_classes_within_union(ClassSet(2, cs.classes[2:]))
        assert found - remaining == {extra[0].mask}

    def test_full_complete_set_leaves_nothing(self):
        cs = canonical_complete_set(2)
        assert extendibility_check(cs) == ()
        assert full_mask(2) & ~cs.union_mask == 0

    def test_named_five_is_unextendible(self):
        assert extendibility_check(named_class_set("paper-d8-strong")) == ()


class TestBuildUnextendibleSet:
    def test_two_qubit_construction_matches_named_triple(self):
        cs = canonical_complete_set(2)
        us = build_unextendible_set(cs, (0, 1, 2))
        got = {frozenset(c.letters()) for c in us}
        want = {frozenset(g) for g in (("YY", "IY", "YI"), ("YZ", "ZX", "XY"), ("XI", "IZ", "XZ"))}
        assert got == want
        assert extendibility_check(us) == ()
        # the unchosen classes in their order, then the extra class
        assert us.classes[:-1] == cs.classes[3:]
        assert set(us[-1].letters()) == {"XI", "IZ", "XZ"}

    def test_every_choice_of_three_works(self):
        cs = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            us = build_unextendible_set(cs, picks)
            assert extendibility_check(us) == ()
            assert len(us) == 3

    def test_three_qubit_construction(self):
        cs = canonical_complete_set(3)
        us = build_unextendible_set(cs, (0, 1, 2, 3, 4))
        assert len(us) == 5
        assert extendibility_check(us) == ()

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
        triple = named_class_set("paper-d4-weak")
        with pytest.raises(ValueError):
            build_unextendible_set(triple, (0, 1, 2))

    def test_an_extendible_swap_is_refused(self, monkeypatch):
        # a census that trades the first three classes for the first of
        # them leaves three classes of the complete set, which extend
        cs = canonical_complete_set(2)
        census = unextendible.owner_census(cs)
        first = search.all_maximal_classes(2).index(cs[0].mask)
        doctored = _traded_for(census, {0b111: first})
        monkeypatch.setattr(unextendible, "owner_census", lambda complete: doctored)
        with pytest.raises(ValueError, match="the swapped set is extendible"):
            build_unextendible_set(cs, (0, 1, 2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_below_four_qubits_the_owned_class_is_the_unions_only_extra(self, n):
        # the one rule, a sole class owned by the choice, meets the older
        # rule here: every choice's union holds exactly one extra class, and
        # it is the class the construction swaps in
        cs = canonical_complete_set(n)
        for picks in combinations(range(len(cs)), (1 << (n - 1)) + 1):
            extras = extra_classes_within_union(ClassSet(n, tuple(cs[i] for i in picks)))
            assert extras == (build_unextendible_set(cs, picks)[-1],)

    def test_four_qubit_construction_succeeds_exactly_for_the_scanned_swaps(self):
        # over all C(17, 9) choices, the construction builds the 1870 that
        # the scan counts as owning one spanning class, each passing the
        # extendibility check inside it, and refuses the other 22,440
        cs = canonical_complete_set(4)
        _, _, choices, spanning = _one_spanning_choices()
        owned = dict(zip(choices, spanning))
        family = search.all_maximal_classes(4)
        built, refusals = 0, Counter()
        for picks in combinations(range(17), 9):
            try:
                us = build_unextendible_set(cs, picks)
            except ValueError as exc:
                refusals[str(exc)] += 1
                continue
            rest = tuple(c for i, c in enumerate(cs) if i not in picks)
            swapped = owned[sum(1 << i for i in picks)]
            assert us.classes == (*rest, class_from_mask(4, family[swapped]))
            built += 1
        [(message, refused)] = refusals.items()
        assert message == "the chosen classes do not own exactly one spanning class"
        scanned = conjecture_scan().spanning_distribution
        assert (built, refused) == (scanned[1], scanned[0]) == (1870, 22440)


def _brute_candidates(cs, i, j):
    """Masks of every class inside the nine operators left by classes i, j."""
    union = 0
    for k, c in enumerate(cs):
        if k not in (i, j):
            union |= c.mask
    return enumerate_classes_in(cs.n, union)


class TestNoWeakFourSet:
    def test_candidate_routes_agree_and_are_nonvacuous(self):
        cs = canonical_complete_set(2)
        for i, j in combinations(range(5), 2):
            others = ClassSet(2, tuple(c for k, c in enumerate(cs) if k not in (i, j)))
            brute = _brute_candidates(cs, i, j)
            # the three leftover classes plus the one extra class of their union
            extra = extra_classes_within_union(others)
            assert {c.mask for c in (*others, *extra)} == set(brute)
            assert len(brute) == 4
            pairs = [(a, b) for a, b in combinations(brute, 2) if not a & b]
            assert len(pairs) >= 1


class TestCensus:
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
            for p in c.sorted_elements:
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
    for n in (0, 5, 40):  # 4**40 keys would not fit in memory
        with pytest.raises(ValueError, match=rf"must be in \[1, 4\], got {n}$"):
            classes_within_mask(n, 1)


def _oracle_counts(n, part_masks, subset):
    """Within-union and spanning counts rebuilt by direct enumeration."""
    chosen = [part_masks[i] for i in range(len(part_masks)) if subset >> i & 1]
    union = 0
    for m in chosen:
        union |= m
    within = [r for r in enumerate_classes_in(n, union) if r not in chosen]
    spanning = [r for r in within if all(r & m for m in chosen)]
    return len(within), len(spanning)


def _direct_owners(n, part_masks):
    """The owner of every family member, by a direct OR over the class masks."""
    return [
        sum(1 << j for j, part in enumerate(part_masks) if cls & part)
        for cls in search.all_maximal_classes(n)
    ]


def _union(part_masks, subset):
    union = 0
    for i, m in enumerate(part_masks):
        if subset >> i & 1:
            union |= m
    return union


def _fits_by_filter(n, masks, choice, removed_mask):
    """Whether the containment filter finds a class in union(choice) minus a class."""
    return bool(classes_within_mask(n, _union(masks, choice) & ~removed_mask))


def _unrelated_class(family, subset):
    """A family index that depends only on the subset, unrelated to it."""
    return subset * 7919 % len(family)


def _traded_for(census, traded):
    """The census with its swaps replaced by the given choice -> class map."""
    return census._replace(swaps=MappingProxyType(traded))


def _assert_engine_matches_oracle(n, complete, subsets):
    masks = tuple(c.mask for c in complete)
    owners = _direct_owners(n, masks)
    census = owner_census(complete)
    family = search.all_maximal_classes(n)
    size = census.swap_size
    table = count_extras(census)
    # the choices also traded for an unrelated class, judged by the filter too
    choices = [c for c in subsets if c.bit_count() == size]
    unrelated = count_extras(
        _traded_for(census, {c: _unrelated_class(family, c) for c in choices})
    )
    assert unrelated.within == table.within
    assert table.failed_swaps <= census.swaps.keys()
    for subset in subsets:
        within, spanning = _oracle_counts(n, masks, subset)
        assert census.spanning[subset] == spanning, bin(subset)
        if subset.bit_count() != size:
            continue
        # brute force: every extra class whose owner lies inside the subset
        assert table.within[subset] == within == sum(
            not o & ~subset and o & (o - 1) != 0 for o in owners
        ), bin(subset)
        # the swap verdicts against the containment filter
        for verdicts, traded in (
            (table, census.swaps.get(subset)),
            (unrelated, _unrelated_class(family, subset)),
        ):
            if traded is not None:
                assert (subset in verdicts.failed_swaps) == _fits_by_filter(
                    n, masks, subset, family[traded]
                ), bin(subset)
    if n < 4:  # the table holds counts for the swap size only
        assert all(
            not count or c.bit_count() == size for c, count in enumerate(table.within)
        )


def _sampled_four_qubit_subsets():
    rng = random.Random(40)
    subsets = []
    for size in [0, 1, 2, 3, 5, 8, 9, 9, 10, 13, 16, 17] + [
        rng.randrange(18) for _ in range(28)
    ]:
        subsets.append(sum(1 << i for i in rng.sample(range(17), size)))
    assert len(subsets) == 40
    return subsets


class TestOwnerCensus:
    def test_every_subset_of_the_canonical_two_qubit_set(self):
        _assert_engine_matches_oracle(2, canonical_complete_set(2), range(1 << 5))

    def test_every_subset_of_the_canonical_three_qubit_set(self):
        _assert_engine_matches_oracle(3, canonical_complete_set(3), range(1 << 9))

    def test_every_subset_of_a_second_three_qubit_set(self):
        seed = class_from_strings(("IIX", "IXI", "IXX", "YII", "YIX", "YXI", "YXX"))
        z_class = canonical_complete_set(3)[0]
        other = complete_set_from(ClassSet(3, (seed, z_class)))
        assert set(other) != set(canonical_complete_set(3))
        _assert_engine_matches_oracle(3, other, range(1 << 9))

    def test_sampled_subsets_at_four_qubits(self):
        subsets = _sampled_four_qubit_subsets()
        _assert_engine_matches_oracle(4, canonical_complete_set(4), subsets)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_owners_match_a_direct_computation_from_the_masks(self, n):
        complete = canonical_complete_set(n)
        masks = tuple(c.mask for c in complete)
        census = owner_census(complete)
        assert census.n == n
        assert census.owners == tuple(_direct_owners(n, masks))
        assert census.parts == masks

    def test_the_census_is_read_only_and_built_once_for_its_readers(self):
        census = owner_census(canonical_complete_set(4))
        choice = next(iter(census.swaps))
        with pytest.raises(TypeError):
            census.swaps[choice] = 0
        with pytest.raises(TypeError):
            census.spanning[choice] = 0
        assert census.spanning[choice] == 1 and census.swap_size == 9
        # the scan and the construction share one census of the n = 4 set
        owner_census.cache_clear()
        conjecture_scan()
        build_unextendible_set(canonical_complete_set(4), range(9))
        assert owner_census.cache_info().misses == 1

    def test_answers_do_not_depend_on_the_other_subsets_asked(self):
        # each choice's verdict is the same asked alone, among the sampled
        # nine-class choices, or among all 24310 of them; a valid swap is
        # traded for its own class, which passes, any other choice for an
        # unrelated class
        census = owner_census(canonical_complete_set(4))
        family = search.all_maximal_classes(4)

        def ask(asked):
            return count_extras(_traded_for(census, {
                c: census.swaps.get(c, _unrelated_class(family, c)) for c in asked
            }))

        nines = [sum(1 << i for i in c) for c in combinations(range(17), 9)]
        sampled = [c for c in _sampled_four_qubit_subsets() if c.bit_count() == 9]
        among_nines, together = ask(nines), ask(sampled)
        assert among_nines.within == together.within == count_extras(census).within
        verdicts = set()
        for subset in sampled + nines[::500] + sorted(census.swaps)[::100]:
            fits = subset in ask([subset]).failed_swaps
            assert fits == (subset in among_nines.failed_swaps)
            if subset in sampled:
                assert fits == (subset in together.failed_swaps)
            verdicts.add(fits)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "n, count, sha256",
        [
            (2, 10, "5f63d22f62e91963bfaf7e42279edbc1ea6ba54a63100a7559972f14026e4ac7"),
            (3, 126, "b936b6bb1d42aac35eb33c3e6e1366cfc3a11ecdb502b1468fa79968303f5265"),
            (4, 1870, "bd598f16b7794ba128b19a92e6370507f0e33f7526298a008a9ff26a7dc5f299"),
        ],
    )
    def test_swaps_are_pinned(self, n, count, sha256):
        # which class each choice trades for, as (choice mask, family index)
        swaps = sorted(owner_census(canonical_complete_set(n)).swaps.items())
        assert len(swaps) == count
        assert hashlib.sha256(repr(swaps).encode()).hexdigest() == sha256

    def test_rejects_a_class_set_that_is_not_complete(self):
        classes = canonical_complete_set(3).classes
        for incomplete in (ClassSet(3, classes[:-1]), ClassSet(3, ()), named_class_set("paper-d8-strong")):
            with pytest.raises(ValueError, match="needs a complete class set"):
                owner_census(incomplete)
        # a repeated class never reaches the census: the set itself is refused
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            ClassSet(3, classes[:-1] + classes[:1])


class TestConjectureScan:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan(budget=0)
        # the scanner itself knows only four qubits; the certificate refuses others
        with pytest.raises(ValueError, match="four qubits"):
            scan_content(3, None, 0)

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

    def test_exhaustive_scan_lifts_and_peak_memory(self):
        # the family, the complete set and the owner census are cached
        # before measuring; the scan itself keeps two flat count tables
        census = owner_census(canonical_complete_set(4))
        assert sum(count_extras(census).within) == 35530
        tracemalloc.start()
        try:
            report = conjecture_scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.subsets_scanned == 24310
        assert peak < 1 << 20, f"conjecture_scan peaked at {peak} bytes"


def _one_spanning_choices():
    """Every nine-class choice of the canonical n = 4 set with one spanning class.

    Returns the census, the class masks, the choice masks and, per choice,
    the family index of its spanning class.
    """
    census = owner_census(canonical_complete_set(4))
    masks = census.parts
    owned = {}
    for i, owner in enumerate(census.owners):
        owned.setdefault(owner, []).append(i)
    choices = [
        c for c in (sum(1 << i for i in combo) for combo in combinations(range(17), 9))
        if len(owned.get(c, ())) == 1
    ]
    spanning = [owned[c][0] for c in choices]
    return census, masks, choices, spanning


def _failed_swaps(census, choices, traded):
    """The engine's verdict on each choice traded for its class, in one pass."""
    table = count_extras(_traded_for(census, dict(zip(choices, traded))))
    return [c in table.failed_swaps for c in choices]


def _lowest_chosen_class(family, masks, choices):
    """Family index of the lowest-numbered complete-set class of each choice."""
    lowest = [(c & -c).bit_length() - 1 for c in choices]
    return [family.index(masks[i]) for i in lowest]


class TestSwapCheckFromCensus:
    def test_census_route_matches_the_filter_on_every_choice(self):
        census, masks, choices, spanning = _one_spanning_choices()
        assert len(choices) == 1870
        family = search.all_maximal_classes(4)
        # the true spanning class, a chosen complete-set class and an
        # unrelated family member, so both verdicts occur
        lowest = _lowest_chosen_class(family, masks, choices)
        unrelated = [(s + 7) % len(family) for s in spanning]
        verdicts = set()
        for removed in (spanning, lowest, unrelated):
            want = [
                _fits_by_filter(4, masks, c, family[r]) for c, r in zip(choices, removed)
            ]
            assert _failed_swaps(census, choices, removed) == want
            verdicts.update(want)
        assert verdicts == {True, False}

    def test_a_wrong_spanning_class_is_reported_as_a_failure(self):
        census, masks, choices, spanning = _one_spanning_choices()
        family = search.all_maximal_classes(4)

        def fits(removed):
            return _failed_swaps(census, choices, removed)

        assert not any(fits(spanning))
        # removing one chosen complete-set class leaves the other eight
        assert all(fits(_lowest_chosen_class(family, masks, choices)))
        for shift in (1, 7, 1000):
            assert any(fits([(s + shift) % len(family) for s in spanning]))


def ks_contexts(cs):
    """The classes of ``cs``, then the alternate partition of their operators."""
    return (*cs, *ks_alternate_partition(cs))


class TestKsContexts:
    def test_alternate_partition_matches_published_classes(self):
        weak = named_class_set("paper-d4-weak")
        alternate = ks_alternate_partition(weak)
        got = {frozenset(c.letters()) for c in alternate}
        want = {frozenset(group) for group in ALTERNATE_TRIPLE_D4}
        assert got == want
        # the alternate contexts cover the same nine operators
        assert ClassSet(2, alternate).union_mask == weak.union_mask
        assert len(operators(weak)) == 9

    def test_every_operator_sits_in_exactly_two_contexts(self):
        weak = named_class_set("paper-d4-weak")
        contexts = ks_contexts(weak)
        for op in operators(weak):
            holders = [c for c in contexts if op in c]
            assert len(holders) == 2

    def test_signs_against_dense_matrix_oracle(self):
        for context in ks_contexts(named_class_set("paper-d4-weak")):
            sign = context_sign(context)
            m = np.eye(4, dtype=complex)
            for p in context.sorted_elements:
                m = m @ matrix_from_letters(p.to_string())
            assert np.allclose(m, sign * np.eye(4), atol=1e-12)

    def test_context_products_are_order_independent(self):
        for context in ks_contexts(named_class_set("paper-d4-weak")):
            results = set()
            for perm in permutations(context.sorted_elements):
                prod = perm[0]
                for op in perm[1:]:
                    prod = multiply(prod, op)
                results.add((prod.key, prod.phase))
            assert len(results) == 1

    def test_squared_slot_product_is_plus_identity(self):
        # multiplying every operator twice, copies adjacent, gives +identity
        m = np.eye(4, dtype=complex)
        for op in operators(named_class_set("paper-d4-weak")):
            mat = matrix_from_letters(op.to_string())
            m = m @ mat @ mat
        assert np.allclose(m, np.eye(4), atol=1e-12)

    def test_strong_triple_also_has_an_alternate_partition(self):
        signs = [context_sign(c) for c in ks_contexts(named_class_set("paper-d4-strong"))]
        assert signs.count(-1) % 2 == 1

    def test_every_disjoint_triple_has_odd_parity_or_is_refused(self):
        # all 80 pairwise-disjoint two-qubit triples: the 20 unextendible
        # ones, the constructed swap sets among them, split into three
        # contexts that cover the nine operators, meet every class in one
        # operator and have odd parity; the 60 extendible ones are refused
        partitioned, refused = set(), 0
        for trio in combinations(search.all_maximal_classes(2), 3):
            if any(a & b for a, b in combinations(trio, 2)):
                continue
            cs = ClassSet(2, tuple(class_from_mask(2, m) for m in trio))
            try:
                alternate = ks_alternate_partition(cs)
            except ValueError as exc:
                assert "extendible" in str(exc) and extendibility_check(cs)
                refused += 1
                continue
            assert len(alternate) == 3
            assert ClassSet(2, alternate).union_mask == cs.union_mask
            assert all((a.mask & c.mask).bit_count() == 1 for a in alternate for c in cs)
            signs = [context_sign(c) for c in ks_contexts(cs)]
            assert signs.count(-1) % 2 == 1
            partitioned.add(frozenset(trio))
        assert (len(partitioned), refused) == (20, 60)
        complete = canonical_complete_set(2)
        for picks in combinations(range(5), 3):
            swap = build_unextendible_set(complete, picks)
            assert frozenset(c.mask for c in swap) in partitioned

    def test_extendible_triple_rejected(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError, match="extendible"):
            ks_alternate_partition(ClassSet(2, cs.classes[:3]))

    def test_a_class_whose_product_is_not_the_identity_is_refused(self):
        # a one-qubit class holds one operator, which is its own product
        with pytest.raises(ValueError, match="not plus or minus identity"):
            context_sign(class_from_strings(("X",)))

