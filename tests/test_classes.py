"""Class closure, disjointness, overlap structure and complete sets."""

from __future__ import annotations

import hashlib
from itertools import combinations

import pytest

from mubforge.classes import (
    CANONICAL_D4_COMPLETE,
    ClassSet,
    canonical_complete_set,
    class_from_elements,
    class_from_generators,
    class_from_json,
    class_from_strings,
    class_to_json,
    classes_from_json,
    classes_to_json,
    commuting_overlap,
    complete_set_from_two,
    disjoint,
)
from mubforge.named_sets import (
    ALTERNATE_TRIPLE_D4,
    STRONG_FIVE_D8,
    strong_five_d8,
    weak_triple_d4,
)
from mubforge.pauli import (
    ProjectivePauli,
    commutes,
    enumerate_nonidentity,
    pauli_from_string,
)
from mubforge.search import (
    all_maximal_classes,
    classes_within_mask,
    enumerate_classes_in,
    pauli_index,
)


def gens(*strings):
    return [pauli_from_string(s) for s in strings]


class TestClassConstruction:
    def test_z_pair_closure(self):
        cls = class_from_generators(gens("ZI", "IZ"))
        assert set(cls.letters()) == {"ZI", "IZ", "ZZ"}

    def test_anticommuting_generators_rejected(self):
        with pytest.raises(ValueError, match="anticommute"):
            class_from_generators(gens("XI", "ZI"))

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            class_from_generators(gens("ZII", "IZI", "ZZI"))

    def test_wrong_generator_count_rejected(self):
        with pytest.raises(ValueError, match="generators"):
            class_from_generators(gens("ZI", "IZ", "ZZ"))

    def test_seven_element_three_qubit_class(self):
        cls = class_from_generators(gens("ZII", "IZZ", "IIZ"))
        assert set(cls.letters()) == {"ZII", "IZZ", "ZZZ", "IIZ", "IZI", "ZIZ", "ZZI"}

    def test_generator_choice_invariance(self):
        cls = class_from_generators(gens("ZII", "IZZ", "IIZ"))
        elems = cls.sorted_elements
        for trio in combinations(elems, 3):
            try:
                other = class_from_generators([p.hermitian() for p in trio])
            except ValueError:
                continue  # dependent choice
            assert other == cls
            assert other.elements == cls.elements

    def test_class_from_elements_requires_closure(self):
        with pytest.raises(ValueError, match="closed"):
            class_from_elements([pauli_from_string(s) for s in ("ZI", "IZ")])
        with pytest.raises(ValueError):
            class_from_elements([pauli_from_string(s) for s in ("ZI", "IZ", "XX")])

    def test_json_round_trip(self):
        cls = class_from_strings(("YY", "IY", "YI"))
        data = class_to_json(cls)
        assert data["elements"] == ["IY", "YI", "YY"]
        assert class_from_json(data) == cls


class TestDisjointAndOverlap:
    def test_canonical_first_two_disjoint(self):
        cs = canonical_complete_set(2)
        assert disjoint(cs[0], cs[1])

    def test_class_not_disjoint_from_itself(self):
        cs = canonical_complete_set(2)
        assert not disjoint(cs[0], cs[0])

    def test_shared_operator_breaks_disjointness(self):
        c1 = class_from_strings(("YY", "IY", "YI"))
        c1_alt = class_from_strings(("YY", "ZX", "XZ"))
        assert not disjoint(c1, c1_alt)

    def test_overlap_size_two_qubits(self):
        p = pauli_from_string("YY")
        c = class_from_strings(("XI", "IX", "XX"))
        overlap = commuting_overlap(p, c)
        assert {e.to_string() for e in overlap} == {"XX"}

    def test_overlap_size_three_qubits(self):
        p = pauli_from_string("IIY")
        c = class_from_strings(STRONG_FIVE_D8[1])
        assert len(commuting_overlap(p, c)) == 3

    def test_overlap_rejects_identity_and_members(self):
        c = class_from_strings(("ZI", "IZ", "ZZ"))
        with pytest.raises(ValueError):
            commuting_overlap(ProjectivePauli(2, 0, 0), c)
        with pytest.raises(ValueError):
            commuting_overlap(pauli_from_string("ZZ"), c)

    def test_overlap_lemma_exhaustive(self):
        # every operator outside a class commutes with exactly 2**(n-1) - 1
        # of its elements, and distinct class members never share that subset
        for n in (2, 3):
            cs = canonical_complete_set(n)
            expected = (1 << (n - 1)) - 1
            for ci, cj in combinations(cs.classes, 2):
                seen = set()
                for p in ci.sorted_elements:
                    overlap = commuting_overlap(p, cj)
                    assert len(overlap) == expected
                    key = frozenset(e.key for e in overlap)
                    assert key not in seen
                    seen.add(key)


class TestClassSet:
    def test_rejects_overlapping_classes(self):
        c1 = class_from_strings(("YY", "IY", "YI"))
        c2 = class_from_strings(("YY", "ZX", "XZ"))
        with pytest.raises(ValueError, match="disjoint"):
            ClassSet(2, (c1, c2))

    def test_complete_flag_needs_full_cover(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError):
            ClassSet(2, cs.classes[:4], complete=True)

    def test_json_round_trip(self):
        cs = canonical_complete_set(2)
        rebuilt = classes_from_json(classes_to_json(cs))
        assert rebuilt.partition_key() == cs.partition_key()
        assert rebuilt.complete


class TestCompleteSets:
    def test_canonical_two_qubit_matches_fixture(self):
        cs = canonical_complete_set(2)
        assert cs.complete and len(cs) == 5
        want = [frozenset(group) for group in CANONICAL_D4_COMPLETE]
        got = [frozenset(c.letters()) for c in cs.classes]
        assert got == want

    @pytest.mark.parametrize("n,count,total", [(2, 5, 15), (3, 9, 63), (4, 17, 255)])
    def test_canonical_sets_partition_everything(self, n, count, total):
        cs = canonical_complete_set(n)
        assert cs.complete and len(cs) == count
        ops = cs.operators()
        assert len(ops) == total
        assert list(ops) == list(enumerate_nonidentity(n))

    def test_four_qubit_partition_is_pinned(self):
        # the frozen n = 4 scan counts depend on this exact partition, so a
        # change to the backtracking order must fail here, not only as
        # drifted scan distributions
        groups = sorted(tuple(sorted(c.letters())) for c in canonical_complete_set(4))
        text = "\n".join(" ".join(g) for g in groups)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "196d1fe9deed94d020f84eec364508fd8b85890f87469cdd2e639344c0eff19d"
        )

    def test_three_qubit_partition_is_pinned(self):
        # certificates embed the generators as well as the elements, so both
        # are pinned, in order
        text = "\n".join(
            " ".join(g.to_string() for g in c.generators)
            + " | "
            + " ".join(c.letters())
            for c in canonical_complete_set(3)
        )
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "46fbd75d498b0e1153c25a77a11bca8ca3bb9b1fb177c451b0238da3a3586bab"
        )

    def test_reconstruction_from_every_pair_two_qubits(self):
        # any two classes of the complete set regenerate the same partition
        cs = canonical_complete_set(2)
        for i, j in combinations(range(5), 2):
            rebuilt = complete_set_from_two(cs[i], cs[j])
            assert rebuilt.complete
            assert rebuilt.partition_key() == cs.partition_key()

    def test_three_qubit_reconstruction_from_named_seeds(self):
        # seeding with two classes of the named unextendible five yields a
        # valid completion; since the five are unextendible as a set, no
        # complete set can contain them all, so at most four can reappear
        five = strong_five_d8()
        rebuilt = complete_set_from_two(five[2], five[1])
        assert rebuilt.complete and len(rebuilt) == 9
        built = {c.element_keys for c in rebuilt.classes}
        assert five[1].element_keys in built and five[2].element_keys in built
        named = {c.element_keys for c in five}
        assert len(named & built) <= 4

    def test_every_disjoint_pair_completes_two_qubits(self):
        classes = [
            class_from_elements(ProjectivePauli.from_key(2, k) for k in r.elements)
            for r in all_maximal_classes(2)
        ]
        pairs = [
            (a, b)
            for a, b in combinations(classes, 2)
            if not (a.mask & b.mask)
        ]
        assert len(pairs) == 60
        for a, b in pairs:
            cs = complete_set_from_two(a, b)
            assert cs.complete
            assert cs[0] == a and cs[1] == b

    def test_sampled_disjoint_pairs_complete_three_qubits(self):
        import numpy as np

        rng = np.random.default_rng(0)
        classes = [
            class_from_elements(ProjectivePauli.from_key(3, k) for k in r.elements)
            for r in all_maximal_classes(3)
        ]
        built = 0
        while built < 20:
            i, j = rng.integers(len(classes), size=2)
            if i == j or (classes[i].mask & classes[j].mask):
                continue
            assert complete_set_from_two(classes[i], classes[j]).complete
            built += 1

    def test_from_two_rejects_overlapping_seeds(self):
        c1 = class_from_strings(("YY", "IY", "YI"))
        c2 = class_from_strings(("YY", "ZX", "XZ"))
        with pytest.raises(ValueError):
            complete_set_from_two(c1, c2)

    def test_four_qubit_completion_reproduces_the_canonical_set(self):
        cs = canonical_complete_set(4)
        rebuilt = complete_set_from_two(cs[0], cs[1])
        assert rebuilt.complete
        assert rebuilt.partition_key() == cs.partition_key()

    def test_single_qubit_completion(self):
        z, x = class_from_strings(("Z",)), class_from_strings(("X",))
        cs = complete_set_from_two(z, x)
        assert [c.letters() for c in cs] == [("Z",), ("X",), ("Y",)]


class TestClassFamily:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_family_sizes(self, n, count):
        assert len(all_maximal_classes(n)) == count

    def test_two_qubit_family_against_brute_force(self):
        # independent oracle: test all 3-subsets of the 15 operators directly
        ops = enumerate_nonidentity(2)
        brute = set()
        for trio in combinations(ops, 3):
            if all(commutes(a, b) for a, b in combinations(trio, 2)) and (
                trio[0].key ^ trio[1].key == trio[2].key
            ):
                brute.add(frozenset(p.key for p in trio))
        family = {frozenset(rec.elements) for rec in all_maximal_classes(2)}
        assert family == brute

    def test_every_family_member_is_a_valid_class(self):
        for n in (2, 3):
            for rec in all_maximal_classes(n):
                cls = class_from_elements(
                    ProjectivePauli.from_key(n, k) for k in rec.elements
                )
                assert len(cls.elements) == (1 << n) - 1

    def test_restricted_enumeration_agrees_with_family_filter(self):
        # the direct in-universe DFS and the cached-family filter must agree
        cs = canonical_complete_set(3)
        for picks in [(0, 1, 2), (0, 3, 6), (1, 4, 7, 8), (0, 1, 2, 3, 4)]:
            universe = 0
            for i in picks:
                universe |= cs[i].mask
            direct = {r.elements for r in enumerate_classes_in(3, universe)}
            filtered = {r.elements for r in classes_within_mask(3, universe)}
            assert direct == filtered

    def test_route_agreement_at_four_qubits(self):
        cs = canonical_complete_set(4)
        universe = 0
        for idx in (0, 2, 3, 5, 7, 8, 11, 13, 16):
            universe |= cs[idx].mask
        direct = {r.elements for r in enumerate_classes_in(4, universe)}
        filtered = {r.elements for r in classes_within_mask(4, universe)}
        assert direct == filtered

    def test_each_operator_sits_in_the_right_number_of_classes(self):
        # each two-qubit operator lies in exactly 3 maximal classes
        counts = {key: 0 for key in range(1, 16)}
        for rec in all_maximal_classes(2):
            for k in rec.elements:
                counts[k] += 1
        assert set(counts.values()) == {3}

    def test_full_mask_matches_enumeration(self):
        assert pauli_index(2).full_mask == (1 << 15) - 1


def test_alternate_triple_fixture_is_made_of_valid_classes():
    for group in ALTERNATE_TRIPLE_D4:
        cls = class_from_strings(group)
        assert len(cls.elements) == 3


def test_weak_triple_ops_count():
    assert len(weak_triple_d4().operators()) == 9
