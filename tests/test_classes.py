"""Class closure, disjointness, overlap structure and complete sets."""

from __future__ import annotations

import copy
import hashlib
import pickle
from itertools import combinations

import pytest

from mubforge.analysis import SearchOutcome
from mubforge.classes import (
    CANONICAL_D4_COMPLETE,
    ClassSet,
    CommutingClass,
    canonical_complete_set,
    class_from_elements,
    class_from_generators,
    class_from_json,
    class_from_mask,
    class_from_strings,
    class_to_json,
    classes_from_json,
    classes_to_json,
    complete_set_from,
)
from mubforge.named_sets import NAMED_CLASS_SETS, named_class_set
from mubforge.pauli import (
    PauliOperator,
    commutes,
    pauli_from_string,
)
from mubforge.search import (
    all_maximal_classes,
    classes_within_mask,
    full_mask,
    keys_of_mask,
)
from oracles import (
    ALTERNATE_TRIPLE_D4,
    commuting_overlap,
    enumerate_classes_in,
    enumerate_nonidentity,
    independent,
    operators,
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

    def test_every_dependent_commuting_triple_is_refused(self):
        # all 4095 triples of pairwise-commuting three-qubit operators: a
        # class is built exactly when the GF(2) oracle calls the triple
        # independent, and every other triple is refused as dependent
        built = refused = 0
        for trio in combinations(enumerate_nonidentity(3), 3):
            if not all(commutes(a, b) for a, b in combinations(trio, 2)):
                continue
            if independent(trio):
                assert class_from_generators(trio).mask.bit_count() == 7
                built += 1
            else:
                with pytest.raises(ValueError, match="generators are dependent"):
                    class_from_generators(trio)
                refused += 1
        assert (built, refused) == (3780, 315)

    def test_wrong_generator_count_rejected(self):
        with pytest.raises(ValueError, match="generators"):
            class_from_generators(gens("ZI", "IZ", "ZZ"))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: class_from_generators(gens("ZI", "ZZZ")), "different qubit counts"),
            # i times IZ squares to minus the identity
            (lambda: class_from_generators([PauliOperator(2, 0, 1, 1), *gens("ZI")]),
             "IZ is not Hermitian"),
            (lambda: class_from_generators(gens("II", "ZI")), "identity cannot generate"),
            (lambda: class_from_elements([]), "empty element set"),
            (lambda: class_from_elements(gens("ZI", "ZZZ")), "different qubit counts"),
            (lambda: class_from_elements(gens("II", "ZI", "IZ", "ZZ")), "not closed"),
        ],
        ids=["generators-mixed-qubits", "generator-not-hermitian",
             "generator-identity", "no-elements", "elements-mixed-qubits",
             "element-identity"],
    )
    def test_malformed_generators_and_elements_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_seven_element_three_qubit_class(self):
        cls = class_from_generators(gens("ZII", "IZZ", "IIZ"))
        assert set(cls.letters()) == {"ZII", "IZZ", "ZZZ", "IIZ", "IZI", "ZIZ", "ZZI"}

    def test_generator_choice_invariance(self):
        cls = class_from_generators(gens("ZII", "IZZ", "IIZ"))
        elems = cls.sorted_elements
        choices = set()
        for trio in combinations(elems, 3):
            try:
                other = class_from_generators(trio)
            except ValueError:
                continue  # dependent choice
            assert other == cls and not other != cls
            assert hash(other) == hash(cls)
            assert other.sorted_elements == cls.sorted_elements
            choices.add(other.generators)
        assert len(choices) == 28  # the independent triples of seven elements

    def test_equality_with_a_non_class_is_left_to_the_other_operand(self):
        cls = class_from_strings(("ZI", "IZ", "ZZ"))
        assert cls.__eq__(cls.letters()) is NotImplemented
        assert cls != cls.letters() and cls != cls.mask

    def test_class_from_elements_requires_closure(self):
        with pytest.raises(ValueError, match="closed"):
            class_from_elements([pauli_from_string(s) for s in ("ZI", "IZ")])
        with pytest.raises(ValueError):
            class_from_elements([pauli_from_string(s) for s in ("ZI", "IZ", "XX")])
        for mask in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                class_from_mask(2, mask)

    def test_json_round_trip(self):
        cls = class_from_strings(("YY", "IY", "YI"))
        data = class_to_json(cls)
        assert data["elements"] == ["IY", "YI", "YY"]
        assert class_from_json(data) == cls


class TestDisjointAndOverlap:
    def test_canonical_first_two_disjoint(self):
        cs = canonical_complete_set(2)
        assert ClassSet(2, cs.classes[:2]).classes == cs.classes[:2]

    def test_class_not_disjoint_from_itself(self):
        cs = canonical_complete_set(2)
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            ClassSet(2, (cs[0], cs[0]))

    def test_shared_operator_breaks_disjointness(self):
        c1 = class_from_strings(("YY", "IY", "YI"))
        c1_alt = class_from_strings(("YY", "ZX", "XZ"))
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            ClassSet(2, (c1, c1_alt))

    def test_overlap_size_two_qubits(self):
        p = pauli_from_string("YY")
        c = class_from_strings(("XI", "IX", "XX"))
        overlap = commuting_overlap(p, c)
        assert {e.to_string() for e in overlap} == {"XX"}

    def test_overlap_size_three_qubits(self):
        p = pauli_from_string("IIY")
        c = class_from_strings(NAMED_CLASS_SETS["paper-d8-strong"][1])
        assert len(commuting_overlap(p, c)) == 3

    def test_overlap_rejects_identity_and_members(self):
        c = class_from_strings(("ZI", "IZ", "ZZ"))
        with pytest.raises(ValueError):
            commuting_overlap(PauliOperator(2, 0, 0), c)
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
        assert cs.complete and not ClassSet(2, cs.classes[:4]).complete

    def test_json_round_trip(self):
        cs = canonical_complete_set(2)
        rebuilt = classes_from_json(classes_to_json(cs))
        assert set(rebuilt) == set(cs)
        assert rebuilt.complete

    @pytest.mark.parametrize(
        "keep, declared",
        [(3, True), (5, False), (5, 1), (3, 0)],
        ids=["true-on-three", "false-on-five", "int-one", "int-zero"],
    )
    def test_json_complete_must_be_the_bool_the_classes_give(self, keep, declared):
        data = classes_to_json(ClassSet(2, canonical_complete_set(2).classes[:keep]))
        data["complete"] = declared
        want = "false" if keep < 5 else "true"
        with pytest.raises(ValueError, match=f'^"complete" must be {want} for these'):
            classes_from_json(data)

    def test_equality_goes_by_the_classes_in_order(self):
        cs = canonical_complete_set(2)
        same = ClassSet(2, tuple(class_from_strings(c.letters()) for c in cs))
        assert same == cs and hash(same) == hash(cs)
        assert ClassSet(2, cs.classes[::-1]) != cs
        assert ClassSet(2, cs.classes[:4]) != cs
        assert ClassSet(2, cs.classes[:2]) != cs.classes[:2]
        assert repr(ClassSet(2, cs.classes[:1])) == (
            "ClassSet(n=2, classes=(CommutingClass(IZ+ZI+ZZ),))"
        )

    @pytest.mark.parametrize(
        "n, classes, message",
        [
            (2, lambda cs: cs.classes + cs.classes[:1], "pairwise disjoint"),
            (2, lambda cs: cs.classes[:1] + canonical_complete_set(3).classes[:1],
             "does not match the set"),
            # n is checked even where it reaches no class
            (0, lambda cs: (), r"must be in \[1, 4\], got 0"),
            (5, lambda cs: (), r"must be in \[1, 4\], got 5"),
            (10**18, lambda cs: (), rf"must be in \[1, 4\], got {10**18}$"),
        ],
        ids=["repeated-class", "other-qubit-count", "n0", "n5", "huge-n"],
    )
    def test_construction_errors(self, n, classes, message):
        with pytest.raises(ValueError, match=message):
            ClassSet(n, classes(canonical_complete_set(2)))

    @pytest.mark.parametrize(
        "n, classes, complete",
        [
            (2, lambda cs: cs.classes, True),
            (2, lambda cs: cs.classes[::-1], True),
            (2, lambda cs: cs.classes[:4], False),
            # five disjoint one-operator masks have the count, not the cover
            (2, lambda cs: tuple(CommutingClass(2, (), 1 << i) for i in range(5)), False),
            (2, lambda cs: (), False),
            (4, lambda cs: (), False),
        ],
        ids=["canonical", "reversed", "too-few", "uncovered", "empty", "empty-n4"],
    )
    def test_complete_is_derived_from_the_cover(self, n, classes, complete):
        assert ClassSet(n, classes(canonical_complete_set(2))).complete is complete


# One value of each record that used to be a frozen dataclass, and a field.
VALUES = {
    "operator": (lambda: pauli_from_string("XY"), "phase"),
    "class": (lambda: canonical_complete_set(2)[0], "mask"),
    "class-set": (lambda: canonical_complete_set(2), "classes"),
    "search-outcome": (lambda: SearchOutcome(0.25, None, 3, 2, 1), "starts"),
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_are_immutable_and_survive_copy_and_pickle(kind):
    make, field = VALUES[kind]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)


class TestCompleteSets:
    def test_canonical_two_qubit_matches_fixture(self):
        cs = canonical_complete_set(2)
        assert cs.complete and len(cs) == 5
        want = [frozenset(group) for group in CANONICAL_D4_COMPLETE]
        got = [frozenset(c.letters()) for c in cs.classes]
        assert got == want

    @pytest.mark.parametrize("n", [1, 5])
    def test_canonical_sets_outside_two_to_four_qubits_are_refused(self, n):
        with pytest.raises(ValueError, match="cover 2, 3 or 4 qubits"):
            canonical_complete_set(n)

    @pytest.mark.parametrize("n,count,total", [(2, 5, 15), (3, 9, 63), (4, 17, 255)])
    def test_canonical_sets_partition_everything(self, n, count, total):
        cs = canonical_complete_set(n)
        assert cs.complete and len(cs) == count
        ops = operators(cs)
        assert len(ops) == total
        assert ops == enumerate_nonidentity(n)

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
            rebuilt = complete_set_from(ClassSet(2, (cs[i], cs[j])))
            assert rebuilt.complete
            assert set(rebuilt) == set(cs)

    def test_three_qubit_reconstruction_from_named_seeds(self):
        # seeding with two classes of the named unextendible five yields a
        # valid completion; since the five are unextendible as a set, no
        # complete set can contain them all, so at most four can reappear
        five = named_class_set("paper-d8-strong")
        rebuilt = complete_set_from(ClassSet(3, (five[2], five[1])))
        assert rebuilt.complete and len(rebuilt) == 9
        built = {c.mask for c in rebuilt.classes}
        assert five[1].mask in built and five[2].mask in built
        named = {c.mask for c in five}
        assert len(named & built) <= 4

    def test_every_disjoint_pair_completes_two_qubits(self):
        classes = [class_from_mask(2, r) for r in all_maximal_classes(2)]
        pairs = [
            (a, b)
            for a, b in combinations(classes, 2)
            if not (a.mask & b.mask)
        ]
        assert len(pairs) == 60
        for a, b in pairs:
            cs = complete_set_from(ClassSet(2, (a, b)))
            assert cs.complete
            assert cs[0] == a and cs[1] == b

    def test_sampled_disjoint_pairs_complete_three_qubits(self):
        import numpy as np

        rng = np.random.default_rng(0)
        classes = [class_from_mask(3, r) for r in all_maximal_classes(3)]
        built = 0
        while built < 20:
            i, j = rng.integers(len(classes), size=2)
            if i == j or (classes[i].mask & classes[j].mask):
                continue
            assert complete_set_from(ClassSet(3, (classes[i], classes[j]))).complete
            built += 1

    def test_from_two_rejects_overlapping_seeds(self):
        # the seeds are a ClassSet, which refuses overlapping classes and
        # mixed qubit counts before any cover starts
        c1 = class_from_strings(("YY", "IY", "YI"))
        c2 = class_from_strings(("YY", "ZX", "XZ"))
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            complete_set_from(ClassSet(2, (c1, c2)))
        with pytest.raises(ValueError, match="qubit count"):
            complete_set_from(ClassSet(2, (c1, canonical_complete_set(3)[0])))

    def test_four_qubit_completion_reproduces_the_canonical_set(self):
        cs = canonical_complete_set(4)
        rebuilt = complete_set_from(ClassSet(4, cs.classes[:2]))
        assert rebuilt.complete
        assert set(rebuilt) == set(cs)
        assert complete_set_from(ClassSet(4, ())) == cs

    def test_single_qubit_completion(self):
        z, x = class_from_strings(("Z",)), class_from_strings(("X",))
        cs = complete_set_from(ClassSet(1, (z, x)))
        assert [c.letters() for c in cs] == [("Z",), ("X",), ("Y",)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_complete_set_completes_to_itself(self, n):
        cs = canonical_complete_set(n)
        assert complete_set_from(cs) == cs

    def test_seeds_no_complete_set_contains_are_refused(self):
        # the weakly unextendible triple leaves six operators that hold no class
        with pytest.raises(
            ValueError, match="no complete set on 2 qubits contains the seed classes"
        ):
            complete_set_from(named_class_set("paper-d4-weak"))


class TestClassFamily:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_family_sizes(self, n, count):
        assert len(all_maximal_classes(n)) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_family_equals_the_depth_first_oracle_in_order(self, n):
        # the chart construction must give the oracle's masks in its order:
        # ascending by the tuple of ascending element keys
        full = (1 << ((1 << (2 * n)) - 1)) - 1
        assert all_maximal_classes(n) == tuple(enumerate_classes_in(n, full))

    def test_two_qubit_family_against_brute_force(self):
        # independent oracle: test all 3-subsets of the 15 operators directly
        ops = enumerate_nonidentity(2)
        brute = set()
        for trio in combinations(ops, 3):
            if all(commutes(a, b) for a, b in combinations(trio, 2)) and (
                trio[0].key ^ trio[1].key == trio[2].key
            ):
                brute.add(frozenset(p.key for p in trio))
        family = {frozenset(keys_of_mask(rec)) for rec in all_maximal_classes(2)}
        assert family == brute

    def test_every_family_member_is_a_valid_class(self):
        for n in (2, 3):
            for rec in all_maximal_classes(n):
                cls = class_from_mask(n, rec)
                assert cls.mask == rec
                assert len(cls.sorted_elements) == (1 << n) - 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_elements_are_the_hermitian_letter_operators(self, n):
        # an element modulo phase is its standard Hermitian representative
        for rec in all_maximal_classes(n):
            c = class_from_mask(n, rec)
            assert list(c.sorted_elements) == [pauli_from_string(s) for s in c.letters()]

    @pytest.mark.parametrize("n", [2, 3])
    def test_membership_ignores_the_phase(self, n):
        low = (1 << n) - 1
        for rec in all_maximal_classes(n):
            c = class_from_mask(n, rec)
            keys = set(keys_of_mask(rec))
            for key in range(1 << (2 * n)):
                answers = {PauliOperator(n, key >> n, key & low, p) in c for p in range(4)}
                assert answers == {key in keys}

    def test_restricted_enumeration_agrees_with_family_filter(self):
        # the oracle's in-universe search and the family filter must agree
        cs = canonical_complete_set(3)
        for picks in [(0, 1, 2), (0, 3, 6), (1, 4, 7, 8), (0, 1, 2, 3, 4)]:
            universe = 0
            for i in picks:
                universe |= cs[i].mask
            direct = set(enumerate_classes_in(3, universe))
            filtered = set(classes_within_mask(3, universe))
            assert direct == filtered

    def test_route_agreement_at_four_qubits(self):
        cs = canonical_complete_set(4)
        universe = 0
        for idx in (0, 2, 3, 5, 7, 8, 11, 13, 16):
            universe |= cs[idx].mask
        direct = set(enumerate_classes_in(4, universe))
        filtered = set(classes_within_mask(4, universe))
        assert direct == filtered

    def test_each_operator_sits_in_the_right_number_of_classes(self):
        # each two-qubit operator lies in exactly 3 maximal classes
        counts = {key: 0 for key in range(1, 16)}
        for rec in all_maximal_classes(2):
            for k in keys_of_mask(rec):
                counts[k] += 1
        assert set(counts.values()) == {3}

    def test_full_mask_matches_enumeration(self):
        assert full_mask(2) == (1 << 15) - 1
        assert full_mask(4) == (1 << 255) - 1
        with pytest.raises(ValueError, match=r"must be in \[1, 4\], got 5"):
            full_mask(5)

    def test_keys_of_mask_rejects_a_negative_mask(self):
        # a negative int has infinitely many set bits in two's complement
        assert keys_of_mask(0b1011) == [1, 2, 4]
        with pytest.raises(ValueError, match="non-negative"):
            keys_of_mask(-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classes_within_mask_rejects_masks_outside_the_operators(self, n):
        # -1 would read as every operator and a bit past key 4**n - 1 as
        # none; both are malformed universes, not answers
        full = full_mask(n)
        assert classes_within_mask(n, full) == list(all_maximal_classes(n))
        for bad in (-1, -full - 1, full + 1, 1 << full.bit_length()):
            with pytest.raises(ValueError, match="universe mask"):
                classes_within_mask(n, bad)


def test_alternate_triple_fixture_is_made_of_valid_classes():
    for group in ALTERNATE_TRIPLE_D4:
        cls = class_from_strings(group)
        assert len(cls.sorted_elements) == 3


def test_weak_triple_ops_count():
    assert len(operators(named_class_set("paper-d4-weak"))) == 9
