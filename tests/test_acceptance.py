"""Acceptance suite: one test per headline criterion, tolerances pinned.

Each test prints a single pass line with its elapsed time so a run of
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
"""

from __future__ import annotations

import hashlib
import time
from itertools import combinations

import numpy as np

from mubforge.analysis import (
    collision_entropy,
    eur_bound,
    eur_check,
    residual,
    strong_unext_search,
)
from mubforge.bases import eigenbasis
from mubforge.classes import (
    ClassSet,
    canonical_complete_set,
    class_from_mask,
    class_from_strings,
    mask_letters,
)
from mubforge.named_sets import named_class_set
from mubforge.search import all_maximal_classes, full_mask
from mubforge.unextendible import (
    conjecture_scan,
    context_sign,
    count_extras,
    extendibility_check,
    extra_classes_within_union,
    ks_alternate_partition,
    owner_census,
)
from oracles import (
    ALTERNATE_FIVE_D8,
    ALTERNATE_TRIPLE_D4,
    BASIS_LISTING_D4_YY,
    WEAK_TRIPLE_D4_LEFTOVER,
    WITNESS_THRESHOLD,
    assert_same_basis,
    enumerate_classes_in,
    random_state,
    sign_columns,
    theorem4_census,
)


def _report(tag: str, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[PASS] {tag}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{tag} exceeded its runtime budget"


def _all_disjoint_triples_d4() -> list[ClassSet]:
    classes = [class_from_mask(2, rec) for rec in all_maximal_classes(2)]
    triples = []
    for trio in combinations(classes, 3):
        masks = [c.mask for c in trio]
        if (masks[0] & masks[1]) or (masks[0] & masks[2]) or (masks[1] & masks[2]):
            continue
        triples.append(ClassSet(2, trio))
    return triples


def test_a01_unique_extra_class_for_every_triple():
    started = time.perf_counter()
    cs = canonical_complete_set(2)
    for picks in combinations(range(5), 3):
        found = extra_classes_within_union(ClassSet(2, tuple(cs[i] for i in picks)))
        assert len(found) == 1
    first = extra_classes_within_union(ClassSet(2, cs.classes[:3]))
    assert set(first[0].letters()) == {"XI", "IZ", "XZ"}
    _report("A1", "unique extra class for all 10 triples, pinned class exact", started, 1.0)


def test_a02_weak_triple_unextendible_with_exact_leftover():
    started = time.perf_counter()
    weak = named_class_set("paper-d4-weak")
    assert extendibility_check(weak) == ()
    leftover = mask_letters(2, full_mask(2) & ~weak.union_mask)
    assert set(leftover) == set(WEAK_TRIPLE_D4_LEFTOVER)
    _report("A2", "weak triple leaves no class; leftover operators exact", started, 1.0)


def test_a03_no_weakly_unextendible_four_set():
    # beside any two classes of the complete set, every pair of disjoint
    # classes formable from the other nine operators leaves a class outside,
    # all found by the direct enumeration
    started = time.perf_counter()
    cs = canonical_complete_set(2)
    full = full_mask(2)
    examined = 0
    for i, j in combinations(range(5), 2):
        others = full & ~(cs[i].mask | cs[j].mask)
        for a, b in combinations(enumerate_classes_in(2, others), 2):
            if not a & b:
                examined += 1
                assert enumerate_classes_in(2, others & ~(a | b))
    assert examined == 30  # three disjoint pairs beside each of the ten pairs
    _report("A3", f"all {examined} formable four-sets are extendible, by direct enumeration", started, 10.0)


def test_a04_census_over_all_subsets_d8():
    started = time.perf_counter()
    cs = canonical_complete_set(3)
    expected = {2: 0, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0}
    got = {k: theorem4_census(cs, k) for k in range(2, 8)}
    assert got == expected
    _report("A4", f"spanning extra-class census {got}", started, 300.0)


def test_a05_mub_property_and_pinned_bases():
    started = time.perf_counter()
    for n in (2, 3):
        bases = [eigenbasis(c) for c in canonical_complete_set(n)]
        for b1, b2 in combinations(bases, 2):
            gram = np.abs(b1.conj() @ b2.T) ** 2
            assert np.max(np.abs(gram - 1.0 / len(b1))) < 1e-12
    comp = eigenbasis(class_from_strings(("ZI", "IZ", "ZZ")))
    assert_same_basis(comp, np.eye(4, dtype=complex))
    yy = eigenbasis(class_from_strings(("YY", "IY", "YI")))
    assert_same_basis(yy, BASIS_LISTING_D4_YY)
    _report("A5", "complete-set bases unbiased below 1e-12; pinned bases match", started, 5.0)


def test_a06_strong_unextendibility_two_sided():
    started = time.perf_counter()
    # evidence side: the published strong sets keep their calibrated floors
    for cs, floor, label in (
        (named_class_set("paper-d4-strong"), 0.25, "d=4"),
        (named_class_set("paper-d8-strong"), 0.125, "d=8"),
    ):
        outcome = strong_unext_search(cs, starts=1000, seed=7)
        assert abs(outcome.min_residual - floor) < 1e-9, f"{label} floor moved"
        assert outcome.starts == 1000
    # calibration side: every extendible triple yields an exact witness
    complete = canonical_complete_set(2)
    for picks in combinations(range(5), 3):
        triple = ClassSet(2, tuple(complete[i] for i in picks))
        outcome = strong_unext_search(triple, starts=1000, seed=7, stop_below=1e-12)
        assert outcome.min_residual < WITNESS_THRESHOLD
        rest = [eigenbasis(complete[i]) for i in range(5) if i not in picks]
        overlap = max(
            float(np.max(np.abs(b.conj() @ outcome.best_vector)))
            for b in rest
        )
        assert overlap > 1 - 1e-4, "witness does not match a fourth-basis vector"
        bases = [eigenbasis(c) for c in triple]
        assert residual(outcome.best_vector, bases) < WITNESS_THRESHOLD
    _report("A6", f"strong floors 0.25 (d=4) and 0.125 (d=8) within 1e-9; extendible triples witness < {WITNESS_THRESHOLD:g}", started, 120.0)


def test_a07_collision_entropy_saturation():
    started = time.perf_counter()
    triples = _all_disjoint_triples_d4()
    assert len(triples) == 80
    assert eur_bound(3, 4) == 1.0
    pairs = 0
    for triple in triples:
        for extra in extra_classes_within_union(triple):
            entropies = eur_check(triple, extra)
            assert len(entropies) == 4
            for per_basis in entropies.values():
                assert all(abs(h - 1.0) <= 1e-12 for h in per_basis)
                assert abs(sum(per_basis) / len(per_basis) - 1.0) <= 1e-12
            pairs += 1
    assert pairs >= 10
    # random states never beat the bound
    bases = [eigenbasis(c) for c in named_class_set("paper-d4-weak")]
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        psi = random_state(rng, 4)
        avg = sum(collision_entropy(b, psi) for b in bases) / 3
        assert avg >= 1.0 - 1e-9
    _report("A7", f"H2 = 1 exactly for {pairs} (triple, extra) pairs; 1e4 random states respect the bound", started, 30.0)


def test_a08_ks_contexts_and_d8_double_partition():
    started = time.perf_counter()
    triple = named_class_set("paper-d4-weak")
    alternate = ks_alternate_partition(triple)
    got = {frozenset(c.letters()) for c in alternate}
    assert got == {frozenset(g) for g in ALTERNATE_TRIPLE_D4}
    contexts = (*triple, *alternate)
    signs = [context_sign(c) for c in contexts]
    assert signs.count(-1) == 1  # one -identity context: odd parity
    minus_context = contexts[signs.index(-1)]
    assert set(minus_context.letters()) == {"YZ", "ZX", "XY"}
    # d = 8: the published second partition is every class within the union
    # beyond the five, meeting class i in 3 operators and the others in 1
    first = named_class_set("paper-d8-strong")
    second = ClassSet(3, tuple(class_from_strings(g) for g in ALTERNATE_FIVE_D8))
    assert second.union_mask == first.union_mask
    assert set(extra_classes_within_union(first)) == set(second)
    meets = [[(a.mask & b.mask).bit_count() for b in second] for a in first]
    assert meets == [[3 if i == j else 1 for j in range(5)] for i in range(5)]
    _report("A8", "alternate contexts exact; one -identity context; d=8 double partition is the union's extra classes", started, 1.0)


def test_a09_label_columns_have_weight_two():
    started = time.perf_counter()
    for rec in all_maximal_classes(2):
        cls = class_from_mask(2, rec)
        columns = sign_columns(eigenbasis(cls), cls.letters())
        assert [column.count("1") for column in columns.values()] == [2, 2, 2]
    _report("A9", "sign columns read off all 15 two-qubit eigenbases have weight two", started, 1.0)


def test_a10_exhaustive_conjecture_scan():
    # regression values from the deterministic exhaustive scan; the same
    # spanning distribution was observed for eight distinct complete sets,
    # so these counts look like invariants of the dimension rather than
    # accidents of the canonical partition
    started = time.perf_counter()
    report = conjecture_scan(budget=None, seed=0)
    assert report.exhaustive and report.subsets_scanned == 24310
    assert report.within_union_distribution == {
        0: 2040, 1: 12240, 2: 8160, 3: 510, 4: 1360
    }
    # the count of each nine-class choice, in combinations order, so the
    # distribution cannot hold with the counts moved between choices
    within = count_extras(owner_census(canonical_complete_set(4))).within
    counts = [within[sum(1 << i for i in c)] for c in combinations(range(17), 9)]
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == (
        "1022a98f6bd50169efc37659f8e9a98ec33724f5cad83b8ff4f885f14752c02d"
    )
    assert report.spanning_distribution == {0: 22440, 1: 1870}
    assert report.swap_passes == 1870
    assert report.swap_failures == ()
    # determinism of the sampled mode against itself
    again = conjecture_scan(budget=64, seed=12)
    assert again == conjecture_scan(budget=64, seed=12)
    detail = (
        f"within-union {report.within_union_distribution}, "
        f"spanning {report.spanning_distribution}, "
        f"swap passes {report.swap_passes}/{report.spanning_distribution.get(1, 0)}"
    )
    _report("A10", detail, started, 1800.0)
