"""Acceptance suite: one test per headline criterion, tolerances pinned.

Each test prints a single pass line with its elapsed time so a run of
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from mubforge.analysis import (
    collision_entropy,
    d8_double_partition_verify,
    eur_check,
    ks_alternate_partition,
    ks_sign_verify,
    residual,
    strong_unext_search,
)
from mubforge.bases import eigenbasis, labels_hamming_check
from mubforge.classes import (
    ClassSet,
    canonical_complete_set,
    class_from_elements,
    class_from_strings,
)
from mubforge.named_sets import (
    ALTERNATE_FIVE_D8,
    ALTERNATE_TRIPLE_D4,
    BASIS_LISTING_D4_YY,
    WEAK_TRIPLE_D4_LEFTOVER,
    strong_five_d8,
    strong_triple_d4,
    weak_triple_d4,
)
from mubforge.pauli import ProjectivePauli
from mubforge.search import all_maximal_classes, enumerate_classes_in
from mubforge.unextendible import (
    _weak4_candidates,
    conjecture_scan,
    extendibility_check,
    extra_classes_within_union,
    theorem4_census,
    verify_no_weak_4set_d4,
)
from oracles import assert_same_basis, random_state


def _report(tag: str, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[PASS] {tag}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{tag} exceeded its runtime budget"


def _all_disjoint_triples_d4() -> list[ClassSet]:
    classes = [
        class_from_elements(ProjectivePauli.from_key(2, k) for k in rec.elements)
        for rec in all_maximal_classes(2)
    ]
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
        report = extra_classes_within_union(ClassSet(2, tuple(cs[i] for i in picks)))
        assert len(report.found) == 1
    first = extra_classes_within_union(ClassSet(2, cs.classes[:3]))
    assert set(first.found[0].letters()) == {"XI", "IZ", "XZ"}
    _report("A1", "unique extra class for all 10 triples, pinned class exact", started, 1.0)


def test_a02_weak_triple_unextendible_with_exact_leftover():
    started = time.perf_counter()
    report = extendibility_check(weak_triple_d4())
    assert report.is_empty and report.exhaustive
    leftover = {p.to_string() for p in report.universe_operators()}
    assert leftover == set(WEAK_TRIPLE_D4_LEFTOVER)
    _report("A2", "weak triple leaves no class; leftover operators exact", started, 1.0)


def test_a03_no_weakly_unextendible_four_set():
    started = time.perf_counter()
    cs = canonical_complete_set(2)
    assert verify_no_weak_4set_d4(cs) is True
    # the candidates the verdict rests on, against the direct enumeration
    for i, j in combinations(range(5), 2):
        union = 0
        for k in range(5):
            if k not in (i, j):
                union |= cs[k].mask
        brute = {r.mask for r in enumerate_classes_in(2, union)}
        assert {c.mask for c in _weak4_candidates(cs, i, j)} == brute
    _report("A3", "every formable four-set is extendible; candidates match direct enumeration", started, 10.0)


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
            gram = np.abs(b1.vectors.conj() @ b2.vectors.T) ** 2
            assert np.max(np.abs(gram - 1.0 / b1.d)) < 1e-12
    comp = eigenbasis(class_from_strings(("ZI", "IZ", "ZZ")))
    assert_same_basis(comp.vectors, np.eye(4, dtype=complex))
    yy = eigenbasis(class_from_strings(("YY", "IY", "YI")))
    assert_same_basis(yy.vectors, BASIS_LISTING_D4_YY)
    _report("A5", "complete-set bases unbiased below 1e-12; pinned bases match", started, 5.0)


def test_a06_strong_unextendibility_two_sided():
    started = time.perf_counter()
    # evidence side: the published strong sets keep a high residual floor
    for cs, label in ((strong_triple_d4(), "d=4"), (strong_five_d8(), "d=8")):
        bases = [eigenbasis(c) for c in cs]
        outcome = strong_unext_search(bases, starts=1000, seed=7)
        assert outcome.min_residual > 1e-3, f"{label} floor too low"
        assert outcome.starts == 1000
    # calibration side: every extendible triple yields an exact witness
    complete = canonical_complete_set(2)
    for picks in combinations(range(5), 3):
        bases = [eigenbasis(complete[i]) for i in picks]
        outcome = strong_unext_search(bases, starts=1000, seed=7, stop_below=1e-12)
        assert outcome.min_residual < 1e-10
        rest = [eigenbasis(complete[i]) for i in range(5) if i not in picks]
        overlap = max(
            float(np.max(np.abs(b.vectors.conj() @ outcome.best_vector)))
            for b in rest
        )
        assert overlap > 1 - 1e-4, "witness does not match a fourth-basis vector"
        assert residual(outcome.best_vector, bases) < 1e-10
    _report("A6", "strong sets floor > 1e-3; extendible triples witness < 1e-10", started, 120.0)


def test_a07_collision_entropy_saturation():
    started = time.perf_counter()
    triples = _all_disjoint_triples_d4()
    assert len(triples) == 80
    pairs = 0
    for triple in triples:
        for extra in extra_classes_within_union(triple).found:
            report = eur_check(triple, extra)
            assert report.bound == 1.0
            for state in report.states:
                assert all(abs(h - 1.0) <= 1e-12 for h in state.per_basis)
                assert abs(state.average - 1.0) <= 1e-12
            pairs += 1
    assert pairs >= 10
    # random states never beat the bound
    bases = [eigenbasis(c) for c in weak_triple_d4()]
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        psi = random_state(rng, 4)
        avg = sum(collision_entropy(b, psi) for b in bases) / 3
        assert avg >= 1.0 - 1e-9
    _report("A7", f"H2 = 1 exactly for {pairs} (triple, extra) pairs; 1e4 random states respect the bound", started, 30.0)


def test_a08_ks_contexts_and_d8_double_partition():
    started = time.perf_counter()
    ctx = ks_alternate_partition(weak_triple_d4())
    got = {frozenset(c.letters()) for c in ctx.alternate}
    assert got == {frozenset(g) for g in ALTERNATE_TRIPLE_D4}
    report = ks_sign_verify(ctx)
    assert report.minus_identity_count == 1 and report.parity_odd
    minus_context = ctx.contexts[report.signs.index(-1)]
    assert set(minus_context.letters()) == {"YZ", "ZX", "XY"}
    assert d8_double_partition_verify(strong_five_d8(), ALTERNATE_FIVE_D8)
    _report("A8", "alternate contexts exact; one -identity context; d=8 double partition verified", started, 1.0)


def test_a09_label_columns_have_weight_two():
    started = time.perf_counter()
    for rec in all_maximal_classes(2):
        cls = class_from_elements(ProjectivePauli.from_key(2, k) for k in rec.elements)
        assert labels_hamming_check(eigenbasis(cls))
    _report("A9", "label columns of all 15 two-qubit eigenbases have weight two", started, 1.0)


def test_a10_exhaustive_conjecture_scan():
    started = time.perf_counter()
    report = conjecture_scan(n=4, budget=None, seed=0)
    assert report.exhaustive and report.subsets_scanned == 24310
    assert sum(report.within_union_distribution.values()) == 24310
    assert sum(report.spanning_distribution.values()) == 24310
    # determinism of the sampled mode against itself
    again = conjecture_scan(n=4, budget=64, seed=12)
    assert again == conjecture_scan(n=4, budget=64, seed=12)
    detail = (
        f"within-union {report.within_union_distribution}, "
        f"spanning {report.spanning_distribution}, "
        f"swap passes {report.swap_passes}/{report.spanning_distribution.get(1, 0)}"
    )
    _report("A10", detail, started, 1800.0)
