"""Self-contained JSON certificates and their independent re-verification.

A certificate records a command, its full configuration (seeds, tolerances,
budgets), and a typed payload carrying every input needed to re-derive the
claim from scratch. ``verify_payload`` is the single checker used both when
a certificate is emitted (the ``verified`` flag is set only after it passes)
and when one is re-checked later from the file alone.

The payload hash covers the schema version, command, config and payload in
canonical JSON; the creation timestamp sits outside the hashed region so
identical runs produce byte-identical hashed content.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable

import numpy as np

from mubforge.analysis import (
    DEFAULT_MAX_ITERATIONS,
    EurReport,
    KsContextSet,
    KsReport,
    SearchOutcome,
    eur_check,
    ks_alternate_partition,
    ks_sign_verify,
    residual,
    strong_unext_search,
)
from mubforge.bases import eigenbasis, unbiasedness_deviation
from mubforge.classes import (
    ClassSet,
    classes_from_json,
    classes_to_json,
    class_from_json,
    class_to_json,
)
from mubforge.unextendible import (
    ConjectureScanReport,
    ExtensionReport,
    UnextendibleSet,
    build_unextendible_set,
    conjecture_scan,
    extendibility_check,
    extra_classes_within_union,
)

SCHEMA_VERSION = "1"

RESIDUAL_RECHECK_TOL = 1e-9
EUR_RECHECK_TOL = 1e-12
RECHECK_STARTS = 25


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _payload_hash(command: str, config: dict, payload: dict) -> str:
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
    }
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def extension_report_to_json(report: ExtensionReport) -> dict:
    return {
        "kind": "extension_report",
        "input": classes_to_json(report.input),
        "universe": report.universe,
        "universe_operators": [p.to_string() for p in report.universe_operators()],
        "found": [class_to_json(c) for c in report.found],
        "exhaustive": report.exhaustive,
    }


def unextendible_set_to_json(us: UnextendibleSet) -> dict:
    payload = {
        "kind": "unextendible_set",
        "classes": classes_to_json(us.classes),
        "extra_class": class_to_json(us.extra_class),
        "extendibility": extension_report_to_json(us.extendibility),
        "provenance": None,
    }
    if us.provenance is not None:
        payload["provenance"] = {
            "complete_set": classes_to_json(us.provenance.complete),
            "chosen": list(us.provenance.chosen),
        }
    return payload


def _vector_to_json(v: np.ndarray) -> dict:
    return {"re": [float(a.real) for a in v], "im": [float(a.imag) for a in v]}


def _vector_from_json(data: dict) -> np.ndarray:
    return np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)


def search_outcome_to_json(outcome: SearchOutcome, source: ClassSet) -> dict:
    return {
        "kind": "search_outcome",
        "classes": classes_to_json(source),
        "min_residual": outcome.min_residual,
        "best_vector": _vector_to_json(outcome.best_vector),
        "starts": outcome.starts,
        "seed": outcome.seed,
        "converged_starts": outcome.converged_starts,
        "config": outcome.config,
    }


def eur_report_to_json(report: EurReport) -> dict:
    return {
        "kind": "eur_report",
        "classes": classes_to_json(report.classes),
        "extra_class": class_to_json(report.extra_class),
        "bound": report.bound,
        "states": [
            {
                "label": s.label,
                "per_basis": list(s.per_basis),
                "average": s.average,
            }
            for s in report.states
        ],
        "saturated": report.saturated,
    }


def ks_report_to_json(ctx: KsContextSet, report: KsReport) -> dict:
    return {
        "kind": "ks_report",
        "operators": [p.to_string() for p in ctx.operators],
        "original": [class_to_json(c) for c in ctx.original],
        "alternate": [class_to_json(c) for c in ctx.alternate],
        "signs": list(report.signs),
        "minus_identity_count": report.minus_identity_count,
        "parity_odd": report.parity_odd,
    }


def scan_report_to_json(report: ConjectureScanReport) -> dict:
    return {
        "kind": "scan_report",
        "n": report.n,
        "seed": report.seed,
        "budget": report.budget,
        "exhaustive": report.exhaustive,
        "subsets_scanned": report.subsets_scanned,
        "within_union_distribution": {
            str(k): v for k, v in report.within_union_distribution.items()
        },
        "spanning_distribution": {
            str(k): v for k, v in report.spanning_distribution.items()
        },
        "swap_passes": report.swap_passes,
        "swap_failures": [list(a) for a in report.swap_failures],
        "note": "evidence only; the scanned statement is an open conjecture",
    }


def make_certificate(command: str, config: dict, payload: dict) -> dict:
    """Assemble, independently verify, and stamp a certificate."""
    problems = verify_payload(payload, config)
    if problems:
        raise ValueError("refusing to emit unverifiable certificate: " + problems[0])
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
        "payload_sha256": _payload_hash(command, config, payload),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "verified": True,
    }


def _verify_class_set(payload: dict, config: dict) -> list[str]:
    problems = []
    try:
        cs = classes_from_json(payload["class_set"])
    except (KeyError, ValueError) as exc:
        return [f"class set does not rebuild: {exc}"]
    if payload.get("expected_complete") and not cs.complete:
        problems.append("class set is not flagged complete")
    return problems


def _verify_extension_report(payload: dict, config: dict) -> list[str]:
    try:
        cs = classes_from_json(payload["input"])
    except (KeyError, ValueError) as exc:
        return [f"input classes do not rebuild: {exc}"]
    if payload["universe"] == "within-union":
        fresh = extra_classes_within_union(cs)
    else:
        fresh = extendibility_check(cs)
    want = [class_to_json(c) for c in fresh.found]
    problems = []
    if want != payload["found"]:
        problems.append("re-running the search finds different classes")
    fresh_ops = [p.to_string() for p in fresh.universe_operators()]
    if fresh_ops != payload["universe_operators"]:
        problems.append("universe operator list does not match")
    return problems


def _verify_unextendible_set(payload: dict, config: dict) -> list[str]:
    problems = []
    try:
        cs = classes_from_json(payload["classes"])
        extra = class_from_json(payload["extra_class"])
    except (KeyError, ValueError) as exc:
        return [f"classes do not rebuild: {exc}"]
    if extra not in cs.classes:
        problems.append("extra class is not a member of the certified set")
    report = extendibility_check(cs)
    if not report.is_empty:
        problems.append("set is extendible: extra classes exist outside it")
    embedded = payload.get("extendibility", {})
    fresh_ops = [p.to_string() for p in report.universe_operators()]
    if embedded.get("universe_operators") != fresh_ops:
        problems.append("embedded leftover operator list does not re-derive")
    if embedded.get("found") != []:
        problems.append("embedded extendibility report is not empty")
    prov = payload.get("provenance")
    if prov:
        try:
            complete = classes_from_json(prov["complete_set"])
            rebuilt = build_unextendible_set(complete, tuple(prov["chosen"])).classes
        except (ValueError, RuntimeError):
            rebuilt = None  # a provenance that does not rebuild proves nothing
        if rebuilt is None or rebuilt.partition_key() != cs.partition_key():
            problems.append("provenance does not reproduce the certified classes")
    return problems


def _verify_search_outcome(payload: dict, config: dict) -> list[str]:
    """Re-check a strong-search outcome from the file alone.

    The recorded vector must give the recorded residual, and a spot re-run
    of the first starts must not beat it. The re-run's cost does not grow
    with what the file claims: at most RECHECK_STARTS starts of at most
    DEFAULT_MAX_ITERATIONS steps each, so at most RECHECK_STARTS x
    (DEFAULT_MAX_ITERATIONS + 1) single-start evaluations of the residual
    kernel, made in about DEFAULT_MAX_ITERATIONS batched calls. A shorter
    re-run can only end higher, so capping it never refutes a true claim.
    Optimizer settings the search rejects raise ValueError (malformed).
    """
    problems = []
    cs = classes_from_json(payload["classes"])
    bases = [eigenbasis(c) for c in cs]
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            if unbiasedness_deviation(bases[i], bases[j]) > 1e-9:
                problems.append("embedded classes do not give mutually unbiased bases")
    vec = _vector_from_json(payload["best_vector"])
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        problems.append("best vector is not unit norm")
        return problems
    fresh = residual(vec, bases)
    if abs(fresh - payload["min_residual"]) > RESIDUAL_RECHECK_TOL:
        problems.append(
            f"recomputed residual {fresh:.3e} disagrees with recorded "
            f"{payload['min_residual']:.3e}"
        )
    # Deterministic spot re-run: the first few starts can never beat the
    # recorded optimum of the full run.
    rerun = strong_unext_search(
        bases,
        starts=min(payload["starts"], RECHECK_STARTS),
        seed=payload["seed"],
        max_iterations=min(payload["config"]["max_iterations"], DEFAULT_MAX_ITERATIONS),
        f_tol=payload["config"]["f_tol"],
    )
    if payload["min_residual"] > rerun.min_residual + RESIDUAL_RECHECK_TOL:
        problems.append("recorded residual is worse than a deterministic re-run")
    return problems


def _verify_eur_report(payload: dict, config: dict) -> list[str]:
    try:
        cs = classes_from_json(payload["classes"])
        extra = class_from_json(payload["extra_class"])
        fresh = eur_check(cs, extra)
    except (KeyError, ValueError) as exc:
        return [f"saturation re-check failed: {exc}"]
    problems = []
    if abs(fresh.bound - payload["bound"]) > EUR_RECHECK_TOL:
        problems.append("bound value changed")
    if fresh.saturated != payload["saturated"]:
        problems.append("saturation flag changed")
    if [s.label for s in fresh.states] != [s["label"] for s in payload["states"]]:
        problems.append("state labels changed")
        return problems
    for got, want in zip(fresh.states, payload["states"]):
        if abs(got.average - want["average"]) > EUR_RECHECK_TOL:
            problems.append("per-state average entropy changed")
            break
        if len(got.per_basis) != len(want["per_basis"]) or any(
            abs(g - w) > EUR_RECHECK_TOL
            for g, w in zip(got.per_basis, want["per_basis"])
        ):
            problems.append("per-basis entropy changed")
            break
    return problems


def _verify_ks_report(payload: dict, config: dict) -> list[str]:
    try:
        original = ClassSet(
            2, tuple(class_from_json(c) for c in payload["original"])
        )
        ctx = ks_alternate_partition(original)
        want = ks_report_to_json(ctx, ks_sign_verify(ctx))
    except (KeyError, ValueError) as exc:
        return [f"context re-derivation failed: {exc}"]
    problems = [
        f"ks field {key!r} does not reproduce"
        for key in ("operators", "signs", "minus_identity_count", "parity_odd")
        if want[key] != payload[key]
    ]
    want_alt = {frozenset(c["elements"]) for c in want["alternate"]}
    if want_alt != {frozenset(c["elements"]) for c in payload["alternate"]}:
        problems.append("alternate partition changed")
    return problems


def _verify_scan_report(payload: dict, config: dict) -> list[str]:
    fresh = conjecture_scan(
        n=payload["n"], budget=payload["budget"], seed=payload["seed"]
    )
    want = scan_report_to_json(fresh)
    problems = []
    for key in (
        "subsets_scanned",
        "within_union_distribution",
        "spanning_distribution",
        "swap_passes",
        "swap_failures",
        "exhaustive",
    ):
        if want[key] != payload[key]:
            problems.append(f"scan field {key!r} does not reproduce")
    return problems


_VERIFIERS: dict[str, Callable[[dict, dict], list[str]]] = {
    "class_set": _verify_class_set,
    "extension_report": _verify_extension_report,
    "unextendible_set": _verify_unextendible_set,
    "search_outcome": _verify_search_outcome,
    "eur_report": _verify_eur_report,
    "ks_report": _verify_ks_report,
    "scan_report": _verify_scan_report,
}


def verify_payload(payload: dict, config: dict) -> list[str]:
    """Re-derive every claim in a payload; return a list of discrepancies."""
    kind = payload.get("kind")
    verifier = _VERIFIERS.get(kind)
    if verifier is None:
        return [f"unknown payload kind {kind!r}"]
    return verifier(payload, config)


def verify_certificate(cert: dict) -> list[str]:
    """Full re-verification of a parsed certificate file."""
    problems = []
    for key in ("schema_version", "command", "config", "payload", "payload_sha256"):
        if key not in cert:
            return [f"missing certificate field {key!r}"]
    if cert["schema_version"] != SCHEMA_VERSION:
        return [f"unsupported schema version {cert['schema_version']!r}"]
    fresh_hash = _payload_hash(cert["command"], cert["config"], cert["payload"])
    if fresh_hash != cert["payload_sha256"]:
        problems.append("payload hash mismatch: certificate was altered")
    problems.extend(verify_payload(cert["payload"], cert["config"]))
    return problems
