"""Self-contained JSON certificates and their re-verification from the file.

A certificate records a command, its full configuration (seeds, tolerances,
budgets), and a typed payload carrying every input needed to re-derive the
claim from scratch. The payload kind names the command: ``_KINDS`` maps
each kind to the one command that emits it, ``make_certificate`` writes
that command, and ``check`` refuses any other. Emitting only assembles and
hashes: every claim was checked by the code that computed it, which is what
the unhashed ``verified`` flag records. ``verify_payload`` is the one
verifier; ``check`` runs it once, on the file alone.

The deterministic kinds (class_set, unextendible_set, eur_report, ks_report,
scan_report) verify by re-emission. One ``*_content`` function per kind runs
the domain call, which returns only what it computed, and writes that result
beside the inputs it was given as the config and payload the CLI writes;
``check`` feeds it the inputs the payload declares and requires the whole
config and payload back as identical JSON, except eur's collision entropies,
the only values a rebuild computes in floating point, which pass within
REBUILD_FLOAT_TOL.
Declared classes that do not rebuild refute the claim. A ``source`` that is
a built-in name stands for that set, which is rebuilt in place of the
payload's classes; any other ``source`` string, and the find-unextendible
``seed`` (an int the construction does not use), are labels, echoed back.

Strong-search outcomes keep their own route, since files from earlier
optimizers must still verify: the payload carries exactly the keys every
optimizer has written, the seed and start counts are JSON integers and the
vector parts lists of d numbers, the numbers must be finite and consistent,
the search settings must be the fixed ones every search runs with, the
vector must give the recorded residual, and a spot re-run of the first
RECHECK_STARTS starts must not beat it. The re-run takes only its seed and
start count from the file, so it costs at most RECHECK_STARTS x
(analysis.MAX_ITERATIONS + 1) evaluations of the residual kernel, whatever
the file says.

The payload hash covers the schema version, command, config and payload in
canonical JSON; the creation timestamp sits outside the hashed region so
identical runs produce byte-identical hashed content.
"""

from __future__ import annotations

import json
import math
import re
import time
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

from mubforge import analysis, bases
from mubforge.classes import (
    ClassSet,
    CommutingClass,
    classes_from_json,
    classes_to_json,
    class_from_json,
    class_to_json,
    mask_letters,
)
from mubforge.named_sets import NAMED_CLASS_SETS, named_class_set
from mubforge.search import full_mask
from mubforge.unextendible import build_unextendible_set, conjecture_scan

# CPython's own SHA-256: importing hashlib loads OpenSSL's libcrypto, a few
# MB and milliseconds in every process, for one digest per certificate
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

SCHEMA_VERSION = "1"

RESIDUAL_RECHECK_TOL = 1e-9
REBUILD_FLOAT_TOL = 1e-12
# where a rebuilt float may differ by REBUILD_FLOAT_TOL: eur's collision
# entropies, which another BLAS may round differently in the last digits;
# every other rebuilt value, eur's constants included, is exact JSON
_ENTROPY = re.compile(r"payload\.states\[\d+\]\.(per_basis\[\d+\]|average)")
RECHECK_STARTS = 25

# The closed key sets of a search_outcome, as every optimizer has written
# them: a key beyond these refutes, a missing one is malformed.
_OUTCOME_KEYS = {
    "payload": frozenset({
        "kind", "classes", "min_residual", "best_vector", "starts", "seed",
        "converged_starts", "config",
    }),
    "payload.config": frozenset({
        "starts_requested", "stop_below", "max_iterations", "f_tol",
        "gradient_tol", "best_start_index",
    }),
    "payload.best_vector": frozenset({"re", "im"}),
}


def canonical_json(obj) -> str:
    """Sorted keys and no whitespace: the text both hashed and written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _payload_hash(command: str, config: dict, payload: dict) -> str:
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
    }
    return sha256(canonical_json(body).encode("utf-8")).hexdigest()


def _vector_to_json(v: np.ndarray) -> dict:
    return {"re": [float(a.real) for a in v], "im": [float(a.imag) for a in v]}


def _vector_from_json(data: dict, d: int) -> np.ndarray:
    """The vector of ``_vector_to_json``; each part must list d numbers."""
    import numpy as np

    for part in ("re", "im"):
        values = data[part]
        if not (
            isinstance(values, list)
            and len(values) == d
            and all(type(a) in (int, float) for a in values)
        ):
            raise ValueError(f"best_vector.{part} is not a list of {d} numbers")
    return np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)


def _check_int(value, where: str) -> None:
    """Raise ValueError unless ``value`` is a JSON integer (a bool is not)."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")


# One function per command runs the domain call and returns the (config,
# payload) pair the CLI writes; ``check`` calls the deterministic ones again
# on the inputs the payload declares.


def strong_content(
    source: str, cs: ClassSet, starts: int, seed: int, stop_below: Optional[float]
) -> tuple[dict, dict]:
    outcome = analysis.strong_unext_search(cs, starts, seed, stop_below=stop_below)
    payload = {
        "kind": "search_outcome",
        "classes": classes_to_json(cs),
        "min_residual": outcome.min_residual,
        "best_vector": _vector_to_json(outcome.best_vector),
        "starts": outcome.starts,
        "seed": seed,
        "converged_starts": outcome.converged_starts,
        "config": {
            "starts_requested": starts,
            "stop_below": stop_below,
            **analysis.SEARCH_SETTINGS,
            "best_start_index": outcome.best_start_index,
        },
    }
    return _strong_config(source, payload), payload


def _strong_config(source: str, payload: dict) -> dict:
    settings = payload["config"]
    return {
        "source": source,
        "starts": settings["starts_requested"],
        "seed": payload["seed"],
        "stop_below": settings["stop_below"],
    }


def complete_set_content(cs: ClassSet) -> tuple[dict, dict]:
    if not cs.complete:
        raise ValueError("class set is not complete")
    payload = {
        "kind": "class_set",
        "class_set": classes_to_json(cs),
        "expected_complete": True,
    }
    return {"n": cs.n}, payload


def unextendible_content(
    complete: ClassSet, chosen: Sequence[int], seed: int
) -> tuple[dict, dict]:
    chosen = list(chosen)
    unext = build_unextendible_set(complete, chosen)
    n = unext.n
    classes = classes_to_json(unext)
    payload = {
        "kind": "unextendible_set",
        "classes": classes,
        "extra_class": class_to_json(unext[-1]),
        # build_unextendible_set refuses a set whose leftover operators form a
        # class, so the exhaustive search recorded here never finds one
        "extendibility": {
            "kind": "extension_report",
            "input": classes,
            "universe": "remaining-operators",
            "universe_operators": list(
                mask_letters(n, full_mask(n) & ~unext.union_mask)
            ),
            "found": [],
            "exhaustive": True,
        },
        "provenance": {
            "complete_set": classes_to_json(complete),
            "chosen": chosen,
        },
    }
    return {"n": n, "chosen": chosen, "seed": seed}, payload


def eur_content(
    source: str, cs: ClassSet, extra: CommutingClass
) -> tuple[dict, dict]:
    entropies = analysis.eur_check(cs, extra)
    config = {
        "source": source,
        "extra": " ".join(extra.letters()),
        "saturation_tol": analysis.SATURATION_TOL,
    }
    payload = {
        "kind": "eur_report",
        "classes": classes_to_json(cs),
        "extra_class": class_to_json(extra),
        "bound": analysis.eur_bound(3, 4),
        "states": [
            {"label": label, "per_basis": list(h), "average": sum(h) / len(h)}
            for label, h in entropies.items()
        ],
        "saturated": True,  # eur_check raises otherwise
    }
    return config, payload


def ks_content(source: str, cs: ClassSet) -> tuple[dict, dict]:
    alternate = analysis.ks_alternate_partition(cs)
    signs = [analysis.context_sign(c) for c in (*cs, *alternate)]
    minus = signs.count(-1)
    payload = {
        "kind": "ks_report",
        "operators": list(mask_letters(cs.n, cs.union_mask)),
        "original": [class_to_json(c) for c in cs],
        "alternate": [class_to_json(c) for c in alternate],
        "signs": signs,
        "minus_identity_count": minus,
        "parity_odd": minus % 2 == 1,
    }
    return {"source": source}, payload


def scan_content(n: int, budget: Optional[int], seed: int) -> tuple[dict, dict]:
    if n != 4:
        raise ValueError("the scanner targets four qubits")
    report = conjecture_scan(budget=budget, seed=seed)
    payload = {
        "kind": "scan_report",
        "n": n,
        "seed": seed,
        "budget": budget,
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
    return {"n": n, "budget": budget, "seed": seed}, payload


class _Refuted(Exception):
    """What a file declares contradicts its claim."""


@contextmanager
def _declared(what: str):
    """Declared inputs that fail to rebuild refute the claim they carry."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _Refuted(f"{what} does not rebuild: {exc}") from None


# Inputs the rebuild echoes pass through str() or int() first, so a value of
# another type (a bool for an int, say) no longer matches the file's.


def _source(config: dict, declared: ClassSet) -> tuple[str, ClassSet]:
    """The ``source`` label and its classes: a built-in set, else those declared."""
    source = str(config["source"])
    return source, named_class_set(source) if source in NAMED_CLASS_SETS else declared


def _rebuild_class_set(payload: dict, config: dict) -> tuple[dict, dict]:
    with _declared("class set"):
        return complete_set_content(classes_from_json(payload["class_set"]))


def _rebuild_unextendible_set(payload: dict, config: dict) -> tuple[dict, dict]:
    seed = int(config["seed"])
    with _declared("provenance"):
        prov = payload["provenance"]
        chosen = [int(i) for i in prov["chosen"]]
        return unextendible_content(classes_from_json(prov["complete_set"]), chosen, seed)


def _rebuild_eur_report(payload: dict, config: dict) -> tuple[dict, dict]:
    with _declared("eur input"):
        source, cs = _source(config, classes_from_json(payload["classes"]))
        return eur_content(source, cs, class_from_json(payload["extra_class"]))


def _rebuild_ks_report(payload: dict, config: dict) -> tuple[dict, dict]:
    with _declared("ks input"):
        original = ClassSet(2, tuple(class_from_json(c) for c in payload["original"]))
        return ks_content(*_source(config, original))


def _rebuild_scan_report(payload: dict, config: dict) -> tuple[dict, dict]:
    budget = None if payload["budget"] is None else int(payload["budget"])
    return scan_content(int(payload["n"]), budget, int(payload["seed"]))


# payload kind -> the command that emits it and the rebuild ``check`` runs;
# search_outcome has no rebuild and goes through _verify_search_outcome
_KINDS: dict[str, tuple[str, Optional[Callable]]] = {
    "class_set": ("complete-set", _rebuild_class_set),
    "unextendible_set": ("find-unextendible", _rebuild_unextendible_set),
    "search_outcome": ("strong", None),
    "eur_report": ("eur", _rebuild_eur_report),
    "ks_report": ("ks", _rebuild_ks_report),
    "scan_report": ("scan", _rebuild_scan_report),
}


def make_certificate(config: dict, payload: dict) -> dict:
    """Assemble and hash a certificate under the command its payload kind names.

    ``check`` alone re-derives its claims.
    """
    command = _KINDS[payload["kind"]][0]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
        "payload_sha256": _payload_hash(command, config, payload),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "verified": True,
    }


def _differences(got, want, path: str) -> list[str]:
    """Where ``got`` departs from the rebuilt ``want``, one line per place.

    Equal canonical JSON means equal keys, lengths, types and values; below
    that, a finite float at an _ENTROPY path within REBUILD_FLOAT_TOL of the
    rebuilt one passes.
    """
    got_text, want_text = canonical_json(got), canonical_json(want)
    if got_text == want_text:
        return []
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        return [
            line for key in sorted(want)
            for line in _differences(got[key], want[key], f"{path}.{key}")
        ]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [
            line for i, (g, w) in enumerate(zip(got, want))
            for line in _differences(g, w, f"{path}[{i}]")
        ]
    if (
        isinstance(got, float) and isinstance(want, float) and _ENTROPY.fullmatch(path)
        and math.isfinite(got) and abs(got - want) <= REBUILD_FLOAT_TOL
    ):
        return []
    return [f"{path} does not reproduce: {got_text[:60]}, rebuilt {want_text[:60]}"]


def _verify_search_outcome(payload: dict, config: dict) -> list[str]:
    """Re-check a strong-search outcome from the file alone.

    The payload, its optimizer config and its vector carry exactly the keys
    of _OUTCOME_KEYS. The seed, the start counts and the best start index
    must be JSON integers, and each vector part a list of d numbers. The
    recorded numbers must be finite and agree with each other and with the
    config, and each setting of SEARCH_SETTINGS must be there with its JSON
    type. The recorded vector must give the recorded residual, and a spot
    re-run of the first starts must not beat it: at most RECHECK_STARTS x
    (MAX_ITERATIONS + 1) single-start evaluations of the residual kernel,
    made in about MAX_ITERATIONS batched calls. Over m condition rows at
    dimension d, each evaluation costs about 2 m (d-1)^2 complex
    multiply-adds and each step one (d-1) x (d-1) solve per start; a start
    in flight holds O(m + (d-1)^2) numbers, never an m x (d-1) Jacobian.
    Values of the wrong type, a ``stop_below`` the search rejects (a
    non-finite one), a negative seed, which no generator takes, and missing
    keys raise ValueError or KeyError (malformed).
    """
    import numpy as np

    settings = payload["config"]
    problems = []
    for path, node in (
        ("payload", payload),
        ("payload.config", settings),
        ("payload.best_vector", payload["best_vector"]),
    ):
        missing = sorted(_OUTCOME_KEYS[path] - set(node))
        if missing:
            raise KeyError(f"{path}.{missing[0]}")
        problems += [
            f"{path}.{key} is not a search outcome field"
            for key in sorted(set(node) - _OUTCOME_KEYS[path])
        ]
    analysis.check_stop_below(settings["stop_below"])
    for key in ("seed", "starts", "converged_starts"):
        _check_int(payload[key], f"payload.{key}")
    for key in ("starts_requested", "best_start_index"):
        _check_int(settings[key], f"payload.config.{key}")
    cs = classes_from_json(payload["classes"])
    source, named = _source(config, cs)
    problems += _differences(payload["classes"], classes_to_json(named), "payload.classes")
    starts = payload["starts"]
    vec = _vector_from_json(payload["best_vector"], 1 << cs.n)
    if not (math.isfinite(payload["min_residual"]) and np.isfinite(vec).all()):
        return problems + ["recorded residual or best vector is not finite"]
    if not 0 <= payload["converged_starts"] <= starts:
        problems.append("converged starts are not between 0 and the starts made")
    if not 0 <= settings["best_start_index"] < starts:
        problems.append("best start index is not one of the starts made")
    requested = settings["starts_requested"]
    if starts > requested or (settings["stop_below"] is None and starts != requested):
        problems.append("starts made do not match the starts requested")
    for key, value in analysis.SEARCH_SETTINGS.items():  # what every optimizer used
        if type(settings[key]) is not type(value) or settings[key] != value:
            problems.append(f"payload.config.{key} is not {value}")
    problems += _differences(config, _strong_config(source, payload), "config")
    eigenbases = [bases.eigenbasis(c) for c in cs]
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        problems.append("best vector is not unit norm")
        return problems
    fresh = analysis.residual(vec, eigenbases)
    if abs(fresh - payload["min_residual"]) > RESIDUAL_RECHECK_TOL:
        problems.append(
            f"recomputed residual {fresh!r} disagrees with recorded "
            f"{payload['min_residual']!r}"
        )
    # Deterministic spot re-run: the first few starts can never beat the
    # recorded optimum of the full run.
    rerun = analysis.strong_unext_search(
        cs, min(starts, RECHECK_STARTS), payload["seed"]
    )
    if payload["min_residual"] > rerun.min_residual + RESIDUAL_RECHECK_TOL:
        problems.append("recorded residual is worse than a deterministic re-run")
    return problems


def verify_payload(payload: dict, config: dict) -> list[str]:
    """Re-derive every claim in a payload; return a list of discrepancies."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        return [f"unknown payload kind {kind!r}"]
    try:
        if kind == "search_outcome":
            return _verify_search_outcome(payload, config)
        want_config, want_payload = _KINDS[kind][1](payload, config)
    except _Refuted as exc:
        return [str(exc)]
    return _differences(config, want_config, "config") + _differences(
        payload, want_payload, "payload"
    )


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
    kind = cert["payload"].get("kind")
    if kind in _KINDS and cert["command"] != _KINDS[kind][0]:
        problems.append(f"command {cert['command']!r} does not emit a {kind} payload")
    return problems
