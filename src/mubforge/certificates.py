"""Self-contained JSON certificates and their re-verification from the file.

A certificate records a command, its full configuration (seeds, tolerances,
budgets), and a typed payload carrying every input needed to re-derive the
claim from scratch. The payload kind names the command: ``_KINDS`` maps
each kind to the one command that emits it, ``make_certificate`` writes
that command, and ``check`` refuses any other. Emitting only assembles and
hashes: every claim was checked by the code that computed it, which is what
the unhashed ``verified`` flag records. ``verify_payload`` is the one
verifier; ``check`` runs it once, on the file alone.

One rule sorts a damaged file for every kind. A key its writer writes but
the file lacks, at any depth, ``kind`` included, raises KeyError naming it,
and a ``kind`` that names no payload raises ValueError: either way the file
is malformed, with no claim to refute. So is an integer a rebuild reads
with ``_int_at`` (a seed, a start count, a scan's n or budget) that the
file holds as another JSON type. Declared classes that do not rebuild, a
key the file adds and a value that does not reproduce refute the claim.

The deterministic kinds (class_set, unextendible_set, eur_report, ks_report,
scan_report) verify by re-emission. One ``*_content`` function per kind runs
the domain call, which returns only what it computed, and writes that result
beside the inputs it was given as the config and payload the CLI writes;
``check`` feeds it the inputs the payload declares and requires the whole
config and payload back as identical JSON, except eur's collision entropies,
the only values a rebuild computes in floating point, which pass within
REBUILD_FLOAT_TOL. A ``source`` that is a built-in name stands for that
set, which is rebuilt in place of the payload's classes; any other
``source`` string, and the find-unextendible ``seed`` (an int the
construction does not use), are labels, echoed back.

A search_outcome verifies the same way: one writer, ``_search_outcome``,
makes the strong config and payload for ``strong_content`` and for
``check``. What the search found (the residual, the vector, the start
counts and the best start index) is echoed back once its numbers pass:
they must be finite JSON numbers, integers where they count, consistent
with each other, the vector must give the recorded residual, and a spot
re-run of the first RECHECK_STARTS starts must not beat it. Everything
else, the search's fixed settings included, is rebuilt from the declared
classes (or the built-in ``source``), the seed, ``starts_requested`` and
``stop_below``; files from earlier optimizers verify because they wrote
the same fields. The re-run takes only its seed and start count from the
file, so it costs at most RECHECK_STARTS x (analysis.MAX_ITERATIONS + 1)
evaluations of the residual kernel, made in at most MAX_ITERATIONS + 1
batched kernel calls (RECHECK_STARTS starts fit in one batch), whatever
the file says. Nothing
re-derives ``converged_starts`` or ``best_start_index``, so they are
checked only for range: a rehashed file with another value in range still
verifies.

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

from mubforge import analysis
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
from mubforge.unextendible import (
    build_unextendible_set,
    conjecture_scan,
    context_sign,
    ks_alternate_partition,
)

# CPython's own SHA-256: importing hashlib loads OpenSSL's libcrypto, a few
# MB and milliseconds in every process, for one digest per certificate.
# Only scan --budget and the check of its files still load it, through
# numpy.random
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
    real, imag = (np.array([analysis.as_float(a) for a in data[part]]) for part in ("re", "im"))
    return real + 1j * imag


# One function per command runs the domain call and returns the (config,
# payload) pair the CLI writes; ``check`` calls the deterministic ones again
# on the inputs the payload declares, and writes a strong pair again through
# ``_search_outcome`` around what the file says its search found.


def _search_outcome(
    source: str, cs: ClassSet, starts: int, seed: int, stop_below: Optional[float],
    found: analysis.SearchOutcome,
) -> tuple[dict, dict]:
    """The strong config and payload: what the search ``found``, its vector
    as JSON, beside the inputs and the fixed settings it ran with."""
    payload = {
        "kind": "search_outcome",
        "classes": classes_to_json(cs),
        "min_residual": found.min_residual,
        "best_vector": found.best_vector,
        "starts": found.starts,
        "seed": seed,
        "converged_starts": found.converged_starts,
        "config": {
            "starts_requested": starts,
            "stop_below": stop_below,
            **analysis.SEARCH_SETTINGS,
            "best_start_index": found.best_start_index,
        },
    }
    config = {"source": source, "starts": starts, "seed": seed, "stop_below": stop_below}
    return config, payload


def strong_content(
    source: str, cs: ClassSet, starts: Optional[int], seed: int,
    stop_below: Optional[float],
) -> tuple[dict, dict]:
    """``starts`` None means ``analysis.DEFAULT_STARTS``."""
    starts = analysis.DEFAULT_STARTS if starts is None else starts
    outcome = analysis.strong_unext_search(cs, starts, seed, stop_below=stop_below)
    found = outcome._replace(best_vector=_vector_to_json(outcome.best_vector))
    return _search_outcome(source, cs, starts, seed, stop_below, found)


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
    alternate = ks_alternate_partition(cs)
    signs = [context_sign(c) for c in (*cs, *alternate)]
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
    """Declared inputs that fail to rebuild refute the claim they carry:
    TypeError, ValueError and OverflowError become ``_Refuted``. A KeyError,
    a key the file lacks, passes through: the file is malformed."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise _Refuted(f"{what} does not rebuild: {exc}") from None


def _at(tree: dict, path: str):
    """The value at a dotted path of ``tree``; KeyError names the first key missing."""
    node, keys = tree, path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(node, dict) or key not in node:
            raise KeyError(".".join(keys[: i + 1]))
        node = node[key]
    return node


def _int_at(tree: dict, path: str) -> int:
    """The value at ``path``; ValueError unless it is a JSON integer (a bool is not)."""
    value = _at(tree, path)
    if type(value) is not int:
        raise ValueError(f"{path} must be an integer, got {value!r}")
    return value


# Seeds, counts, budgets and a scan's n are read with _int_at, so a value
# that is not a JSON integer is malformed. The other inputs a rebuild
# echoes pass through str() or int() first, so a value of another type (a
# bool for a chosen index, say) no longer matches the file's.


def _source(label, declared: ClassSet) -> tuple[str, ClassSet]:
    """The ``source`` label and its classes: a built-in set, else those declared."""
    source = str(label)
    return source, named_class_set(source) if source in NAMED_CLASS_SETS else declared


def _rebuild_class_set(payload: dict, config: dict) -> tuple[dict, dict]:
    with _declared("class set"):
        return complete_set_content(classes_from_json(payload["class_set"]))


def _rebuild_unextendible_set(payload: dict, config: dict) -> tuple[dict, dict]:
    seed = _int_at({"config": config}, "config.seed")
    with _declared("provenance"):
        prov = payload["provenance"]
        chosen = [int(i) for i in prov["chosen"]]
        return unextendible_content(classes_from_json(prov["complete_set"]), chosen, seed)


def _rebuild_eur_report(payload: dict, config: dict) -> tuple[dict, dict]:
    with _declared("eur input"):
        source, cs = _source(config["source"], classes_from_json(payload["classes"]))
        return eur_content(source, cs, class_from_json(payload["extra_class"]))


def _rebuild_ks_report(payload: dict, config: dict) -> tuple[dict, dict]:
    with _declared("ks input"):
        original = ClassSet(2, tuple(class_from_json(c) for c in payload["original"]))
        return ks_content(*_source(config["source"], original))


def _rebuild_scan_report(payload: dict, config: dict) -> tuple[dict, dict]:
    tree = {"payload": payload}
    budget = None if _at(tree, "payload.budget") is None else _int_at(tree, "payload.budget")
    return scan_content(_int_at(tree, "payload.n"), budget, _int_at(tree, "payload.seed"))


def _rebuild_search_outcome(payload: dict, config: dict) -> tuple[dict, dict]:
    """Check what the search found, then write the strong pair around it.

    The seed, the start counts and the best start index must be JSON
    integers, the residual and each vector entry a JSON number (a bool is
    not), each vector part a list of d numbers, and ``stop_below`` one the
    search takes. The start counts must be in range and the recorded
    numbers finite, with a unit vector; every problem there is reported
    before any eigenbasis is built. Then the vector must give the recorded
    residual, and a spot re-run of the first starts must not beat it, at
    the cost the module docstring bounds, made in at most MAX_ITERATIONS +
    1 batched kernel calls. Over m condition rows at dimension d, each
    evaluation costs about 2 m (d-1)^2 complex multiply-adds and each step
    one (d-1) x (d-1) solve per start; a start in flight holds O(m +
    (d-1)^2) numbers, never an m x (d-1) Jacobian. Values of the wrong type and a negative
    seed, which no generator takes, raise ValueError (malformed); declared
    classes that do not rebuild refute the file.
    """
    import numpy as np

    tree = {"config": config, "payload": payload}
    stop_below = _at(tree, "payload.config.stop_below")
    analysis.check_stop_below(stop_below)
    seed, starts, converged, requested, best = (
        _int_at(tree, f"payload.{key}") for key in (
            "seed", "starts", "converged_starts", "config.starts_requested",
            "config.best_start_index",
        )
    )
    with _declared("classes"):
        cs = classes_from_json(_at(tree, "payload.classes"))
    source, named = _source(_at(tree, "config.source"), cs)
    vector = {part: _at(tree, f"payload.best_vector.{part}") for part in ("re", "im")}
    vec = _vector_from_json(vector, 1 << cs.n)
    recorded = _at(tree, "payload.min_residual")
    if type(recorded) not in (int, float):
        raise ValueError(f"payload.min_residual must be a number, got {recorded!r}")
    problems = []
    if not 0 <= converged <= starts:
        problems.append("converged starts are not between 0 and the starts made")
    if not 0 <= best < starts:
        problems.append("best start index is not one of the starts made")
    if starts > requested or (stop_below is None and starts != requested):
        problems.append("starts made do not match the starts requested")
    if not (math.isfinite(analysis.as_float(recorded)) and np.isfinite(vec).all()):
        problems.append("recorded residual or best vector is not finite")
    elif abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        problems.append("best vector is not unit norm")
    if problems:
        raise _Refuted(*problems)
    fresh = analysis.residual(vec, [analysis.eigenbasis(c) for c in cs])
    if abs(fresh - recorded) > RESIDUAL_RECHECK_TOL:
        problems.append(
            f"recomputed residual {fresh!r} disagrees with recorded {recorded!r}"
        )
    # Deterministic spot re-run: the first few starts can never beat the
    # recorded optimum of the full run.
    rerun = analysis.strong_unext_search(cs, min(starts, RECHECK_STARTS), seed)
    if recorded > rerun.min_residual + RESIDUAL_RECHECK_TOL:
        problems.append("recorded residual is worse than a deterministic re-run")
    if problems:
        raise _Refuted(*problems)
    found = analysis.SearchOutcome(recorded, vector, starts, converged, best)
    return _search_outcome(source, named, requested, seed, stop_below, found)


# payload kind -> the command that emits it and the rebuild ``check`` runs
_KINDS: dict[str, tuple[str, Callable]] = {
    "class_set": ("complete-set", _rebuild_class_set),
    "unextendible_set": ("find-unextendible", _rebuild_unextendible_set),
    "search_outcome": ("strong", _rebuild_search_outcome),
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

    Equal canonical JSON means equal keys, lengths, types and values. Below
    that, a key ``got`` lacks raises KeyError naming its path, each key it
    adds is named, shared keys and equal-length lists are compared item by
    item, and a finite float at an _ENTROPY path within REBUILD_FLOAT_TOL
    of the rebuilt one passes.
    """
    got_text, want_text = canonical_json(got), canonical_json(want)
    if got_text == want_text:
        return []
    if isinstance(got, dict) and isinstance(want, dict):
        lines = []
        for key in sorted(got.keys() | want.keys()):
            where = f"{path}.{key}"
            if key not in want:
                lines.append(f"{where} is an unexpected field")
            elif key not in got:
                raise KeyError(where)
            else:
                lines += _differences(got[key], want[key], where)
        return lines
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


def verify_payload(payload: dict, config: dict) -> list[str]:
    """Re-derive every claim in a payload; return a list of discrepancies.

    A key the writer writes but the file lacks raises KeyError, and a
    ``kind`` that names no payload ValueError: such a file is malformed.
    """
    kind = payload.get("kind")  # AttributeError unless an object
    if "kind" not in payload:
        raise KeyError("payload.kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown payload kind {kind!r}")
    try:
        want_config, want_payload = _KINDS[kind][1](payload, config)
    except _Refuted as exc:
        return list(exc.args)
    return _differences(config, want_config, "config") + _differences(
        payload, want_payload, "payload"
    )


def verify_certificate(cert: dict) -> list[str]:
    """Full re-verification of a parsed certificate file.

    A missing field, at the top level or below, raises KeyError, and another
    schema version or an unknown payload kind ValueError: such a file is
    malformed, not a claim to refute.
    """
    for key in ("schema_version", "command", "config", "payload", "payload_sha256"):
        if key not in cert:
            raise KeyError(key)
    if cert["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {cert['schema_version']!r}")
    problems = []
    fresh_hash = _payload_hash(cert["command"], cert["config"], cert["payload"])
    if fresh_hash != cert["payload_sha256"]:
        problems.append("payload hash mismatch: certificate was altered")
    problems.extend(verify_payload(cert["payload"], cert["config"]))
    kind = cert["payload"]["kind"]
    if cert["command"] != _KINDS[kind][0]:
        problems.append(f"command {cert['command']!r} does not emit a {kind} payload")
    return problems
