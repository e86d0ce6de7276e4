"""Certificate emission, re-verification, tampering, and the CLI surface."""

from __future__ import annotations

import functools
import json
import math
import re
from itertools import product
from pathlib import Path

import pytest

from mubforge import certificates
from mubforge.certificates import (
    REBUILD_FLOAT_TOL,
    RESIDUAL_RECHECK_TOL,
    _payload_hash,
    canonical_json,
    make_certificate,
    scan_content,
    verify_certificate,
)
from mubforge.cli import MALFORMED_ERRORS, build_parser, main
from mubforge.named_sets import NAMED_CLASS_SETS, named_class_set


def run(args: list[str]) -> int:
    return main(args)


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# One certificate of each deterministic payload kind, each re-verified by
# rebuilding its whole payload from the inputs it declares.
DETERMINISTIC_COMMANDS = {
    "class_set": ["complete-set", "-n", "2"],
    "unextendible_set": ["find-unextendible", "-n", "2", "--choose", "0,1,2"],
    "eur_report": ["eur", "paper-d4-weak"],
    "ks_report": ["ks", "paper-d4-weak"],
    "scan_report": ["scan", "-n", "4", "--budget", "64", "--seed", "12"],
}


# One certificate per route through ``check``: each deterministic kind, the
# exhaustive scan beside the sampled one, and a strong search.
SWEPT_COMMANDS = {
    **DETERMINISTIC_COMMANDS,
    "scan_report-all": ["scan", "-n", "4", "--all"],
    "search_outcome": ["strong", "paper-d4-strong", "--starts", "20", "--seed", "3"],
}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emitted")
    texts = {}
    for kind, command in SWEPT_COMMANDS.items():
        path = out / f"{kind}.json"
        assert main(command + ["--output", str(path)]) == 0
        # eur writes one file per extra class; any one will do
        texts[kind] = sorted(out.glob(f"{kind}*.json"))[0].read_text(encoding="utf-8")
    return texts


def _emitted_file(emitted, kind, tmp_path) -> Path:
    """A file in ``tmp_path`` holding the emitted certificate of ``kind``."""
    path = tmp_path / f"{kind}.json"
    path.write_text(emitted[kind], encoding="utf-8")
    return path


class TestNamedSources:
    def test_registry_contains_the_three_published_sets(self):
        assert set(NAMED_CLASS_SETS) == {
            "paper-d4-weak",
            "paper-d4-strong",
            "paper-d8-strong",
        }

    @pytest.mark.parametrize("name,listing", list(NAMED_CLASS_SETS.items()))
    def test_named_sets_pin_exact_listings(self, name, listing):
        cs = named_class_set(name)
        got = [frozenset(c.letters()) for c in cs.classes]
        want = [frozenset(group) for group in listing]
        assert got == want

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            named_class_set("paper-d6-anything")


class TestCompleteSetCommand:
    @pytest.mark.parametrize("n,count", [(2, 5), (3, 9), (4, 17)])
    def test_emits_verified_certificate(self, tmp_path, n, count):
        out = tmp_path / "cert.json"
        assert run(["complete-set", "-n", str(n), "--output", str(out)]) == 0
        cert = load(out)
        assert cert["verified"] is True
        assert cert["schema_version"] == "1"
        assert len(cert["payload"]["class_set"]["classes"]) == count
        assert run(["check", str(out)]) == 0

    def test_operator_json_schema(self, tmp_path):
        out = tmp_path / "cert.json"
        run(["complete-set", "-n", "2", "--output", str(out)])
        cert = load(out)
        cls = cert["payload"]["class_set"]["classes"][0]
        assert set(cls) == {"n", "generators", "elements"}
        assert cls["elements"] == ["IZ", "ZI", "ZZ"]

    def test_table_mode(self, tmp_path, capsys):
        run(["complete-set", "-n", "2", "--table"])
        out = capsys.readouterr().out
        assert "classes   : 5" in out

    def test_stdout_is_the_certificate(self, tmp_path, capsys):
        out = tmp_path / "c2.json"
        assert run(["complete-set", "-n", "2", "-o", str(out)]) == 0
        capsys.readouterr()
        assert run(["complete-set", "-n", "2"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["payload_sha256"] == load(out)["payload_sha256"]


@pytest.mark.parametrize(
    "argv, lead",
    [
        (["complete-set", "-n", "2"], "classes   : 5 (complete=True)"),
        (["find-unextendible", "-n", "2", "--choose", "0,1,2"],
         "classes   : 3 (unextendible)"),
        (["strong", "paper-d4-strong", "--starts", "5"], "residual  : "),
        (["eur", "paper-d4-weak"], "bound     : 1.0"),
        (["ks", "paper-d4-weak"], "contexts  : "),
        (["scan", "-n", "4", "--budget", "5", "--seed", "1"], "scanned   : 5 "),
    ],
    ids=["class_set", "unextendible_set", "search_outcome", "eur_report",
         "ks_report", "scan_report"],
)
def test_table_for_every_payload_kind(capsys, argv, lead):
    assert run(argv + ["--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"command   : {argv[0]}", "verified  : True"]
    assert lines[2].startswith(lead)


class TestFindUnextendible:
    def test_single_choice_matches_weak_triple(self, tmp_path):
        out = tmp_path / "u.json"
        assert run([
            "find-unextendible", "-n", "2", "--choose", "0,1,2",
            "--output", str(out),
        ]) == 0
        cert = load(out)
        classes = cert["payload"]["classes"]["classes"]
        got = {frozenset(c["elements"]) for c in classes}
        want = {frozenset(group) for group in NAMED_CLASS_SETS["paper-d4-weak"]}
        assert got == want
        leftover = cert["payload"]["extendibility"]["universe_operators"]
        assert set(leftover) == {"IX", "XX", "YX", "ZI", "ZY", "ZZ"}
        assert run(["check", str(out)]) == 0

    def test_three_qubit_choice(self, tmp_path):
        out = tmp_path / "u8.json"
        assert run([
            "find-unextendible", "-n", "3", "--choose", "0,1,2,3,4",
            "--output", str(out),
        ]) == 0
        cert = load(out)
        assert len(cert["payload"]["classes"]["classes"]) == 5
        assert cert["payload"]["extendibility"]["found"] == []
        assert run(["check", str(out)]) == 0

    def test_four_qubit_choice(self, tmp_path, capsys):
        # the union of classes 0..8 holds three extra classes, of which the
        # choice owns one; 0..7 with 9 owns none and is refused
        out = tmp_path / "u16.json"
        assert run([
            "find-unextendible", "-n", "4", "--choose", "0,1,2,3,4,5,6,7,8",
            "--output", str(out),
        ]) == 0
        cert = load(out)
        assert len(cert["payload"]["classes"]["classes"]) == 9
        assert cert["payload"]["extendibility"]["found"] == []
        assert run(["check", str(out)]) == 0
        capsys.readouterr()
        assert run(["find-unextendible", "-n", "4", "--choose", "0,1,2,3,4,5,6,7,9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the chosen classes do not own exactly one spanning class\n"
        )

    def test_all_choices_write_ten_verified_certificates(self, tmp_path):
        outdir = tmp_path / "all"
        assert run([
            "find-unextendible", "-n", "2", "--all", "--output", str(outdir),
        ]) == 0
        files = sorted(outdir.glob("*.json"))
        assert len(files) == 10
        assert run(["check", *map(str, files)]) == 0

    def test_bad_indices_exit_two(self):
        assert run(["find-unextendible", "-n", "2", "--choose", "0,1"]) == 2
        assert run(["find-unextendible", "-n", "2", "--choose", "0,1,9"]) == 2
        assert run(["find-unextendible", "-n", "2"]) == 2

    @pytest.mark.parametrize(
        "choose",
        ["0,,1,2,", "0,x,2", ",0,1,2", ""],
        ids=["empty-parts", "letter", "leading-comma", "empty"],
    )
    def test_malformed_index_list_exits_two(self, capsys, choose):
        # an empty part is a mistyped list, not a part to skip
        assert run(["find-unextendible", "-n", "2", "--choose", choose]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad index list {choose!r}; expected e.g. 0,1,2\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "-n", "4", "--all", "--budget", "5"],
         "argument --budget: not allowed with argument --all"),
        (["scan", "-n", "4"], "one of the arguments --budget --all is required"),
        (["find-unextendible", "-n", "2", "--all", "--choose", "0,1,2"],
         "argument --choose: not allowed with argument --all"),
        (["strong", "paper-d4-strong", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["scan", "-n", "4", "--all", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
    ],
    ids=["scan-all-and-budget", "scan-neither", "find-all-and-choose",
         "strong-seed-not-int", "scan-seed-not-int"],
)
def test_conflicting_or_missing_selection_exits_two_with_usage(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: mubforge {argv[0]} ")
    assert captured.err.rstrip().endswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "-n", "4", "--all", "--seed", "7"],
        ["find-unextendible", "-n", "3", "--all", "--seed", "7"],
    ],
    ids=["scan", "find-unextendible"],
)
def test_all_alone_is_accepted(argv):
    args = build_parser().parse_args(argv)
    assert args.all and args.seed == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["strong", "paper-d4-strong", "--seed", "-1"],
        ["scan", "-n", "4", "--budget", "5", "--seed", "-3"],
        ["scan", "-n", "4", "--all", "--seed", "-3"],
    ],
    ids=["strong", "scan-budget", "scan-all"],
)
def test_negative_generator_seed_exits_two_with_usage(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: mubforge {argv[0]} ")
    assert captured.err.rstrip().endswith(
        f"argument --seed: must be a non-negative integer, got {argv[-1]}"
    )
    assert not out.exists()


def test_label_seeds_and_recorded_negative_scan_seeds_are_accepted(tmp_path, capsys):
    # find-unextendible only records its seed, so any integer goes
    labelled = tmp_path / "unext.json"
    argv = ["find-unextendible", "-n", "2", "--choose", "0,1,2", "--seed", "-4"]
    assert run(argv + ["--output", str(labelled)]) == 0
    assert load(labelled)["config"]["seed"] == -4
    # an exhaustive scan file written with a negative seed before the
    # parser refused one still verifies
    scan = tmp_path / "scan.json"
    content = scan_content(4, None, -3)
    scan.write_text(json.dumps(make_certificate(*content)), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(labelled), str(scan)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{labelled}: verified", f"{scan}: verified"
    ]


class TestCheckCommand:
    def test_altered_operator_detected(self, emitted, tmp_path):
        cert = json.loads(emitted["class_set"])
        cert["payload"]["class_set"]["classes"][0]["elements"][0] = "XY"
        out = tmp_path / "c.json"
        out.write_text(json.dumps(cert), encoding="utf-8")
        assert run(["check", str(out)]) == 1

    def test_rehashed_tamper_still_refuted(self, emitted, tmp_path):
        # fixing the hash after editing the payload must not fool the checker
        out = tmp_path / "c.json"
        run(["find-unextendible", "-n", "4", "--choose", "0,1,2,3,4,5,6,7,8", "--output", str(out)])
        for n, text in ((2, emitted["unextendible_set"]), (4, out.read_text(encoding="utf-8"))):
            cert = json.loads(text)
            cert["payload"]["extendibility"]["universe_operators"][0] = "I" * (n - 1) + "Y"
            _rehash(cert)
            out.write_text(json.dumps(cert), encoding="utf-8")
            assert run(["check", str(out)]) == 1

    def test_truncated_file_exits_two(self, emitted, tmp_path):
        out = tmp_path / "c.json"
        out.write_text(emitted["class_set"][: len(emitted["class_set"]) // 2], encoding="utf-8")
        assert run(["check", str(out)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert run(["check", str(tmp_path / "nope.json")]) == 2

    def test_json_array_exits_two(self, tmp_path, capsys):
        out = tmp_path / "array.json"
        out.write_text("[1, 2]", encoding="utf-8")
        assert run(["check", str(out)]) == 2
        assert capsys.readouterr().out == f"{out}: malformed (not a JSON object)\n"

    def test_verify_certificate_reports_problems(self, emitted):
        cert = json.loads(emitted["class_set"])
        cert["payload"]["class_set"]["classes"][0]["elements"][0] = "XY"
        problems = verify_certificate(cert)
        assert problems and any("hash" in p for p in problems)


def _drop_classes(cert):
    del cert["payload"]["classes"]


def _payload_as_string(cert):
    cert["payload"] = "not a payload"


def _drop_max_iterations(cert):
    del cert["payload"]["config"]["max_iterations"]


def _drop_gradient_tol(cert):
    # the closed key set notices a missing key before its value is compared
    del cert["payload"]["config"]["gradient_tol"]


def _non_numeric_vector(cert):
    cert["payload"]["best_vector"]["re"][0] = "not a number"


def _one_class(cert):
    classes = cert["payload"]["classes"]
    classes["classes"] = classes["classes"][:1]


def _drop_kind(cert):
    del cert["payload"]["kind"]


def _unknown_kind(cert):
    cert["payload"]["kind"] = "extension_report"


class TestCheckMalformedInput:
    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (_drop_classes, "KeyError: 'payload.classes'"),
            (_payload_as_string, "AttributeError: 'str' object has no attribute 'get'"),
            (_drop_max_iterations, "KeyError: 'payload.config.max_iterations'"),
            (_non_numeric_vector, "ValueError: best_vector.re is not a list of 4 numbers"),
            (_drop_gradient_tol, "KeyError: 'payload.config.gradient_tol'"),
            (_one_class, "ValueError: need at least two classes"),
            (_drop_kind, "KeyError: 'payload.kind'"),
            (_unknown_kind, "ValueError: unknown payload kind 'extension_report'"),
        ],
        ids=["missing-classes", "payload-string", "missing-max-iterations",
             "non-numeric-vector", "missing-gradient-tol", "one-class",
             "missing-kind", "unknown-kind"],
    )
    def test_probe_is_malformed(self, emitted, tmp_path, mutate, reason, capsys):
        cert = json.loads(emitted["search_outcome"])
        mutate(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad)]) == 2
        assert capsys.readouterr().out == f"{bad}: malformed ({reason})\n"

    def test_scan_with_zero_budget_is_malformed(self, emitted, tmp_path, capsys):
        cert = json.loads(emitted["scan_report"])
        cert["payload"]["budget"] = 0
        out = tmp_path / "scan.json"
        out.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"{out}: malformed (ValueError: ")

    def test_scan_for_another_qubit_count_is_malformed(self, emitted, tmp_path, capsys):
        cert = json.loads(emitted["scan_report"])
        cert["config"]["n"] = cert["payload"]["n"] = 5
        _rehash(cert)
        out = tmp_path / "scan.json"
        out.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(out)]) == 2
        assert capsys.readouterr().out == (
            f"{out}: malformed (ValueError: the scanner targets four qubits)\n"
        )

    @pytest.mark.parametrize(
        "raw",
        [None, b"\xff\xfe", b"1" * 5000, b"[" * 100000],
        ids=["missing-classes", "not-utf8", "long-integer", "deep-nesting"],
    )
    def test_bad_file_does_not_stop_the_next(self, emitted, tmp_path, raw, capsys):
        good = _emitted_file(emitted, "search_outcome", tmp_path)
        if raw is None:
            cert = load(good)
            _drop_classes(cert)
            raw = json.dumps(cert).encode("utf-8")
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        capsys.readouterr()
        assert run(["check", str(bad), str(good)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{bad}: malformed (")
        assert lines[1] == f"{good}: verified"

    @pytest.mark.parametrize(
        "field, value, reason",
        [(field, None, f"KeyError: '{field}'") for field in (
            "schema_version", "command", "config", "payload", "payload_sha256")]
        + [("schema_version", "2", "ValueError: unsupported schema version '2'")],
        ids=["no-schema-version", "no-command", "no-config", "no-payload",
             "no-payload-sha256", "schema-version-2"],
    )
    def test_envelope_that_carries_no_claim_is_malformed(
        self, emitted, tmp_path, field, value, reason, capsys
    ):
        # a file without a hashed field or its hash, or of another schema
        # version, states no claim to refute; the file after it is checked
        good = _emitted_file(emitted, "class_set", tmp_path)
        cert = load(good)
        if value is None:
            del cert[field]
        else:
            cert[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad), str(good)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{bad}: malformed ({reason})", f"{good}: verified",
        ]

    def test_nesting_near_the_recursion_limit_does_not_stop_the_next(
        self, emitted, tmp_path, capsys
    ):
        # a config nested just under the JSON decoder's limit parses, and
        # then overflows the stack when the certificate is hashed
        import sys

        good = _emitted_file(emitted, "class_set", tmp_path)
        cert = load(good)
        cert["config"]["pad"] = "PAD"
        text = json.dumps(cert)
        limit = sys.getrecursionlimit()
        deep = []
        for depth in range(limit - 250, limit + 1):
            path = tmp_path / f"deep-{depth}.json"
            path.write_text(text.replace('"PAD"', "[" * depth + "]" * depth), encoding="utf-8")
            deep.append(str(path))
        capsys.readouterr()
        assert run(["check", *deep, str(good)]) == 2
        verdicts = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("  - ")
        ]
        assert len(verdicts) == len(deep) + 1
        for path, line in zip(deep, verdicts):
            assert line == f"{path}: REFUTED" or line.startswith(f"{path}: malformed (")
        assert verdicts[-1] == f"{good}: verified"


def _refuted_then_verified(tmp_path, capsys, good, mutate):
    # check a re-hashed tampered copy of ``good``, then ``good`` itself
    cert = load(good)
    mutate(cert["payload"])
    _rehash(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(bad), str(good)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{bad}: REFUTED"
    assert lines[-1] == f"{good}: verified"
    return lines[1:-1]


def test_provenance_that_does_not_rebuild_is_refuted(emitted, tmp_path, capsys):
    from mubforge.classes import canonical_complete_set, classes_to_json

    good = _emitted_file(emitted, "unextendible_set", tmp_path)

    def foreign_provenance(payload):
        # these nine classes of the four-qubit set own no spanning class
        payload["provenance"] = {
            "complete_set": classes_to_json(canonical_complete_set(4)),
            "chosen": [0, 1, 2, 3, 4, 5, 6, 7, 9],
        }

    problems = _refuted_then_verified(tmp_path, capsys, good, foreign_provenance)
    assert problems == [
        "  - provenance does not rebuild: "
        "the chosen classes do not own exactly one spanning class"
    ]


def test_provenance_is_required(emitted, tmp_path, capsys):
    # without a provenance an unextendible set cannot be re-derived
    good = _emitted_file(emitted, "unextendible_set", tmp_path)

    def drop_provenance(payload):
        payload["provenance"] = None

    problems = _refuted_then_verified(tmp_path, capsys, good, drop_provenance)
    assert problems == [
        "  - provenance does not rebuild: 'NoneType' object is not subscriptable"
    ]


def _bool_index(cert):
    cert["config"]["chosen"][0] = cert["payload"]["provenance"]["chosen"][0] = False


def _bool_seed(cert):
    cert["config"]["seed"] = False


@pytest.mark.parametrize(
    "mutate, malformed", [(_bool_index, None), (_bool_seed, "config.seed")],
    ids=["index", "seed"],
)
def test_a_bool_does_not_stand_in_for_an_int(emitted, mutate, malformed):
    # False == 0 in Python, but the file no longer says what was emitted: a
    # chosen index is echoed and refuted, the seed is read as an integer
    cert = json.loads(emitted["unextendible_set"])
    mutate(cert)
    _rehash(cert)
    if malformed is None:
        assert verify_certificate(cert)
    else:
        with pytest.raises(ValueError, match=f"^{malformed} must be an integer, got False$"):
            verify_certificate(cert)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("unextendible_set", ("config", "seed"), 1.5),
        ("unextendible_set", ("config", "seed"), "0"),
        ("unextendible_set", ("config", "seed"), True),
        ("scan_report", ("payload", "seed"), 1.5),
        ("scan_report", ("payload", "budget"), 5.0),
        ("scan_report", ("payload", "n"), 4.0),
        ("scan_report-all", ("payload", "budget"), "null"),
    ],
    ids=["unext-seed-float", "unext-seed-string", "unext-seed-true", "scan-seed",
         "scan-budget", "scan-n", "scan-budget-string"],
)
def test_an_integer_field_of_another_type_is_malformed(
    emitted, tmp_path, capsys, kind, field, value
):
    # the rebuild reads these fields as JSON integers (a scan's budget may
    # also be null), so any other value leaves no claim to refute
    good = _emitted_file(emitted, kind, tmp_path)
    cert = load(good)
    cert[field[0]][field[1]] = value
    _rehash(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(bad), str(good)]) == 2
    path = ".".join(field)
    assert capsys.readouterr().out.splitlines() == [
        f"{bad}: malformed (ValueError: {path} must be an integer, got {value!r})",
        f"{good}: verified",
    ]


OVERFLOW = "cannot convert float infinity to integer"


@pytest.mark.parametrize(
    "kind, field, code, verdict",
    [
        ("class_set", ("payload", "class_set", "n"), 1,
         ["REFUTED", f"  - class set does not rebuild: {OVERFLOW}"]),
        ("scan_report", ("payload", "seed"), 2,
         ["malformed (ValueError: payload.seed must be an integer, got inf)"]),
        ("unextendible_set", ("payload", "provenance", "chosen", 0), 1,
         ["REFUTED", f"  - provenance does not rebuild: {OVERFLOW}"]),
    ],
    ids=["class-set-n", "scan-seed", "provenance-chosen"],
)
def test_an_integer_field_that_overflows_does_not_stop_the_next(
    emitted, tmp_path, capsys, kind, field, code, verdict
):
    # JSON reads 1e400 as infinity, and int() of infinity overflows
    good = _emitted_file(emitted, kind, tmp_path)
    cert = load(good)
    node = cert
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = float("inf")
    _rehash(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert).replace("Infinity", "1e400"), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(bad), str(good)]) == code
    assert capsys.readouterr().out.splitlines() == [
        f"{bad}: {verdict[0]}", *verdict[1:], f"{good}: verified"
    ]


@pytest.mark.parametrize(
    "n, keep, declared, message",
    [(2, 3, True, '"complete" must be false for these classes'),
     (2, 5, False, '"complete" must be true for these classes'),
     (2, 5, 1, '"complete" must be true for these classes'),
     (2, 0, True, '"complete" must be false for these classes'),
     # n = 0 holds no class set at all, complete or not
     (0, 0, True, "qubit count must be in [1, 4], got 0")],
    ids=["true-on-three", "false-on-five", "int-one", "true-on-none", "true-on-n0"],
)
def test_a_complete_flag_its_classes_contradict_is_refused(
    emitted, tmp_path, capsys, n, keep, declared, message
):
    # "complete" is derived from the classes, so a file may only repeat it
    good = _emitted_file(emitted, "class_set", tmp_path)

    def contradict(payload):
        class_set = payload["class_set"]
        class_set["n"] = n
        class_set["classes"] = class_set["classes"][:keep]
        class_set["complete"] = declared

    assert _refuted_then_verified(tmp_path, capsys, good, contradict) == [
        f"  - class set does not rebuild: {message}"
    ]
    # the same file as the source of a search is malformed input
    assert run(["strong", str(tmp_path / "bad.json"), "--starts", "5"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n", [0, 2, 18, 10**18], ids=["n0", "n2", "n18", "huge-n"])
def test_an_empty_class_set_is_refuted_without_building_its_cover(
    emitted, tmp_path, capsys, n
):
    # the file's n reaches no class, so the refusal must not cost 4**n - 1
    # bits; an n outside 1..4 is refused as the set is built
    good = _emitted_file(emitted, "class_set", tmp_path)

    def empty(payload):
        payload["class_set"] = {"n": n, "classes": [], "complete": False}

    reason = "class set is not complete"
    if n != 2:
        reason = f"qubit count must be in [1, 4], got {n}"
    assert _refuted_then_verified(tmp_path, capsys, good, empty) == [
        f"  - class set does not rebuild: {reason}"
    ]


def test_a_class_set_beyond_the_search_bound_is_refused_as_it_is_read(
    tmp_path, capsys
):
    # two disjoint 5-qubit classes, written as JSON since the library builds
    # no operator past 4 qubits; every command that reads the file as a
    # source refuses it with the same line, and check refutes it (exit 1)
    def single_letters(letter):
        return {
            "n": 5,
            "generators": ["I" * i + letter + "I" * (4 - i) for i in range(5)],
            "elements": ["".join(w) for w in product("I" + letter, repeat=5)][1:],
        }

    payload = {
        "kind": "class_set",
        "class_set": {
            "n": 5, "classes": [single_letters(p) for p in "ZX"], "complete": False,
        },
        "expected_complete": True,
    }
    path = tmp_path / "five.json"
    path.write_text(json.dumps(make_certificate({"n": 5}, payload)))
    message = "qubit count must be in [1, 4], got 5"
    for command in ("strong", "eur", "ks"):
        assert run([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: REFUTED",
        f"  - class set does not rebuild: {message}",
    ]


def test_command_must_match_the_payload_kind(emitted):
    cert = json.loads(emitted["class_set"])
    cert["command"] = "scan"
    _rehash(cert)
    assert verify_certificate(cert) == ["command 'scan' does not emit a class_set payload"]


def test_eur_floats_reproduce_within_tolerance(emitted):
    # another BLAS may round the entropies differently in the last digits
    cert = json.loads(emitted["eur_report"])
    state = cert["payload"]["states"][0]
    state["average"] += 1e-14
    _rehash(cert)
    assert verify_certificate(cert) == []
    state["average"] += 1e-9
    _rehash(cert)
    problems = verify_certificate(cert)
    assert len(problems) == 1
    assert problems[0].startswith("payload.states[0].average does not reproduce: ")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("config", "saturation_tol", 1e-300),
        ("config", "saturation_tol", -0.0),
        ("config", "saturation_tol", 2e-12),
        ("payload", "bound", 1.0000000000005),
    ],
    ids=["tighter-tol", "negative-zero-tol", "looser-tol", "moved-bound"],
)
def test_eur_constants_reproduce_exactly(emitted, tmp_path, capsys, section, key, value):
    # only the entropies are computed in floating point: a saturation
    # tolerance that was never tested, or a moved bound, refutes
    path = _emitted_file(emitted, "eur_report", tmp_path)
    cert = load(path)
    cert[section][key] = value
    _rehash(cert)
    path.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{path}: REFUTED"
    assert len(lines) == 2
    assert lines[1].startswith(f"  - {section}.{key} does not reproduce: {json.dumps(value)}, ")


@pytest.mark.parametrize("kind", ["eur_report", "ks_report"], ids=["eur", "ks"])
def test_source_naming_another_builtin_set_is_refuted(emitted, kind):
    cert = json.loads(emitted[kind])
    cert["config"]["source"] = "paper-d4-strong"
    _rehash(cert)
    # rebuilt from the set the name stands for, the payload's classes differ
    problems = verify_certificate(cert)
    assert problems and all(p.startswith("payload.") for p in problems)


def _drop_states(payload):
    payload["states"] = []


def _unsaturated(payload):
    payload["saturated"] = False


def _drop_operators(payload):
    payload["operators"] = []


def _two_classes(payload):
    classes = payload["classes"]
    classes["classes"] = classes["classes"][:2]


def _changed_letter(payload):
    elements = payload["classes"]["classes"][0]["elements"]
    elements[0] = ("Z" if elements[0][0] == "X" else "X") + elements[0][1:]


def _three_qubit_extra(payload):
    from mubforge.classes import canonical_complete_set, class_to_json

    payload["extra_class"] = class_to_json(canonical_complete_set(3)[0])


@pytest.mark.parametrize(
    "kind, mutate, problem",
    [
        ("eur_report", _drop_states, "payload.states does not reproduce: "),
        ("eur_report", _unsaturated, "payload.saturated does not reproduce: "),
        ("ks_report", _drop_operators, "payload.operators does not reproduce: "),
        ("eur_report-from-file", _two_classes,
         "eur input does not rebuild: expected three two-qubit classes"),
        ("eur_report", _three_qubit_extra,
         "eur input does not rebuild: extra class acts on a different qubit count"),
        # declared classes that do not rebuild refute a strong file too
        ("search_outcome", _changed_letter,
         "classes does not rebuild: class elements do not match the closure of generators"),
    ],
    ids=["eur-no-states", "eur-unsaturated", "ks-no-operators",
         "eur-label-source-two-classes", "eur-three-qubit-extra", "strong-changed-letter"],
)
def test_rehashed_report_tamper_is_refuted(emitted, tmp_path, capsys, kind, mutate, problem):
    if kind == "eur_report-from-file":  # a file source is a label: the payload's classes count
        from mubforge.classes import classes_to_json

        class_set = classes_to_json(named_class_set("paper-d4-weak"))
        source = tmp_path / "triple.json"
        source.write_text(
            json.dumps({"payload": {"kind": "class_set", "class_set": class_set}}),
            encoding="utf-8",
        )
        assert run(["eur", str(source), "--output", str(tmp_path / "report.json")]) == 0
        good = sorted(tmp_path.glob("report*.json"))[0]  # one file per extra class
    else:
        good = _emitted_file(emitted, kind, tmp_path)
    lines = _refuted_then_verified(tmp_path, capsys, good, mutate)
    assert len(lines) == 1 and lines[0].startswith(f"  - {problem}")


def _rehash(cert):
    cert["payload_sha256"] = _payload_hash(
        cert.get("command"), cert.get("config"), cert.get("payload")
    )


NOT_FINITE = "recorded residual or best vector is not finite"
CONVERGED_RANGE = "converged starts are not between 0 and the starts made"
BEST_RANGE = "best start index is not one of the starts made"
STARTS_MATCH = "starts made do not match the starts requested"


@pytest.mark.parametrize(
    "path, value, problems",
    [
        (("min_residual",), float("nan"), [NOT_FINITE]),
        (("best_vector", "re", 0), float("nan"), [NOT_FINITE]),
        # JSON integers past float's range
        (("min_residual",), 10**400, [NOT_FINITE]),
        (("best_vector", "re", 0), 10**400, [NOT_FINITE]),
        (("converged_starts",), 10**30, [CONVERGED_RANGE]),
        (("starts",), 10**6, [STARTS_MATCH]),
        (("starts",), 0, [CONVERGED_RANGE, BEST_RANGE, STARTS_MATCH]),
        (("starts",), -3, [CONVERGED_RANGE, BEST_RANGE, STARTS_MATCH]),
        (("config", "best_start_index"), 999, [BEST_RANGE]),
        (("config", "starts_requested"), 7, [STARTS_MATCH]),
    ],
    ids=["nan-residual", "nan-vector", "huge-int-residual", "huge-int-vector",
         "huge-converged", "huge-starts", "no-starts", "negative-starts",
         "best-index-out-of-range", "fewer-starts-requested"],
)
def test_strong_numbers_must_be_finite_and_consistent(
    emitted, tmp_path, capsys, path, value, problems
):
    # the counts, finiteness and unit norm are judged before any re-run,
    # which could not start from no starts
    good = _emitted_file(emitted, "search_outcome", tmp_path)

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    lines = _refuted_then_verified(tmp_path, capsys, good, mutate)
    assert lines == [f"  - {problem}" for problem in problems]


def _double_vector(payload):
    for part in ("re", "im"):
        payload["best_vector"][part] = [2 * a for a in payload["best_vector"][part]]


def _lower_residual(payload):
    payload["min_residual"] -= 1e-6


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (_double_vector, "best vector is not unit norm"),
        (_lower_residual, "recomputed residual "),
    ],
    ids=["doubled-vector", "lowered-residual"],
)
def test_strong_vector_must_give_the_recorded_residual(
    emitted, tmp_path, capsys, mutate, problem
):
    good = _emitted_file(emitted, "search_outcome", tmp_path)
    recorded = load(good)["payload"]["min_residual"]
    lines = _refuted_then_verified(tmp_path, capsys, good, mutate)
    assert len(lines) == 1 and lines[0].startswith(f"  - {problem}")
    if mutate is _lower_residual:  # both values show in full, so the gap is visible
        assert lines[0].endswith(f"disagrees with recorded {recorded - 1e-6!r}")


def test_strong_residual_worse_than_a_rerun_is_refuted(tmp_path, capsys):
    import numpy as np

    from mubforge import certificates as cert
    from mubforge.analysis import residual, strong_unext_search
    from mubforge.bases import eigenbasis
    from mubforge.classes import ClassSet, canonical_complete_set

    triple = ClassSet(2, canonical_complete_set(2).classes[:3])
    bases = [eigenbasis(c) for c in triple]
    assert strong_unext_search(triple, starts=10, seed=1).min_residual < 1e-12  # extendible
    good = tmp_path / "strong.json"
    content = cert.strong_content("extendible-triple", triple, 10, 1, None)
    good.write_text(json.dumps(cert.make_certificate(*content)), encoding="utf-8")
    e0 = np.eye(4)[0]

    def basis_vector(payload):
        payload["best_vector"] = {"re": e0.tolist(), "im": [0.0] * 4}
        payload["min_residual"] = residual(e0, bases)

    lines = _refuted_then_verified(tmp_path, capsys, good, basis_vector)
    assert lines == ["  - recorded residual is worse than a deterministic re-run"]


def _float_converged(cert):
    cert["payload"]["converged_starts"] = float(cert["payload"]["converged_starts"])


def _float_best_index(cert):
    settings = cert["payload"]["config"]
    settings["best_start_index"] = float(settings["best_start_index"])


def _float_requested(cert):
    requested = float(cert["config"]["starts"])
    cert["config"]["starts"] = cert["payload"]["config"]["starts_requested"] = requested


def _bool_strong_seed(cert):
    cert["config"]["seed"] = cert["payload"]["seed"] = True


def _negative_strong_seed(cert):
    # no generator takes a negative seed, so the spot re-run cannot start
    cert["config"]["seed"] = cert["payload"]["seed"] = -1


def _float_starts(cert):
    cert["payload"]["starts"] = float(cert["payload"]["starts"])


def _bool_residual(cert):
    cert["payload"]["min_residual"] = True


def _string_residual(cert):
    cert["payload"]["min_residual"] = str(cert["payload"]["min_residual"])


def _short_imaginary_part(cert):
    # numpy would broadcast the one-number im list over |+0>
    import numpy as np

    from mubforge.analysis import residual
    from mubforge.bases import eigenbasis
    from mubforge.named_sets import named_class_set

    plus_zero = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    bases = [eigenbasis(c) for c in named_class_set("paper-d4-strong")]
    cert["payload"]["best_vector"] = {"re": plus_zero.tolist(), "im": [0.0]}
    cert["payload"]["min_residual"] = residual(plus_zero, bases)


@pytest.mark.parametrize(
    "mutate",
    [_float_converged, _float_best_index, _float_requested, _bool_strong_seed,
     _negative_strong_seed, _float_starts, _short_imaginary_part, _bool_residual,
     _string_residual],
    ids=["float-converged", "float-best-index", "float-requested", "bool-seed",
         "negative-seed", "float-starts", "short-imaginary-part", "bool-residual",
         "string-residual"],
)
def test_strong_counts_are_json_ints_and_the_vector_has_d_entries(
    emitted, tmp_path, capsys, mutate
):
    # each mutant departs from what the search writes in type or shape,
    # not only in value: an int where it counts, a seed a generator takes,
    # a number (never a bool) for the residual, d numbers per vector part
    cert = json.loads(emitted["search_outcome"])
    mutate(cert)
    _rehash(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(bad)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{bad}: malformed (ValueError: ")


class TestUntrustedOptimizerSettings:
    # every search runs with the same fixed settings, and the spot re-run
    # reads none of them from the file; a re-hashed certificate that states
    # other settings is refuted (test_a_strong_file_must_state_the_pinned_settings),
    # and cannot make the re-run misbehave or run unbounded
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_non_finite_stop_below_is_malformed(self, emitted, tmp_path, value, capsys):
        # what `strong --stop-below nan` or `inf` wrote before the search
        # rejected those values, or an integer past float's range: the same
        # bar in the config and the payload
        cert = json.loads(emitted["search_outcome"])
        cert["config"]["stop_below"] = cert["payload"]["config"]["stop_below"] = value
        _rehash(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad)]) == 2
        assert capsys.readouterr().out.startswith(
            f"{bad}: malformed (ValueError: stop_below must be a finite number"
        )

    def test_huge_iteration_count_is_capped(self, emitted, tmp_path, capsys, monkeypatch):
        import time

        from mubforge.analysis import MAX_ITERATIONS, UnbiasedVectorProblem
        from mubforge.certificates import RECHECK_STARTS

        rows = []
        kernel = UnbiasedVectorProblem.residual_and_gradient

        def spy(self, theta, newton=False):
            rows.append(len(theta))
            return kernel(self, theta, newton)

        monkeypatch.setattr(UnbiasedVectorProblem, "residual_and_gradient", spy)
        cert = json.loads(emitted["search_outcome"])
        cert["payload"]["config"]["max_iterations"] = 10**9
        _rehash(cert)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        start = time.perf_counter()
        code = run(["check", str(big)])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{big}: REFUTED",
            "  - payload.config.max_iterations does not reproduce: 1000000000, rebuilt 500",
        ]
        # the re-run's bound, whatever the file says
        assert 0 < sum(rows) <= RECHECK_STARTS * (MAX_ITERATIONS + 1)


LBFGS_CERTIFICATES = sorted((Path(__file__).parent / "data" / "lbfgs_strong").glob("*.json"))


@pytest.mark.parametrize("path", LBFGS_CERTIFICATES, ids=lambda p: p.stem)
def test_certificates_from_the_lbfgs_search_still_verify(path, capsys):
    # strong certificates written when each start ran scipy's L-BFGS-B: the
    # spot re-run now uses a different optimizer but must agree with them
    assert len(LBFGS_CERTIFICATES) == 3
    assert run(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: verified\n"


LM_CERTIFICATES = sorted((Path(__file__).parent / "data" / "lm_strong").glob("*.json"))


@pytest.mark.parametrize("path", LM_CERTIFICATES, ids=lambda p: p.stem)
def test_certificates_from_the_gauss_newton_search_still_verify(path, capsys):
    # the same three commands run when every Levenberg-Marquardt step used
    # J^T J alone, before settled starts switched to the full Hessian
    assert len(LM_CERTIFICATES) == 3
    assert run(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: verified\n"


class TestAnalysisCommands:
    def test_strong_on_builtin_name(self, tmp_path):
        out = tmp_path / "s.json"
        assert run([
            "strong", "paper-d4-strong", "--starts", "40", "--seed", "7",
            "--output", str(out),
        ]) == 0
        cert = load(out)
        assert cert["payload"]["min_residual"] > 1e-3
        assert cert["payload"]["starts"] == 40
        assert run(["check", str(out)]) == 0

    def test_strong_from_certificate_source(self, emitted, tmp_path):
        src = _emitted_file(emitted, "unextendible_set", tmp_path)
        out = tmp_path / "s.json"
        assert run([
            "strong", str(src), "--starts", "25", "--seed", "1",
            "--output", str(out),
        ]) == 0
        assert load(out)["payload"]["kind"] == "search_outcome"

    def test_eur_on_weak_triple(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["eur", "paper-d4-weak", "--output", str(out)]) == 0
        files = sorted(tmp_path.glob("e*.json"))
        assert len(files) == 3  # one certificate per extra class
        for f in files:
            cert = load(f)
            assert cert["payload"]["bound"] == 1.0
            for state in cert["payload"]["states"]:
                assert abs(state["average"] - 1.0) <= 1e-12
            assert run(["check", str(f)]) == 0

    def test_ks_on_weak_triple(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["ks", "paper-d4-weak", "--output", str(out)]) == 0
        cert = load(out)
        assert cert["payload"]["parity_odd"] is True
        assert cert["payload"]["minus_identity_count"] == 1
        assert run(["check", str(out)]) == 0

    def test_ks_rejects_extendible_source(self, emitted, tmp_path):
        assert run(["ks", str(_emitted_file(emitted, "class_set", tmp_path))]) == 2

    def test_scan_with_budget(self, tmp_path):
        out = tmp_path / "scan.json"
        assert run([
            "scan", "-n", "4", "--budget", "30", "--seed", "5",
            "--output", str(out),
        ]) == 0
        cert = load(out)
        assert cert["payload"]["subsets_scanned"] == 30
        assert sum(cert["payload"]["within_union_distribution"].values()) == 30
        assert run(["check", str(out)]) == 0

    def test_unknown_source_exits_two(self):
        assert run(["strong", "paper-d6-weak", "--starts", "5"]) == 2

    @pytest.mark.parametrize(
        "command, content",
        [
            ("strong", b"[]"),
            ("eur", b'{"payload": []}'),
            ("strong", None),  # the source is a directory
            ("ks", b'{"payload": {"kind": "class_set", "class_set": {"n": 2}}}'),
            ("strong", b'{"kind": "class_set", "class_set": {"n": 2, "complete": false}}'),
            ("eur", b"\xff\xfe"),
            ("strong", b"[" * 100000),
            ("strong", b'{"payload": {"kind": "class_set", "class_set": {"n": 1e400}}}'),
            ("strong", b"not json"),
        ],
        ids=["json-array", "payload-array", "directory", "ks-no-classes",
             "strong-no-classes", "not-utf8", "deep-nesting", "overflowing-n",
             "not-json"],
    )
    def test_unreadable_source_is_malformed(self, tmp_path, capsys, command, content):
        source = tmp_path / "source.json"
        if content is None:
            source.mkdir()
        else:
            source.write_bytes(content)
        assert run([command, str(source)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if content in (b"\xff\xfe", b"not json"):  # the text does not decode
            assert err.startswith(f"error: source {str(source)!r} cannot be read as UTF-8 JSON (")

    def test_strong_from_a_scan_certificate_is_malformed(self, emitted, tmp_path, capsys):
        source = _emitted_file(emitted, "scan_report", tmp_path)
        assert run(["strong", str(source), "--starts", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: certificate payload kind 'scan_report' does not carry classes\n"
        )

    def test_eur_on_two_classes_has_no_extra_class(self, emitted, tmp_path, capsys):
        # two classes of a complete set support no further class in their union
        source = _emitted_file(emitted, "class_set", tmp_path)
        cert = load(source)
        class_set = cert["payload"]["class_set"]
        class_set["classes"], class_set["complete"] = class_set["classes"][:2], False
        source.write_text(json.dumps(cert), encoding="utf-8")
        out = tmp_path / "eur.json"
        assert run(["eur", str(source), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: no extra class exists inside the source triple\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_strong_rejects_a_non_finite_stop_below(self, tmp_path, capsys, value):
        out = tmp_path / "strong.json"
        assert run([
            "strong", "paper-d4-strong", "--starts", "30", "--stop-below", value,
            "--output", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stop_below must be a finite number")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_strong_with_more_starts_than_the_bound_exits_two(self, tmp_path, capsys):
        # the search refuses before it builds anything: a start index past
        # 2**32 - 1 is no uint32 word; exit 1 would mean refuted
        out = tmp_path / "strong.json"
        assert run([
            "strong", "paper-d4-strong", "--starts", "4294967297", "--output", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: starts must be in [1, 4294967296], got 4294967297\n"
        )
        assert not out.exists()

    def test_strong_with_the_most_starts_runs_until_the_bar(self, tmp_path, capsys):
        # the search holds one batch at a time, whatever --starts asks, and
        # its first start ends at the floor 0.125, below the bar
        out = tmp_path / "strong.json"
        assert run([
            "strong", "paper-d8-strong", "--starts", "4294967296", "--stop-below", "1",
            "--output", str(out),
        ]) == 0
        cert = load(out)
        assert cert["payload"]["starts"] == 1
        assert cert["payload"]["config"]["starts_requested"] == 4294967296
        capsys.readouterr()
        assert run(["check", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}: verified\n"


class TestArgumentValidation:
    def test_unsupported_qubit_count_is_a_usage_error(self):
        assert run(["complete-set", "-n", "5"]) == 2

    def test_missing_subcommand_is_a_usage_error(self):
        assert run([]) == 2

    def test_output_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run(["complete-set", "-n", "2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert err.count("\n") == 1

    def test_output_directory_that_is_a_file_exits_two(self, tmp_path, capsys):
        # --all writes a directory of certificates; a file there is refused
        out = tmp_path / "taken"
        out.write_text("keep me\n", encoding="utf-8")
        assert run(["find-unextendible", "-n", "2", "--all", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 17] File exists: ")
        assert err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "keep me\n"

    def test_eur_single_report_respects_output_path(self, emitted, tmp_path):
        # a triple taken from a complete set admits exactly one extra class,
        # so exactly one certificate lands at the requested path
        cert = json.loads(emitted["class_set"])
        cert_payload = cert["payload"]["class_set"]
        triple = dict(cert)
        triple["payload"] = {
            "kind": "class_set",
            "class_set": {
                "n": 2,
                "classes": cert_payload["classes"][:3],
                "complete": False,
            },
        }
        src2 = tmp_path / "triple.json"
        src2.write_text(json.dumps(triple), encoding="utf-8")
        out = tmp_path / "eur.json"
        assert run(["eur", str(src2), "--output", str(out)]) == 0
        assert out.exists()
        assert load(out)["payload"]["kind"] == "eur_report"


@pytest.mark.parametrize("command", ["eur", "ks"])
def test_eur_and_ks_take_no_seed(command, capsys):
    # neither command draws random numbers, so a seed would be a dead knob
    assert run([command, "paper-d4-weak", "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_eur_and_ks_content_is_unchanged_without_the_seed_option(tmp_path):
    # dropping the option must not change what either command writes; eur's
    # entropies may round differently in the last digit on another BLAS, so
    # its config, where a seed would show, is pinned instead of its hash
    assert run(["ks", "paper-d4-weak", "-o", str(tmp_path / "ks.json")]) == 0
    assert load(tmp_path / "ks.json")["payload_sha256"] == (
        "b01fb3f825758628ceb9781a0c282a23a75770b2cfd89b4fee55e1e2e2a80eff"
    )
    assert run(["eur", "paper-d4-weak", "-o", str(tmp_path / "eur.json")]) == 0
    configs = [load(p)["config"] for p in sorted(tmp_path.glob("eur-*.json"))]
    assert configs == [
        {"source": "paper-d4-weak", "extra": extra, "saturation_tol": 1e-12}
        for extra in ("IZ YI YZ", "IY XI XY", "ZX XZ YY")
    ]


def test_strong_content_beside_the_floats_is_pinned(tmp_path):
    # another BLAS may round a strong run's floats, and so the start it
    # ends on, differently, so its hash is not pinned; the rest of it is
    out = tmp_path / "strong.json"
    assert run([
        "strong", "paper-d4-strong", "--starts", "40", "--seed", "3", "-o", str(out),
    ]) == 0
    cert = load(out)
    assert cert["config"] == {
        "source": "paper-d4-strong", "starts": 40, "seed": 3, "stop_below": None,
    }
    payload = cert["payload"]
    assert (payload["seed"], payload["starts"]) == (3, 40)
    settings = {k: v for k, v in payload["config"].items() if k != "best_start_index"}
    assert settings == {
        "starts_requested": 40, "stop_below": None, "max_iterations": 500,
        "f_tol": 1e-14, "gradient_tol": 1e-12,
    }
    out = tmp_path / "weak.json"
    assert run([
        "strong", "paper-d4-weak", "--starts", "50", "--seed", "2",
        "--stop-below", "1e-12", "-o", str(out),
    ]) == 0
    assert load(out)["config"] == {
        "source": "paper-d4-weak", "starts": 50, "seed": 2, "stop_below": 1e-12,
    }


def test_eur_content_beside_the_entropies_is_pinned(tmp_path):
    assert run(["eur", "paper-d4-weak", "-o", str(tmp_path / "eur.json")]) == 0
    weak = {
        "n": 2, "complete": False,
        "classes": [
            {"n": 2, "elements": ["IY", "YI", "YY"], "generators": ["IY", "YI"]},
            {"n": 2, "elements": ["ZX", "YZ", "XY"], "generators": ["ZX", "YZ"]},
            {"n": 2, "elements": ["IZ", "XI", "XZ"], "generators": ["IZ", "XI"]},
        ],
    }
    extras = [
        {"n": 2, "elements": ["IZ", "YI", "YZ"], "generators": ["IZ", "YI"]},
        {"n": 2, "elements": ["IY", "XI", "XY"], "generators": ["IY", "XI"]},
        {"n": 2, "elements": ["ZX", "XZ", "YY"], "generators": ["ZX", "XZ"]},
    ]
    payloads = [load(p)["payload"] for p in sorted(tmp_path.glob("eur-*.json"))]
    assert [p["extra_class"] for p in payloads] == extras
    for payload in payloads:
        assert payload["classes"] == weak
        assert (payload["bound"], payload["saturated"]) == (1.0, True)
        assert [s["label"] for s in payload["states"]] == ["00", "01", "10", "11"]


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["complete-set", "-n", "4"],
         "02e1b7022e3d47068d03d067b2fbfb9c7f7a5771590930fad53a7e4a7627c5df"),
        (["scan", "-n", "4", "--all"],
         "4c3317e4935a14a9822f25cd1b21011db291d77cb3c95e30da0609d30f9121a0"),
        (["scan", "-n", "4", "--budget", "300", "--seed", "1"],
         "1b721963bd67a118cba559b3b8b1a366f6560b1affddf8b93561200fef21a171"),
    ],
    ids=["complete-set-n4", "scan-all", "scan-budget-300-seed-1"],
)
def test_four_qubit_hashes_are_pinned(tmp_path, argv, sha256):
    # the family order, the exact cover's choices and the budgeted sample's
    # order all reach these hashes, so a change to any of them fails here
    out = tmp_path / "cert.json"
    assert run(argv + ["--output", str(out)]) == 0
    assert load(out)["payload_sha256"] == sha256


@pytest.mark.parametrize(
    "n, sha256",
    [
        (2, "fdab700009b37b27e7e3520fae3f0639cc3e119bed15c285c76aabee9b38bcc5"),
        (3, "4426026d92491a73dc108979f1718f77ed84f023449a160a1da5a637e683702d"),
    ],
    ids=["n2", "n3"],
)
def test_complete_set_hashes_are_pinned(tmp_path, n, sha256):
    out = tmp_path / "cert.json"
    assert run(["complete-set", "-n", str(n), "--output", str(out)]) == 0
    assert load(out)["payload_sha256"] == sha256


@pytest.mark.parametrize(
    "n, count, sha256",
    [
        (2, 10, "c380022b3faea6eff117d97d7da49cc338cc232e1fde36a4476bacf3150ad0f0"),
        (3, 126, "67ed5f51950af9d03a3a3198df5469d8d3be5a5ab099e6ad8dc27d8c0b8ea4de"),
    ],
    ids=["n2", "n3"],
)
def test_find_unextendible_hashes_are_pinned(tmp_path, n, count, sha256):
    # one sha256 over the sorted "<file name> <payload_sha256>" lines, so a
    # change to any certificate of the listing, or to its names, fails here
    import hashlib

    outdir = tmp_path / "all"
    assert run(["find-unextendible", "-n", str(n), "--all", "--output", str(outdir)]) == 0
    pairs = sorted((p.name, load(p)["payload_sha256"]) for p in outdir.glob("*.json"))
    assert len(pairs) == count
    listing = "".join(f"{name} {digest}\n" for name, digest in pairs)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == sha256


def test_find_unextendible_all_emits_its_136_certificates_in_a_pinned_order(capsys):
    # one sha256 over the payload_sha256 lines of every n = 2 and n = 3
    # certificate in the order --all prints them, so a change to any
    # certificate or to the order of the choices fails here
    import hashlib

    digests = []
    decoder = json.JSONDecoder()
    for n in (2, 3):
        assert run(["find-unextendible", "-n", str(n), "--all"]) == 0
        text = capsys.readouterr().out
        pos = 0
        while text[pos:].strip():
            certificate, end = decoder.raw_decode(text, pos)
            digests.append(certificate["payload_sha256"])
            pos = end + 1  # each certificate ends with a newline
    assert len(digests) == 136
    listing = "".join(f"{digest}\n" for digest in digests)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == (
        "3d5d7579cc281ada5dc81fa781659e12f84676e420a3c64cd714de9334ef9b6f"
    )


def test_find_unextendible_all_writes_ten_named_files(tmp_path, capsys):
    # the stdout form is pinned by the 136-certificate test above
    outdir = tmp_path / "unext"
    assert run(["find-unextendible", "-n", "2", "--all", "-o", str(outdir)]) == 0
    assert capsys.readouterr().out == f"wrote 10 certificates to {outdir}\n"
    assert sorted(p.name for p in outdir.iterdir()) == [
        f"unextendible-n2-{choice}.json" for choice in (
            "0-1-2", "0-1-3", "0-1-4", "0-2-3", "0-2-4",
            "0-3-4", "1-2-3", "1-2-4", "1-3-4", "2-3-4",
        )
    ]


def test_find_unextendible_all_prints_ten_tables(capsys):
    assert run(["find-unextendible", "-n", "2", "--all", "--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(lines) if line == "command   : find-unextendible"]
    assert len(heads) == 10 and heads[0] == 0
    assert not any(line.startswith(("{", "wrote")) for line in lines)


def test_eur_writes_one_numbered_file_per_extra_class(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run(["eur", "paper-d4-weak", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e-0.json", "e-1.json", "e-2.json"]
    assert {load(p)["command"] for p in tmp_path.iterdir()} == {"eur"}


def _not_exhaustive(payload):
    payload["extendibility"]["exhaustive"] = False


def _within_union(payload):
    payload["extendibility"]["universe"] = "within-union"


def _found_a_class(payload):
    payload["extendibility"]["found"] = [payload["extra_class"]]


@pytest.mark.parametrize(
    "mutate, where",
    [
        (_not_exhaustive, "payload.extendibility.exhaustive"),
        (_within_union, "payload.extendibility.universe"),
        (_found_a_class, "payload.extendibility.found"),
    ],
    ids=["not-exhaustive", "within-union", "found-a-class"],
)
def test_fixed_extendibility_fields_are_enforced(tmp_path, capsys, mutate, where):
    # every unextendible certificate searched the leftover operators
    # exhaustively and found nothing; a re-hashed file that says otherwise
    # is refuted at the changed field
    for n, choose in ((3, "0,2,4,6,8"), (4, "0,1,2,3,4,5,6,7,8")):
        (tmp_path / str(n)).mkdir()
        good = tmp_path / str(n) / "w.json"
        assert run(["find-unextendible", "-n", str(n), "--choose", choose, "-o", str(good)]) == 0
        problems = _refuted_then_verified(tmp_path / str(n), capsys, good, mutate)
        assert len(problems) == 1 and problems[0].startswith(f"  - {where} does not reproduce: ")


def _package_env() -> dict:
    """This environment, with this package first on PYTHONPATH."""
    import os

    import mubforge

    env = dict(os.environ)
    src = str(Path(mubforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True,
        text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # importing the CLI for a combinatorial command must not pay for scipy
    assert _python("import sys, mubforge.cli; print('scipy' in sys.modules)") == "False"


def test_strong_and_check_do_not_load_numpy_random(tmp_path):
    # the search draws its starting phases without numpy's generators, so a
    # strong run and the check of strong files never import numpy.random
    if _python("import sys, numpy; print('numpy.random' in sys.modules)") == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    out = tmp_path / "strong.json"
    data = Path(__file__).parent / "data"
    files = [str(out), *map(str, sorted(data.glob("*_strong/*.json")))]
    code = f"""
import contextlib, io, sys
from mubforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["strong", "paper-d8-strong", "--starts", "20", "-o", {str(out)!r}]),
        main(["check", *{files!r}]),
    ]
print(codes, "numpy.random" in sys.modules)
"""
    assert _python(code) == "[0, 0] False"


def test_no_command_loads_openssl(tmp_path):
    # the payload hash uses CPython's own SHA-256 module, so neither a
    # command nor the check of its output imports hashlib, whose _hashlib
    # loads OpenSSL's libcrypto
    import importlib.util

    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    if _python("import sys, numpy; print('_hashlib' in sys.modules)") == "True":
        pytest.skip("this numpy loads hashlib with numpy itself")
    code = f"""
import contextlib, io, os, sys
from mubforge.cli import main
os.chdir({str(tmp_path)!r})
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["complete-set", "-n", "2", "-o", "complete.json"]),
        main(["scan", "-n", "4", "--all", "-o", "scan.json"]),
        main(["strong", "paper-d4-strong", "--starts", "5", "-o", "strong.json"]),
        main(["check", "complete.json", "scan.json", "strong.json"]),
    ]
print(codes, "_hashlib" in sys.modules)
"""
    assert _python(code) == "[0, 0, 0, 0] False"


def test_payload_hash_falls_back_to_hashlib(tmp_path):
    # an interpreter built without the built-in SHA-256 modules hashes with
    # hashlib, to the hash test_complete_set_hashes_are_pinned pins
    out = tmp_path / "complete.json"
    code = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # importing either fails
import hashlib
from mubforge import certificates
from mubforge.cli import main
print(main(["complete-set", "-n", "3", "-o", {str(out)!r}]),
      certificates.sha256 is hashlib.sha256)
"""
    assert _python(code) == "0 True"
    assert load(out)["payload_sha256"] == (
        "4426026d92491a73dc108979f1718f77ed84f023449a160a1da5a637e683702d"
    )


def test_strong_search_runs_without_scipy(tmp_path):
    # the multistart is plain numpy: a whole strong run never imports scipy
    out_file = tmp_path / "strong.json"
    code = (
        "import sys, mubforge.cli\n"
        "code = mubforge.cli.main(['strong', 'paper-d4-strong', '--starts', '20',"
        f" '--output', {str(out_file)!r}])\n"
        "print(code, 'scipy' in sys.modules)"
    )
    assert _python(code) == "0 False"
    assert load(out_file)["verified"] is True


LAYERS = (
    "pauli", "search", "classes", "unextendible", "bases", "analysis",
    "certificates", "cli",
)


def test_cli_import_loads_every_layer_but_not_numpy():
    # every layer module is registered in sys.modules, so code that patches
    # or traces them finds them all; the numeric layer (analysis, bases) runs
    # on first use, and numpy waits for the first numeric command; no layer
    # defines its records with dataclasses, which would pull in inspect
    code = (
        "import sys, mubforge.cli\n"
        f"print(all('mubforge.' + m in sys.modules for m in {LAYERS!r}),"
        " [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    assert _python(code) == "True []"


# whether each numeric-layer module has run: a module that LazyLoader holds
# back is not a plain ModuleType, and reading any attribute of it would run it
NUMERIC_LAYER_RAN = (
    "print([type(sys.modules['mubforge.' + m]) is types.ModuleType"
    " for m in ('analysis', 'bases')])"
)


def test_census_commands_never_run_the_numeric_layer(tmp_path):
    code = f"""
import contextlib, glob, io, os, sys, types
from mubforge.cli import main
os.chdir({str(tmp_path)!r})
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["complete-set", "-n", "4", "-o", "complete.json"]),
        main(["find-unextendible", "-n", "3", "--all", "-o", "unext"]),
        main(["scan", "-n", "4", "--all", "-o", "scan.json"]),
        main(["ks", "paper-d4-weak", "-o", "ks.json"]),
    ]
    outputs = ["complete.json", "scan.json", "ks.json"] + sorted(glob.glob("unext/*.json"))
    codes.append(main(["check"] + outputs))
print(codes, len(outputs))
{NUMERIC_LAYER_RAN}
"""
    assert _python(code).splitlines() == ["[0, 0, 0, 0, 0] 129", "[False, False]"]


@pytest.mark.parametrize(
    "argv", [["strong", "paper-d4-strong", "--starts", "5"]], ids=["strong"]
)
def test_numeric_commands_run_the_numeric_layer(argv):
    code = f"""
import contextlib, io, sys, types
from mubforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code)
{NUMERIC_LAYER_RAN}
"""
    assert _python(code).splitlines() == ["0", "[True, True]"]


def test_package_import_runs_no_numeric_layer_yet_lists_its_names():
    code = f"""
import sys, types, mubforge
{NUMERIC_LAYER_RAN}
print(sorted(set(mubforge.__all__) - set(dir(mubforge))))
{NUMERIC_LAYER_RAN}
print(mubforge.eigenbasis is sys.modules["mubforge.bases"].eigenbasis)
"""
    assert _python(code).splitlines() == [
        "[False, False]", "[]", "[False, False]", "True"
    ]


def test_the_benchmark_tracer_sees_the_numeric_layer(tmp_path):
    # the tracer patches the layer modules it finds in sys.modules when it
    # installs; reading a lazily loaded module's attributes runs it first,
    # so a traced strong run and its check still record the numeric layer
    import subprocess
    import sys

    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    calls = {}
    for name, argv in (
        ("strong", ["strong", "paper-d4-strong", "--starts", "20", "-o", "x.json"]),
        ("check", ["check", "x.json"]),
    ):
        subprocess.run(
            [sys.executable, str(child), f"{name}.report", "--trace",
             f"{name}.spans", "--", *argv],
            cwd=tmp_path, env=_package_env(), check=True, capture_output=True,
            timeout=120,
        )
        trace = json.loads((tmp_path / f"{name}.report").read_text())["trace"]
        calls.update({f"{name}:{k}": v["calls"] for k, v in trace.items()})
    for span in (
        "strong:analysis.strong_unext_search",
        "strong:analysis.objective",
        "strong:bases.eigenbasis",
        "check:certificates.verify_payload.search_outcome",
        "check:analysis.strong_unext_search",
        "check:bases.eigenbasis",
    ):
        assert calls.get(span, 0) > 0, span


def test_census_commands_run_with_numpy_unimportable(tmp_path):
    # the combinatorial commands (the census commands and ks) emit and
    # every output checks, all in one
    # interpreter in which importing numpy raises ImportError; a numeric
    # command, or a file whose kind needs numpy, gets one line and exit 2,
    # and checking goes on to the next file
    strong_file = str(LM_CERTIFICATES[0])
    code = f"""
import contextlib, glob, io, os, sys
sys.modules["numpy"] = None
from mubforge.cli import main
os.chdir({str(tmp_path)!r})
codes = [
    main(["complete-set", "-n", "4", "-o", "complete.json"]),
    main(["find-unextendible", "-n", "3", "--all", "-o", "unext"]),
    main(["find-unextendible", "-n", "4", "--choose", "0,1,2,3,4,5,6,7,8", "-o", "u16.json"]),
    main(["scan", "-n", "4", "--all", "-o", "scan.json"]),
    main(["ks", "paper-d4-weak", "-o", "ks.json"]),
]
outputs = ["complete.json", "u16.json", "scan.json", "ks.json"] + sorted(glob.glob("unext/*.json"))
codes.append(main(["check"] + outputs))
codes.append(main(["check", {strong_file!r}, "complete.json"]))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    for argv in (
        ["strong", "paper-d4-strong", "--starts", "5"],
        ["eur", "paper-d4-weak"],
        ["scan", "-n", "4", "--budget", "10"],
    ):
        codes.append(main(argv))
print("stderr", err.getvalue().splitlines())
print("codes", codes)
"""
    out = _python(code).splitlines()
    assert out[-1] == "codes [0, 0, 0, 0, 0, 0, 2, 2, 2, 2]"
    assert out[-2] == "stderr " + repr([
        f"error: numpy is required for {command}" for command in ("strong", "eur", "scan")
    ])
    assert out[-4:-2] == [
        f"{strong_file}: not checked (numpy is required for search_outcome payloads)",
        "complete.json: verified",
    ]
    assert sum(line.endswith(": verified") for line in out) == 131


# Emitting runs no verifier: each command's output is the same on every
# emission, and ``check`` verifies it.
EMITTING_COMMANDS = [
    *DETERMINISTIC_COMMANDS.values(),
    ["strong", "paper-d4-strong", "--starts", "40", "--seed", "3"],
]


@pytest.mark.parametrize("command", EMITTING_COMMANDS, ids=lambda c: c[0])
def test_determinism_modulo_timestamp(tmp_path, command):
    emissions = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert main(command + ["--output", str(tmp_path / name / "cert.json")]) == 0
        # eur writes one file per extra class
        emissions.append([load(p) for p in sorted((tmp_path / name).iterdir())])
    for cert in emissions[0]:
        assert verify_certificate(cert) == []
    for certs in emissions:
        for cert in certs:
            cert.pop("created_utc")
    assert json.dumps(emissions[0], sort_keys=True) == json.dumps(emissions[1], sort_keys=True)


def test_emitting_does_not_run_the_checker(tmp_path, monkeypatch):
    def checker(*args):
        raise AssertionError("the checker ran while emitting")

    monkeypatch.setattr("mubforge.certificates.verify_payload", checker)
    for i, command in enumerate(EMITTING_COMMANDS):
        assert main(command + ["--output", str(tmp_path / f"{i}.json")]) == 0


def _hashed_paths(cert):
    """Every node of the hashed content, as a path of keys and indices."""
    found = [("schema_version",)]

    def walk(node, path):
        found.append(path)
        children = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            walk(child, path + (key,))

    for top in ("command", "config", "payload"):
        walk(cert[top], (top,))
    return found


def _bump(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value + value[:1] if value else [0]
    if isinstance(value, dict):
        return {**value, "extra": 0}
    return 0


MUTATIONS = {
    "nan": lambda value: float("nan"),
    "huge": lambda value: 10**30,
    "string": lambda value: "tampered",
    "empty-list": lambda value: [],
    "bump": _bump,
}


# every optimizer wrote the search's fixed settings, the L-BFGS-B files
# included; each is pinned in JSON type and value
PINNED_SETTINGS = {"max_iterations": 500, "f_tol": 1e-14, "gradient_tol": 1e-12}

# (setting, name, value): each of MUTATIONS for every setting, then values
# the search cannot run with and a pinned value of another JSON type
OTHER_SETTINGS = [
    (key, how, MUTATIONS[how](pinned))
    for key, pinned in PINNED_SETTINGS.items() for how in sorted(MUTATIONS)
] + [
    ("max_iterations", "zero", 0), ("max_iterations", "fractional", 2.5),
    ("max_iterations", "huge-float", 1e30), ("max_iterations", "float", 500.0),
    ("max_iterations", "bool", True), ("f_tol", "negative", -1),
]


@pytest.mark.parametrize(
    "key, value", [(key, value) for key, _, value in OTHER_SETTINGS],
    ids=[f"{key}-{how}" for key, how, _ in OTHER_SETTINGS],
)
def test_a_strong_file_must_state_the_pinned_settings(emitted, tmp_path, capsys, key, value):
    # a setting the search cannot run with is refuted like any other, with
    # one named reason, since the spot re-run never reads it
    cert = json.loads(emitted["search_outcome"])
    optimizer = cert["payload"]["config"]
    assert optimizer[key] == PINNED_SETTINGS[key]
    optimizer[key] = value
    _rehash(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{bad}: REFUTED",
        f"  - payload.config.{key} does not reproduce: "
        f"{canonical_json(value)}, rebuilt {canonical_json(PINNED_SETTINGS[key])}",
    ]


def _nudges(value):
    """Tolerance-sized changes of a number or a bool, by name."""
    if isinstance(value, bool):
        return {"bool-to-int": int(value)}
    if isinstance(value, int):
        changes = {"int+1": value + 1, "int-1": value - 1, "int-to-float": float(value)}
        if value in (0, 1):
            changes["int-to-bool"] = bool(value)
        return changes
    if not (isinstance(value, float) and math.isfinite(value)):
        return {}
    changes = {
        "next-up": math.nextafter(value, math.inf),
        "next-down": math.nextafter(value, -math.inf),
        "rel-up": value * (1 + 1e-13),
        "rel-down": value * (1 - 1e-13),
    }
    if value.is_integer():
        changes["float-to-int"] = int(value)
    if value == 0:
        changes["zero-sign"] = -value
    return changes


def _single_field_mutants(cert):
    """Every single-field mutant of a certificate's hashed content.

    Each node, containers included, is deleted or takes each of MUTATIONS,
    and each number or bool also takes each of its _nudges; yields
    (path, mutation, old value, new value, mutant) for every mutant whose
    canonical JSON differs from the certificate's.
    """
    original = canonical_json(cert)
    for path in _hashed_paths(cert):
        node = cert
        for key in path:
            node = node[key]
        changes = [("delete", None)]
        changes += [(how, mutate(node)) for how, mutate in MUTATIONS.items()]
        changes += _nudges(node).items()
        for how, value in changes:
            mutant = json.loads(original)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if how == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            if canonical_json(mutant) != original:
                yield path, how, node, value, mutant


# The single-field changes ``check`` cannot refute, each with its reason:
# (payload kinds, dotted path, whether a value there is tolerated given the
# original value and payload). A deletion is never tolerated.
TOLERATED = [
    ("eur_report", r"payload\.states\.\d+\.(per_basis\.\d+|average)",
     lambda new, old, payload: type(new) is float
     and abs(new - old) <= REBUILD_FLOAT_TOL,
     "collision entropies are rebuilt in floating point, to REBUILD_FLOAT_TOL"),
    ("unextendible_set", r"config\.seed",
     lambda new, old, payload: type(new) is int,
     "the seed is recorded, not used by the construction (until schema 2)"),
    ("eur_report|ks_report|search_outcome", r"config\.source",
     lambda new, old, payload: isinstance(new, str) and new not in NAMED_CLASS_SETS,
     "a source that names no built-in set is a label for the declared classes"),
    ("search_outcome", r"payload\.(min_residual|best_vector\.(re|im)\.\d+)",
     lambda new, old, payload: type(new) in (int, float)
     and abs(new - old) <= RESIDUAL_RECHECK_TOL,
     "the vector and its residual are re-checked to RESIDUAL_RECHECK_TOL"),
    ("search_outcome", r"payload\.config\.best_start_index",
     lambda new, old, payload: type(new) is int and 0 <= new < payload["starts"],
     "the file alone cannot tell which of the starts made found the optimum"),
    ("search_outcome", r"payload\.converged_starts",
     lambda new, old, payload: type(new) is int and 0 <= new <= payload["starts"],
     "only bounded by the starts made; unchecked until schema 2"),
]

# mutants per swept route, so that a sweep that shrinks fails here
SWEPT_MUTANTS = {
    "class_set": 359,
    "eur_report": 564,
    "ks_report": 532,
    "scan_report": 196,
    "scan_report-all": 191,
    "search_outcome": 453,
    "unextendible_set": 965,
}


@pytest.mark.parametrize("route", sorted(SWEPT_COMMANDS))
def test_rehashed_single_field_mutation_never_verifies(emitted, monkeypatch, route):
    # a deterministic sweep of every hashed node of one certificate per
    # route: each re-hashed mutant is refuted or malformed unless TOLERATED
    # names its place and value, and each of the route's allowances is met.
    # A scan rebuild is a pure function of its budget and seed, so it is
    # computed once per pair; the comparison against it is the real one.
    monkeypatch.setattr(
        certificates, "conjecture_scan", functools.lru_cache(certificates.conjecture_scan)
    )
    cert = json.loads(emitted[route])
    kind = cert["payload"]["kind"]
    allowances = [row for row in TOLERATED if re.fullmatch(row[0], kind)]
    used, untolerated, count = set(), [], 0
    for path, how, old, value, mutant in _single_field_mutants(cert):
        count += 1
        _rehash(mutant)
        try:
            if verify_certificate(mutant):
                continue
        except MALFORMED_ERRORS:
            continue
        dotted = ".".join(map(str, path))
        matched = [
            i for i, (_, where, tolerated, _) in enumerate(allowances)
            if how != "delete" and re.fullmatch(where, dotted)
            and tolerated(value, old, cert["payload"])
        ]
        used.update(matched)
        if not matched:
            untolerated.append(f"{how} at {dotted} ({value!r}) still verifies")
    assert untolerated == []
    assert [row[1] for i, row in enumerate(allowances) if i not in used] == []
    assert count == SWEPT_MUTANTS[route]


def _at_path(cert, dotted):
    node = cert
    for key in dotted.split("."):
        node = node[key]
    return node


PAYLOAD_KINDS = sorted(set(SWEPT_COMMANDS) - {"scan_report-all"})


@pytest.mark.parametrize(
    "kind, where",
    [(kind, "payload") for kind in PAYLOAD_KINDS]
    + [("search_outcome", "payload.config"), ("search_outcome", "payload.best_vector"),
       ("class_set", "payload.class_set")],
)
def test_every_kind_names_an_unexpected_key(emitted, kind, where):
    # "remark", since a scan payload already has a "note"
    cert = json.loads(emitted[kind])
    _at_path(cert, where)["remark"] = "unchecked"
    _rehash(cert)
    assert verify_certificate(cert) == [f"{where}.remark is an unexpected field"]


def _dotted(path):
    """A path of keys and indices as ``check`` names it: ``a.b[0].c``."""
    return "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in path
    ).lstrip(".")


REMOVED_STRONG_KEYS = [
    "payload.config.f_tol", "payload.best_vector.im", "config.starts", "config.source",
]


@pytest.mark.parametrize(
    "route, dotted",
    [("search_outcome", dotted) for dotted in REMOVED_STRONG_KEYS]
    + [(route, None) for route in sorted(SWEPT_COMMANDS)],
    ids=[*REMOVED_STRONG_KEYS, *(f"every-key-of-{route}" for route in sorted(SWEPT_COMMANDS))],
)
def test_a_removed_key_of_any_kind_is_malformed(emitted, route, dotted):
    # a key the writer writes but the file lacks makes a file of any kind
    # malformed: every dict key of config and payload, at any depth and in
    # every list item, raises KeyError naming it, by its dotted path or,
    # where a reader indexes it directly, by the key alone
    cert = json.loads(emitted[route])
    paths = [
        path for path in _hashed_paths(cert)
        if path[0] in ("config", "payload") and len(path) > 1 and isinstance(path[-1], str)
    ]
    if dotted:
        paths = [path for path in paths if _dotted(path) == dotted]
    assert paths
    for path in paths:
        mutant = json.loads(emitted[route])
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        _rehash(mutant)
        with pytest.raises(KeyError) as exc:
            verify_certificate(mutant)
        named = (_dotted(path),) if dotted else (_dotted(path), path[-1])
        assert exc.value.args[0] in named


@pytest.mark.parametrize(
    "name", [*(f"{p.parent.name}/{p.name}" for p in LBFGS_CERTIFICATES + LM_CERTIFICATES),
             "fresh"],
)
def test_emit_and_check_share_the_strong_writer(tmp_path, name):
    # the strong rebuild, given a file, writes that file's own config and
    # payload: the writer that emits a strong certificate is the one that
    # checks it, for today's search and for the earlier optimizers' files
    if name == "fresh":
        path = tmp_path / "fresh.json"
        assert main([
            "strong", "paper-d8-strong", "--starts", "30", "--seed", "2", "-o", str(path),
        ]) == 0
    else:
        path = Path(__file__).parent / "data" / name
    cert = load(path)
    rebuilt = certificates._rebuild_search_outcome(cert["payload"], cert["config"])
    assert canonical_json(rebuilt) == canonical_json([cert["config"], cert["payload"]])


@pytest.mark.parametrize("command", EMITTING_COMMANDS, ids=lambda c: c[0])
def test_emitted_text_and_hash_follow_the_stdlib(tmp_path, capsys, command):
    # for one certificate of each payload kind: the text, to a file and to
    # stdout, is the canonical JSON the hash is taken over, one certificate
    # per line, and the hash is hashlib's SHA-256 of the canonical JSON of
    # the four hashed fields
    import hashlib

    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    assert main(command + ["--output", str(tmp_path / "cert.json")]) == 0
    paths = sorted(tmp_path.iterdir())  # eur writes one file per extra class
    for path in paths:
        text = path.read_text(encoding="utf-8")
        cert = json.loads(text)
        assert text == canonical(cert) + "\n"
        body = {k: cert[k] for k in ("schema_version", "command", "config", "payload")}
        assert cert["payload_sha256"] == hashlib.sha256(
            canonical(body).encode("utf-8")
        ).hexdigest()
    capsys.readouterr()
    assert main(command) == 0
    printed = capsys.readouterr().out
    docs = [json.loads(line) for line in printed.splitlines()]
    assert len(docs) == len(paths)
    assert printed == "".join(canonical(d) + "\n" for d in docs)


def test_check_reads_the_indented_and_the_compact_layout(emitted, tmp_path, capsys):
    # whitespace outside strings is not part of a certificate: the indented
    # layout written before the compact one, and the compact one, both verify
    paths = []
    for kind in DETERMINISTIC_COMMANDS:
        cert = json.loads(emitted[kind])
        for layout, text in (
            ("indented", json.dumps(cert, indent=2, sort_keys=True)),
            ("compact", json.dumps(cert, sort_keys=True, separators=(",", ":"))),
        ):
            paths.append(tmp_path / f"{kind}-{layout}.json")
            paths[-1].write_text(text + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "".join(f"{p}: verified\n" for p in paths)
