"""Certificate emission, re-verification, tampering, and the CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mubforge.certificates import _payload_hash, verify_certificate
from mubforge.cli import MALFORMED_ERRORS, build_parser, main
from mubforge.named_sets import (
    NAMED_CLASS_SETS,
    STRONG_FIVE_D8,
    STRONG_TRIPLE_D4,
    WEAK_TRIPLE_D4,
    named_class_set,
)


def run(args: list[str]) -> int:
    return main(args)


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class TestNamedSources:
    def test_registry_contains_the_three_published_sets(self):
        assert set(NAMED_CLASS_SETS) == {
            "paper-d4-weak",
            "paper-d4-strong",
            "paper-d8-strong",
        }

    @pytest.mark.parametrize(
        "name,listing",
        [
            ("paper-d4-weak", WEAK_TRIPLE_D4),
            ("paper-d4-strong", STRONG_TRIPLE_D4),
            ("paper-d8-strong", STRONG_FIVE_D8),
        ],
    )
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

    def test_determinism_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["complete-set", "-n", "2", "--output", str(a)])
        run(["complete-set", "-n", "2", "--output", str(b)])
        ca, cb = load(a), load(b)
        ca.pop("created_utc")
        cb.pop("created_utc")
        assert json.dumps(ca, sort_keys=True) == json.dumps(cb, sort_keys=True)

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
        want = {frozenset(group) for group in WEAK_TRIPLE_D4}
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
    ],
    ids=["scan-all-and-budget", "scan-neither", "find-all-and-choose"],
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


class TestCheckCommand:
    def test_untampered_certificate_passes(self, tmp_path):
        out = tmp_path / "c.json"
        run(["complete-set", "-n", "2", "--output", str(out)])
        assert run(["check", str(out)]) == 0

    def test_altered_operator_detected(self, tmp_path):
        out = tmp_path / "c.json"
        run(["complete-set", "-n", "2", "--output", str(out)])
        cert = load(out)
        cert["payload"]["class_set"]["classes"][0]["elements"][0] = "XY"
        out.write_text(json.dumps(cert), encoding="utf-8")
        assert run(["check", str(out)]) == 1

    def test_rehashed_tamper_still_refuted(self, tmp_path):
        # fixing the hash after editing the payload must not fool the checker
        out = tmp_path / "c.json"
        run(["find-unextendible", "-n", "2", "--choose", "0,1,2", "--output", str(out)])
        cert = load(out)
        cert["payload"]["extendibility"]["universe_operators"][0] = "IY"
        cert["payload_sha256"] = _payload_hash(
            cert["command"], cert["config"], cert["payload"]
        )
        out.write_text(json.dumps(cert), encoding="utf-8")
        assert run(["check", str(out)]) == 1

    def test_truncated_file_exits_two(self, tmp_path):
        out = tmp_path / "c.json"
        run(["complete-set", "-n", "2", "--output", str(out)])
        text = out.read_text(encoding="utf-8")
        out.write_text(text[: len(text) // 2], encoding="utf-8")
        assert run(["check", str(out)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert run(["check", str(tmp_path / "nope.json")]) == 2

    def test_json_array_exits_two(self, tmp_path, capsys):
        out = tmp_path / "array.json"
        out.write_text("[1, 2]", encoding="utf-8")
        assert run(["check", str(out)]) == 2
        assert capsys.readouterr().out == f"{out}: malformed (not a JSON object)\n"

    def test_verify_certificate_reports_problems(self, tmp_path):
        out = tmp_path / "c.json"
        run(["complete-set", "-n", "2", "--output", str(out)])
        cert = load(out)
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


class TestCheckMalformedInput:
    @pytest.fixture
    def strong_cert(self, tmp_path):
        out = tmp_path / "strong.json"
        assert run([
            "strong", "paper-d4-strong", "--starts", "5", "--output", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize(
        "mutate",
        [_drop_classes, _payload_as_string, _drop_max_iterations, _non_numeric_vector,
         _drop_gradient_tol],
        ids=["missing-classes", "payload-string", "missing-max-iterations",
             "non-numeric-vector", "missing-gradient-tol"],
    )
    def test_probe_is_malformed(self, tmp_path, strong_cert, mutate, capsys):
        cert = load(strong_cert)
        mutate(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{bad}: malformed (")

    def test_scan_with_zero_budget_is_malformed(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        assert run(["scan", "-n", "4", "--budget", "5", "--output", str(out)]) == 0
        cert = load(out)
        cert["payload"]["budget"] = 0
        out.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"{out}: malformed (ValueError: ")

    def test_scan_for_another_qubit_count_is_malformed(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        assert run(["scan", "-n", "4", "--budget", "5", "--output", str(out)]) == 0
        cert = load(out)
        cert["config"]["n"] = cert["payload"]["n"] = 5
        _rehash(cert)
        out.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(out)]) == 2
        assert capsys.readouterr().out == (
            f"{out}: malformed (ValueError: the scanner targets four qubits)\n"
        )

    def test_bad_file_does_not_stop_the_next(self, tmp_path, strong_cert, capsys):
        cert = load(strong_cert)
        _drop_classes(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad), str(strong_cert)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{bad}: malformed (")
        assert lines[1] == f"{strong_cert}: verified"


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


def test_provenance_that_does_not_rebuild_is_refuted(tmp_path, capsys):
    from mubforge.classes import canonical_complete_set, classes_to_json

    good = tmp_path / "w.json"
    assert run(["find-unextendible", "-n", "2", "--choose", "0,1,2", "-o", str(good)]) == 0

    def foreign_provenance(payload):
        # nine classes of the four-qubit set span three extra classes, not one
        payload["provenance"] = {
            "complete_set": classes_to_json(canonical_complete_set(4)),
            "chosen": list(range(9)),
        }

    problems = _refuted_then_verified(tmp_path, capsys, good, foreign_provenance)
    assert problems == [
        "  - provenance does not rebuild: expected exactly one extra class, found 3; "
        "the construction's uniqueness guarantee is violated"
    ]


def test_provenance_is_required(tmp_path, capsys):
    # without a provenance an unextendible set cannot be re-derived
    good = tmp_path / "w.json"
    assert run(["find-unextendible", "-n", "2", "--choose", "0,1,2", "-o", str(good)]) == 0

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


@pytest.mark.parametrize("mutate", [_bool_index, _bool_seed], ids=["index", "seed"])
def test_a_bool_does_not_stand_in_for_an_int(tmp_path, mutate):
    # False == 0 in Python, but the file no longer says what was emitted
    out = tmp_path / "w.json"
    assert run(["find-unextendible", "-n", "2", "--choose", "0,1,2", "-o", str(out)]) == 0
    cert = load(out)
    mutate(cert)
    _rehash(cert)
    assert verify_certificate(cert)


def test_command_must_match_the_payload_kind(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["complete-set", "-n", "2", "-o", str(out)]) == 0
    cert = load(out)
    cert["command"] = "scan"
    _rehash(cert)
    assert verify_certificate(cert) == ["command 'scan' does not emit a class_set payload"]


def test_eur_floats_reproduce_within_tolerance(tmp_path):
    # another BLAS may round the entropies differently in the last digits
    out = tmp_path / "e.json"
    assert run(["eur", "paper-d4-weak", "--output", str(out)]) == 0
    cert = load(sorted(tmp_path.glob("e*.json"))[0])
    state = cert["payload"]["states"][0]
    state["average"] += 1e-14
    _rehash(cert)
    assert verify_certificate(cert) == []
    state["average"] += 1e-9
    _rehash(cert)
    problems = verify_certificate(cert)
    assert len(problems) == 1
    assert problems[0].startswith("payload.states[0].average does not reproduce: ")


@pytest.mark.parametrize("command", ["eur", "ks"])
def test_source_naming_another_builtin_set_is_refuted(tmp_path, command):
    out = tmp_path / "report.json"
    assert run([command, "paper-d4-weak", "--output", str(out)]) == 0
    cert = load(sorted(tmp_path.glob("report*.json"))[0])
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


@pytest.mark.parametrize(
    "command,mutate",
    [("eur", _drop_states), ("eur", _unsaturated), ("ks", _drop_operators)],
    ids=["eur-no-states", "eur-unsaturated", "ks-no-operators"],
)
def test_rehashed_report_tamper_is_refuted(tmp_path, capsys, command, mutate):
    out = tmp_path / "report.json"
    assert run([command, "paper-d4-weak", "--output", str(out)]) == 0
    good = sorted(tmp_path.glob("report*.json"))[0]  # eur writes one file per extra class
    assert _refuted_then_verified(tmp_path, capsys, good, mutate)


def _rehash(cert):
    cert["payload_sha256"] = _payload_hash(
        cert.get("command"), cert.get("config"), cert.get("payload")
    )


@pytest.mark.parametrize(
    "path, value",
    [
        (("min_residual",), float("nan")),
        (("best_vector", "re", 0), float("nan")),
        (("converged_starts",), 10**30),
        (("starts",), 10**6),
        (("config", "best_start_index"), 999),
        (("config", "starts_requested"), 7),
    ],
    ids=["nan-residual", "nan-vector", "huge-converged", "huge-starts",
         "best-index-out-of-range", "fewer-starts-requested"],
)
def test_strong_numbers_must_be_finite_and_consistent(tmp_path, capsys, path, value):
    good = tmp_path / "strong.json"
    assert run([
        "strong", "paper-d4-strong", "--starts", "20", "--seed", "3", "-o", str(good),
    ]) == 0

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    assert _refuted_then_verified(tmp_path, capsys, good, mutate)


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
def test_strong_vector_must_give_the_recorded_residual(tmp_path, capsys, mutate, problem):
    good = tmp_path / "strong.json"
    assert run([
        "strong", "paper-d4-strong", "--starts", "20", "--seed", "3", "-o", str(good),
    ]) == 0
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
    assert strong_unext_search(bases, starts=10, seed=1).min_residual < 1e-12  # extendible
    good = tmp_path / "strong.json"
    content = cert.strong_content("extendible-triple", triple, 10, 1, None)
    good.write_text(json.dumps(cert.make_certificate("strong", *content)), encoding="utf-8")
    e0 = np.eye(4)[0]

    def basis_vector(payload):
        payload["best_vector"] = {"re": e0.tolist(), "im": [0.0] * 4}
        payload["min_residual"] = residual(e0, bases)

    lines = _refuted_then_verified(tmp_path, capsys, good, basis_vector)
    assert lines == ["  - recorded residual is worse than a deterministic re-run"]


@pytest.mark.parametrize(
    "path", [(), ("config",), ("best_vector",)], ids=["payload", "config", "vector"]
)
def test_strong_key_sets_are_closed(tmp_path, capsys, path):
    good = tmp_path / "strong.json"
    assert run([
        "strong", "paper-d4-strong", "--starts", "20", "--seed", "3", "-o", str(good),
    ]) == 0

    def add_key(payload):
        node = payload
        for key in path:
            node = node[key]
        node["note"] = "unchecked"

    where = ".".join(("payload",) + path)
    lines = _refuted_then_verified(tmp_path, capsys, good, add_key)
    assert lines == [f"  - {where}.note is not a search outcome field"]


@pytest.fixture(scope="module")
def strong_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("strong-files")
    for name, argv in (
        ("s1000", ["paper-d4-strong", "--starts", "1000", "--seed", "500"]),
        ("s30", ["paper-d4-strong", "--starts", "30", "--seed", "4"]),
    ):
        assert main(["strong", *argv, "-o", str(out / f"{name}.json")]) == 0
    return out


def _float_converged(cert):
    cert["payload"]["converged_starts"] = float(cert["payload"]["converged_starts"])


def _float_best_index(cert):
    settings = cert["payload"]["config"]
    settings["best_start_index"] = float(settings["best_start_index"])


def _float_requested(cert):
    cert["config"]["starts"] = cert["payload"]["config"]["starts_requested"] = 1000.0


def _bool_strong_seed(cert):
    cert["config"]["seed"] = cert["payload"]["seed"] = True


def _float_starts(cert):
    cert["payload"]["starts"] = 30.0


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
    "name, mutate",
    [
        ("s1000", _float_converged),
        ("s1000", _float_best_index),
        ("s1000", _float_requested),
        ("s30", _bool_strong_seed),
        ("s30", _float_starts),
        ("s30", _short_imaginary_part),
    ],
    ids=["float-converged", "float-best-index", "float-requested", "bool-seed",
         "float-starts", "short-imaginary-part"],
)
def test_strong_counts_are_json_ints_and_the_vector_has_d_entries(
    tmp_path, capsys, strong_files, name, mutate
):
    # each mutant equals the emitted file in value, but not in what the
    # search writes: an int where it counts, d numbers per vector part
    cert = load(strong_files / f"{name}.json")
    mutate(cert)
    _rehash(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert run(["check", str(bad)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{bad}: malformed (ValueError: ")


class TestUntrustedOptimizerSettings:
    # the spot re-run takes its optimizer settings from the file; a
    # re-hashed certificate must not make it misbehave or run unbounded
    @pytest.fixture
    def strong_cert(self, tmp_path):
        out = tmp_path / "strong.json"
        assert run([
            "strong", "paper-d4-strong", "--starts", "30", "--seed", "4",
            "--output", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize(
        "key, value",
        [("max_iterations", 0), ("f_tol", -1), ("max_iterations", float("nan")),
         ("max_iterations", 2.5), ("max_iterations", True), ("max_iterations", 1e30)],
        ids=["zero-iterations", "negative-f-tol", "nan-iterations",
             "fractional-iterations", "bool-iterations", "huge-float-iterations"],
    )
    def test_unusable_setting_is_malformed(self, tmp_path, strong_cert, key, value, capsys):
        cert = load(strong_cert)
        cert["payload"]["config"][key] = value
        _rehash(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad)]) == 2
        assert capsys.readouterr().out.startswith(f"{bad}: malformed (ValueError: ")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_stop_below_is_malformed(self, tmp_path, strong_cert, value, capsys):
        # what `strong --stop-below nan` or `inf` wrote before the search
        # rejected those values: the same bar in the config and the payload
        cert = load(strong_cert)
        cert["config"]["stop_below"] = cert["payload"]["config"]["stop_below"] = value
        _rehash(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(bad)]) == 2
        assert capsys.readouterr().out.startswith(
            f"{bad}: malformed (ValueError: stop_below must be a finite number"
        )

    def test_huge_iteration_count_is_capped(self, tmp_path, strong_cert, capsys, monkeypatch):
        import time

        from mubforge import certificates
        from mubforge.analysis import DEFAULT_MAX_ITERATIONS

        seen = []
        search = certificates.strong_unext_search

        def spy(*args, **kwargs):
            seen.append(kwargs["max_iterations"])
            return search(*args, **kwargs)

        monkeypatch.setattr(certificates, "strong_unext_search", spy)
        cert = load(strong_cert)
        cert["payload"]["config"]["max_iterations"] = 10**9
        _rehash(cert)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        start = time.perf_counter()
        code = run(["check", str(big)])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert capsys.readouterr().out == f"{big}: verified\n"
        assert seen == [DEFAULT_MAX_ITERATIONS]


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

    def test_strong_from_certificate_source(self, tmp_path):
        src = tmp_path / "classes.json"
        run(["find-unextendible", "-n", "2", "--choose", "0,1,2", "--output", str(src)])
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

    def test_ks_rejects_extendible_source(self, tmp_path):
        src = tmp_path / "complete.json"
        run(["complete-set", "-n", "2", "--output", str(src)])
        assert run(["ks", str(src)]) == 2

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
            ("strong", []),
            ("eur", {"payload": []}),
            ("strong", None),  # the source is a directory
            ("ks", {"payload": {"kind": "class_set", "class_set": {"n": 2}}}),
            ("strong", {"kind": "class_set", "class_set": {"n": 2, "complete": False}}),
        ],
        ids=["json-array", "payload-array", "directory", "ks-no-classes",
             "strong-no-classes"],
    )
    def test_unreadable_source_is_malformed(self, tmp_path, capsys, command, content):
        source = tmp_path / "source.json"
        if content is None:
            source.mkdir()
        else:
            source.write_text(json.dumps(content), encoding="utf-8")
        assert run([command, str(source)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_strong_from_a_scan_certificate_is_malformed(self, tmp_path, capsys):
        source = tmp_path / "scan.json"
        assert run(["scan", "-n", "4", "--budget", "5", "-o", str(source)]) == 0
        assert run(["strong", str(source), "--starts", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: certificate payload kind 'scan_report' does not carry classes\n"
        )

    def test_eur_on_two_classes_has_no_extra_class(self, tmp_path, capsys):
        # two classes of a complete set support no further class in their union
        source = tmp_path / "complete.json"
        assert run(["complete-set", "-n", "2", "-o", str(source)]) == 0
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

    def test_eur_single_report_respects_output_path(self, tmp_path):
        # a triple taken from a complete set admits exactly one extra class,
        # so exactly one certificate lands at the requested path
        src = tmp_path / "complete.json"
        run(["complete-set", "-n", "2", "--output", str(src)])
        cert = load(src)
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
    good = tmp_path / "w.json"
    assert run(["find-unextendible", "-n", "3", "--choose", "0,2,4,6,8", "-o", str(good)]) == 0
    problems = _refuted_then_verified(tmp_path, capsys, good, mutate)
    assert len(problems) == 1 and problems[0].startswith(f"  - {where} does not reproduce: ")


def test_strong_hash_does_not_depend_on_the_environment(tmp_path, monkeypatch):
    # the same strong run must hash the same on every machine; a worker
    # count taken from the environment or the core count must not reach
    # the hashed config
    hashes = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MUBFORGE_THREADS", threads)
        out = tmp_path / f"strong-{threads}.json"
        assert run([
            "strong", "paper-d4-strong", "--starts", "40", "--seed", "3",
            "--output", str(out),
        ]) == 0
        hashes.append(load(out)["payload_sha256"])
    assert hashes[0] == hashes[1]


def _python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    import os
    import subprocess
    import sys

    import mubforge

    env = dict(os.environ)
    src = str(Path(mubforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # importing the CLI for a combinatorial command must not pay for scipy
    assert _python("import sys, mubforge.cli; print('scipy' in sys.modules)") == "False"


def test_readme_library_example_runs():
    # the python block under "Library use" runs as written and prints what
    # its comments say
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    printed = _python(block.split("```", 1)[0]).splitlines()
    assert printed[0] == "('IZ', 'XI', 'XZ')"
    assert printed[-1] == "1.0 True"


def test_strong_search_runs_without_scipy(tmp_path):
    # the multistart is plain numpy: a whole strong run, self-check
    # included, never imports scipy
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
    # every layer module is loaded, so code that patches or traces them
    # finds them all, while numpy waits for the first numeric command
    code = (
        "import sys, mubforge.cli\n"
        f"print(all('mubforge.' + m in sys.modules for m in {LAYERS!r}),"
        " 'numpy' in sys.modules)"
    )
    assert _python(code) == "True False"


def test_census_commands_run_with_numpy_unimportable(tmp_path):
    # the combinatorial commands emit and every output checks, all in one
    # interpreter in which importing numpy raises ImportError
    code = f"""
import glob, os, sys
sys.modules["numpy"] = None
from mubforge.cli import main
os.chdir({str(tmp_path)!r})
codes = [
    main(["complete-set", "-n", "4", "-o", "complete.json"]),
    main(["find-unextendible", "-n", "3", "--all", "-o", "unext"]),
    main(["scan", "-n", "4", "--all", "-o", "scan.json"]),
]
outputs = ["complete.json", "scan.json"] + sorted(glob.glob("unext/*.json"))
codes.append(main(["check"] + outputs))
print("codes", codes)
"""
    out = _python(code).splitlines()
    assert out[-1] == "codes [0, 0, 0, 0]"
    assert sum(line.endswith(": verified") for line in out) == 128


# One certificate of each deterministic payload kind, each re-verified by
# rebuilding its whole payload from the inputs it declares.
DETERMINISTIC_COMMANDS = {
    "class_set": ["complete-set", "-n", "2"],
    "unextendible_set": ["find-unextendible", "-n", "2", "--choose", "0,1,2"],
    "eur_report": ["eur", "paper-d4-weak"],
    "ks_report": ["ks", "paper-d4-weak"],
    "scan_report": ["scan", "-n", "4", "--budget", "64", "--seed", "12"],
}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emitted")
    texts = {}
    for kind, command in DETERMINISTIC_COMMANDS.items():
        path = out / f"{kind}.json"
        assert main(command + ["--output", str(path)]) == 0
        # eur writes one file per extra class; any one will do
        texts[kind] = sorted(out.glob(f"{kind}*.json"))[0].read_text(encoding="utf-8")
    return texts


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


@pytest.fixture(scope="module")
def strong_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("strong") / "strong.json"
    assert main([
        "strong", "paper-d4-strong", "--starts", "20", "--seed", "3", "-o", str(out),
    ]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_strong_gradient_tol_is_pinned(strong_text, how):
    # every optimizer wrote the search's 1e-12, the L-BFGS-B files included
    cert = json.loads(strong_text)
    optimizer = cert["payload"]["config"]
    assert optimizer["gradient_tol"] == 1e-12
    optimizer["gradient_tol"] = MUTATIONS[how](optimizer["gradient_tol"])
    _rehash(cert)
    assert verify_certificate(cert) == ["payload.config.gradient_tol is not 1e-12"]


def _is_label(kind, path, value):
    # fields echoed, not rebuilt: a source that names no built-in set, and
    # the seed find-unextendible records but does not use
    if path == ("config", "source"):
        return isinstance(value, str) and value not in NAMED_CLASS_SETS
    if kind == "unextendible_set" and path == ("config", "seed"):
        return type(value) is int
    return False


MUTATION_PROFILE = settings(
    derandomize=True, max_examples=150, deadline=None, database=None
)


@pytest.mark.parametrize("kind", sorted(DETERMINISTIC_COMMANDS))
@MUTATION_PROFILE
@given(data=st.data())
def test_rehashed_single_field_mutation_never_verifies(emitted, kind, data):
    original = json.loads(emitted[kind])
    cert = json.loads(emitted[kind])
    path = data.draw(st.sampled_from(_hashed_paths(cert)), label="field")
    how = data.draw(st.sampled_from(["delete", *MUTATIONS]), label="mutation")
    node = cert
    for key in path[:-1]:
        node = node[key]
    if how == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = MUTATIONS[how](node[path[-1]])
    assume(cert != original)
    _rehash(cert)
    try:
        problems = verify_certificate(cert)
    except MALFORMED_ERRORS:
        return  # ``check`` answers malformed, exit 2
    if how != "delete" and _is_label(kind, path, node[path[-1]]):
        return
    assert problems, f"{how} at {path} still verifies"
