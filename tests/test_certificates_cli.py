"""Certificate emission, re-verification, tampering, and the CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mubforge.certificates import verify_certificate
from mubforge.cli import main
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
        from mubforge.certificates import _payload_hash

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
        [_drop_classes, _payload_as_string, _drop_max_iterations, _non_numeric_vector],
        ids=["missing-classes", "payload-string", "missing-max-iterations",
             "non-numeric-vector"],
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


class TestArgumentValidation:
    def test_unsupported_qubit_count_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["complete-set", "-n", "5"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run([])

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


def test_cli_import_does_not_load_scipy():
    # scipy.optimize is only needed by the strong search; importing the CLI
    # for a combinatorial command must not pay for it
    import os
    import subprocess
    import sys

    import mubforge

    env = dict(os.environ)
    src = str(Path(mubforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, mubforge.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
