"""The benchmark's workloads: command sequences, corpus, correctness gate.

Each workload is a list of CLI commands run one at a time, each in a fresh
interpreter, with certificates written to disk. ``gate`` checks every
output and returns one ``(operation, error or None)`` pair per operation.
The workload seed sets the ``strong --seed``, the budgeted-scan sample and
the corpus mutations; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Frozen results that no change to mubforge may alter.
SCAN_SUBSETS = 24310
SCAN_WITHIN_UNION = {"0": 2040, "1": 12240, "2": 8160, "3": 510, "4": 1360}
SCAN_SPANNING = {"0": 22440, "1": 1870}
SCAN_SWAP_PASSES = 1870
N3_CERTIFICATES = 126
N2_CERTIFICATES = 10
STRONG_FLOORS = {"paper-d4-strong": 0.25, "paper-d8-strong": 0.125}
FLOOR_TOL = 1e-9

STRONG_STARTS = 1000
CORPUS_STRONG_STARTS = 40
CORPUS_SCAN_BUDGET = 300
TAMPERED_PER_KIND = 2

VERDICT_LINE = re.compile(r"^(\S.*): (verified|REFUTED|malformed)\b")


@dataclass
class Command:
    label: str
    argv: list[str]
    role: str  # "emit" or "check"
    cwd: Path
    expect_rc: int = 0


@dataclass
class Ran:
    """One finished command: timing from the parent, report from the child."""

    cmd: Command
    wall_s: float
    rc: int
    stdout: str
    stderr: str
    report: dict | None

    def failure(self) -> str | None:
        if self.report is None:
            return f"{self.cmd.label}: no child report (rc {self.rc}): {self.stderr[-300:]}"
        if self.rc != self.cmd.expect_rc:
            return (
                f"{self.cmd.label}: exit {self.rc}, expected {self.cmd.expect_rc}: "
                f"{self.stderr[-300:]}"
            )
        return None


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def parse_verdicts(stdout: str) -> dict[str, str]:
    verdicts = {}
    for line in stdout.splitlines():
        m = VERDICT_LINE.match(line)
        if m:
            verdicts[m.group(1)] = m.group(2)
    return verdicts


def _certificate_errors(data: dict, kind: str) -> list[str]:
    errors = []
    if data.get("verified") is not True:
        errors.append("certificate is not marked verified")
    payload = data.get("payload")
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        errors.append(f"payload kind is not {kind!r}")
    return errors


def _commute(a: str, b: str) -> bool:
    clashes = sum(1 for p, q in zip(a, b) if p != "I" and q != "I" and p != q)
    return clashes % 2 == 0


def complete_set_errors(data: dict, n: int) -> list[str]:
    """Independent check that a class_set certificate is a complete set."""
    errors = _certificate_errors(data, "class_set")
    if errors:
        return errors
    cs = data["payload"]["class_set"]
    d = 1 << n
    classes = [c["elements"] for c in cs["classes"]]
    if cs.get("complete") is not True or len(classes) != d + 1:
        return [f"expected {d + 1} classes flagged complete"]
    seen = [op for c in classes for op in c]
    if len(seen) != d * d - 1 or len(set(seen)) != len(seen):
        errors.append("classes do not partition the nonidentity operators")
    if any(set(op) > set("IXYZ") or len(op) != n or op == "I" * n for op in seen):
        errors.append("class holds a malformed or identity operator")
    for c in classes:
        if len(c) != d - 1 or not all(_commute(a, b) for a in c for b in c):
            errors.append("a class is not a maximal commuting set")
            break
    return errors


def scan_errors(data: dict) -> list[str]:
    errors = _certificate_errors(data, "scan_report")
    if errors:
        return errors
    p = data["payload"]
    want = {
        "subsets_scanned": SCAN_SUBSETS,
        "exhaustive": True,
        "within_union_distribution": SCAN_WITHIN_UNION,
        "spanning_distribution": SCAN_SPANNING,
        "swap_passes": SCAN_SWAP_PASSES,
        "swap_failures": [],
    }
    return [
        f"scan {key} is {p.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if p.get(key) != value
    ]


def strong_errors(data: dict, source: str, starts: int) -> list[str]:
    errors = _certificate_errors(data, "search_outcome")
    if errors:
        return errors
    p = data["payload"]
    floor = STRONG_FLOORS[source]
    if abs(p["min_residual"] - floor) > FLOOR_TOL:
        errors.append(f"{source} floor {p['min_residual']!r}, expected {floor}")
    if p["starts"] != starts:
        errors.append(f"{source} ran {p['starts']} starts, expected {starts}")
    return errors


def check_errors(ran: Ran, expected: dict[str, str]) -> dict[str, str | None]:
    """Per file: None when ``check`` gave the expected verdict, else why not."""
    got = parse_verdicts(ran.stdout)
    rc_problem = ran.failure()
    out = {}
    for path, want in expected.items():
        verdict = got.get(path)
        if verdict != want:
            last = ran.stderr.strip().splitlines()[-1:] or [""]
            out[path] = (f"{path}: verdict {verdict!r}, expected {want!r} "
                         f"(exit {ran.rc}; {last[0][:120]})")
        elif rc_problem:
            out[path] = rc_problem
        else:
            out[path] = None
    return out


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        # ``check`` runs on malformed input that the program is known to
        # mishandle: run once per benchmark run, reported, not gated.
        self.probes: list[Command] = []

    def setup(self, workdir: Path, run_batch) -> None:
        """Prepare untimed inputs; ``run_batch(commands, cwd)`` runs the CLI."""

    def commands(self, repdir: Path) -> list[Command]:
        raise NotImplementedError

    def gate(self, repdir: Path, ran: list[Ran]) -> list[tuple[str, str | None]]:
        ops = []
        for r in ran:
            error = r.failure()
            if error is None:
                try:
                    errors = self.output_errors(repdir, r)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errors = [f"unreadable output: {exc!r}"]
                error = f"{r.cmd.label}: " + "; ".join(errors[:3]) if errors else None
            ops.append((r.cmd.label, error))
        return ops

    def output_errors(self, repdir: Path, r: Ran) -> list[str]:
        """What is wrong with the outputs of one command that exited as expected."""
        raise NotImplementedError

    def hashes(self, repdir: Path) -> dict[str, str]:
        """Operation name -> payload hashes it produced, for determinism."""
        return {}

    def rates(self, wall: dict[str, float]) -> dict[str, float]:
        """Workload-specific end-to-end metrics from command label -> wall time."""
        return {}

    def probe_failures(self, ran: list[Ran]) -> list[str]:
        """The probes, run, whose input ``check`` did not call malformed."""
        failures = []
        for r in ran:
            path = r.cmd.argv[1]
            error = check_errors(r, {path: "malformed"})[path]
            if error:
                failures.append(f"{r.cmd.label}: {error.splitlines()[0][:200]}")
        return failures

    def output_bytes(self, repdir: Path) -> int:
        return sum(p.stat().st_size for p in repdir.rglob("*.json"))


class Census(Workload):
    """The combinatorial emit path: complete set, 126 certificates, scan."""

    name = "census"

    def commands(self, repdir):
        s = str(self.seed)
        return [
            Command("complete-set", ["complete-set", "-n", "4", "--seed", s,
                                     "-o", "complete-n4.json"], "emit", repdir),
            Command("find-unextendible", ["find-unextendible", "-n", "3", "--all",
                                          "--seed", s, "-o", "unext-n3"], "emit", repdir),
            Command("scan", ["scan", "-n", "4", "--all", "--seed", s,
                             "-o", "scan-n4.json"], "emit", repdir),
            Command("check", ["check", "scan-n4.json"], "check", repdir),
        ]

    def output_errors(self, repdir, r):
        label = r.cmd.label
        if label == "complete-set":
            return complete_set_errors(load(repdir / "complete-n4.json"), 4)
        if label == "find-unextendible":
            files = sorted((repdir / "unext-n3").glob("*.json"))
            if len(files) != N3_CERTIFICATES:
                return [f"{len(files)} n = 3 certificates, expected {N3_CERTIFICATES}"]
            return [e for f in files for e in _certificate_errors(load(f), "unextendible_set")]
        if label == "scan":
            return scan_errors(load(repdir / "scan-n4.json"))
        got = parse_verdicts(r.stdout)
        return [] if got == {"scan-n4.json": "verified"} else [f"verdicts {got!r}"]

    def hashes(self, repdir):
        def digest(paths):
            return ",".join(load(p)["payload_sha256"] for p in paths)

        return {
            "complete-set": digest([repdir / "complete-n4.json"]),
            "find-unextendible": digest(sorted((repdir / "unext-n3").glob("*.json"))),
            "scan": digest([repdir / "scan-n4.json"]),
        }

    def rates(self, wall):
        return {
            "scan_subsets_per_s": SCAN_SUBSETS / wall["scan"],
            "unext_certs_per_s": N3_CERTIFICATES / wall["find-unextendible"],
        }


class Strong(Workload):
    """The numeric path: multistart searches at d = 4 and d = 8, then check."""

    name = "strong"

    def __init__(self, seed: int, starts: int = STRONG_STARTS):
        super().__init__(seed)
        self.starts = starts

    def commands(self, repdir):
        cmds = [
            Command(f"strong {source}", ["strong", source, "--starts", str(self.starts),
                                         "--seed", str(self.seed), "-o", f"{source}.json"],
                    "emit", repdir)
            for source in STRONG_FLOORS
        ]
        cmds.append(Command("check", ["check"] + [f"{s}.json" for s in STRONG_FLOORS],
                            "check", repdir))
        return cmds

    def output_errors(self, repdir, r):
        if r.cmd.role == "emit":
            source = r.cmd.argv[1]
            return strong_errors(load(repdir / f"{source}.json"), source, self.starts)
        want = {f"{s}.json": "verified" for s in STRONG_FLOORS}
        got = parse_verdicts(r.stdout)
        return [] if got == want else [f"verdicts {got!r}"]

    def hashes(self, repdir):
        return {
            f"strong {s}": load(repdir / f"{s}.json")["payload_sha256"]
            for s in STRONG_FLOORS
        }

    def rates(self, wall):
        emit = [wall[f"strong {s}"] for s in STRONG_FLOORS]
        return {"starts_per_s": self.starts * len(emit) / sum(emit)}


# Mutations that must make ``check`` answer REFUTED; each changes hashed
# content. Letters are changed only in kinds whose verifier catches a class
# that fails to rebuild.
def _mutate_letters(payload, rng):
    holders = {
        "class_set": lambda p: p["class_set"]["classes"],
        "unextendible_set": lambda p: p["classes"]["classes"] + [p["extra_class"]],
        "eur_report": lambda p: [p["extra_class"]],
        "ks_report": lambda p: p["original"],
    }
    cls = rng.choice(holders[payload["kind"]](payload))
    i = rng.randrange(len(cls["elements"]))
    op = cls["elements"][i]
    q = rng.randrange(len(op))
    letter = rng.choice([c for c in "XYZ" if c != op[q]])
    cls["elements"][i] = op[:q] + letter + op[q + 1:]
    return "letters"


def _mutate_counts(payload, rng):
    kind = payload["kind"]
    if kind == "scan_report":
        dist = payload[rng.choice(["within_union_distribution", "spanning_distribution"])]
        key = rng.choice(sorted(dist))
        dist[key] += rng.choice([-1, 1])
    elif kind == "ks_report":
        payload["minus_identity_count"] += rng.choice([-1, 1])
    else:  # search_outcome
        payload["converged_starts"] += rng.choice([-1, 1])
    return "counts"


def _mutate_residual(payload, rng):
    delta = rng.choice([-1, 1]) * rng.choice([1e-6, 1e-3, 1e-1])
    if payload["kind"] == "search_outcome":
        payload["min_residual"] += delta
    else:  # eur_report
        state = rng.choice(payload["states"])
        state["average"] += delta
    return "residual"


TAMPERING = {
    "class_set": [_mutate_letters],
    "unextendible_set": [_mutate_letters],
    "search_outcome": [_mutate_residual, _mutate_counts],
    "eur_report": [_mutate_residual, _mutate_letters],
    "ks_report": [_mutate_counts, _mutate_letters],
    "scan_report": [_mutate_counts],
}


# Malformed inputs that ``check`` must answer with a ``malformed`` verdict
# and exit 2, each in its own invocation.
def _drop_classes(data):
    del data["payload"]["classes"]


def _payload_string(data):
    data["payload"] = "not a payload"


def _drop_max_iterations(data):
    del data["payload"]["config"]["max_iterations"]


def _non_numeric_vector(data):
    data["payload"]["best_vector"]["re"][0] = "not a number"


MALFORMED = {
    "payload-without-classes": ("search_outcome", _drop_classes),
    "payload-as-string": (None, _payload_string),
    "config-without-max-iterations": ("search_outcome", _drop_max_iterations),
    "non-numeric-vector": ("search_outcome", _non_numeric_vector),
}


class Recheck(Workload):
    """The read path: ``check`` over a seeded corpus of every payload kind."""

    name = "recheck"

    def corpus_commands(self):
        s = str(self.seed)
        cmds = [["complete-set", "-n", str(n), "-o", f"complete-n{n}.json"] for n in (2, 3, 4)]
        cmds += [["find-unextendible", "-n", str(n), "--all", "-o", f"unext-n{n}"] for n in (2, 3)]
        cmds += [["eur", "paper-d4-weak", "-o", "eur.json"],
                 ["ks", "paper-d4-weak", "-o", "ks.json"]]
        cmds += [["strong", src, "--starts", str(CORPUS_STRONG_STARTS), "--seed", s,
                  "-o", f"{src}.json"] for src in STRONG_FLOORS]
        cmds.append(["scan", "-n", "4", "--budget", str(CORPUS_SCAN_BUDGET), "--seed", s,
                     "-o", "scan-budget.json"])
        return cmds

    def setup(self, workdir, run_batch):
        corpus = workdir / "corpus"
        corpus.mkdir(parents=True)
        run_batch(self.corpus_commands(), corpus)
        self.corpus = corpus
        clean = sorted(str(p.relative_to(corpus)) for p in corpus.rglob("*.json"))
        by_kind: dict[str, list[str]] = {}
        for rel in clean:
            data = load(corpus / rel)
            errors = _certificate_errors(data, data["payload"].get("kind"))
            if errors:
                raise RuntimeError(f"corpus file {rel}: {errors}")
            by_kind.setdefault(data["payload"]["kind"], []).append(rel)
        expected_counts = {"class_set": 3, "unextendible_set": N2_CERTIFICATES + N3_CERTIFICATES,
                           "search_outcome": 2, "eur_report": 3, "ks_report": 1, "scan_report": 1}
        counts = {k: len(v) for k, v in by_kind.items()}
        if counts != expected_counts:
            raise RuntimeError(f"corpus holds {counts}, expected {expected_counts}")

        rng = random.Random(self.seed)
        self.expected = {rel: "verified" for rel in clean}
        for kind in sorted(by_kind):
            for k in range(TAMPERED_PER_KIND):
                source = rng.choice(by_kind[kind])
                data = load(corpus / source)
                how = rng.choice(TAMPERING[kind])(data["payload"], rng)
                rel = f"tampered-{kind}-{k}-{how}.json"
                (corpus / rel).write_text(json.dumps(data, indent=2, sort_keys=True))
                self.expected[rel] = "REFUTED"
        for name, (kind, mutate) in MALFORMED.items():
            data = load(corpus / rng.choice(by_kind[kind] if kind else clean))
            mutate(data)
            rel = f"malformed-{name}.json"
            (corpus / rel).write_text(json.dumps(data, indent=2, sort_keys=True))
            self.probes.append(Command(name, ["check", rel], "check", corpus, expect_rc=2))
        self.order = sorted(self.expected)
        rng.shuffle(self.order)

    def commands(self, repdir):
        return [Command("check corpus", ["check"] + self.order, "check", self.corpus,
                        expect_rc=1)]

    def gate(self, repdir, ran):
        outcome = check_errors(ran[0], self.expected)
        return [(f"verdict {path}", error) for path, error in outcome.items()]

    def rates(self, wall):
        return {"certs_checked_per_s": len(self.expected) / wall["check corpus"]}

    def output_bytes(self, repdir):
        return sum(p.stat().st_size for p in self.corpus.rglob("*.json"))


WORKLOADS = {w.name: w for w in (Census, Strong, Recheck)}
