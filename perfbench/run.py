"""mubforge benchmark: time CLI workloads end to end, trace them per layer.

    python3 perfbench/run.py --workload census|strong|recheck|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Every command runs in a fresh interpreter, one at a time, with
its outputs written under ``.perfbench_work/``. After an untimed warm-up,
repetitions of the workload's command sequence continue while they fit in
``--seconds`` (at least two, so that repeated runs can be compared for
identical hashed content). Each command's time is its mean over the timed
repetitions; import time is the median over all of them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the warm-up
and one untraced repetition, then traced ones, and prints the per-layer metrics
from the traced ones, plus the tracing overhead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS, Command, Ran

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120

# One thread everywhere, so that timings do not depend on the scheduler's
# luck with a second core. ``--threads`` is never passed: its default
# follows MUBFORGE_THREADS.
PINNED_ENV = {
    "MUBFORGE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "emit_s": "s",
    "check_s": "s",
    "scan_subsets_per_s": "1/s",
    "unext_certs_per_s": "1/s",
    "starts_per_s": "1/s",
    "certs_checked_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}

TRACED_COMMANDS = ("complete-set", "find-unextendible", "scan", "strong", "check")
PAYLOAD_KINDS = (
    "class_set",
    "unextendible_set",
    "search_outcome",
    "eur_report",
    "ks_report",
    "scan_report",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(cmd: Command, report_path: Path, spans_path: Path | None = None) -> Ran:
    argv = [sys.executable, str(HERE / "child.py"), str(report_path)]
    if spans_path is not None:
        argv += ["--trace", str(spans_path)]
    argv += ["--", *cmd.argv]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cmd.cwd, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return Ran(cmd, wall, proc.returncode, proc.stdout, proc.stderr, report)


def run_batch(commands: list[list[str]], cwd: Path) -> None:
    batch = cwd / "commands.batch"
    batch.write_text(json.dumps(commands))
    report = cwd / "batch.report"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(report), "--batch", str(batch)],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    batch.unlink()
    report.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(f"corpus build failed (exit {proc.returncode}): {proc.stderr[-500:]}")


class Rep:
    """One repetition of a workload's command sequence, and its verdicts."""

    def __init__(self, workload, repdir: Path, traced: bool):
        self.repdir = repdir
        repdir.mkdir(parents=True)
        self.ran = []
        for i, cmd in enumerate(workload.commands(repdir)):
            spans = repdir / f"command-{i}.spans" if traced else None
            self.ran.append(run_child(cmd, repdir / f"command-{i}.report", spans))
        self.ops = workload.gate(repdir, self.ran)
        try:
            self.hashes = workload.hashes(repdir)
        except (OSError, ValueError, KeyError, TypeError):
            self.hashes = {}
        self.bytes = workload.output_bytes(repdir)

    def imports(self) -> list[float]:
        return [r.report["import_s"] for r in self.ran if r.report]

    def peak_rss_mb(self) -> float:
        return max((r.report["maxrss_kb"] for r in self.ran if r.report), default=0) / 1024

    def trace(self) -> dict:
        """Per-name span aggregate summed over this repetition's commands."""
        total: dict[str, dict] = {}
        for r in self.ran:
            for name, rec in (r.report or {}).get("trace", {}).items():
                acc = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "counts": {}})
                for key in ("calls", "total_s", "self_s"):
                    acc[key] += rec[key]
                for key, value in rec["counts"].items():
                    acc["counts"][key] = acc["counts"].get(key, 0) + value
        return total


def check_determinism(reps: list[Rep]) -> None:
    """Mark an operation failed when its hashed content differs between reps."""
    first = reps[0].hashes
    for rep in reps[1:]:
        for i, (op, error) in enumerate(rep.ops):
            if error is None and rep.hashes.get(op) != first.get(op):
                rep.ops[i] = (op, f"{op}: payload_sha256 differs from the first repetition")


def median(values):
    return statistics.median(values) if values else 0.0


def mean_walls(reps: list[Rep]) -> dict[str, float]:
    """Command label -> its mean wall time over the repetitions.

    On a shared host the machine's speed moves by up to half in spells that
    last from seconds to about a minute, as long as a run. The mean over
    every repetition of a run averages over those spells; from run to run it
    varied less than the median or the fastest repetition did.
    """
    return {r.cmd.label: statistics.fmean(rep.ran[i].wall_s for rep in reps)
            for i, r in enumerate(reps[0].ran)}


def end_to_end(workload, reps: list[Rep]) -> dict[str, float]:
    wall = mean_walls(reps)
    commands = reps[0].ran

    def role_s(role):
        return sum(wall[r.cmd.label] for r in commands if r.cmd.role == role)

    metrics = {
        "wall_s": sum(wall.values()),
        "setup_s": median([t for r in reps for t in r.imports()]),
        "check_s": role_s("check"),
        "peak_rss_mb": max(r.peak_rss_mb() for r in reps),
    }
    if any(r.cmd.role == "emit" for r in commands):
        metrics["emit_s"] = role_s("emit")
    metrics.update(workload.rates(wall))
    return metrics


def layer_metrics(traced: list[Rep], untraced: list[Rep], mishandled: int) -> dict[str, float]:
    """Per-layer metrics: medians of times, and counts, over traced reps."""
    per_rep = [_layer_metrics_of(rep) for rep in traced]
    out = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        out[name] = values[0] if _is_count(name) else median(values)
    out["cli.check.malformed_mishandled"] = mishandled
    out["trace.overhead_s"] = (sum(mean_walls(traced).values())
                               - sum(mean_walls(untraced).values()))
    return out


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in ("analysis.starts", "certificates.bytes_written")


def _layer_metrics_of(rep: Rep) -> dict[str, float]:
    agg = rep.trace()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        members = [rec for name, rec in agg.items() if name.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(rec["calls"] for rec in members)
        m[f"{layer}.self_s"] = sum(rec["self_s"] for rec in members)
    for fn in ("search.pauli_index", "search.all_maximal_classes",
               "classes.canonical_complete_set", "analysis.eur_check",
               "analysis.ks_alternate_partition"):
        m[f"{fn}.total_s"] = get(fn, "total_s")
    for fn in ("search.classes_within_mask", "search.count_classes_within",
               "search.enumerate_classes_in", "classes.class_from_generators",
               "bases.eigenbasis"):
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.self_s"] = get(fn, "self_s")
    for fn in ("classes.classes_from_json", "unextendible.extendibility_check",
               "unextendible.extra_classes_within_union",
               "unextendible.build_unextendible_set", "certificates.make_certificate",
               "certificates.verify_certificate"):
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.total_s"] = get(fn, "total_s")
    for fn in ("unextendible.conjecture_scan", "analysis.strong_unext_search"):
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.total_s"] = get(fn, "total_s")
        m[f"{fn}.self_s"] = get(fn, "self_s")
    subsets = agg.get("unextendible.conjecture_scan", {}).get("counts", {}).get("subsets", 0)
    m["unextendible.scan.us_per_subset"] = (
        1e6 * get("unextendible.conjecture_scan", "total_s") / subsets if subsets else 0.0
    )
    m["bases.unbiasedness_deviation.calls"] = get("bases.unbiasedness_deviation", "calls")

    objective = agg.get("analysis.objective", {"calls": 0, "self_s": 0.0})
    search_counts = agg.get("analysis.strong_unext_search", {}).get("counts", {})
    starts = search_counts.get("starts", 0)
    m["analysis.objective.calls"] = objective["calls"]
    m["analysis.objective.self_s"] = objective["self_s"]
    m["analysis.objective.us_per_call"] = (
        1e6 * objective["self_s"] / objective["calls"] if objective["calls"] else 0.0
    )
    m["analysis.starts"] = starts
    m["analysis.evals_per_start"] = objective["calls"] / starts if starts else 0.0
    m["analysis.converged_ratio"] = search_counts.get("converged", 0) / starts if starts else 0.0

    for kind in PAYLOAD_KINDS:
        name = f"certificates.verify_payload.{kind}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.total_s"] = get(name, "total_s")
    m["certificates.bytes_written"] = rep.bytes

    m["cli.import_s"] = median(rep.imports())
    for command in TRACED_COMMANDS:
        m[f"cli.{command}.total_s"] = get(f"cli.{command}", "total_s")
    return m


def machine_record() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "env": PINNED_ENV,
    }


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Run one workload; return its result object and print what it measured."""
    workdir = WORK / f"{workload.name}-{workload.seed}"
    workdir.mkdir(parents=True)
    workload.setup(workdir, run_batch)

    start = time.perf_counter()
    # The first repetition warms the page cache: its imports ran about 5%
    # slower than later ones. It is gated but not timed. Then untraced:
    # timed repetitions, at least two. Traced: one untraced repetition for
    # the overhead, then traced ones, at least two. Past the minimum, a
    # repetition starts only if one as long as the last would end within
    # ``seconds``, so that a run does not overrun its time.
    warmup = Rep(workload, workdir / "warmup", False)
    untraced: list[Rep] = []
    traced: list[Rep] = []
    while True:
        rep_dir = workdir / f"rep{len(untraced) + len(traced)}"
        rep_start = time.perf_counter()
        if trace and untraced:
            traced.append(Rep(workload, rep_dir, True))
        else:
            untraced.append(Rep(workload, rep_dir, False))
        now = time.perf_counter()
        if (len(traced if trace else untraced) >= 2
                and now + (now - rep_start) - start > seconds):
            break
    reps = [warmup] + untraced + traced
    (workdir / "timings.json").write_text(json.dumps([
        {"warmup": rep is warmup, "traced": rep in traced, "commands": [
            {"label": r.cmd.label, "wall_s": r.wall_s, "rc": r.rc, **(r.report or {})}
            for r in rep.ran]}
        for rep in reps
    ], default=str))
    check_determinism(reps)
    if trace:
        check_counts_repeat(traced)

    ops = [op for rep in reps for op in rep.ops]
    errors = [e for _, e in ops if e]
    attempted, failed = len(ops), len(errors)
    print(f"workload {workload.name} seed {workload.seed}: a warm-up, {len(untraced)} "
          f"untraced and {len(traced)} traced repetitions in "
          f"{time.perf_counter() - start:.1f} s")
    for e in errors[:20]:
        print(f"  FAILED {e}")

    e2e = end_to_end(workload, untraced)
    e2e["fail_ratio"] = failed / attempted
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    probe_failures = workload.probe_failures(
        [run_child(cmd, workdir / f"probe-{i}.report") for i, cmd in enumerate(workload.probes)]
    )
    if workload.probes:
        print(f"  malformed-input probes: {len(workload.probes)}, mishandled by check: "
              f"{len(probe_failures)} (known defects, reported but not gated)")
        for f in probe_failures:
            print(f"    {f}")
    metrics = e2e
    if trace:
        metrics = layer_metrics(traced, untraced, len(probe_failures))
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {layer_unit(name)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def check_counts_repeat(traced: list[Rep]) -> None:
    """Exact counts must repeat across traced repetitions of one workload."""
    first = _layer_metrics_of(traced[0])
    for rep in traced[1:]:
        again = _layer_metrics_of(rep)
        diff = [n for n in first if _is_count(n) and first[n] != again[n]]
        if diff:
            rep.ops.append(("trace counts", f"counts differ between repetitions: {diff[:5]}"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("us_per_call", "us_per_subset")):
        return "us"
    if name == "certificates.bytes_written":
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("evals_per_start"):
        return "evals/start"
    return "count"


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(result: dict, trace: bool) -> dict:
    metrics = {}
    for m in declared_metrics(trace):
        unit = layer_unit(m["name"]) if trace else UNITS[m["name"]]
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": unit}
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": metrics
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mubforge" / "cli.py").is_file():
        print(f"error: no mubforge sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(WORKLOADS[name](args.seed), args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name} could not run: {exc}", file=sys.stderr)
            return 1
    if args.workload == "all":
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in result_line(r, trace)["metrics"].items()},
        }
    else:
        line = result_line(results[args.workload], trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
