"""Self-test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/selftest -q

Run from the repository root: the tiny run imports mubforge from ``src/``.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_STARTS = 30


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced run of a tiny strong workload."""
    out = {}
    for trace in (False, True):
        run.WORK = tmp_path_factory.mktemp("work")
        out[trace] = run.run_workload(wl.Strong(seed=3, starts=TINY_STARTS), 0, trace)
    return out


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_reported_with_its_unit(tiny_runs, trace):
    result = tiny_runs[trace]
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    line = run.result_line(result, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = line["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_every_metric_is_printed_by_name_and_unit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_workload(wl.Strong(seed=4, starts=TINY_STARTS), 0, False)
    printed = capsys.readouterr().out
    for name, value in result["metrics"].items():
        assert f"  {name} = {value:.6g} {run.UNITS[name]}" in printed
    for m in SPEC["end_to_end"]:
        assert f"  {m['name']} = " in printed


def test_end_to_end_metrics_are_declared_once_with_bounds():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _frozen_scan_certificate():
    return {
        "verified": True,
        "payload": {
            "kind": "scan_report",
            "subsets_scanned": wl.SCAN_SUBSETS,
            "exhaustive": True,
            "within_union_distribution": dict(wl.SCAN_WITHIN_UNION),
            "spanning_distribution": dict(wl.SCAN_SPANNING),
            "swap_passes": wl.SCAN_SWAP_PASSES,
            "swap_failures": [],
        },
    }


def test_gate_accepts_the_frozen_scan_distribution():
    assert wl.scan_errors(_frozen_scan_certificate()) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("within_union_distribution", {"0": 2041, "1": 12239, "2": 8160, "3": 510, "4": 1360}),
        ("spanning_distribution", {"0": 22441, "1": 1869}),
        ("swap_passes", 1869),
    ],
)
def test_gate_rejects_a_wrong_scan_distribution(field, value):
    data = _frozen_scan_certificate()
    data["payload"][field] = value
    assert wl.scan_errors(data)


def _ran(stdout, rc):
    cmd = wl.Command("check corpus", ["check"], "check", Path("."), expect_rc=1)
    return wl.Ran(cmd, 0.1, rc, stdout, "", {"import_s": 0.1, "maxrss_kb": 1})


def test_gate_rejects_a_wrong_verdict():
    expected = {"a.json": "verified", "b.json": "REFUTED"}
    good = wl.check_errors(_ran("a.json: verified\nb.json: REFUTED\n  - x", 1), expected)
    assert all(e is None for e in good.values())
    wrong = wl.check_errors(_ran("a.json: verified\nb.json: verified", 1), expected)
    assert wrong["a.json"] is None and wrong["b.json"]
    missing = wl.check_errors(_ran("a.json: verified", 1), expected)
    assert missing["b.json"]
    bad_exit = wl.check_errors(_ran("a.json: verified\nb.json: REFUTED", 0), expected)
    assert all(bad_exit.values())


def test_self_times_sum_to_the_traced_total():
    tracer = Tracer()

    def leaf():
        sum(range(2000))

    def middle():
        leaf()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(leaf).result()
        leaf()

    def top():
        middle()
        middle()

    leaf = tracer.wrap("toy.leaf", leaf)
    middle = tracer.wrap("toy.middle", middle)
    top = tracer.wrap("toy.top", top)
    top()
    agg = tracer.aggregate()
    assert agg["toy.leaf"]["calls"] == 6
    assert sum(rec["self_s"] for rec in agg.values()) == pytest.approx(
        tracer.root_time(), rel=1e-9
    )
    assert agg["toy.top"]["total_s"] == pytest.approx(tracer.root_time(), rel=1e-9)
    for rec in agg.values():
        assert 0 <= rec["self_s"] <= rec["total_s"] + 1e-12
    worker_spans = [s for s in tracer.spans if s[1] == "toy.leaf"]
    assert all(s[4] is not None for s in worker_spans)


def test_layer_self_times_sum_to_the_command_totals(tiny_runs):
    metrics = tiny_runs[True]["metrics"]
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    command_total = sum(
        metrics[f"cli.{command}.total_s"] for command in run.TRACED_COMMANDS
    )
    assert layer_self == pytest.approx(command_total, rel=1e-6)
    assert metrics["analysis.starts"] > 2 * TINY_STARTS
    assert metrics["analysis.objective.calls"] > metrics["analysis.starts"]
    assert metrics["search.classes_within_mask.calls"] == 0
