"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def quick(monkeypatch):
    # one set-up probe is enough to exercise the path
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _bindings(td):
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "termdepth" or name.startswith("termdepth.")
        for attr, value in vars(mod).items()
        if inspect.isfunction(value)
    }


def test_wrappers_rebind_everywhere_and_restore_every_name():
    td = run.import_termdepth()
    tracer = tracing.Tracer(td)
    before = _bindings(td)
    tracer.install()
    try:
        during = _bindings(td)
        # rebound in the defining module, the package, and every importer
        for key in [("termdepth.terms", "depth"), ("termdepth", "depth"),
                    ("termdepth.verify", "depth"), ("termdepth.hypersub", "superpose"),
                    ("termdepth.verify", "_greedy_shrink"), ("termdepth.cli", "main")]:
            assert during[key] is not before[key], key
        assert tracer.absent == []
    finally:
        tracer.restore()
    assert _bindings(td) == before


def test_printed_metric_names_are_the_benchmark_json_names(quick, tmp_path):
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    plain = run.run_workload("verify-hyp", 3, 0.05, False, tmp_path / "a")
    traced = run.run_workload("verify-hyp", 3, 0.1, True, tmp_path / "b")
    assert set(plain["result"]["metrics"]) == end_to_end
    assert set(traced["result"]["metrics"]) == per_layer
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for out in (plain, traced):
        for name, metric in out["result"]["metrics"].items():
            assert metric["unit"] == units[name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_has_no_failed_ops(quick, tmp_path, name):
    out = run.run_workload(name, 7, 0.05, False, tmp_path)
    result = out["result"]
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "name, function",
    [("shared-dag", "depth"), ("verify-hyp", "naive_occurrence_sum"), ("verify-compose", None)],
)
def test_a_corrupted_reference_answer_fails_ops(quick, tmp_path, monkeypatch, name, function):
    if function is None:
        # verify-compose expects no discrepancies; claim every op found one
        monkeypatch.setattr(
            workloads.VerifyWorkload, "_expected", lambda self, td, kind, cfg, sig, found: found == ["x"]
        )
    else:
        real = getattr(reference, function)
        monkeypatch.setattr(reference, function, lambda *args: real(*args) + 1)
    out = run.run_workload(name, 7, 0.05, False, tmp_path)
    assert out["result"]["failed"] > 0
    assert not out["result"]["correct"]


def test_deep_cli_closed_forms_reject_a_wrong_level_count(quick, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SPINE_LEVELS", 300)
    monkeypatch.setattr(workloads, "spine_text", lambda levels: "f(" * (levels + 1) + "x1" + ",x2)" * (levels + 1))
    out = run.run_workload("deep-cli", 7, 0.05, False, tmp_path)
    assert out["result"]["failed"] == out["result"]["attempted"]


def test_the_untraced_run_never_loads_the_wrappers(tmp_path):
    script = (
        "import sys; from pathlib import Path; import run; run.SETUP_PROBES = 1; "
        f"run.run_workload('verify-hyp', 1, 0.05, False, Path({str(tmp_path)!r})); "
        "print('tracing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT / "perfbench",
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_tail_keeps_ten_samples_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, percentile, count = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert (percentile, count) == (90.0, 100)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-hyp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_scaled_latency_uses_the_host_samples_around_the_op():
    ref = hostspeed.REF_S
    host = hostspeed.Calibrator()
    host.times = [0.0, 1.0, 1.1, 5.0]
    host.durations = [ref, 2 * ref, 2 * ref, ref]
    # samples within the window: the op ran at half the reference speed
    assert host.scale(1.05, 1.15) == pytest.approx(0.05)
    # none within it: the last sample before and the first after count
    assert host.scale(3.0, 3.1) == pytest.approx(0.1 / 1.5)
