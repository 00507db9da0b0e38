"""termdepth benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process on one thread drives a closed loop with one client: the next op
starts when the previous one returns.  Ops run in whole cycles (see
``workloads``) until their summed latency reaches ``--seconds``; each op's
output is checked after its latency is taken.  With ``--trace 0`` the run
prints the end-to-end metrics.  With ``--trace 1`` the first half of the
time runs untraced and the second half under ``tracing``'s wrappers, and the
run prints the per-layer metrics.  The last line of stdout is one JSON
object; the lines before it are a human-readable report and a ``run`` record.

Every time the end-to-end metrics report is scaled to a reference host
speed by ``hostspeed``, which samples a fixed calibration loop between ops;
the report lines give the raw figures beside them.  ``setup_s`` is the
median over SETUP_PROBES fresh interpreters of the time to import termdepth
and build the workload's inputs.  METRICS.md lists every metric and the
layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
SETUP_SAMPLES = 8  # host speed samples before and after each set-up


def import_termdepth():
    """Import termdepth from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "termdepth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no termdepth sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    td = importlib.import_module("termdepth")
    if Path(td.__file__).resolve().parent != SRC / "termdepth":
        raise SystemExit(f"perfbench: imported termdepth from {td.__file__}, not {SRC}")
    return td


def timed_setup(workload, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up time, raw and scaled to the reference host speed."""
    host = hostspeed.Calibrator()
    for _ in range(SETUP_SAMPLES):
        host.sample()
    start = time.perf_counter()
    workload.setup(import_termdepth(), seed, workdir)
    end = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        host.sample()
    return end - start, (end - start) * hostspeed.REF_S / host.median()


def probe_setup(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, so imports are cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(workdir),
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


class Phase:
    """Latencies and failures of one stretch of whole cycles, with the host
    speed samples taken between its ops."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.busy = 0.0
        self.host = hostspeed.Calibrator()

    def raw(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def scaled(self) -> list[float]:
        return [self.host.scale(start, end) for start, end in self.spans]

    def ops_per_s(self) -> float:
        return len(self.spans) / sum(self.scaled())


def run_phase(workload, td, inputs, seconds: float, first_cycle: int, phase: Phase,
              untimed=contextlib.nullcontext) -> int:
    """Run whole cycles until the summed op latency reaches ``seconds``;
    return the next cycle index.  Checks run inside ``untimed()``.  A host
    speed sample is taken before an op once ``hostspeed.EVERY_S`` of op time
    has passed since the last one, and once more at the end."""
    clock = time.perf_counter
    k = first_cycle
    since = hostspeed.EVERY_S  # op time since the last host sample
    while k == first_cycle or phase.busy < seconds:
        for op in workload.cycle(td, inputs, k):
            if since >= hostspeed.EVERY_S:
                phase.host.sample()
                since = 0.0
            start = clock()
            try:
                out = op.call()
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, exc
            end = clock()
            phase.spans.append((start, end))
            phase.busy += end - start
            since += end - start
            if error is None:
                try:
                    with untimed():
                        ok = bool(op.check(out))
                except Exception as exc:
                    ok, error = False, exc
            else:
                ok = False
            if not ok:
                if not phase.failed:
                    detail = "".join(traceback.format_exception(error)) if error else "wrong answer"
                    print(f"perfbench: op {op.label} failed: {detail}", file=sys.stderr)
                phase.failed += 1
        k += 1
    phase.host.sample()
    return k


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond
    it, that percentile, and the sample count (the maximum when a run has
    ten samples or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; return the result object the last line prints,
    plus a ``report`` of human-readable lines and a ``run`` record."""
    workload = workloads.WORKLOADS[name]
    setups = [] if trace else [probe_setup(name, seed, workdir / f"probe{i}") for i in range(SETUP_PROBES)]
    td = import_termdepth()
    inputs = workload.setup(td, seed, workdir / "main")
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare(td, inputs)

    untraced = Phase()
    next_cycle = run_phase(workload, td, inputs, seconds / 2 if trace else seconds, 0, untraced)
    phases = [untraced]
    lines = []
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "setup_probes_s": [{"raw": r, "scaled": s} for r, s in setups],
        "calibration_median_s": untraced.host.median(),
        "calibration_ref_s": hostspeed.REF_S,
        **workload.record(inputs),
    }
    if trace:
        import tracing

        tracer = tracing.Tracer(td)
        traced = Phase()
        tracer.install()
        try:
            run_phase(workload, td, inputs, seconds / 2, next_cycle, traced, tracer.paused)
        finally:
            tracer.restore()
        phases.append(traced)
        record["traced_calibration_median_s"] = traced.host.median()
        metrics = tracer.metrics(len(traced.spans), traced.ops_per_s() / untraced.ops_per_s())
        lines += [f"absent layer: {layer}" for layer in tracer.absent]
    else:
        scaled, raw = untraced.scaled(), untraced.raw()
        p50 = statistics.median(scaled)
        tail_s, tail_pct, count = tail(scaled)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "ops_per_s": (untraced.ops_per_s(), "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines += [
            f"op_tail_ms is p{tail_pct:.2f} of {count} op latencies",
            f"raw, unscaled: setup_s {statistics.median(r for r, _ in setups)}"
            f" ops_per_s {count / sum(raw)} op_p50_ms {statistics.median(raw) * 1e3}"
            f" op_tail_ms {tail(raw)[0] * 1e3}",
            f"host speed: calibration median {untraced.host.median() * 1e3} ms over"
            f" {len(untraced.host.durations)} samples, reference {hostspeed.REF_S * 1e3} ms",
        ]
        record.update(op_tail_percentile=tail_pct, op_latency_samples=count)

    attempted = sum(len(p.spans) for p in phases)
    failed = sum(p.failed for p in phases)
    lines.append(f"failed_ratio {failed / attempted} ({failed} of {attempted} ops)")
    return {
        "report": lines,
        "run": record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.probe_setup:
        print(*timed_setup(workload, args.seed, Path(args.probe_setup)))
        return 0

    import_termdepth()  # fail fast, before any probe, when sources are missing
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for line in out["report"]:
        print(line)
    for name, metric in out["result"]["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"run": out["run"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
