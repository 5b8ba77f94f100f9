#!/usr/bin/env python3
"""End-to-end benchmark of the SNS synthesis predictor.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out F.json]

With ``--workload`` one workload runs in this process: its set-up runs
at least three times (``setup_s`` is the median), then one discarded
warm-up op, then ops for ``--seconds``, then the correctness oracle.
``peak_rss_mb`` is the peak over the warm-up and the timed phase.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run first repeats the untraced phase, then times the same
length again with every layer's entry point wrapped in spans; the
difference between the two phases is the tracing overhead, and the
spans go to ``benchmarks/e2e/out/trace-<workload>-s<seed>.json``.

Without ``--workload`` every workload runs, each in its own subprocess
so set-up time and peak memory are per workload.  ``--out`` writes the
full result (metrics, raw samples, environment) for ``compare.py``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from tracing import Tracer, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Set-up runs at least three times and until it has taken a second in
# all, so a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS, SETUP_MIN_S = 3, 1.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics a run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"e2e: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"e2e: repro was imported from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def environment(seed: int) -> dict:
    import numpy as np

    git = {"sha": "unknown", "dirty": None}
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if head.returncode == 0:
            git = {"sha": head.stdout.strip(),
                   "dirty": bool(status.stdout.strip())}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "git_sha": git["sha"], "git_dirty": git["dirty"],
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "host": socket.gethostname(), "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def reset_peak_rss() -> bool:
    """Start a new peak-memory window (Linux); False where there is none.

    Every set-up but ``train_small``'s trains a model, and training's
    peak is higher than the timed phase's; without the reset the metric
    would read the set-up's peak.  The heap that training freed is
    handed back first: glibc keeps about 700 MB of it resident, which
    would otherwise sit under the peak of every inference workload and
    hide the timed phase's own memory.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):   # not glibc
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset, or since start."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[float], rss: float, phase) -> dict[str, float]:
    latencies = phase.latencies_s
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": phase.items / phase.wall_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setups, state = [], None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    try:
        rss_window = "warm-up and timed phase" if reset_peak_rss() \
            else "whole process"
        workload.warmup(state)
        phase = workload.measure(state, seconds)
        rss = peak_rss_mb()
        metrics = end_to_end(setups, rss, phase)
        layers = None
        if trace:
            layers = traced_phase(workload, state, seconds, seed, phase,
                                  [m["name"] for m in spec["per_layer"]])
        attempted, failed = workload.verify(state, phase)
    finally:
        workload.teardown(state)
    print(f"[e2e] {name}: seed {seed}, {len(phase.latencies_s)} ops "
          f"({workload.op}) in {phase.wall_s:.2f} s; set-up "
          f"{' '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    samples = {"setup_s": setups,
               "latency_ms": [v * 1e3 for v in phase.latencies_s]}
    chosen = layers if trace else metrics
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "schema": "repro-e2e/1", "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "ops": len(phase.latencies_s),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "end_to_end": metrics, "samples": samples,
        "env": {**environment(seed), "peak_rss_window": rss_window},
    }


def traced_phase(workload, state, seconds: float, seed: int, untraced,
                 names) -> dict:
    """Time the workload again with spans on; per-layer metrics per op."""
    if workload.name == "serve_mixed":
        before = serve_counters(state)
        size_before = sqlite_bytes(state["cache"])
    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        phase = workload.measure(state, seconds, tracer.span)
    finally:
        tracer.unpatch()
    ops = len(phase.latencies_s)
    roots = ("serve.request", "serve.serialize") \
        if workload.name == "serve_mixed" else ("bench.op",)
    layers = tracer.metrics(ops, roots, names)
    layers["trace.overhead_pct"] = 100.0 * (
        percentile(phase.latencies_s, 50)
        / percentile(untraced.latencies_s, 50) - 1.0)
    # Layer metrics read from outside the spans; zero where a workload
    # has no such layer.
    extra = dict.fromkeys(("serve.batch_size_mean", "serve.flush_size_frac",
                           "serve.single_flight_hits", "loadgen.late_p99_ms",
                           "loadgen.repeat_frac",
                           "store.persistent_bytes_written", "dse.front_hv"),
                          0.0)
    if workload.name == "serve_mixed":
        after = serve_counters(state)
        batches = after["batches"] - before["batches"]
        extra.update({
            "serve.batch_size_mean": (after["batched"] - before["batched"])
            / batches if batches else 0.0,
            "serve.flush_size_frac": (after["size"] - before["size"])
            / batches if batches else 0.0,
            "serve.single_flight_hits":
                (after["single_flight"] - before["single_flight"]) / ops,
            "loadgen.late_p99_ms":
                percentile(phase.extra["late_s"], 99) * 1e3,
            "loadgen.repeat_frac": phase.extra["repeat_frac"],
            "store.persistent_bytes_written":
                (sqlite_bytes(state["cache"]) - size_before) / ops,
        })
    if workload.name == "dse_boom":
        from workloads import DSE_HV_REFERENCE

        extra["dse.front_hv"] = statistics.median(
            r.hypervolume(("score", "area_um2"), DSE_HV_REFERENCE)
            for _, r in phase.outputs)
    layers.update(extra)
    path = HERE / "out" / f"trace-{workload.name}-s{seed}.json"
    tracer.write(path, origin, {"workload": workload.name, "seed": seed,
                                "ops": ops})
    print(f"[e2e] {workload.name}: {len(tracer.spans)} spans -> {path}; "
          f"coverage {layers['trace.coverage_pct']:.1f}%, overhead "
          f"{layers['trace.overhead_pct']:+.1f}%", file=sys.stderr)
    return layers


def serve_counters(state) -> dict:
    doc = state["server"].metrics.as_dict()
    batching = doc["batching"]
    return {"batches": batching["batches"],
            "batched": batching["batched_requests"],
            "size": batching["flush_reasons"].get("size", 0),
            "single_flight": doc["single_flight_hits"]}


def sqlite_bytes(path: Path) -> int:
    return sum(Path(f"{path}{s}").stat().st_size
               for s in ("", "-wal") if Path(f"{path}{s}").exists())


def print_result(result: dict) -> None:
    samples = result["samples"]
    for name, metric in result["metrics"].items():
        line = f"{name:32s} {metric['value']:14.6g} {metric['unit']}"
        if name == "setup_s":
            line += (f"   (median of {len(samples['setup_s'])}, "
                     f"IQR {iqr(samples['setup_s']):.4g})")
        elif name.startswith("latency_"):
            line += (f"   (n={len(samples['latency_ms'])}, "
                     f"IQR {iqr(samples['latency_ms']):.4g} ms)")
        print(line)
    print(f"ops={result['ops']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={str(result['correct']).lower()}")


def run_all(args, spec: dict) -> int:
    """Each workload in its own subprocess; a summary line at the end."""
    results = []
    for name in (w["name"] for w in spec["workloads"]):
        out = HERE / "out" / f"result-{name}-{os.getpid()}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"[e2e] {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(out.read_text())
        out.unlink()
        print(f"== {name}")
        print_result(result)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}/{k}": v for r in results
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    if args.workload is None:
        return run_all(args, spec)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), spec)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted",
                                               "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
