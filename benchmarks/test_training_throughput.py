"""Training throughput: the bucketed engine vs the reference loop.

Trains a Table 2-scale Circuitformer on a synthetic mixed-length
Circuit Path Dataset (the length profile real designs produce: ~70%
short combinational hops, a 10% long tail) two ways:

- **baseline**: the seed loop ``train_circuitformer_reference`` from the
  test oracle ``tests/oracles/training.py`` — every batch padded to the
  longest record, allocate-per-step ``ReferenceAdam``, autograd graph
  kept until garbage collection;
- **engine**: :class:`repro.runtime.TrainingEngine` with length-bucketed
  minibatching (``TrainingConfig(bucketed=True)``; the reference loop
  ignores the flag), fused in-place optimizer steps (clipping folded in),
  graph-freeing backward, and epoch-persistent bucket encodings.

A second, smaller pass runs each loop under ``tracemalloc`` to compare
peak allocation.  Results land in ``BENCH_training.json`` at the repo
root so the perf trajectory is tracked in-tree; the test asserts the
engine's >=2x steps/sec floor.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import Circuitformer, CircuitformerConfig, TrainingConfig
from repro.datagen.dataset import PathRecord
from repro.graphir import Vocabulary
from repro.runtime import TrainingEngine

from conftest import run_once

ROOT = Path(__file__).resolve().parent.parent
# ``pytest benchmarks/...`` puts only this directory on sys.path; the
# reference loop is a test oracle under the repository root.
sys.path.insert(0, str(ROOT))
from tests.oracles.training import train_circuitformer_reference  # noqa: E402

BENCH_JSON = ROOT / "BENCH_training.json"

# Table 2 widths; max input bounded to the synthetic dataset's long tail.
BENCH_CF = CircuitformerConfig(max_input_size=192)
NUM_RECORDS = 256
CONFIG = TrainingConfig(circuitformer_epochs=1, circuitformer_batch=32, seed=0,
                        bucketed=True)
MEM_RECORDS = 96  # smaller pass: tracemalloc multiplies runtime


def make_records(n: int, seed: int = 42) -> list[PathRecord]:
    """Mixed-length records: 70% 3-12 tokens, 20% medium, 10% up to ~160."""
    rng = np.random.default_rng(seed)
    tokens = list(Vocabulary.standard().tokens)[:16]
    records = []
    for _ in range(n):
        r = rng.random()
        if r < 0.7:
            length = int(rng.integers(3, 12))
        elif r < 0.9:
            length = int(rng.integers(12, 48))
        else:
            length = int(rng.integers(48, 160))
        seq = tuple(tokens[int(j)] for j in rng.integers(0, len(tokens), length))
        records.append(PathRecord(
            tokens=seq,
            timing_ps=float(rng.random() * 100 + 10),
            area_um2=float(rng.random() * 50 + 1),
            power_mw=float(rng.random() * 5 + 0.1)))
    return records


def _time_baseline(records):
    model = Circuitformer(BENCH_CF, seed=0)
    start = time.perf_counter()
    history = train_circuitformer_reference(model, records, CONFIG)
    elapsed = time.perf_counter() - start
    n_train = len(records) - max(1, int(round(CONFIG.validation_fraction
                                              * len(records))))
    steps = CONFIG.circuitformer_epochs * \
        -(-n_train // CONFIG.circuitformer_batch)
    return {"seconds": elapsed, "steps": steps,
            "steps_per_sec": steps / elapsed,
            "final_train_loss": history[-1].train_loss}


def _time_engine(records):
    engine = TrainingEngine()
    model = Circuitformer(BENCH_CF, seed=0)
    start = time.perf_counter()
    with obs.record() as recorder:
        history = engine.train_circuitformer(model, records, CONFIG)
    elapsed = time.perf_counter() - start
    phases = recorder.as_dict()["spans"]["trainer.circuitformer"]["children"]
    steps = recorder.counters["trainer.circuitformer.steps"]
    buckets = "trainer.bucket_rows."
    return {"seconds": elapsed, "steps": steps,
            "steps_per_sec": steps / elapsed,
            "final_train_loss": history[-1].train_loss,
            "phase_seconds": {name.removeprefix("trainer."): phase["seconds"]
                              for name, phase in phases.items()},
            "bucket_rows": {name.removeprefix(buckets): rows
                            for name, rows in recorder.counters.items()
                            if name.startswith(buckets)}}


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def test_training_throughput(benchmark):
    records = make_records(NUM_RECORDS)

    baseline = _time_baseline(records)
    engine = run_once(benchmark, lambda: _time_engine(records))
    speedup = engine["steps_per_sec"] / baseline["steps_per_sec"]

    mem_records = make_records(MEM_RECORDS, seed=7)
    baseline_peak = _peak_alloc_mb(
        lambda: train_circuitformer_reference(
            Circuitformer(BENCH_CF, seed=0), mem_records, CONFIG))
    engine_peak = _peak_alloc_mb(
        lambda: TrainingEngine().train_circuitformer(
            Circuitformer(BENCH_CF, seed=0), mem_records, CONFIG))

    result = {
        "num_records": NUM_RECORDS,
        "epochs": CONFIG.circuitformer_epochs,
        "batch_size": CONFIG.circuitformer_batch,
        "baseline": baseline,
        "engine": engine,
        "steps_per_sec_speedup": speedup,
        "peak_alloc_mb": {
            "num_records": MEM_RECORDS,
            "baseline": baseline_peak,
            "engine": engine_peak,
            "ratio": baseline_peak / engine_peak if engine_peak else None,
        },
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    assert np.isfinite(engine["final_train_loss"])
    # The tentpole's acceptance floor: bucketing + fused optimizer steps
    # must at least double training steps/sec on mixed-length data.
    assert speedup >= 2.0, f"engine speedup {speedup:.2f}x below the 2x floor"
    assert engine_peak < baseline_peak
