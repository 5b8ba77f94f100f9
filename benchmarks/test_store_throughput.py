"""Throughput of the shared artifact store's cross-process tier.

The store's reason to exist is that work one process does is warm for
every other process mounting the same backend.  Two measurements:

- **cross-process warm replay**: a *subprocess* sweeps a batch of
  accelerator configurations against an empty persistent backend; this
  process then mounts the same backend cold (no object or memory tier)
  and replays the sweep.  Replay must be >= 5x faster than computing
  the predictions, and bit-identical to direct ``sns.predict`` — a
  warm cache that drifts is worse than no cache.  Both backends
  (directory and SQLite) are measured.
- **1k-entry batched scan**: ``get_many`` over 1000 keys.  The SQLite
  backend answers in a few chunked ``IN`` selects where the directory
  backend pays one file open per key — the fast path for warm DSE
  scans.

Results land in ``BENCH_store.json`` at the repo root so the perf
trajectory is tracked in-tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (SNS, CircuitformerConfig, PathSampler, TrainingConfig,
                        save_sns)
from repro.datagen import build_design_dataset
from repro.designs import GEMMUnit, SIMDALU, standard_designs
from repro.runtime import BatchPredictor, FrontendCache
from repro.store import ArtifactStore, DirectoryBackend, SQLiteBackend, \
    open_backend

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_store.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

BENCH_CF = CircuitformerConfig(embedding_size=64, dim_feedforward=128,
                               max_input_size=64)


def make_sweep_batch():
    """A 10-point accelerator sweep (GEMM tile shapes, SIMD lanes)."""
    batch = [GEMMUnit(rows=r, cols=c).elaborate()
             for r, c in ((2, 2), (2, 4), (4, 2), (4, 4), (4, 8), (8, 4))]
    batch += [SIMDALU(lanes=n).elaborate() for n in (2, 4, 8, 16)]
    return batch


@pytest.fixture(scope="module")
def bench_sns():
    from repro.synth import Synthesizer

    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs()
               if e.name in ("gpio16", "conv3x3")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=100, seed=0),
              circuitformer_config=BENCH_CF,
              training_config=TrainingConfig(circuitformer_epochs=1,
                                             aggregator_epochs=20),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns


WARMER = r"""
import sys
from repro.core import load_sns
from repro.runtime import BatchPredictor, FrontendCache
from repro.store import ArtifactStore, open_backend

sys.path.insert(0, sys.argv[3])
from test_store_throughput import make_sweep_batch

sns = load_sns(sys.argv[1])
store = ArtifactStore(backend=open_backend(sys.argv[2]))
engine = BatchPredictor(sns, store=store, frontend_cache=FrontendCache(store))
engine.predict_batch(make_sweep_batch())
store.close()
"""


def _engine(sns, backend) -> BatchPredictor:
    store = ArtifactStore(backend=backend)
    return BatchPredictor(sns, store=store, frontend_cache=FrontendCache(store))


def _measure_backend(sns, model_path, spec) -> dict:
    batch = make_sweep_batch()

    # Direct computation: the oracle the warm replay must match, run
    # first so process-level one-off costs (BLAS pools, CRC tables) are
    # paid before anything is timed.
    direct = [sns.predict(g) for g in batch]

    # Cold: empty backend, every prediction computed in-process.
    t0 = time.perf_counter()
    cold_engine = _engine(sns, open_backend(spec))
    cold = cold_engine.predict_batch(batch)
    cold_seconds = time.perf_counter() - t0
    cold_engine.store.clear(memory_only=False)

    # A different process sweeps the same batch into the backend...
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run(
        [sys.executable, "-c", WARMER, str(model_path), str(spec),
         str(Path(__file__).resolve().parent)],
        env=env, check=True, capture_output=True, timeout=600)

    # ...and this process replays it through the persistent tier only
    # (a fresh store: no live objects, no memory payloads).
    t0 = time.perf_counter()
    warm_engine = _engine(sns, open_backend(spec))
    warm = warm_engine.predict_batch(batch)
    warm_seconds = time.perf_counter() - t0

    stats = warm_engine.store.counters(("prediction",))
    assert stats["persistent_hits"] == len(batch), stats
    bit_identical = all(
        w.timing_ps == d.timing_ps and w.area_um2 == d.area_um2
        and w.power_mw == d.power_mw for w, d in zip(warm, direct))
    assert all(c.timing_ps == d.timing_ps for c, d in zip(cold, direct))
    return {
        "designs": len(batch),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "warm_designs_per_second": len(batch) / warm_seconds,
        "bit_identical": bit_identical,
    }


def test_store_cross_process_replay(bench_sns, tmp_path):
    model_path = tmp_path / "model.npz"
    save_sns(bench_sns, model_path)

    results = {}
    for label, spec in (("directory", tmp_path / "store-dir"),
                        ("sqlite", tmp_path / "store.sqlite")):
        results[label] = _measure_backend(bench_sns, model_path, spec)
        print(f"\n{label}: cold {results[label]['cold_seconds']:.3f}s, "
              f"warm replay {results[label]['warm_seconds']:.3f}s "
              f"({results[label]['warm_speedup']:.1f}x, "
              f"bit_identical={results[label]['bit_identical']})")

    doc = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    doc["cross_process_replay"] = results
    BENCH_JSON.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    for label, r in results.items():
        # Warm replay must be bit-identical to direct computation and
        # >= 5x faster on both backends.
        assert r["bit_identical"], label
        assert r["warm_speedup"] >= 5.0, (label, r)


def test_store_batched_scan(tmp_path):
    n = 1000
    items = {f"{i:064x}": {"timing_ps": float(i), "pad": "x" * 200}
             for i in range(n)}
    sqlite = SQLiteBackend(tmp_path / "scan.sqlite")
    directory = DirectoryBackend(tmp_path / "scan-dir")
    sqlite.put_many("prediction", items)
    directory.put_many("prediction", items)
    keys = list(items)

    t0 = time.perf_counter()
    found = sqlite.get_many("prediction", keys)
    sqlite_seconds = time.perf_counter() - t0
    assert found == items

    t0 = time.perf_counter()
    found = {k: v for k in keys
             if (v := directory.get("prediction", k)) is not None}
    directory_seconds = time.perf_counter() - t0
    assert found == items

    result = {
        "entries": n,
        "sqlite_batched_seconds": sqlite_seconds,
        "directory_per_key_seconds": directory_seconds,
        "sqlite_advantage": directory_seconds / sqlite_seconds,
    }
    print(f"\n1k-entry warm scan: sqlite get_many {sqlite_seconds * 1e3:.1f}ms "
          f"vs directory per-key {directory_seconds * 1e3:.1f}ms "
          f"({result['sqlite_advantage']:.1f}x)")

    doc = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    doc["batched_scan"] = result
    BENCH_JSON.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    # One round trip must beat a thousand file opens.
    assert result["sqlite_advantage"] >= 1.5, result
