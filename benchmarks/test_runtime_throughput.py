"""Throughput of the batched runtime (``repro.runtime.BatchPredictor``).

Measures designs/sec over a 20-design accelerator DSE sweep — the
workload the engine is built for: sibling configurations of the same
parameterizable designs, whose sampled path sets overlap heavily, so
global dedup collapses most of the inference work.  Four measurements:

- serial seed path: one ``sns.predict(g, bucketed=False)`` per design
  (each design's paths padded to its longest path);
- serial bucketed: the length-bucketed kernel, still one design at a time;
- batched cold: the engine with an empty prediction cache;
- batched warm: the same engine re-run with every entry cached.

The bench is self-contained (its own quickly-trained model rather than
the session fixtures) because the assertions target the
inference-dominated regime: a paper-scale Circuitformer, where forward
passes — not path sampling — are the cost that batching amortizes.

Results land in ``BENCH_runtime.json`` at the repo root so the perf
trajectory is tracked in-tree.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
from repro.datagen import build_design_dataset
from repro.designs import GEMMUnit, SIMDALU, standard_designs
from repro.experiments import throughput_comparison

from conftest import run_once

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

# A paper-scale Circuitformer (Table 2 sizes, deepened to 4 blocks) —
# big enough that inference dominates sampling, the regime Figure 7 and
# every DSE sweep run in.  One training epoch: throughput does not care
# about model quality.
BENCH_CF = CircuitformerConfig(embedding_size=512, dim_feedforward=2048,
                               hidden_layers=4, max_input_size=64)


def make_sweep_batch():
    """A 20-point accelerator DSE sweep (GEMM tile shapes, SIMD lanes).

    Sweeping tile and lane counts leaves the datapath *structure* — and
    therefore the sampled path vocabulary — largely unchanged, so the
    batch shares ~90% of its unique paths across designs (sharing ratio
    ~10.6: 170 per-design unique paths collapse to 16 globally).
    """
    batch = []
    for rows, cols in ((2, 2), (2, 4), (4, 2), (4, 4), (4, 8),
                       (8, 4), (8, 8), (2, 8), (8, 2), (6, 4)):
        batch.append(GEMMUnit(rows=rows, cols=cols).elaborate())
    for lanes in (2, 3, 4, 5, 6, 8, 10, 12, 16, 24):
        batch.append(SIMDALU(lanes=lanes).elaborate())
    return batch


@pytest.fixture(scope="module")
def bench_sns():
    from repro.synth import Synthesizer

    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs() if e.name in ("gpio16", "conv3x3")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=150, seed=0),
              circuitformer_config=BENCH_CF,
              training_config=TrainingConfig(circuitformer_epochs=1,
                                             aggregator_epochs=20),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns


def test_runtime_throughput(benchmark, bench_sns):
    batch = make_sweep_batch()
    assert len(batch) == 20

    # Warm up both code paths before timing anything: the serial predict
    # (BLAS thread pools, page cache) and a throwaway engine pass (CRC
    # fingerprinting, pooled bucketed kernel, cache machinery).  The
    # first execution of either path pays one-off costs that would skew
    # whichever measurement happens to run first.
    from repro.runtime import BatchPredictor

    bench_sns.predict(batch[0])
    BatchPredictor(bench_sns).predict_batch(batch[:3])

    report = run_once(benchmark, lambda: throughput_comparison(bench_sns, batch))
    d = report.as_dict()

    print("\nBatched-runtime throughput (20-design accelerator sweep):")
    for key, dps in d["designs_per_second"].items():
        print(f"  {key:18s} {dps:8.1f} designs/sec")
    print(f"  cold-cache speedup vs serial seed path: "
          f"{report.batched_speedup:.2f}x")
    print(f"  warm-cache speedup vs serial seed path: "
          f"{report.warm_speedup:.2f}x")
    print(f"  cache: {d['cache_stats']}")
    print(f"  engine bit-identical to serial predict: {report.bit_identical}")

    BENCH_JSON.write_text(json.dumps(d, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    # The engine's predictions must match the serial path exactly —
    # throughput means nothing if the numbers drift.  (The comparator is
    # the canonical serial `sns.predict`; the unbucketed seed kernel
    # differs from any batched kernel at the BLAS-rounding level, which
    # is why `bucketed=False` is kept for baselining, not equivalence.)
    assert report.bit_identical

    # Cold cache: global dedup + bucketed pooled batching must deliver
    # >= 3x designs/sec over the one-design-at-a-time seed path.
    assert report.batched_speedup >= 3.0, d

    # Warm cache: fingerprint + lookup only, >= 20x.
    assert report.warm_speedup >= 20.0, d

    # Every design was a miss cold and a hit on each warm pass (the
    # warm measurement is best-of-2, so 40 hits total).
    assert d["cache_stats"]["misses"] == 20
    assert d["cache_stats"]["memory_hits"] == 40


def test_runtime_cache_cross_process_tier(bench_sns, tmp_path):
    """The disk tier makes a re-run of an overlapping sweep near-free."""
    from repro.runtime import BatchPredictor
    from repro.store import ArtifactStore, open_backend

    batch = make_sweep_batch()[:6]
    disk = tmp_path / "predcache"
    first = BatchPredictor(bench_sns,
                           store=ArtifactStore(backend=open_backend(disk)))
    cold = first.predict_batch(batch)

    # Fresh process-level store, same disk tier: all disk hits.
    store = ArtifactStore(backend=open_backend(disk))
    second = BatchPredictor(bench_sns, store=store)
    t0 = time.perf_counter()
    warm = second.predict_batch(batch)
    disk_seconds = time.perf_counter() - t0

    assert store.counters(("prediction",))["persistent_hits"] == len(batch)
    assert all(a.timing_ps == b.timing_ps and a.area_um2 == b.area_um2
               for a, b in zip(cold, warm))
    print(f"\ndisk-tier re-run: {len(batch)} designs in {disk_seconds:.3f}s "
          f"({len(batch) / disk_seconds:.0f} designs/sec)")
