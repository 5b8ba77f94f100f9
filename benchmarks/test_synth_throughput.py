"""Throughput of the compiled synthesis kernels in ``repro.synth``.

Two measurements against the per-cell reference synthesizer, the test
oracle ``tests/oracles/synth.py``, both asserted bit-identical before
any speed claim:

- **designs/sec** — synthesize the full 41-design standard registry at
  medium effort with the oracle's ``ReferenceSynthesizer`` (dict-walk
  STA, per-cell gate sizing) vs ``Synthesizer`` (compiled netlist,
  vectorized level-sweep STA, incremental gate sizing);
- **paths/sec** — label a deterministic pool of token chains (lengths
  1-12 over the full 79-token vocabulary) with the oracle's per-path
  ``synthesize_path`` vs one ``synthesize_path_batch`` call.

Results land in ``BENCH_synth.json`` at the repo root so the perf
trajectory is tracked in-tree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.designs import standard_designs
from repro.graphir import Vocabulary
from repro.synth import Synthesizer

from conftest import run_once

ROOT = Path(__file__).resolve().parent.parent
# ``pytest benchmarks/...`` puts only this directory on sys.path; the
# per-cell reference synthesizer is a test oracle under the repository root.
sys.path.insert(0, str(ROOT))
from tests.oracles.synth import ReferenceSynthesizer  # noqa: E402

BENCH_JSON = ROOT / "BENCH_synth.json"

NUM_PATHS = 400
MAX_PATH_LEN = 12


def make_path_pool() -> list[list[str]]:
    """A deterministic pool of token chains covering the whole vocabulary."""
    vocab = Vocabulary.standard()
    tokens = list(vocab.tokens)
    rng = np.random.default_rng(0)
    pool = [[t] for t in tokens]  # every single-token chain
    while len(pool) < NUM_PATHS:
        length = int(rng.integers(1, MAX_PATH_LEN + 1))
        pool.append([tokens[i] for i in rng.integers(0, len(tokens), length)])
    return pool


def _results_equal(a, b) -> bool:
    return (a.design == b.design and a.timing_ps == b.timing_ps
            and a.area_um2 == b.area_um2 and a.power_mw == b.power_mw
            and a.num_cells == b.num_cells and a.gate_count == b.gate_count)


def measure() -> dict:
    entries = standard_designs()
    graphs = [(e.name, e.module.elaborate()) for e in entries]
    reference = ReferenceSynthesizer(effort="medium")
    array = Synthesizer(effort="medium")

    # Warm both paths on one design first (library memo tables, vocab
    # singleton, numpy init) so neither timed loop pays one-off costs.
    reference.synthesize(graphs[0][1])
    array.synthesize(graphs[0][1])

    start = time.perf_counter()
    ref_results = [reference.synthesize(g) for _, g in graphs]
    ref_design_s = time.perf_counter() - start

    start = time.perf_counter()
    arr_results = [array.synthesize(g) for _, g in graphs]
    arr_design_s = time.perf_counter() - start

    design_identical = all(_results_equal(r, a)
                           for r, a in zip(ref_results, arr_results))

    pool = make_path_pool()
    start = time.perf_counter()
    ref_paths = [reference.synthesize_path(list(p)) for p in pool]
    ref_path_s = time.perf_counter() - start

    start = time.perf_counter()
    arr_paths = array.synthesize_path_batch(pool)
    arr_path_s = time.perf_counter() - start

    path_identical = all(
        r.tokens == a.tokens and r.timing_ps == a.timing_ps
        and r.area_um2 == a.area_um2 and r.power_mw == a.power_mw
        for r, a in zip(ref_paths, arr_paths))

    return {
        "num_designs": len(graphs),
        "effort": "medium",
        "reference_design_seconds": ref_design_s,
        "array_design_seconds": arr_design_s,
        "designs_per_second": {
            "reference": len(graphs) / ref_design_s,
            "array": len(graphs) / arr_design_s,
        },
        "design_speedup": ref_design_s / arr_design_s,
        "design_bit_identical": design_identical,
        "num_paths": len(pool),
        "reference_path_seconds": ref_path_s,
        "batch_path_seconds": arr_path_s,
        "paths_per_second": {
            "per_path": len(pool) / ref_path_s,
            "batch": len(pool) / arr_path_s,
        },
        "path_speedup": ref_path_s / arr_path_s,
        "path_bit_identical": path_identical,
    }


def test_synth_throughput(benchmark):
    d = run_once(benchmark, measure)

    print("\nSynthesis throughput against the per-cell oracle:")
    print(f"  designs  reference {d['designs_per_second']['reference']:8.1f}/s  "
          f"array {d['designs_per_second']['array']:8.1f}/s  "
          f"({d['design_speedup']:.2f}x)")
    print(f"  paths    per-path  {d['paths_per_second']['per_path']:8.1f}/s  "
          f"batch {d['paths_per_second']['batch']:8.1f}/s  "
          f"({d['path_speedup']:.2f}x)")
    print(f"  bit-identical: designs={d['design_bit_identical']} "
          f"paths={d['path_bit_identical']}")

    BENCH_JSON.write_text(json.dumps(d, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    # Speed means nothing if the labels drift: both comparisons must be
    # exact before any floor applies.
    assert d["design_bit_identical"]
    assert d["path_bit_identical"]

    # Acceptance floors: >= 2x designs/sec on the standard registry at
    # medium effort, >= 2x paths/sec on the batched labeler.
    assert d["design_speedup"] >= 2.0, d
    assert d["path_speedup"] >= 2.0, d
