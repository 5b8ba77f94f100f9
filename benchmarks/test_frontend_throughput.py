"""Throughput of the compiled front end (elaborate + compile + sample).

Three pipelines over the full standard registry, compared in
designs/sec with exact path/stats equality asserted before any speed
claim:

- **reference** — the test suite's dict-graph oracle
  (``tests/oracles/graph.py``): each elaborated design rebuilt as a
  dict-of-lists graph, sampled by the per-node DFS walk, and summarized
  by per-node statistics loops;
- **compiled (cold)** — ``GraphBuilder`` elaboration, CSR array
  sampling, vectorized statistics, results stored into a
  :class:`repro.runtime.FrontendCache`;
- **compiled (warm)** — the same designs replayed entirely from the
  cache (compiled graphs + sampled paths).

Results land in ``BENCH_frontend.json`` at the repo root so the perf
trajectory is tracked in-tree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.sampler import PathSampler
from repro.designs import standard_designs
from repro.graphir import Vocabulary
from repro.runtime import FrontendCache, compile_module

from conftest import run_once

ROOT = Path(__file__).resolve().parent.parent
# ``pytest benchmarks/...`` puts only this directory on sys.path; the
# reference pipeline lives with the test suite's oracles.
sys.path.insert(0, str(ROOT))
from tests.oracles import graph as oracle  # noqa: E402

BENCH_JSON = ROOT / "BENCH_frontend.json"

# Production defaults (k=5, max_len=64, max_paths=512) — the regime the
# prediction pipeline actually runs in.
SAMPLER = dict(k=5, max_len=64, max_paths=512, seed=0)


def _frontend_reference(entries, vocab):
    """The dict-graph pipeline: elaborate + dict rebuild + per-node walk
    and statistics loops."""
    sampler = PathSampler(**SAMPLER)
    out = []
    for e in entries:
        graph = oracle.DictGraph(e.module.elaborate())
        paths = oracle.sample_reference(sampler, graph)
        stats = (oracle.stats_vector(graph, vocab),
                 oracle.structural_features(graph),
                 oracle.weighted_features(graph))
        out.append((paths, stats))
    return out


def _frontend_compiled(entries, vocab, cache):
    """The compiled pipeline: build + array sample + vectorized stats."""
    sampler = PathSampler(**SAMPLER)
    out = []
    for e in entries:
        cg = compile_module(e.module, cache=cache)
        paths = cache.sample(cg, sampler)
        stats = (cg.stats_vector(vocab), cg.structural_features(),
                 cg.weighted_features())
        out.append((paths, stats))
    return out


def _equal(ref, new) -> bool:
    for (rp, rs), (np_, ns) in zip(ref, new):
        if [(p.node_ids, p.tokens) for p in rp] \
                != [(p.node_ids, p.tokens) for p in np_]:
            return False
        if any(not np.array_equal(a, b) for a, b in zip(rs, ns)):
            return False
    return True


def measure() -> dict:
    entries = standard_designs()
    vocab = Vocabulary.standard()

    # Warm one design through both pipelines first (vocab singleton,
    # numpy init, import costs) and the per-class source fingerprints
    # (``inspect.getsource``, memoized per Module class for the process
    # lifetime) so neither timed loop pays one-off costs.
    from repro.runtime import fingerprint_frontend_module

    _frontend_reference(entries[:1], vocab)
    _frontend_compiled(entries[:1], vocab, FrontendCache())
    for e in entries:
        fingerprint_frontend_module(e.module)

    start = time.perf_counter()
    ref = _frontend_reference(entries, vocab)
    ref_s = time.perf_counter() - start

    cache = FrontendCache()
    start = time.perf_counter()
    cold = _frontend_compiled(entries, vocab, cache)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = _frontend_compiled(entries, vocab, cache)
    warm_s = time.perf_counter() - start

    return {
        "num_designs": len(entries),
        "sampler": SAMPLER,
        "reference_seconds": ref_s,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "designs_per_second": {
            "reference": len(entries) / ref_s,
            "cold": len(entries) / cold_s,
            "warm": len(entries) / warm_s,
        },
        "cold_speedup": ref_s / cold_s,
        "warm_speedup": ref_s / warm_s,
        "cold_exact": _equal(ref, cold),
        "warm_exact": _equal(ref, warm),
        "cache_stats": cache.store.counters(("graph", "paths")),
    }


def test_frontend_throughput(benchmark):
    d = run_once(benchmark, measure)

    print("\nCompiled front-end throughput (elaborate + compile + sample):")
    print(f"  reference {d['designs_per_second']['reference']:8.1f} designs/s")
    print(f"  cold      {d['designs_per_second']['cold']:8.1f} designs/s "
          f"({d['cold_speedup']:.2f}x)")
    print(f"  warm      {d['designs_per_second']['warm']:8.1f} designs/s "
          f"({d['warm_speedup']:.2f}x)")
    print(f"  exact: cold={d['cold_exact']} warm={d['warm_exact']}")

    BENCH_JSON.write_text(json.dumps(d, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    # Speed means nothing if the front end drifts: paths and statistics
    # must be exactly equal before any floor applies.
    assert d["cold_exact"]
    assert d["warm_exact"]

    # Acceptance floors: >= 2x cold (flat elaboration + array sampling
    # + vectorized stats), >= 5x warm (FrontendCache replay).
    assert d["cold_speedup"] >= 2.0, d
    assert d["warm_speedup"] >= 5.0, d
