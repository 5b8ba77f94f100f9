"""Load benchmark for the async serving layer (``repro.serve``).

One server, two serving disciplines, same trained model and the same
activity-sweep workload (each bundled design requested under many
activity coefficients — the traffic shape of a power-gating sweep,
where concurrent clients probe the same designs):

- **serialized baseline** (``ServeConfig(serialized=True)``): a global
  lock admits one request at a time through the full stack — what a
  naive synchronous wrapper around ``SNS.predict`` serves;
- **micro-batched**: concurrent requests coalesce in the
  :class:`MicroBatchQueue` into single ``BatchPredictor.predict_batch``
  calls, where cross-request path dedup collapses duplicate designs in
  a flush onto one pooled forward pass.

Both run the same model, caches, and worker pool, so the measured gap
is the serving discipline itself, not a weaker baseline.

Asserted: >= 2x requests/sec for micro-batched over serialized under
16 concurrent closed-loop clients, every response a 200, and every
response **bit-identical** to a direct ``SNS.predict`` call with the
same activity map.  Results (req/s, latency percentiles, batch-size
distribution) land in ``BENCH_serve.json`` at the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
from repro.datagen import build_design_dataset
from repro.designs import standard_designs
from repro.serve import (PredictionServer, ServeClient, ServeConfig,
                         ServerThread, run_load)
from repro.synth import Synthesizer

from conftest import run_once

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

NUM_DESIGNS = 20          # bundled designs in the workload
VARIANTS = 16             # activity coefficients swept per design
CLIENTS = 16              # concurrent closed-loop clients
PASSES = 3                # per mode; best pass is the committed number
SPEEDUP_FLOOR = 2.0

SERVE_KW = dict(max_batch=16, max_wait_ms=8.0, workers=4)


@pytest.fixture(scope="module")
def serve_sns():
    """A quickly-trained model with a heavyweight per-design forward.

    600 sampled paths through a 128-wide Circuitformer: enough work per
    request that the serving discipline, not HTTP overhead, is what's
    being measured.  Model quality is irrelevant — both disciplines and
    the bit-identity oracle share the same weights.
    """
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs()
               if e.name in ("gpio16", "conv3x3")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=600, seed=0),
              circuitformer_config=CircuitformerConfig(
                  embedding_size=128, dim_feedforward=256, hidden_layers=1,
                  max_input_size=64),
              training_config=TrainingConfig(circuitformer_epochs=1,
                                             aggregator_epochs=10),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns


def _workload():
    """(bodies, oracle_inputs): an activity sweep over bundled designs.

    Design-major order, so the window of requests in flight at any
    moment covers few distinct designs — the regime micro-batching's
    cross-request dedup exists for.
    """
    entries = [e for e in standard_designs()][:NUM_DESIGNS]
    bodies, inputs = [], []
    for entry in entries:
        for v in range(VARIANTS):
            coeff = round(0.05 + 0.05 * v, 3)
            bodies.append({"design": entry.name,
                           "activity": {"0": coeff}})
            inputs.append((entry.module, {0: coeff}))
    return bodies, inputs


def _run_mode(sns, bodies, serialized: bool):
    """Fresh server, PASSES load runs; returns per-pass dicts + metrics."""
    passes = []
    for _ in range(PASSES):
        server = PredictionServer(ServeConfig(serialized=serialized,
                                              **SERVE_KW))
        server.add_model(sns, "default")
        with ServerThread(server) as handle:
            result = run_load("127.0.0.1", handle.port, bodies,
                              clients=CLIENTS)
            client = ServeClient("127.0.0.1", handle.port)
            _, metrics = client.get("/metrics")
            client.close()
        passes.append({"load": result.as_dict(),
                       "responses": result.responses,
                       "metrics": metrics})
    return passes


def _audit(passes, oracle, bodies):
    """Every response of every pass: 200 and bit-identical to the oracle."""
    for p, one in enumerate(passes):
        bad = [(i, st, doc) for i, st, doc in one["responses"] if st != 200]
        assert not bad, f"pass {p}: non-200 responses: {bad[:5]}"
        for i, _st, doc in one["responses"]:
            expect = oracle[i]
            got = (doc["timing_ps"], doc["area_um2"], doc["power_mw"])
            assert got == expect, (
                f"pass {p} request {i} ({bodies[i]}): served {got} != "
                f"direct SNS.predict {expect}")


def _best(passes):
    return max(passes, key=lambda p: p["load"]["requests_per_second"])


def test_serve_throughput(serve_sns, benchmark):
    sns = serve_sns
    bodies, inputs = _workload()

    # The bit-identity oracle: direct, unserved, uncached predictions.
    oracle = [
        (pred.timing_ps, pred.area_um2, pred.power_mw)
        for pred in (sns.predict(module, activity=activity)
                     for module, activity in inputs)
    ]

    serialized = _run_mode(sns, bodies, serialized=True)
    batched_holder = []
    run_once(benchmark,
             lambda: batched_holder.extend(_run_mode(sns, bodies,
                                                     serialized=False)))
    batched = batched_holder

    _audit(serialized, oracle, bodies)
    _audit(batched, oracle, bodies)

    best_ser = _best(serialized)["load"]
    best_bat = _best(batched)["load"]
    speedup = (best_bat["requests_per_second"]
               / best_ser["requests_per_second"])
    batching = _best(batched)["metrics"]["batching"]

    doc = {
        "workload": {
            "designs": NUM_DESIGNS,
            "activity_variants": VARIANTS,
            "requests": len(bodies),
            "clients": CLIENTS,
            "passes_per_mode": PASSES,
            "config": {k: v for k, v in SERVE_KW.items()},
            "model": {"embedding_size": 128, "dim_feedforward": 256,
                      "max_paths": 600},
        },
        "serialized": {
            "requests_per_second": best_ser["requests_per_second"],
            "latency_ms": best_ser["latency_ms"],
            "all_rps": [p["load"]["requests_per_second"]
                        for p in serialized],
        },
        "batched": {
            "requests_per_second": best_bat["requests_per_second"],
            "latency_ms": best_bat["latency_ms"],
            "all_rps": [p["load"]["requests_per_second"] for p in batched],
            "batching": batching,
        },
        "speedup": speedup,
        "bit_identical_responses": len(bodies) * PASSES * 2,
    }
    BENCH_JSON.write_text(json.dumps(doc, indent=2) + "\n")

    print(f"\nserialized: {best_ser['requests_per_second']:.1f} req/s "
          f"(p50 {best_ser['latency_ms']['p50']:.1f} ms, "
          f"p99 {best_ser['latency_ms']['p99']:.1f} ms)")
    print(f"batched:    {best_bat['requests_per_second']:.1f} req/s "
          f"(p50 {best_bat['latency_ms']['p50']:.1f} ms, "
          f"p99 {best_bat['latency_ms']['p99']:.1f} ms, "
          f"mean batch {batching['mean_batch_size']:.1f}, "
          f"max {batching['max_batch_size']})")
    print(f"speedup:    {speedup:.2f}x over the serialized baseline "
          f"({CLIENTS} clients, {len(bodies)} requests)")

    assert batching["mean_batch_size"] > 1.5, (
        "micro-batching never coalesced; the measurement is meaningless: "
        f"{batching}")
    assert speedup >= SPEEDUP_FLOOR, (
        f"micro-batched serving {best_bat['requests_per_second']:.1f} req/s "
        f"is {speedup:.2f}x the serialized baseline "
        f"{best_ser['requests_per_second']:.1f} req/s — floor is "
        f"{SPEEDUP_FLOOR}x")
