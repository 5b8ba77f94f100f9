"""Throughput of the streaming budgeted DSE engine (``repro.dse.engine``).

Two measurements on the paper's Figure-8 BOOM space, plus a scale probe:

- exhaustive oracle: ``BoomDSE.run`` over all 2,592 Table-10 configs
  (the legacy enumerate-then-evaluate sweep, cold caches);
- budgeted engine: ``BoomDSE.explore`` over the same space with a
  rung-1 budget of 220 evaluations (<10% of the space) — warmup,
  surrogate-predicted extremes, per-objective hill climbs, gap filling;
- streaming scale probe: the ~1.12M-config ``extended_grid`` swept
  without materializing the product, with the peak numbers of live
  ``BoomCore`` modules and of live compiled graphs (both counted
  through weak references) <= chunk.

Asserted floors: >= 10x wall-clock speedup over the exhaustive sweep
and >= 95% mean hypervolume recovery on the Figure-8 2-objective
frontiers (score-vs-area, score-vs-power), computed with raw CoreMark
scores and a shared reference point.

The bench is self-contained (its own quickly-trained model rather than
the session fixtures): the gates compare the engine against the
exhaustive sweep *on the same predictor*, so model quality cancels out.

Results land in ``BENCH_dse.json`` at the repo root so the perf
trajectory is tracked in-tree.
"""

from __future__ import annotations

import json
import time
import weakref
from pathlib import Path

import pytest

from repro import obs
from repro.boom import BoomConfig, BoomCore, BoomDSE, boom_grid, extended_grid
from repro.boom import dse as boom_dse
from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
from repro.datagen import build_design_dataset
from repro.designs import standard_designs
from repro.dse.pareto import ParetoFront
from repro.synth import Synthesizer

from conftest import run_once

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_dse.json"

PREDICT_BUDGET = 220          # <10% of the 2,592-config Table-10 space
SPEEDUP_FLOOR = 10.0
HV_RECOVERY_FLOOR = 0.95


@pytest.fixture(scope="module")
def bench_sns():
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs()
               if e.name in ("gpio16", "conv3x3")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=60, seed=0),
              circuitformer_config=CircuitformerConfig(
                  embedding_size=64, dim_feedforward=128, hidden_layers=1,
                  max_input_size=64),
              training_config=TrainingConfig(circuitformer_epochs=1,
                                             aggregator_epochs=10),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns


def _raw_scored(dse: BoomDSE, points):
    """(cost_area, cost_power, raw_score) rows, uniform on both sides.

    ``BoomDSE.run`` normalizes scores to its own best, the engine result
    to *its* best — so frontiers are compared on the raw CoreMark score
    recomputed from (config, timing) with the shared perf model.
    """
    return [(p.area_um2, p.power_mw,
             dse.perf_model.score(p.config, 1000.0 / max(p.timing_ps, 1.0)))
            for p in points]


def _hv2(rows, cost_col, ref):
    front = ParetoFront(2, maximize=(False, True))
    for row in rows:
        front.add((row[cost_col], row[2]), None)
    return front.hypervolume(ref)


def _recovery(ex_rows, en_rows, cost_col):
    """Engine / exhaustive hypervolume ratio with a shared reference."""
    costs = [r[cost_col] for r in ex_rows] + [r[cost_col] for r in en_rows]
    scores = [r[2] for r in ex_rows] + [r[2] for r in en_rows]
    ref = (max(costs) * 1.01, min(scores) * 0.99)
    return _hv2(en_rows, cost_col, ref) / _hv2(ex_rows, cost_col, ref)


def test_dse_throughput(benchmark, bench_sns):
    grid = boom_grid()
    assert len(grid) == 2592

    # Budgeted engine, cold caches of its own.
    engine_dse = BoomDSE(predictor=bench_sns)
    t0 = time.perf_counter()
    with obs.record() as recorder:
        res = run_once(benchmark, lambda: engine_dse.explore(
            grid=grid, budget=len(grid), predict_budget=PREDICT_BUDGET,
            chunk=256, block=1024, seed=0))
    engine_wall = time.perf_counter() - t0
    eng = res.engine_result
    stages = recorder.as_dict()["spans"]["dse.explore"]["children"]
    screen_s = stages.get("dse.screen", {}).get("seconds", 0.0)
    evaluate_s = stages["dse.evaluate"]["seconds"]
    configs_per_second = eng.candidates / eng.runtime_s

    # Exhaustive oracle on a separate BoomDSE so neither run can hit the
    # other's prediction cache.
    exhaustive_dse = BoomDSE(predictor=bench_sns)
    t0 = time.perf_counter()
    ex = exhaustive_dse.run([BoomConfig(**p) for p in grid])
    exhaustive_wall = time.perf_counter() - t0

    # Explored-configs/sec: both runs cover the same 2,592-config space;
    # the engine scans all of it and spends real evaluations on 220.
    exhaustive_cps = len(grid) / exhaustive_wall
    speedup = configs_per_second / exhaustive_cps
    ex_rows = _raw_scored(exhaustive_dse, ex.points)
    en_rows = _raw_scored(engine_dse, res.points)
    rec_area = _recovery(ex_rows, en_rows, 0)
    rec_power = _recovery(ex_rows, en_rows, 1)
    mean_rec = (rec_area + rec_power) / 2

    d = {
        "space": len(grid),
        "predict_budget": PREDICT_BUDGET,
        "exhaustive_wall_s": exhaustive_wall,
        "exhaustive_configs_per_second": exhaustive_cps,
        "engine_wall_s": engine_wall,
        "candidates": eng.candidates,
        "evaluated": len(eng.points),
        "engine_profile": recorder.as_dict(),
        "configs_per_second": {
            "rung0_screen": (eng.candidates / screen_s
                             if screen_s > 0 else None),
            "rung1_evaluate": len(eng.points) / evaluate_s,
            "overall": configs_per_second,
        },
        "speedup_vs_exhaustive": speedup,
        "hv_recovery": {"score_vs_area": rec_area,
                        "score_vs_power": rec_power,
                        "mean": mean_rec},
        "front_size": len(eng.front),
    }

    print(f"\nBudgeted DSE on the {len(grid)}-config BOOM space:")
    print(f"  exhaustive  {exhaustive_wall:6.1f} s "
          f"({d['exhaustive_configs_per_second']:7.1f} configs/s)")
    print(f"  engine      {engine_wall:6.1f} s "
          f"({configs_per_second:7.1f} configs/s, "
          f"{len(eng.points)} evaluated)  ->  {speedup:.1f}x")
    print(f"  HV recovery: score-area {100 * rec_area:.1f}%, "
          f"score-power {100 * rec_power:.1f}%, mean {100 * mean_rec:.1f}%")

    BENCH_JSON.write_text(json.dumps(d, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")

    assert speedup >= SPEEDUP_FLOOR
    assert mean_rec >= HV_RECOVERY_FLOOR


def test_million_config_stream(bench_sns, monkeypatch):
    """The ~1.12M-config extended space sweeps without materialization."""
    grid = extended_grid()
    assert len(grid) > 1_000_000

    # Count the sweep's live modules and graphs: every BoomCore the
    # engine builds, and every graph one elaborates, joins a weak set,
    # so each set holds exactly the ones still alive.
    live = weakref.WeakSet()
    peak = [0]
    graphs = weakref.WeakSet()
    graph_peak = [0]

    class CountedCore(BoomCore):
        def __init__(self, config):
            super().__init__(config)
            live.add(self)
            peak[0] = max(peak[0], len(live))

        def elaborate(self):
            graph = super().elaborate()
            graphs.add(graph)
            graph_peak[0] = max(graph_peak[0], len(graphs))
            return graph

    monkeypatch.setattr(boom_dse, "BoomCore", CountedCore)
    dse = BoomDSE(predictor=bench_sns)
    chunk = 32
    res = dse.explore(grid=grid, budget=4096, predict_budget=64,
                      chunk=chunk, block=4096, seed=0)
    eng = res.engine_result

    print(f"\nStreaming sweep of {len(grid)} configs: "
          f"{len(eng.points)} evaluated, {eng.candidates} candidates, "
          f"peak live modules {peak[0]}, peak live graphs {graph_peak[0]}, "
          f"{eng.runtime_s:.1f} s")

    assert len(eng.points) == 64
    assert 0 < peak[0] <= chunk
    # Graphs die with their chunk: nothing keeps them across chunks.
    assert 0 < graph_peak[0] <= chunk
    assert len(eng.front) >= 1

    d = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    d["extended_space"] = {
        "space": len(grid), "evaluated": len(eng.points),
        "candidates": eng.candidates,
        "peak_live_modules": peak[0],
        "peak_live_graphs": graph_peak[0],
        "wall_s": eng.runtime_s,
    }
    BENCH_JSON.write_text(json.dumps(d, indent=2) + "\n")
