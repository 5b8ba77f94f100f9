"""The runtime experiment: Figure 7 and Table 9 (Section 5.4).

Measures wall-clock SNS prediction time against the synthesizer that
labels the datasets, on every dataset design, reporting per-design
speedups and the average.  ``desktop_factor`` models the paper's second
experiment — running SNS on a weaker desktop while the synthesizer
keeps the server — by scaling SNS runtimes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import SNS
from ..datagen import DesignRecord
from ..synth import Synthesizer

__all__ = ["RuntimeRow", "RuntimeReport", "runtime_comparison", "PLATFORMS",
           "ThroughputReport", "throughput_comparison"]

# Table 9 of the paper, for reporting.
PLATFORMS = {
    "server": {"processor": "2x Intel Xeon Gold 6252 48C/96T @ 2.10GHz",
               "memory": "8x 64GB 2933MHz", "os": "Ubuntu 18.04LTS"},
    "desktop": {"processor": "Intel Core i9 11900 8C/16T @ 2.5GHz",
                "memory": "2x 16GB 2667MHz", "os": "Ubuntu 18.04LTS"},
}


@dataclass(frozen=True)
class RuntimeRow:
    """One Figure 7 point."""

    design: str
    gate_count: float
    sns_seconds: float
    synth_seconds: float

    @property
    def speedup(self) -> float:
        return self.synth_seconds / self.sns_seconds if self.sns_seconds > 0 else 0.0


@dataclass(frozen=True)
class RuntimeReport:
    rows: tuple[RuntimeRow, ...]

    @property
    def average_speedup(self) -> float:
        return float(np.mean([r.speedup for r in self.rows]))

    @property
    def max_speedup(self) -> float:
        return float(max(r.speedup for r in self.rows))

    def speedup_grows_with_size(self) -> bool:
        """Figure 7 shape: larger designs enjoy larger speedups."""
        ordered = sorted(self.rows, key=lambda r: r.gate_count)
        half = len(ordered) // 2
        small = np.mean([r.speedup for r in ordered[:half]])
        large = np.mean([r.speedup for r in ordered[half:]])
        return large > small


def runtime_comparison(sns: SNS, records: list[DesignRecord],
                       synth_effort: str = "high",
                       desktop_factor: float = 1.0) -> RuntimeReport:
    """Wall-clock SNS vs synthesizer on each design.

    ``desktop_factor > 1`` slows the SNS side to model the desktop
    platform of Table 9 (the synthesizer stays on the 'server').
    """
    synthesizer = Synthesizer(effort=synth_effort)
    rows = []
    for record in records:
        start = time.perf_counter()
        result = synthesizer.synthesize(record.graph)
        synth_seconds = time.perf_counter() - start
        pred = sns.predict(record.graph)
        rows.append(RuntimeRow(
            design=record.name,
            gate_count=result.gate_count,
            sns_seconds=pred.runtime_s * desktop_factor,
            synth_seconds=synth_seconds,
        ))
    return RuntimeReport(rows=tuple(rows))


# ---------------------------------------------------------------------- #
# Batched-runtime throughput (the repro.runtime engine vs the serial path)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ThroughputReport:
    """Designs/sec of the batched runtime against serial prediction.

    ``serial_seconds`` is one ``sns.predict`` call per design;
    ``batched_cold_seconds``/``batched_warm_seconds`` are the
    :class:`repro.runtime.BatchPredictor` with a cold and a warm
    prediction cache.  ``bit_identical`` records whether the engine's
    predictions matched the serial ones exactly.
    """

    num_designs: int
    serial_seconds: float
    batched_cold_seconds: float
    batched_warm_seconds: float
    cache_stats: dict
    bit_identical: bool

    def designs_per_second(self, seconds: float) -> float:
        return self.num_designs / seconds if seconds > 0 else float("inf")

    @property
    def serial_dps(self) -> float:
        return self.designs_per_second(self.serial_seconds)

    @property
    def batched_speedup(self) -> float:
        """Cold-cache engine vs serial predict."""
        return self.serial_seconds / self.batched_cold_seconds \
            if self.batched_cold_seconds > 0 else float("inf")

    @property
    def warm_speedup(self) -> float:
        """Warm-cache engine vs serial predict."""
        return self.serial_seconds / self.batched_warm_seconds \
            if self.batched_warm_seconds > 0 else float("inf")

    def as_dict(self) -> dict:
        return {
            "num_designs": self.num_designs,
            "serial_seconds": self.serial_seconds,
            "batched_cold_seconds": self.batched_cold_seconds,
            "batched_warm_seconds": self.batched_warm_seconds,
            "designs_per_second": {
                "serial": self.serial_dps,
                "batched_cold": self.designs_per_second(self.batched_cold_seconds),
                "batched_warm": self.designs_per_second(self.batched_warm_seconds),
            },
            "batched_speedup": self.batched_speedup,
            "warm_speedup": self.warm_speedup,
            "cache_stats": self.cache_stats,
            "bit_identical": self.bit_identical,
        }


def throughput_comparison(sns: SNS, graphs) -> ThroughputReport:
    """Measure the batched runtime against serial prediction.

    ``graphs`` is a list of :class:`CompiledGraph` (or
    :class:`DesignRecord`, whose graphs are extracted).  Three
    measurements run over the same designs: one ``sns.predict`` per
    design, the batched engine with a cold cache, and the batched engine
    again with the cache warm.
    """
    from ..runtime import BatchPredictor

    graphs = [g.graph if isinstance(g, DesignRecord) else g for g in graphs]
    if not graphs:
        raise ValueError("no designs to measure")

    start = time.perf_counter()
    serial = [sns.predict(g) for g in graphs]
    serial_s = time.perf_counter() - start

    engine = BatchPredictor(sns)
    start = time.perf_counter()
    batched = engine.predict_batch(graphs)
    batched_cold_s = time.perf_counter() - start

    # Warm pass is pure fingerprint+lookup and takes tens of ms, so a
    # single OS scheduling hiccup can dominate it — report the best of 2.
    batched_warm_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        engine.predict_batch(graphs)
        batched_warm_s = min(batched_warm_s, time.perf_counter() - start)

    bit_identical = all(
        s.timing_ps == b.timing_ps and s.area_um2 == b.area_um2
        and s.power_mw == b.power_mw and s.num_paths == b.num_paths
        for s, b in zip(serial, batched))

    return ThroughputReport(
        num_designs=len(graphs),
        serial_seconds=serial_s,
        batched_cold_seconds=batched_cold_s,
        batched_warm_seconds=batched_warm_s,
        cache_stats=engine.store.counters(("prediction",)),
        bit_identical=bit_identical,
    )
