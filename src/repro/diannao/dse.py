"""The DianNao design-space exploration (Section 5.7, Tables 12/13,
Figures 10/11).

Evaluates Table 13 configurations with SNS (or the reference
synthesizer), combines the predictions with the cycle model to obtain
inference throughput, and reports the efficiency metrics the paper
plots: area efficiency (inferences/sec per mm^2) and energy per
inference (mJ), plus the quantized model accuracy per datatype.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core import SNS
from ..runtime import BatchPredictor
from ..synth import Synthesizer
from .config import DianNaoConfig
from .generator import DianNao
from .perf_model import DianNaoPerfModel, PerfReport
from .quantization import datatype_accuracy

__all__ = ["DianNaoPoint", "DianNaoDSEResult", "DianNaoDSE"]


@dataclass(frozen=True)
class DianNaoPoint:
    """One evaluated DianNao configuration."""

    config: DianNaoConfig
    timing_ps: float
    area_um2: float
    power_mw: float
    perf: PerfReport
    accuracy: float

    @property
    def frequency_ghz(self) -> float:
        return 1000.0 / self.timing_ps if self.timing_ps > 0 else 0.0

    @property
    def inferences_per_second(self) -> float:
        return self.perf.inferences_per_second(self.frequency_ghz)

    @property
    def area_efficiency(self) -> float:
        """Inference throughput per unit area (inf/s per mm^2) — Fig 10(a)."""
        area_mm2 = self.area_um2 * 1e-6
        return self.inferences_per_second / area_mm2 if area_mm2 > 0 else 0.0

    @property
    def energy_per_inference_uj(self) -> float:
        """Energy per inference in microjoules — Fig 10(b) (lower better)."""
        ips = self.inferences_per_second
        return (self.power_mw * 1e-3) / ips * 1e6 if ips > 0 else float("inf")


@dataclass(frozen=True)
class DianNaoDSEResult:
    points: tuple[DianNaoPoint, ...]
    runtime_s: float

    def best_by_area_efficiency(self) -> DianNaoPoint:
        return max(self.points, key=lambda p: p.area_efficiency)

    def best_by_energy(self) -> DianNaoPoint:
        return min(self.points, key=lambda p: p.energy_per_inference_uj)

    def group_by(self, attr: str) -> dict:
        """Group points by a config attribute (e.g. 'tn', 'datatype')."""
        groups: dict = {}
        for p in self.points:
            groups.setdefault(getattr(p.config, attr), []).append(p)
        return groups


class DianNaoDSE:
    """Evaluate DianNao configurations with SNS or the synthesizer."""

    def __init__(self, predictor: SNS | None = None,
                 synthesizer: Synthesizer | None = None,
                 perf_model: DianNaoPerfModel | None = None,
                 use_power_gating: bool = True):
        if (predictor is None) == (synthesizer is None):
            raise ValueError("provide exactly one of predictor / synthesizer")
        self.predictor = predictor
        self.synthesizer = synthesizer
        self.perf_model = perf_model or DianNaoPerfModel()
        self.use_power_gating = use_power_gating
        self._batch_engine = (BatchPredictor(predictor)
                              if predictor is not None else None)

    # ------------------------------------------------------------------ #
    def _prepare(self, config: DianNaoConfig):
        """Elaborate one configuration and derive its activity map."""
        graph = DianNao(config).elaborate()
        report = self.perf_model.simulate(config)
        activity = self.perf_model.activity_coefficients(
            graph, report, gated=self.use_power_gating)
        return graph, report, activity

    def _make_point(self, config: DianNaoConfig, report, timing: float,
                    area: float, power: float) -> DianNaoPoint:
        return DianNaoPoint(
            config=config,
            timing_ps=max(timing, 1.0),
            area_um2=area,
            power_mw=power,
            perf=report,
            accuracy=datatype_accuracy(config.datatype),
        )

    def evaluate(self, config: DianNaoConfig) -> DianNaoPoint:
        graph, report, activity = self._prepare(config)
        if self._batch_engine is not None:
            pred = self._batch_engine.predict_batch(
                [graph], activity_maps=[activity])[0]
            timing, area, power = pred.timing_ps, pred.area_um2, pred.power_mw
        else:
            result = self.synthesizer.synthesize(graph, activity=activity)
            timing, area, power = result.timing_ps, result.area_um2, result.power_mw
        return self._make_point(config, report, timing, area, power)

    def run(self, configs: list[DianNaoConfig], verbose: bool = False) -> DianNaoDSEResult:
        """SNS-backed runs go through the batched runtime: the Table 13
        space shares most of its multiplier/adder-tree paths across ``tn``
        values, so cross-config path dedup does the heavy lifting."""
        if not configs:
            raise ValueError("no configurations to explore")
        start = time.perf_counter()
        if self._batch_engine is not None:
            prepared = [self._prepare(config) for config in configs]
            if verbose:
                print(f"[diannao-dse] batch-predicting {len(prepared)} configs")
            preds = self._batch_engine.predict_batch(
                [graph for graph, _, _ in prepared],
                activity_maps=[activity for _, _, activity in prepared])
            points = [
                self._make_point(config, report, p.timing_ps, p.area_um2, p.power_mw)
                for (config, (_, report, _)), p in zip(zip(configs, prepared), preds)]
        else:
            points = []
            for i, config in enumerate(configs):
                points.append(self.evaluate(config))
                if verbose and (i + 1) % 50 == 0:
                    print(f"[diannao-dse] {i + 1}/{len(configs)} evaluated")
        return DianNaoDSEResult(points=tuple(points),
                                runtime_s=time.perf_counter() - start)
