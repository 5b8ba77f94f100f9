"""The BOOM design-space exploration (Section 5.6, Figure 8, Table 11).

Runs SNS predictions over the Table 10 space, scores each configuration
with the CoreMark model at its predicted frequency, extracts the Pareto
frontier, and selects the three paper-style designs: HighPerf (fastest),
PowerEff (best performance/power), and AreaEff (best performance/area).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import SNS
from ..dse.engine import pareto_points
from ..synth import Synthesizer
from .config import BoomConfig
from .generator import BoomCore
from .perf_model import CoreMarkModel

__all__ = ["DSEPoint", "DSEResult", "BoomDSE"]


@dataclass(frozen=True)
class DSEPoint:
    """One evaluated configuration."""

    config: BoomConfig
    timing_ps: float
    area_um2: float
    power_mw: float
    score: float                 # normalized CoreMark (fastest = 1.0 post-normalize)

    @property
    def perf_per_watt(self) -> float:
        return self.score / self.power_mw if self.power_mw > 0 else 0.0

    @property
    def perf_per_area(self) -> float:
        return self.score / self.area_um2 if self.area_um2 > 0 else 0.0


@dataclass(frozen=True)
class DSEResult:
    points: tuple[DSEPoint, ...]
    runtime_s: float
    high_perf: DSEPoint
    power_eff: DSEPoint
    area_eff: DSEPoint
    # Populated by the budgeted path (BoomDSE.explore): the underlying
    # repro.dse.engine.EngineResult with the k-objective front, profile,
    # and finalists.
    engine_result: object = None

    @property
    def pareto_power(self) -> tuple[DSEPoint, ...]:
        """Pareto frontier in (power, score) space."""
        return pareto_points(self.points, cost="power_mw")

    @property
    def pareto_area(self) -> tuple[DSEPoint, ...]:
        """Pareto frontier in (area, score) space."""
        return pareto_points(self.points, cost="area_um2")


class BoomDSE:
    """Evaluate BOOM configurations with either SNS or the synthesizer."""

    def __init__(self, predictor: SNS | None = None,
                 synthesizer: Synthesizer | None = None,
                 perf_model: CoreMarkModel | None = None):
        if (predictor is None) == (synthesizer is None):
            raise ValueError("provide exactly one of predictor / synthesizer")
        self.predictor = predictor
        self.synthesizer = synthesizer
        self.perf_model = perf_model or CoreMarkModel()
        if predictor is not None:
            from ..runtime import BatchPredictor, FrontendCache

            self.frontend_cache = FrontendCache()
            self._batch_engine = BatchPredictor(
                predictor, frontend_cache=self.frontend_cache)
        else:
            self.frontend_cache = None
            self._batch_engine = None

    # ------------------------------------------------------------------ #
    def _make_point(self, config: BoomConfig, timing: float, area: float,
                    power: float) -> DSEPoint:
        timing = max(timing, 1.0)
        freq = 1000.0 / timing
        score = self.perf_model.score(config, freq)
        return DSEPoint(config, timing, area, power, score)

    def evaluate(self, config: BoomConfig) -> DSEPoint:
        if self._batch_engine is not None:
            # Module in, compiled front end inside: flat elaboration and
            # sampled paths cached per configuration by the FrontendCache.
            pred = self._batch_engine.predict_batch([BoomCore(config)])[0]
            timing, area, power = pred.timing_ps, pred.area_um2, pred.power_mw
        else:
            result = self.synthesizer.synthesize(BoomCore(config).elaborate())
            timing, area, power = result.timing_ps, result.area_um2, result.power_mw
        return self._make_point(config, timing, area, power)

    def run(self, configs: list[BoomConfig], verbose: bool = False) -> DSEResult:
        """Evaluate all configs; scores are normalized so the best is 1.0.

        SNS-backed runs evaluate the whole space through the batched
        runtime: paths shared between sibling configurations (BOOM
        variants reuse most of their datapath) are predicted once, and
        the content-addressed cache makes re-running an overlapping
        sweep near-free.
        """
        if not configs:
            raise ValueError("no configurations to explore")
        start = time.perf_counter()
        if self._batch_engine is not None:
            cores = [BoomCore(config) for config in configs]
            if verbose:
                print(f"[boom-dse] batch-predicting {len(cores)} configs")
            preds = self._batch_engine.predict_batch(cores)
            points = [self._make_point(c, p.timing_ps, p.area_um2, p.power_mw)
                      for c, p in zip(configs, preds)]
        else:
            points = []
            for i, config in enumerate(configs):
                points.append(self.evaluate(config))
                if verbose and (i + 1) % 100 == 0:
                    print(f"[boom-dse] {i + 1}/{len(configs)} evaluated")
        top = max(p.score for p in points)
        normalized = [DSEPoint(p.config, p.timing_ps, p.area_um2, p.power_mw,
                               p.score / top) for p in points]
        return DSEResult(
            points=tuple(normalized),
            runtime_s=time.perf_counter() - start,
            high_perf=max(normalized, key=lambda p: p.score),
            power_eff=max(normalized, key=lambda p: p.perf_per_watt),
            area_eff=max(normalized, key=lambda p: p.perf_per_area),
        )

    # ------------------------------------------------------------------ #
    def explore(self, grid=None, budget: int = 4096,
                verbose: bool = False, **engine_config) -> "DSEResult":
        """Budgeted streaming exploration of a BOOM parameter grid.

        Instead of materializing and evaluating every configuration
        (:meth:`run` — the parity oracle), this drives the
        :class:`repro.dse.engine.ExplorationEngine`: seeded lazy
        sampling plus Pareto-guided proposals, surrogate screening, and
        chunked batched prediction, so spaces like the ~1.12M-point
        :func:`repro.boom.extended_grid` stay tractable.  ``grid``
        defaults to the Table 10 space; every
        :class:`~repro.dse.engine.EngineConfig` field is accepted as a
        keyword.  Returns a :class:`DSEResult` over the rung-1-evaluated
        configurations (scores normalized so the best is 1.0), with the
        engine result attached as ``result.engine_result``.
        """
        from ..dse.engine import EngineConfig, ExplorationEngine
        from .config import boom_grid

        if self.predictor is None:
            raise ValueError("budgeted exploration needs an SNS predictor")
        grid = grid if grid is not None else boom_grid()

        def factory(**params):
            return BoomCore(BoomConfig(**params))

        def score(params, timing_ps, area_um2, power_mw):
            return self.perf_model.score(BoomConfig(**params),
                                         1000.0 / max(timing_ps, 1.0))

        engine = ExplorationEngine(
            factory, self.predictor, grid, score=score,
            config=EngineConfig(budget=budget, **engine_config),
            frontend_cache=self.frontend_cache)
        eresult = engine.explore(verbose=verbose)

        points = [DSEPoint(BoomConfig(**p.params), p.timing_ps, p.area_um2,
                           p.power_mw, p.score) for p in eresult.points]
        top = max(p.score for p in points)
        normalized = [DSEPoint(p.config, p.timing_ps, p.area_um2, p.power_mw,
                               p.score / top) for p in points]
        return DSEResult(
            points=tuple(normalized),
            runtime_s=eresult.runtime_s,
            high_perf=max(normalized, key=lambda p: p.score),
            power_eff=max(normalized, key=lambda p: p.perf_per_watt),
            area_eff=max(normalized, key=lambda p: p.perf_per_area),
            engine_result=eresult,
        )
