"""The BOOM design-space exploration (Section 5.6, Figure 8, Table 11).

Runs SNS predictions over the Table 10 space, scores each configuration
with the CoreMark model at its predicted frequency, extracts the Pareto
frontier, and selects the three paper-style designs: HighPerf (fastest),
PowerEff (best performance/power), and AreaEff (best performance/area).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..core import SNS
from ..dse.engine import pareto_points
from ..runtime import BatchPredictor
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
    # repro.dse.engine.EngineResult with the k-objective front,
    # candidates, and finalists.
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
    """Evaluate BOOM configurations with SNS (Figure 8).

    Ground truth lives elsewhere: :func:`repro.experiments.run_boom_study`
    synthesizes its spot checks directly, and
    ``ExplorationEngine(factory, Synthesizer(...), boom_grid())`` is the
    synthesizer-backed explorer.
    """

    def __init__(self, predictor: SNS, perf_model: CoreMarkModel | None = None):
        self.predictor = predictor
        self.perf_model = perf_model or CoreMarkModel()
        self._batch_engine = BatchPredictor(predictor)

    # ------------------------------------------------------------------ #
    def _make_point(self, config: BoomConfig, timing: float, area: float,
                    power: float) -> DSEPoint:
        timing = max(timing, 1.0)
        freq = 1000.0 / timing
        score = self.perf_model.score(config, freq)
        return DSEPoint(config, timing, area, power, score)

    def run(self, configs: list[BoomConfig], verbose: bool = False) -> DSEResult:
        """Evaluate all configs; scores are normalized so the best is 1.0.

        The whole space goes through the batched runtime: paths shared
        between sibling configurations (BOOM variants reuse most of their
        datapath) are predicted once, and the instance's prediction store
        makes re-running an overlapping sweep near-free.
        """
        if not configs:
            raise ValueError("no configurations to explore")
        start = time.perf_counter()
        cores = [BoomCore(config) for config in configs]
        if verbose:
            print(f"[boom-dse] batch-predicting {len(cores)} configs")
        preds = self._batch_engine.predict_batch(cores)
        points = [self._make_point(c, p.timing_ps, p.area_um2, p.power_mw)
                  for c, p in zip(configs, preds)]
        return _result(points, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    def explore(self, grid=None, budget: int = 4096,
                verbose: bool = False, **engine_config) -> "DSEResult":
        """Budgeted streaming exploration of a BOOM parameter grid.

        Instead of materializing and evaluating every configuration
        (:meth:`run`, the exhaustive sweep), this drives the
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

        grid = grid if grid is not None else boom_grid()

        def factory(**params):
            return BoomCore(BoomConfig(**params))

        def score(params, timing_ps, area_um2, power_mw):
            return self.perf_model.score(BoomConfig(**params),
                                         1000.0 / max(timing_ps, 1.0))

        engine = ExplorationEngine(
            factory, self.predictor, grid, score=score,
            config=EngineConfig(budget=budget, **engine_config))
        eresult = engine.explore(verbose=verbose)
        points = [DSEPoint(BoomConfig(**p.params), p.timing_ps, p.area_um2,
                           p.power_mw, p.score) for p in eresult.points]
        return _result(points, eresult.runtime_s, eresult)


def _result(points: list[DSEPoint], runtime_s: float,
            engine_result=None) -> DSEResult:
    """Normalize scores to the best, then pick HighPerf, PowerEff, AreaEff."""
    top = max(p.score for p in points)
    normalized = [replace(p, score=p.score / top) for p in points]
    return DSEResult(
        points=tuple(normalized),
        runtime_s=runtime_s,
        high_perf=max(normalized, key=lambda p: p.score),
        power_eff=max(normalized, key=lambda p: p.perf_per_watt),
        area_eff=max(normalized, key=lambda p: p.perf_per_area),
        engine_result=engine_result,
    )
