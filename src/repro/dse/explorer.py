"""A generic design-space explorer over any parameterizable Module.

Drives the paper's DSE recipe end to end for arbitrary user designs:
elaborate each parameter combination, evaluate it with SNS (or the
reference synthesizer), attach an optional user-supplied performance
score, and extract Pareto-optimal picks.

This exhaustive explorer is the *parity oracle* for the streaming
budgeted engine (:mod:`repro.dse.engine`): on grids small enough to
enumerate, the engine in exhaustive mode reproduces its results
exactly.  For spaces beyond a few thousand points, use
:meth:`DesignSpaceExplorer.explore_budgeted`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core import SNS
from ..hdl import Module
from ..synth import Synthesizer
from .grid import ParameterGrid
from .pareto import ParetoFront

__all__ = ["EvaluatedDesign", "ExplorationResult", "DesignSpaceExplorer",
           "pareto_points"]


@dataclass(frozen=True)
class EvaluatedDesign:
    """One evaluated parameter combination."""

    params: dict[str, Any]
    timing_ps: float
    area_um2: float
    power_mw: float
    score: float      # user metric (defaults to predicted frequency)

    @property
    def frequency_ghz(self) -> float:
        return 1000.0 / self.timing_ps if self.timing_ps > 0 else 0.0

    @property
    def score_per_watt(self) -> float:
        return self.score / self.power_mw if self.power_mw > 0 else 0.0

    @property
    def score_per_area(self) -> float:
        return self.score / self.area_um2 if self.area_um2 > 0 else 0.0


def pareto_points(points: Iterable, cost: str = "area_um2",
                  score: str = "score") -> tuple:
    """2-objective frontier (minimize ``cost``, maximize ``score``).

    Shared by every result type; implemented on the incremental
    k-objective :class:`~repro.dse.pareto.ParetoFront`, whose output
    order (ascending cost) matches the old sort-based extraction.
    """
    front = ParetoFront(2, maximize=(False, True))
    for p in points:
        front.add((getattr(p, cost), getattr(p, score)), p)
    return tuple(front.items())


@dataclass(frozen=True)
class ExplorationResult:
    points: tuple[EvaluatedDesign, ...]
    runtime_s: float

    def best(self, key: Callable[[EvaluatedDesign], float] | str = "score"
             ) -> EvaluatedDesign:
        """Best point by a metric name or key function."""
        if not self.points:
            raise ValueError("exploration produced no evaluated points "
                             "(empty result has no best design)")
        fn = (key if callable(key)
              else lambda p, attr=key: getattr(p, attr))
        return max(self.points, key=fn)

    def pareto(self, cost: str = "area_um2") -> tuple[EvaluatedDesign, ...]:
        """Pareto frontier: minimize ``cost``, maximize score."""
        if not self.points:
            raise ValueError("exploration produced no evaluated points "
                             "(empty result has no Pareto front)")
        return pareto_points(self.points, cost=cost)


class DesignSpaceExplorer:
    """Sweep a :class:`ParameterGrid` over a Module factory.

    Parameters
    ----------
    factory:
        Callable mapping a parameter dict to a :class:`Module`
        (typically the Module class itself).
    engine:
        A trained :class:`SNS` (the fast path the paper advocates) or a
        :class:`Synthesizer` (ground truth).
    score:
        Optional callable ``(params, timing_ps, area_um2, power_mw) ->
        float``; defaults to predicted clock frequency.
    frontend_cache:
        Optional :class:`repro.runtime.FrontendCache` (SNS engines only).
        When omitted, an in-memory one is created per explorer, so the
        sweep elaborates and samples each configuration at most once
        even when the prediction cache misses (e.g. after retraining).
    """

    def __init__(self, factory: Callable[..., Module], engine,
                 score: Callable | None = None,
                 batch_size: int = 32, frontend_cache=None):
        if not isinstance(engine, (SNS, Synthesizer)):
            raise TypeError(
                f"engine must be SNS or Synthesizer, got {type(engine).__name__}")
        self.factory = factory
        self.engine = engine
        self.score = score
        self.batch_size = batch_size
        # Peak simultaneously-live modules of the last explore() call —
        # pinned by the streaming regression test.
        self.last_peak_live_modules = 0
        if isinstance(engine, SNS):
            from ..runtime import BatchPredictor, FrontendCache

            self.frontend_cache = frontend_cache or FrontendCache()
            self._batch_engine = BatchPredictor(
                engine, batch_size=batch_size,
                frontend_cache=self.frontend_cache)
        else:
            self.frontend_cache = None
            self._batch_engine = None

    # ------------------------------------------------------------------ #
    def _score_point(self, params: dict[str, Any], timing: float,
                     area: float, power: float) -> EvaluatedDesign:
        timing = max(timing, 1e-9)
        if self.score is not None:
            score = float(self.score(params, timing, area, power))
        else:
            score = 1000.0 / timing
        return EvaluatedDesign(params=dict(params), timing_ps=timing,
                               area_um2=area, power_mw=power, score=score)

    def evaluate(self, params: dict[str, Any]) -> EvaluatedDesign:
        module = self.factory(**params)
        if self._batch_engine is not None:
            # Hand the Module straight to the batch engine: it compiles
            # through the shared FrontendCache (cached per configuration).
            pred = self._batch_engine.predict_batch([module])[0]
            timing, area, power = pred.timing_ps, pred.area_um2, pred.power_mw
        else:
            result = self.engine.synthesize(module.elaborate())
            timing, area, power = result.timing_ps, result.area_um2, result.power_mw
        return self._score_point(params, timing, area, power)

    def explore(self, grid: ParameterGrid | list[dict],
                constraint: Callable[[dict], bool] | None = None,
                stride: int = 1, verbose: bool = False,
                chunk_size: int | None = None) -> ExplorationResult:
        """Evaluate every (filtered, strided) point of the grid.

        With an SNS engine, points are evaluated through the batched
        runtime (:class:`repro.runtime.BatchPredictor`) in chunks of
        ``chunk_size`` (default: the constructor's ``batch_size``):
        modules are instantiated per chunk and released before the next
        one, so peak live modules is O(chunk), not O(grid) — the
        predictions are chunk-size invariant, so the results are
        identical to the old all-at-once sweep.
        """
        if isinstance(grid, ParameterGrid):
            point_stream = grid.iter_subset(constraint=constraint, stride=stride)
        else:
            if stride < 1:
                raise ValueError(f"stride must be >= 1: {stride}")
            point_stream = iter(
                [p for p in grid
                 if constraint is None or constraint(p)][::stride])
        chunk = self.batch_size if chunk_size is None else chunk_size
        if chunk < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk}")
        start = time.perf_counter()
        evaluated: list[EvaluatedDesign] = []
        self.last_peak_live_modules = 0
        if self._batch_engine is not None:
            pending: list[dict] = []
            for params in point_stream:
                pending.append(params)
                if len(pending) >= chunk:
                    evaluated.extend(self._evaluate_chunk(pending))
                    pending = []
            if pending:
                evaluated.extend(self._evaluate_chunk(pending))
        else:
            for i, params in enumerate(point_stream):
                self.last_peak_live_modules = max(self.last_peak_live_modules, 1)
                evaluated.append(self.evaluate(params))
                if verbose and (i + 1) % 50 == 0:
                    print(f"[dse] {i + 1} evaluated")
        if not evaluated:
            raise ValueError("nothing to explore after filtering")
        if verbose and self._batch_engine is not None:
            print(f"[dse] batch-predicted {len(evaluated)} designs")
        return ExplorationResult(points=tuple(evaluated),
                                 runtime_s=time.perf_counter() - start)

    def _evaluate_chunk(self, points: list[dict]) -> list[EvaluatedDesign]:
        """Instantiate one chunk of modules, predict, release."""
        modules = [self.factory(**params) for params in points]
        self.last_peak_live_modules = max(self.last_peak_live_modules,
                                          len(modules))
        preds = self._batch_engine.predict_batch(modules)
        del modules
        return [self._score_point(params, p.timing_ps, p.area_um2, p.power_mw)
                for params, p in zip(points, preds)]

    # ------------------------------------------------------------------ #
    def explore_budgeted(self, grid: ParameterGrid, budget: int,
                         verbose: bool = False, **engine_config):
        """Budgeted streaming exploration via :class:`ExplorationEngine`.

        Accepts every :class:`repro.dse.engine.EngineConfig` field as a
        keyword; returns an :class:`repro.dse.engine.EngineResult`.
        """
        from .engine import EngineConfig, ExplorationEngine

        engine = ExplorationEngine(
            self.factory, self.engine, grid, score=self.score,
            config=EngineConfig(budget=budget, **engine_config),
            frontend_cache=self.frontend_cache)
        return engine.explore(verbose=verbose)
