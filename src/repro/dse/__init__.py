"""``repro.dse`` — design-space exploration over a parameter grid.

The paper's Section 5.5 usage model, packaged for arbitrary user designs:
sweep a :class:`ParameterGrid` over any ``Module``, evaluate each point
with a trained SNS (or the reference synthesizer), and read off
Pareto-optimal configurations.

:class:`ExplorationEngine` is the one driver.  With a budget that covers
the grid (and no ``predict_budget``) it evaluates every point in grid
order; on 10^6+ spaces it samples lazily by seed, screens with a
surrogate, and spends a prediction budget on Pareto-guided proposals,
with delta-elaboration, an optional reference-synthesis rung, and an
incremental k-objective :class:`ParetoFront`.
"""

from .grid import ParameterGrid
from .pareto import ParetoFront, brute_force_front, hypervolume
from .engine import (EngineConfig, EngineResult, EvaluatedDesign,
                     ExplorationEngine, pareto_points)

__all__ = ["ParameterGrid", "EvaluatedDesign", "pareto_points",
           "ParetoFront", "brute_force_front", "hypervolume",
           "EngineConfig", "EngineResult", "ExplorationEngine"]
