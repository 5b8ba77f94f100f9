"""The streaming, budgeted design-space exploration engine.

Enumerating every parameter combination, instantiating every Module and
predicting the whole space is fine for the paper's 2,592-config BOOM
study and hopeless at 10^6+ configurations.  This engine replaces
"enumerate then evaluate" with a predictor-guided, multi-fidelity
stream.  When the budget covers the grid and ``predict_budget`` is
``None`` it is the exhaustive sweep: every point is evaluated, in grid
order.

1. **Lazy candidate stream.**  Configurations are drawn from a
   :class:`~repro.dse.grid.ParameterGrid` *by index* — a seeded
   without-replacement sample plus guided proposals one parameter step
   from current Pareto-front members.  The Cartesian product is never
   materialized; candidates live as rows of an int digit matrix until
   they survive screening.

2. **Multi-fidelity successive halving.**  Rung 0 screens candidates
   with an online ridge surrogate fitted to the configurations
   evaluated so far (parameter digits -> log timing/area/power) — a few
   microseconds per config.  Rung 1 spends the real budget
   (factory -> cached compile -> batched SNS prediction, or the
   reference synthesizer) in four moves:

   a. a seeded random *warmup* (surrogate training set, unbiased
      coverage) of a quarter of the budget, and never fewer than the
      surrogate's minimum fit (by default twice its feature count), so
      nothing is screened until that many points are evaluated;
   b. the surrogate-predicted per-objective *extremes* of the whole
      candidate stream (scanned in O(block) digit matrices);
   c. per-objective *hill climbs* — evaluate every unevaluated grid
      neighbor of the incumbent best, move, repeat until three
      consecutive expansions fail to improve (true-metric local search
      is what pins the front's corners);
   d. *gap filling* — expand the neighborhood of the widest gaps along
      each (cost, score) projection of the running front until the
      rung-1 budget is spent.

   A phase ablation over seeds 0–9 on the 2,592-config Table-10 space
   found that dropping any one of moves b–d costs hypervolume at some
   budget.

   Rung 2 optionally re-synthesizes the front with the reference
   :class:`~repro.synth.Synthesizer` as a final check.

3. **Incremental k-objective Pareto front.**  Every evaluated point is
   offered to a :class:`~repro.dse.pareto.ParetoFront` over
   (timing, area, power, score) — dominance is decided against the
   current front only, never the full history.

Determinism: all randomness derives from ``config.seed``, every phase
decision depends only on the set (not batching) of completed
evaluations, and the batched predictor is batch-composition invariant —
so the same seed yields the same evaluated set and front for any
``chunk``, which only sets the prediction batch size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..core import SNS
from ..synth import Synthesizer
from .grid import ParameterGrid
from .pareto import ParetoFront

__all__ = ["EvaluatedDesign", "pareto_points", "EngineConfig",
           "EngineResult", "ExplorationEngine"]

# Objective names the engine knows, with their orientation.
_MAXIMIZED = {"score": True, "timing_ps": False, "area_um2": False,
              "power_mw": False}
# The front every sweep keeps, in surrogate column order plus the score.
OBJECTIVES = ("timing_ps", "area_um2", "power_mw", "score")
# Share of the rung-1 budget spent on the unscreened seeded warmup.
WARMUP_FRACTION = 0.25
# Stagnant neighborhood expansions a hill climb tolerates; one more
# ends it.
CLIMB_PATIENCE = 2


# ---------------------------------------------------------------------- #
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
    def score_per_area(self) -> float:
        return self.score / self.area_um2 if self.area_um2 > 0 else 0.0


def pareto_points(points: Iterable, cost: str = "area_um2",
                  score: str = "score") -> tuple:
    """2-objective frontier (minimize ``cost``, maximize ``score``).

    Implemented on the incremental k-objective
    :class:`~repro.dse.pareto.ParetoFront`; the output is in ascending
    cost order.
    """
    front = ParetoFront(2, maximize=(False, True))
    for p in points:
        front.add((getattr(p, cost), getattr(p, score)), p)
    return tuple(front.items())


@dataclass(frozen=True)
class EngineConfig:
    """Budgets and knobs of one exploration run.

    Parameters
    ----------
    budget:
        Size of the seeded candidate stream the rung-0 scan sees, capped
        at the grid size.  Guided local-search proposals (climbs, gap
        filling) may consider a few candidates beyond the stream; the
        total appears in ``EngineResult.candidates``.
    predict_budget:
        Rung-1 evaluations (factory + elaborate + predict).  ``None``
        means every candidate is evaluated — the exhaustive parity mode.
    synth_budget:
        Rung-2 finalists re-evaluated with the reference synthesizer
        (0 disables the rung).
    chunk:
        Prediction batch size.  An execution detail: results are
        identical for any value >= 1.
    block:
        Granularity of the rung-0 surrogate scan — candidates are
        screened as (block, num_params) digit matrices, so scan memory
        is O(block) however large the space.
    refit_every:
        Refit the surrogate after this many new rung-1 evaluations.
    min_fit:
        Evaluations required before the surrogate screens at all
        (``None``: twice the feature count).
    """

    budget: int = 4096
    predict_budget: int | None = None
    synth_budget: int = 0
    chunk: int = 256
    block: int = 1024
    seed: int = 0
    refit_every: int = 64
    min_fit: int | None = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1: {self.budget}")
        if self.predict_budget is not None and self.predict_budget < 1:
            raise ValueError(f"predict_budget must be >= 1: {self.predict_budget}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1: {self.chunk}")
        if self.block < 1:
            raise ValueError(f"block must be >= 1: {self.block}")


@dataclass(frozen=True)
class EngineResult:
    """Everything one exploration run produced.

    ``points`` holds every rung-1-evaluated design; ``front`` the
    incremental k-objective Pareto subset of it (in the order of the
    first objective); ``finalists`` the rung-2 synthesizer-confirmed
    re-evaluations (empty unless ``synth_budget > 0``); ``candidates``
    the configurations the run considered (the seeded stream plus guided
    proposals), of which all but ``len(points)`` were screened out.
    """

    points: tuple[EvaluatedDesign, ...]
    front: tuple[EvaluatedDesign, ...]
    objectives: tuple[str, ...]
    finalists: tuple[EvaluatedDesign, ...]
    candidates: int
    runtime_s: float

    def best(self, key: Callable[[EvaluatedDesign], float] | str = "score"
             ) -> EvaluatedDesign:
        if not self.points:
            raise ValueError("exploration produced no evaluated points "
                             "(empty result has no best design)")
        fn = (key if callable(key) else lambda p, attr=key: getattr(p, attr))
        return max(self.points, key=fn)

    def pareto(self, cost: str = "area_um2") -> tuple[EvaluatedDesign, ...]:
        """2-objective frontier (minimize ``cost``, maximize score)."""
        if not self.points:
            raise ValueError("exploration produced no evaluated points "
                             "(empty result has no Pareto front)")
        return pareto_points(self.points, cost=cost)

    def hypervolume(self, objectives: Sequence[str] | None = None,
                    reference: Sequence[float] | None = None) -> float:
        """Dominated hypervolume of the front in ``objectives`` space.

        ``reference`` defaults to the worst evaluated value per
        objective (a shared reference must be passed when comparing two
        runs).
        """
        objectives = tuple(objectives or self.objectives)
        maximize = [_MAXIMIZED[o] for o in objectives]
        front = ParetoFront(len(objectives), maximize=maximize)
        for p in self.points:
            front.add([getattr(p, o) for o in objectives], p)
        if reference is None:
            values = np.array([[getattr(p, o) for o in objectives]
                               for p in self.points])
            reference = [values[:, i].min() if maximize[i] else values[:, i].max()
                         for i in range(len(objectives))]
        return front.hypervolume(reference)


# ---------------------------------------------------------------------- #
class _Surrogate:
    """Online ridge regression: parameter digits -> log(timing/area/power).

    Features per candidate: intercept, per-dimension ordinal position in
    [0, 1] (captures monotone trends), and a one-hot per (dimension,
    value) (captures categorical / non-monotone effects).  Fitting is a
    closed-form solve over at most a few dozen features — microseconds —
    so the engine refits freely as evaluations accumulate.
    """

    def __init__(self, radices: Sequence[int], ridge: float = 1e-3):
        self.radices = tuple(radices)
        self.ridge = ridge
        self.num_features = 1 + len(radices) + sum(radices)
        self._theta: np.ndarray | None = None

    def featurize(self, digits: np.ndarray) -> np.ndarray:
        n, d = digits.shape
        X = np.zeros((n, self.num_features))
        X[:, 0] = 1.0
        col = 1 + d
        for j, radix in enumerate(self.radices):
            X[:, 1 + j] = digits[:, j] / max(radix - 1, 1)
            X[np.arange(n), col + digits[:, j]] = 1.0
            col += radix
        return X

    @property
    def fitted(self) -> bool:
        return self._theta is not None

    def fit(self, digits: np.ndarray, targets: np.ndarray) -> None:
        """``targets``: (n, 3) positive metrics, regressed in log space."""
        X = self.featurize(digits)
        Y = np.log(np.maximum(targets, 1e-12))
        A = X.T @ X + self.ridge * np.eye(self.num_features)
        self._theta = np.linalg.solve(A, X.T @ Y)

    def predict(self, digits: np.ndarray) -> np.ndarray:
        """(n, 3) predicted (timing_ps, area_um2, power_mw)."""
        if self._theta is None:
            raise RuntimeError("surrogate not fitted")
        return np.exp(self.featurize(digits) @ self._theta)


# ---------------------------------------------------------------------- #
class ExplorationEngine:
    """Predictor-guided streaming exploration of a :class:`ParameterGrid`.

    Parameters
    ----------
    factory:
        ``factory(**params) -> Module`` for one grid point.
    engine:
        A fitted :class:`SNS` (rung-1 evaluations compile through a
        :class:`~repro.runtime.DeltaElaborator` and predict through the
        batched runtime) or a
        :class:`Synthesizer` (rung-1 synthesizes directly — the
        ground-truth mode small parity tests use).
    grid:
        The design space.
    score:
        Optional ``(params, timing_ps, area_um2, power_mw) -> float``;
        defaults to predicted clock frequency.  Also applied to
        *surrogate* metrics during screening, so score-aware spaces are
        guided by the same preference.
    config:
        An :class:`EngineConfig`; keyword overrides may be passed
        directly to :meth:`explore`.
    """

    def __init__(self, factory: Callable[..., Any], engine,
                 grid: ParameterGrid, score: Callable | None = None,
                 config: EngineConfig | None = None):
        if not isinstance(engine, (SNS, Synthesizer)):
            raise TypeError(
                f"engine must be SNS or Synthesizer, got {type(engine).__name__}")
        self.factory = factory
        self.engine = engine
        self.grid = grid
        self.score = score
        self.config = config or EngineConfig()
        if isinstance(engine, SNS):
            from ..runtime import BatchPredictor, DeltaElaborator

            self.delta = DeltaElaborator()
            self._batch_engine = BatchPredictor(
                engine, frontend_cache=self.delta.cache)
        else:
            self.delta = None
            self._batch_engine = None

    # ------------------------------------------------------------------ #
    def _score_point(self, params: dict, timing: float, area: float,
                     power: float) -> EvaluatedDesign:
        timing = max(timing, 1e-9)
        if self.score is not None:
            score = float(self.score(params, timing, area, power))
        else:
            score = 1000.0 / timing
        return EvaluatedDesign(params=dict(params), timing_ps=timing,
                               area_um2=area, power_mw=power, score=score)

    def _evaluate_chunk(self, params_list: list[dict]) -> list[EvaluatedDesign]:
        """Rung 1 for one chunk: factory -> compile -> predict/synthesize.

        Modules are compiled (or synthesized) one at a time and dropped
        immediately; only their compiled graphs ride into the batched
        predictor, so at most one module is alive at a time.
        """
        if self._batch_engine is not None:
            graphs = []
            for params in params_list:
                module = self.factory(**params)
                graphs.append(self.delta.compile(module))
                del module
            preds = self._batch_engine.predict_batch(graphs)
            return [self._score_point(params, p.timing_ps, p.area_um2, p.power_mw)
                    for params, p in zip(params_list, preds)]
        out = []
        for params in params_list:
            module = self.factory(**params)
            result = self.engine.synthesize(module.elaborate())
            del module
            out.append(self._score_point(params, result.timing_ps,
                                         result.area_um2, result.power_mw))
        return out

    def _surrogate_objectives(self, indices: list[int], digits: np.ndarray,
                              surrogate: _Surrogate) -> np.ndarray:
        """(n, 4) predicted :data:`OBJECTIVES` columns for one scan block."""
        pred = surrogate.predict(digits)                  # (n, 3) t/a/p
        if self.score is None:
            score = 1000.0 / np.maximum(pred[:, 0], 1e-9)
        else:
            # Materialize dicts for this block only — the score
            # callable's contract takes a parameter binding.
            dicts = self.grid.points_at(indices)
            score = np.array([
                float(self.score(p, max(t, 1e-9), a, pw))
                for p, t, a, pw in zip(dicts, pred[:, 0], pred[:, 1],
                                       pred[:, 2])])
        return np.column_stack([pred, score])

    # ------------------------------------------------------------------ #
    def explore(self, verbose: bool = False, **overrides) -> EngineResult:
        """Run the budgeted exploration; see the module docstring."""
        from dataclasses import replace

        cfg = replace(self.config, **overrides) if overrides else self.config
        with obs.span("dse.explore"):
            return self._explore(cfg, verbose)

    def _explore(self, cfg: EngineConfig, verbose: bool) -> EngineResult:
        start = time.perf_counter()
        grid = self.grid
        objectives = OBJECTIVES
        maximize = [_MAXIMIZED[o] for o in objectives]
        signs = [1.0 if m else -1.0 for m in maximize]
        budget = min(cfg.budget, len(grid))
        predict_budget = (budget if cfg.predict_budget is None
                          else min(cfg.predict_budget, budget))

        surrogate = _Surrogate(grid.radices)
        min_fit = cfg.min_fit if cfg.min_fit is not None \
            else 2 * surrogate.num_features
        front = ParetoFront(len(objectives), maximize=maximize)

        # Seeded candidate stream over grid indices, O(budget) memory —
        # the grid itself is never enumerated.  A stream covering the
        # grid comes back in grid order, which only the exhaustive sweep
        # keeps: a budgeted run's warmup needs the seeded order.
        stream = grid.sample_indices(budget, cfg.seed)
        if predict_budget < budget == len(grid):
            stream = random.Random(cfg.seed).sample(stream, budget)
        considered: set[int] = set(stream)
        evaluated: dict[int, EvaluatedDesign] = {}
        state = {"last_fit": 0}

        def quota() -> int:
            return predict_budget - len(evaluated)

        def evaluate(indices: list[int]) -> None:
            """Rung 1 for a deterministic index list, chunked.

            Dedups, skips already-evaluated indices, and feeds every new
            point to the incremental front.  Chunking is invisible to
            the algorithm: decisions only ever read ``evaluated``.
            """
            todo = [i for i in dict.fromkeys(indices) if i not in evaluated]
            with obs.span("dse.evaluate"):
                for lo in range(0, len(todo), cfg.chunk):
                    batch = todo[lo:lo + cfg.chunk]
                    points = self._evaluate_chunk(grid.points_at(batch))
                    for i, point in zip(batch, points):
                        evaluated[i] = point
                        front.add([getattr(point, o) for o in objectives],
                                  point)

        def refit(force: bool = False) -> None:
            if len(evaluated) < min_fit:
                return
            if surrogate.fitted and not force \
                    and len(evaluated) - state["last_fit"] < cfg.refit_every:
                return
            with obs.span("dse.refit"):
                idxs = list(evaluated)
                targets = np.array([[evaluated[i].timing_ps,
                                     evaluated[i].area_um2,
                                     evaluated[i].power_mw] for i in idxs])
                surrogate.fit(grid.decode_indices(idxs), targets)
            state["last_fit"] = len(evaluated)
            obs.count("dse.refits")

        def admit(candidates: list[int]) -> list[int]:
            """Unevaluated proposals, recorded as considered candidates."""
            out: list[int] = []
            for i in candidates:
                if i in evaluated or i in out:
                    continue
                considered.add(i)
                out.append(i)
            return out

        def best_on(name: str, sgn: float) -> int:
            """Grid index of the best evaluated point on an attribute.

            Ties resolve to the earliest evaluation (dict insertion
            order), which is chunk-independent.
            """
            return max(evaluated,
                       key=lambda i: sgn * getattr(evaluated[i], name))

        if predict_budget >= budget:
            # Exhaustive mode: evaluate the whole stream in order (grid
            # order when the budget covers the grid).
            evaluate(stream)
        else:
            # ---- rung 0a: seeded random warmup ------------------------ #
            n_warm = min(predict_budget,
                         max(int(round(WARMUP_FRACTION * predict_budget)),
                             min(min_fit, predict_budget)))
            evaluate(stream[:n_warm])
            refit(force=True)
            if verbose:
                print(f"[dse-engine] warmup: {len(evaluated)} evaluated, "
                      f"front {len(front)}")

            # ---- rung 0b: surrogate scan -> predicted extremes -------- #
            rest = stream[n_warm:]
            if rest and surrogate.fitted and quota() > 0:
                with obs.span("dse.screen"):
                    top_k = 2
                    tops: list[list[tuple[float, int]]] = [
                        [] for _ in objectives]
                    for lo in range(0, len(rest), cfg.block):
                        blk = rest[lo:lo + cfg.block]
                        digits = grid.decode_indices(blk)
                        cols = self._surrogate_objectives(blk, digits,
                                                          surrogate)
                        for j in range(len(objectives)):
                            v = signs[j] * cols[:, j]
                            for pos in np.argsort(-v, kind="stable")[:top_k]:
                                tops[j].append((float(v[pos]), blk[int(pos)]))
                    for picks in tops:
                        picks.sort(key=lambda t: -t[0])
                    extremes: list[int] = []
                    for rank in range(top_k):
                        for picks in tops:
                            if rank < len(picks) and \
                                    picks[rank][1] not in extremes:
                                extremes.append(picks[rank][1])
                evaluate(admit(extremes)[:quota()])
                refit()
                if verbose:
                    print(f"[dse-engine] extremes: {len(evaluated)} "
                          f"evaluated, front {len(front)}")

            # ---- rung 1b: per-objective hill climbs ------------------- #
            # True-metric local search from each incumbent: evaluate all
            # unevaluated grid neighbors, move if the objective improved,
            # give up once stagnant expansions exceed CLIMB_PATIENCE.
            for name, sgn in zip(objectives, signs):
                stall = 0
                while quota() > 0 and stall <= CLIMB_PATIENCE:
                    base = best_on(name, sgn)
                    moves = admit(grid.neighbors(base))
                    if not moves:
                        # Incumbent neighborhood exhausted: expand around
                        # the runner-up objective value instead.
                        vals = sorted({sgn * getattr(p, name)
                                       for p in evaluated.values()},
                                      reverse=True)
                        if len(vals) < 2:
                            break
                        runners = [i for i, p in evaluated.items()
                                   if sgn * getattr(p, name) == vals[1]]
                        moves = admit([n for r in runners
                                       for n in grid.neighbors(r)])
                        if not moves:
                            break
                    before = sgn * getattr(evaluated[base], name)
                    evaluate(moves[:quota()])
                    after = sgn * getattr(evaluated[best_on(name, sgn)], name)
                    stall = 0 if after > before else stall + 1
                refit()
            if verbose:
                print(f"[dse-engine] climbs: {len(evaluated)} evaluated, "
                      f"front {len(front)}")

            # ---- rung 1c: gap filling along 2-objective fronts -------- #
            # Spend the rest of the budget expanding the widest gaps of
            # each (cost, score) projection of the running front.
            cost_objs = [j for j, m in enumerate(maximize) if not m]
            score_objs = [j for j, m in enumerate(maximize) if m]
            pairs = [(c, s) for s in score_objs for c in cost_objs]
            while quota() > 0:
                added = 0
                for a, b in pairs:
                    if quota() <= 0:
                        break
                    fr2 = ParetoFront(2, maximize=(maximize[a], maximize[b]))
                    for i, p in evaluated.items():
                        fr2.add((getattr(p, objectives[a]),
                                 getattr(p, objectives[b])), i)
                    members = fr2.items()
                    if len(members) < 2:
                        continue
                    xs = np.array([getattr(evaluated[i], objectives[a])
                                   for i in members], dtype=float)
                    ys = np.array([getattr(evaluated[i], objectives[b])
                                   for i in members], dtype=float)
                    xs = (xs - xs.min()) / (float(np.ptp(xs)) or 1.0)
                    ys = (ys - ys.min()) / (float(np.ptp(ys)) or 1.0)
                    gaps = np.hypot(np.diff(xs), np.diff(ys))
                    for g in np.argsort(-gaps, kind="stable")[:2]:
                        picks: list[int] = []
                        for end in (members[g], members[g + 1]):
                            picks.extend(admit(grid.neighbors(end))[:3])
                        if picks:
                            evaluate(picks[:quota()])
                            added += len(picks)
                        if quota() <= 0:
                            break
                if added == 0:
                    # Every front neighborhood is exhausted: fall back to
                    # stream-order leftovers so the budget is never idle.
                    leftovers = [i for i in stream if i not in evaluated]
                    if not leftovers:
                        break
                    evaluate(leftovers[:quota()])
                refit()
            if verbose:
                print(f"[dse-engine] gap fill: {len(evaluated)} evaluated, "
                      f"front {len(front)}")

        # ---- rung 2: reference synthesis of the finalists ------------- #
        finalists: list[EvaluatedDesign] = []
        if cfg.synth_budget > 0 and evaluated:
            with obs.span("dse.synth"):
                members = front.items()
                if len(members) > cfg.synth_budget:
                    pick = np.linspace(0, len(members) - 1, cfg.synth_budget)
                    members = [members[int(i)] for i in pick]
                synth = (self.engine if isinstance(self.engine, Synthesizer)
                         else Synthesizer(effort="medium"))
                for point in members:
                    module = self.factory(**point.params)
                    result = synth.synthesize(module.elaborate())
                    del module
                    finalists.append(self._score_point(
                        point.params, result.timing_ps, result.area_um2,
                        result.power_mw))

        return EngineResult(
            points=tuple(evaluated.values()),
            front=tuple(front.items()),
            objectives=objectives,
            finalists=tuple(finalists),
            candidates=len(considered),
            runtime_s=time.perf_counter() - start,
        )
