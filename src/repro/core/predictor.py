"""SNS — the end-to-end synthesis predictor (Figure 1).

``SNS.fit`` runs the Figure 4 training flow (path sampling, optional
Markov/SeqGAN augmentation, Circuitformer training, Aggregation-MLP
training); ``SNS.predict`` runs the Figure 1 prediction flow on any
GraphIR design: sample complete circuit paths, predict each with the
Circuitformer, aggregate with the MLP, and report design-level area,
power, and timing — plus the predicted critical path, which a
whole-graph GNN cannot localize.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..datagen.augment import AugmentationConfig, augment_path_dataset
from ..datagen.dataset import DesignRecord, sample_path_dataset
from ..graphir import CompiledGraph, Vocabulary
from ..hdl import Module
from ..synth import Synthesizer
from .aggregator import AggregationMLP, featurize_design, reduce_paths
from .circuitformer import Circuitformer, CircuitformerConfig
from .sampler import PathSampler, SampledPath
from .training import TrainingConfig, train_aggregator, train_circuitformer

__all__ = ["SNSPrediction", "SNS"]


@dataclass(frozen=True)
class SNSPrediction:
    """Design-level prediction plus the path-level evidence behind it.

    ``spread`` holds the ensemble disagreement per target as a
    multiplicative factor (geometric std across members): 1.0 means the
    members agree exactly; 1.5 means they span roughly +/-50%.  Large
    spread flags out-of-distribution designs whose predictions deserve a
    confirming synthesis run.
    """

    design: str
    timing_ps: float
    area_um2: float
    power_mw: float
    runtime_s: float
    num_paths: int
    critical_path: SampledPath | None
    spread: dict[str, float] | None = None

    @property
    def area_mm2(self) -> float:
        return self.area_um2 * 1e-6

    @property
    def frequency_ghz(self) -> float:
        return 1000.0 / self.timing_ps if self.timing_ps > 0 else float("inf")

    def confidence_interval(self, target: str, sigmas: float = 2.0) -> tuple[float, float]:
        """A (low, high) multiplicative band around the prediction."""
        value = {"timing": self.timing_ps, "area": self.area_um2,
                 "power": self.power_mw}[target]
        factor = (self.spread or {}).get(target, 1.0) ** sigmas
        return value / factor, value * factor


class SNS:
    """The SNS predictor: Preprocessor -> Path Sampler -> Circuitformer ->
    Aggregation MLP (Figure 1).

    Parameters
    ----------
    sampler:
        Path sampling configuration (defaults to the paper's k=5).
    circuitformer_config:
        Model hyperparameters (defaults to Table 2).
    training_config:
        Optimization schedule (defaults scaled for CPU).
    seed:
        Controls weight init and sampling reproducibility.
    """

    def __init__(self, sampler: PathSampler | None = None,
                 circuitformer_config: CircuitformerConfig | None = None,
                 training_config: TrainingConfig | None = None,
                 seed: int = 0, num_aggregators: int = 3):
        if num_aggregators < 1:
            raise ValueError(f"num_aggregators must be >= 1: {num_aggregators}")
        self.vocab = Vocabulary.standard()
        self.sampler = sampler or PathSampler(seed=seed)
        self.circuitformer = Circuitformer(circuitformer_config, self.vocab, seed=seed)
        # A small seed-ensemble of aggregation MLPs: with only ~20 training
        # designs, averaging independently-initialized heads in log space
        # cuts prediction variance materially.
        self.aggregators = [AggregationMLP(seed=seed + i)
                            for i in range(num_aggregators)]
        self.training_config = training_config or TrainingConfig(seed=seed)
        self.circuitformer_history = []
        self.aggregator_curve = []
        self._fitted = False

    @property
    def aggregator(self) -> AggregationMLP:
        """The first ensemble member (kept for single-model workflows)."""
        return self.aggregators[0]

    @aggregator.setter
    def aggregator(self, value: AggregationMLP) -> None:
        self.aggregators = [value]

    # ------------------------------------------------------------------ #
    # Training (Figure 4)
    # ------------------------------------------------------------------ #
    def fit(self, train_designs: list[DesignRecord],
            synthesizer: Synthesizer | None = None,
            augmentation: AugmentationConfig | None = None,
            path_records=None, verbose: bool = False) -> "SNS":
        """Train on a Hardware Design Dataset training split.

        ``augmentation=None`` disables synthetic path generation;
        ``path_records`` lets callers supply a pre-built Circuit Path
        Dataset (skipping sampling + labeling).

        Both models train through one shared
        :class:`repro.runtime.trainer.TrainingEngine` built from
        ``training_config``: bucket encodings persist across epochs, the
        design features feeding the aggregator ensemble are computed
        once (``PathSampler.sample`` reseeds per call, so sharing is
        bit-identical to recomputing them per member).  Under an open
        :func:`repro.obs.record` the engine records its training spans
        and counters there.
        """
        from ..runtime.trainer import TrainingEngine

        synthesizer = synthesizer or Synthesizer(effort="medium")
        if path_records is None:
            path_records = sample_path_dataset(
                train_designs, sampler=self.sampler, synthesizer=synthesizer)
            if augmentation is not None:
                path_records = augment_path_dataset(
                    path_records, config=augmentation,
                    synthesizer=synthesizer, vocab=self.vocab)
        if verbose:
            print(f"[sns] circuit path dataset: {len(path_records)} paths")
        engine = TrainingEngine.from_config(self.training_config)
        self.circuitformer_history = train_circuitformer(
            self.circuitformer, path_records, self.training_config,
            verbose=verbose, engine=engine)
        features = engine.prepare_design_features(
            train_designs, self.circuitformer, self.sampler)
        for i, aggregator in enumerate(self.aggregators):
            member_config = replace(self.training_config,
                                    seed=self.training_config.seed + i)
            curve = train_aggregator(
                aggregator, train_designs, self.circuitformer, self.sampler,
                member_config, verbose=verbose and i == 0, engine=engine,
                features=features)
            if i == 0:
                self.aggregator_curve = curve
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    # Prediction (Figure 1)
    # ------------------------------------------------------------------ #
    def _aggregate(self, graph: CompiledGraph, paths, preds,
                   activity: dict[int, float] | None = None):
        """Reduce per-path predictions to design-level values.

        Shared verbatim by :meth:`predict` and the batched
        :class:`repro.runtime.BatchPredictor`, so the two paths cannot
        numerically drift apart.  Returns
        ``(timing, area, power, spread, critical_path)``.
        """
        reduction = reduce_paths(preds, paths)
        features = featurize_design(graph, preds, paths, self.vocab)
        # Ensemble in log space (the heads regress log residuals).  Median
        # rather than mean: a single member extrapolating badly on an
        # out-of-distribution design would otherwise dominate the linear-
        # space error.
        member_logs = np.stack([
            np.log1p(member.predict(features)) for member in self.aggregators])
        timing, area, power = np.expm1(np.median(member_logs, axis=0))
        spread_values = np.exp(member_logs.std(axis=0))
        spread = dict(zip(("timing", "area", "power"),
                          (float(s) for s in spread_values)))

        if activity:
            # Power gating (Section 3.4.4): each path's power scales by its
            # registers' activity coefficients.  Applied as a ratio against
            # the ungated sum so it composes with the MLP calibration.
            gated = reduce_paths(preds, paths, activity=activity)
            if reduction[2] > 0:
                power *= gated[2] / reduction[2]

        critical = None
        if len(paths) > 0:
            critical = paths[int(np.argmax(preds[:, 0]))]
        return float(timing), float(area), float(power), spread, critical

    def predict(self, design: CompiledGraph | Module,
                activity: dict[int, float] | None = None) -> SNSPrediction:
        """Predict area, power, and timing of a design.

        ``activity`` optionally maps register node ids to activity
        coefficients (power gating, Section 3.4.4).
        """
        if not self._fitted:
            raise RuntimeError("SNS.fit() must run before predict()")
        start = time.perf_counter()
        graph = design if isinstance(design, CompiledGraph) else design.elaborate()

        paths = self.sampler.sample(graph)
        preds = self.circuitformer.predict_paths([p.tokens for p in paths])
        timing, area, power, spread, critical = self._aggregate(
            graph, paths, preds, activity)

        return SNSPrediction(
            design=graph.name,
            timing_ps=timing,
            area_um2=area,
            power_mw=power,
            runtime_s=time.perf_counter() - start,
            num_paths=len(paths),
            critical_path=critical,
            spread=spread,
        )
