"""Accuracy experiments: Figure 6, Table 7, and the D-SAGE comparison.

Implements the paper's protocol (Section 5.2): 2-fold cross-validation
at a 50% training fraction — part A evaluated by the model trained on
part B and vice versa — plus the scarce-data variant (30% training /
70% testing), always splitting by design family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import DSAGEConfig, DSAGETimingModel
from ..core import SNS, maep, rrse
from ..datagen import (
    DesignRecord,
    build_design_dataset,
    sample_path_dataset,
    augment_path_dataset,
    train_test_split_by_family,
)
from ..designs import standard_designs
from ..synth import Synthesizer
from .settings import FAST, ExperimentSettings

__all__ = ["PredictionRow", "AccuracyReport", "build_dataset", "fit_sns",
           "evaluate_split", "scarce_data_run",
           "dsage_timing_comparison"]

TARGETS = ("timing", "area", "power")


@dataclass(frozen=True)
class PredictionRow:
    """One Figure 6 scatter point: a design's predicted vs actual values."""

    design: str
    predicted: tuple[float, float, float]   # timing_ps, area_um2, power_mw
    actual: tuple[float, float, float]


@dataclass(frozen=True)
class AccuracyReport:
    """RRSE/MAEP per target plus the underlying scatter rows."""

    rows: tuple[PredictionRow, ...]
    rrse: dict[str, float]
    maep: dict[str, float]

    @classmethod
    def from_rows(cls, rows: list[PredictionRow]) -> "AccuracyReport":
        pred = np.array([r.predicted for r in rows])
        act = np.array([r.actual for r in rows])
        return cls(
            rows=tuple(rows),
            rrse={t: rrse(pred[:, i], act[:, i]) for i, t in enumerate(TARGETS)},
            maep={t: maep(pred[:, i], act[:, i]) for i, t in enumerate(TARGETS)},
        )


def build_dataset(settings: ExperimentSettings = FAST,
                  num_workers: int | None = 1,
                  cache_dir=None) -> list[DesignRecord]:
    """Synthesize the 41-design Hardware Design Dataset (Table 4).

    ``num_workers``/``cache_dir`` pass through to
    :func:`repro.datagen.build_design_dataset` (process-pool fan-out and
    the artifact store that keeps synthesis labels); the records are
    bit-identical either way.
    """
    synth = Synthesizer(effort=settings.synth_effort)
    return build_design_dataset(standard_designs(), synth,
                                max_nodes=settings.max_design_nodes,
                                num_workers=num_workers, cache_dir=cache_dir)


def fit_sns(train: list[DesignRecord], settings: ExperimentSettings = FAST) -> SNS:
    """Run the Figure 4 training flow on one training split."""
    synth = Synthesizer(effort=settings.synth_effort)
    sampler = settings.make_sampler()
    paths = sample_path_dataset(train, sampler, synth)
    if settings.augmentation is not None:
        paths = augment_path_dataset(paths, settings.augmentation, synth)
    sns = SNS(sampler=sampler, circuitformer_config=settings.circuitformer,
              training_config=settings.training, seed=settings.seed)
    sns.fit(train, synthesizer=synth, path_records=paths)
    return sns


def evaluate_split(sns: SNS, test: list[DesignRecord]) -> list[PredictionRow]:
    """Predict every test design; returns Figure 6 scatter rows."""
    rows = []
    for record in test:
        pred = sns.predict(record.graph)
        rows.append(PredictionRow(
            design=record.name,
            predicted=(pred.timing_ps, pred.area_um2, pred.power_mw),
            actual=(record.timing_ps, record.area_um2, record.power_mw),
        ))
    return rows


def scarce_data_run(records: list[DesignRecord],
                    settings: ExperimentSettings = FAST) -> AccuracyReport:
    """The 30% training / 70% testing robustness run (Table 7 column 2)."""
    train, test = train_test_split_by_family(records, 0.3, seed=settings.seed)
    return AccuracyReport.from_rows(evaluate_split(fit_sns(train, settings), test))


def dsage_timing_comparison(records: list[DesignRecord],
                            settings: ExperimentSettings = FAST,
                            epochs: int = 60) -> float:
    """Timing RRSE of the D-SAGE baseline under the same 2-fold protocol."""
    part_a, part_b = train_test_split_by_family(records, 0.5, seed=settings.seed)
    preds, actuals = [], []
    for train, test in ((part_b, part_a), (part_a, part_b)):
        model = DSAGETimingModel(DSAGEConfig(epochs=epochs, seed=settings.seed))
        model.fit([r.graph for r in train], np.array([r.timing_ps for r in train]))
        preds.extend(model.predict([r.graph for r in test]))
        actuals.extend(r.timing_ps for r in test)
    return rrse(np.array(preds), np.array(actuals))
