"""Experiment quality presets.

Every evaluation harness accepts an :class:`ExperimentSettings`; the
``fast`` preset keeps CI runs in seconds, ``full`` reproduces the paper's
experiments at CPU-tractable training budgets (the preset the committed
EXPERIMENTS.md numbers come from; the benchmark harness calls it
``paper``).  The paper's GPU epoch counts are in
``repro.core.PAPER_HYPERPARAMS``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import CircuitformerConfig, PathSampler, TrainingConfig
from ..datagen import AugmentationConfig, SeqGANConfig

__all__ = ["ExperimentSettings", "FAST", "FULL"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by the evaluation harnesses."""

    name: str
    synth_effort: str
    sampler_max_paths: int
    sampler_k: int
    circuitformer: CircuitformerConfig
    training: TrainingConfig
    augmentation: AugmentationConfig | None
    max_design_nodes: int | None = None
    seed: int = 0

    def make_sampler(self) -> PathSampler:
        return PathSampler(k=self.sampler_k, max_paths=self.sampler_max_paths,
                           seed=self.seed)


FAST = ExperimentSettings(
    name="fast",
    synth_effort="low",
    sampler_max_paths=60,
    sampler_k=5,
    circuitformer=CircuitformerConfig(embedding_size=32, dim_feedforward=64,
                                      max_input_size=128),
    training=TrainingConfig(circuitformer_epochs=8, aggregator_epochs=200),
    augmentation=None,
    max_design_nodes=2500,
)

FULL = ExperimentSettings(
    name="full",
    synth_effort="medium",
    sampler_max_paths=300,
    sampler_k=5,
    circuitformer=CircuitformerConfig(),  # Table 2 defaults
    training=TrainingConfig(circuitformer_epochs=20, aggregator_epochs=400),
    augmentation=AugmentationConfig(
        markov_paths=300, seqgan_paths=400, max_len=48,
        seqgan=SeqGANConfig(max_len=48, pretrain_epochs=25, adversarial_rounds=6),
    ),
    max_design_nodes=None,
)
