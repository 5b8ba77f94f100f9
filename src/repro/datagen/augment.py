"""Path-dataset augmentation orchestration (Section 4.2).

Combines directly-sampled paths with Markov-chain and SeqGAN generations
(the paper: 684 sampled + ~1000 Markov + ~3000 SeqGAN = 4000+ unique
paths), then labels the synthetic paths with the reference synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphir import Vocabulary
from ..synth import Synthesizer
from .dataset import PathRecord
from .markov import MarkovChainGenerator
from .seqgan import SeqGAN, SeqGANConfig

__all__ = ["AugmentationConfig", "augment_path_dataset"]


@dataclass(frozen=True)
class AugmentationConfig:
    """How many synthetic paths to generate from each method."""

    markov_paths: int = 256
    seqgan_paths: int = 512
    max_len: int = 32
    seed: int = 0
    seqgan: SeqGANConfig | None = None


def augment_path_dataset(sampled: list[PathRecord],
                         config: AugmentationConfig | None = None,
                         synthesizer: Synthesizer | None = None,
                         vocab: Vocabulary | None = None) -> list[PathRecord]:
    """Return sampled + generated PathRecords (all unique, all labeled)."""
    config = config or AugmentationConfig()
    synthesizer = synthesizer or Synthesizer(effort="medium")
    vocab = vocab or Vocabulary.standard()

    real_tokens = [r.tokens for r in sampled]
    seen = set(real_tokens)
    generated: list[tuple[str, ...]] = []

    if config.markov_paths > 0 and real_tokens:
        markov = MarkovChainGenerator(seed=config.seed).fit(real_tokens)
        generated.extend(markov.generate(
            config.markov_paths, max_len=config.max_len, exclude=seen))
        seen.update(generated)

    if config.seqgan_paths > 0 and real_tokens:
        gan_cfg = config.seqgan or SeqGANConfig(max_len=config.max_len)
        gan = SeqGAN(vocab=vocab, config=gan_cfg, seed=config.seed).fit(real_tokens)
        generated.extend(gan.generate(config.seqgan_paths, exclude=seen))

    out = list(sampled)
    # One batched labeling call over the synthetic paths.
    labels = synthesizer.synthesize_path_batch([list(t) for t in generated])
    for tokens, label in zip(generated, labels):
        out.append(PathRecord(
            tokens=tokens,
            timing_ps=label.timing_ps,
            area_um2=label.area_um2,
            power_mw=label.power_mw,
        ))
    return out
