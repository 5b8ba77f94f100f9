"""``repro.datagen`` — dataset generation (Section 4 of the paper).

Builds the Hardware Design Dataset (Table 4) and the Circuit Path Dataset
(Table 5), including Markov-chain and SeqGAN augmentation of the path
dataset for training under data scarcity.
"""

from .dataset import (
    DesignRecord,
    PathRecord,
    build_design_dataset,
    sample_path_dataset,
    train_test_split_by_family,
)
from .markov import MarkovChainGenerator
from .seqgan import SeqGAN, SeqGANConfig
from .augment import AugmentationConfig, augment_path_dataset

__all__ = [
    "DesignRecord", "PathRecord",
    "build_design_dataset",
    "sample_path_dataset", "train_test_split_by_family",
    "MarkovChainGenerator",
    "SeqGAN", "SeqGANConfig",
    "AugmentationConfig", "augment_path_dataset",
]
