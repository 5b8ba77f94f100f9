"""Tests for dataset building, the Markov generator, and SeqGAN."""

import numpy as np
import pytest

from repro.core import PathSampler
from repro.datagen import (
    AugmentationConfig,
    MarkovChainGenerator,
    PathRecord,
    SeqGAN,
    SeqGANConfig,
    augment_path_dataset,
    build_design_dataset,
    sample_path_dataset,
    train_test_split_by_family,
)
from repro.designs import standard_designs
from repro.graphir import Vocabulary
from repro.synth import Synthesizer
from tests.oracles.synth import ReferenceSynthesizer


@pytest.fixture(scope="module")
def small_dataset():
    entries = [e for e in standard_designs()
               if e.name in ("gpio16", "piecewise8", "mergesort8", "radixsort8",
                             "sodor32", "icenet64", "conv3x3", "fpu32")]
    return build_design_dataset(entries, Synthesizer(effort="low"))


class TestDesignDataset:
    def test_records_have_labels(self, small_dataset):
        for r in small_dataset:
            assert r.timing_ps > 0 and r.area_um2 > 0 and r.power_mw > 0
            assert r.graph.num_nodes > 0

    def test_max_nodes_filter(self):
        entries = [e for e in standard_designs() if e.name in ("gpio16", "aes4")]
        records = build_design_dataset(entries, Synthesizer(effort="low"), max_nodes=500)
        assert [r.name for r in records] == ["gpio16"]

    def test_split_keeps_families_together(self, small_dataset):
        train, test = train_test_split_by_family(small_dataset, 0.5, seed=3)
        train_families = {r.family for r in train}
        test_families = {r.family for r in test}
        assert not train_families & test_families
        assert len(train) + len(test) == len(small_dataset)

    def test_split_fraction_validated(self, small_dataset):
        with pytest.raises(ValueError):
            train_test_split_by_family(small_dataset, 0.0)
        with pytest.raises(ValueError):
            train_test_split_by_family(small_dataset, 1.5)

    def test_split_deterministic(self, small_dataset):
        a = train_test_split_by_family(small_dataset, 0.5, seed=1)
        b = train_test_split_by_family(small_dataset, 0.5, seed=1)
        assert [r.name for r in a[0]] == [r.name for r in b[0]]


class TestPathDataset:
    def test_sampled_paths_are_unique_and_labeled(self, small_dataset):
        records = sample_path_dataset(
            small_dataset[:3], sampler=PathSampler(k=5, max_paths=30),
            synthesizer=Synthesizer(effort="low"))
        keys = [r.tokens for r in records]
        assert len(keys) == len(set(keys))
        for r in records:
            assert r.timing_ps > 0 and r.area_um2 > 0

    def test_labels_match_direct_synthesis(self, small_dataset):
        synth = Synthesizer(effort="low")
        records = sample_path_dataset(small_dataset[:1],
                                      sampler=PathSampler(k=5, max_paths=5),
                                      synthesizer=synth)
        oracle = ReferenceSynthesizer(effort="low")
        for r in records:
            direct = oracle.synthesize_path(list(r.tokens))
            assert r.timing_ps == pytest.approx(direct.timing_ps)
            assert r.area_um2 == pytest.approx(direct.area_um2)


REAL_PATHS = [
    ("io8", "mul16", "add16", "dff16"),
    ("dff16", "add16", "dff16"),
    ("io8", "add16", "mul16", "dff16"),
    ("dff16", "mux16", "add16", "dff16"),
    ("io8", "xor8", "and8", "dff8"),
    ("dff8", "sh8", "or8", "dff8"),
    ("io16", "mul32", "add32", "dff32"),
    ("dff32", "add32", "add32", "dff32"),
]


class TestMarkov:
    def test_transition_probs_sum_to_one(self):
        gen = MarkovChainGenerator().fit(REAL_PATHS)
        for state in gen.states:
            assert sum(gen.transition_probs(state).values()) == pytest.approx(1.0)

    def test_transitions_only_observed(self):
        gen = MarkovChainGenerator().fit(REAL_PATHS)
        observed = set()
        for p in REAL_PATHS:
            for a, b in zip(p, p[1:]):
                observed.add((a, b))
        for _ in range(50):
            path = gen.generate_one()
            for a, b in zip(path, path[1:]):
                assert (a, b) in observed

    def test_generates_unique_and_excludes(self):
        gen = MarkovChainGenerator(seed=1).fit(REAL_PATHS)
        exclude = set(REAL_PATHS)
        out = gen.generate(10, exclude=exclude)
        assert len(set(out)) == len(out)
        assert not set(out) & exclude

    def test_respects_max_len(self):
        gen = MarkovChainGenerator(seed=2).fit(REAL_PATHS)
        for p in gen.generate(20, max_len=3, min_len=1):
            assert len(p) <= 3

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            MarkovChainGenerator().fit([])

    def test_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MarkovChainGenerator().generate_one()

    def test_deterministic_with_seed(self):
        a = MarkovChainGenerator(seed=5).fit(REAL_PATHS).generate(5)
        b = MarkovChainGenerator(seed=5).fit(REAL_PATHS).generate(5)
        assert a == b


FAST_GAN = SeqGANConfig(embedding_size=12, hidden_size=16, max_len=8,
                        pretrain_epochs=8, adversarial_rounds=2,
                        disc_steps_per_round=1, batch_size=8)


class TestSeqGAN:
    def test_fit_and_generate_valid_tokens(self):
        vocab = Vocabulary.standard()
        gan = SeqGAN(vocab=vocab, config=FAST_GAN, seed=0).fit(REAL_PATHS)
        paths = gan.generate(5)
        assert paths  # produced something
        for p in paths:
            assert 2 <= len(p) <= FAST_GAN.max_len
            for token in p:
                assert token in vocab

    def test_generate_excludes(self):
        gan = SeqGAN(config=FAST_GAN, seed=0).fit(REAL_PATHS)
        exclude = set(REAL_PATHS)
        for p in gan.generate(5, exclude=exclude):
            assert p not in exclude

    def test_history_records_both_phases(self):
        gan = SeqGAN(config=FAST_GAN, seed=0).fit(REAL_PATHS)
        phases = {h["phase"] for h in gan.history}
        assert phases == {0.0, 1.0}

    def test_pretraining_reduces_mle_loss(self):
        cfg = SeqGANConfig(embedding_size=12, hidden_size=16, max_len=8,
                           pretrain_epochs=25, adversarial_rounds=0, batch_size=8)
        gan = SeqGAN(config=cfg, seed=0).fit(REAL_PATHS)
        pre = [h["loss"] for h in gan.history if h["phase"] == 0.0]
        assert np.mean(pre[-5:]) < np.mean(pre[:5])

    def test_generate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SeqGAN(config=FAST_GAN).generate(1)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            SeqGAN(config=FAST_GAN).fit([])


class TestAugmentation:
    def _records(self):
        labels = Synthesizer(effort="low").synthesize_path_batch(REAL_PATHS)
        return [PathRecord(tokens, lab.timing_ps, lab.area_um2, lab.power_mw)
                for tokens, lab in zip(REAL_PATHS, labels)]

    def test_mix_includes_sampled_and_generated(self):
        sampled = self._records()
        config = AugmentationConfig(markov_paths=6, seqgan_paths=4, max_len=8,
                                    seqgan=FAST_GAN)
        full = augment_path_dataset(sampled, config, Synthesizer(effort="low"))
        assert len(full) > len(sampled)
        keys = [r.tokens for r in full]
        assert len(keys) == len(set(keys))
        for r in full:
            assert r.timing_ps > 0 and r.area_um2 > 0

    def test_zero_augmentation_is_identity(self):
        sampled = self._records()
        config = AugmentationConfig(markov_paths=0, seqgan_paths=0)
        full = augment_path_dataset(sampled, config, Synthesizer(effort="low"))
        assert [r.tokens for r in full] == [r.tokens for r in sampled]
