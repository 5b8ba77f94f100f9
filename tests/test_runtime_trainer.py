"""Tests for the length-bucketed training engine (``repro.runtime.trainer``).

Covers the engine's three contracts:

- **Compatibility parity** — with ``bucketed=False`` the engine's loss
  curves and final weights match the reference loops
  (``tests/oracles/training.py``) bit-for-bit;
- **Fused kernels** — the in-place Adam/SGD steps are bit-identical to
  the allocate-per-step reference optimizers
  (``tests/oracles/optim.py``), bump
  ``Parameter.version``, and the vectorized ``clip_grad_norm`` computes
  the same norm/scaling as the naive per-array formulation;
- **Memory discipline** — ``backward`` frees the autograd graph, and
  bucket encodings are built once and reused (``PreparedPathDataset``);
  the serve path's ``EncodingCache`` hits and evicts as an LRU.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro import nn, obs
from repro.core.aggregator import AggregationMLP
from repro.core.circuitformer import Circuitformer, CircuitformerConfig, encode_batch
from repro.core.sampler import PathSampler
from repro.core.training import (TrainingConfig, train_aggregator,
                                 train_circuitformer)
from repro.datagen import build_design_dataset
from repro.datagen.dataset import PathRecord
from repro.designs import standard_designs
from repro.graphir import Vocabulary
from repro.runtime import EncodingCache, PreparedPathDataset, TrainingEngine
from repro.synth import Synthesizer
from tests.oracles.optim import ReferenceAdam, ReferenceSGD
from tests.oracles.training import (train_aggregator_reference,
                                    train_circuitformer_reference)

TINY_CF = CircuitformerConfig(embedding_size=16, dim_feedforward=32,
                              max_input_size=64)
VOCAB = Vocabulary.standard()
TOKENS = list(VOCAB.tokens)[:12]


def make_records(n: int, seed: int = 42) -> list[PathRecord]:
    """Synthetic mixed-length path records: mostly short, a long tail."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        r = rng.random()
        if r < 0.7:
            length = int(rng.integers(3, 12))
        elif r < 0.9:
            length = int(rng.integers(12, 40))
        else:
            length = int(rng.integers(40, 60))
        tokens = tuple(TOKENS[int(j)]
                       for j in rng.integers(0, len(TOKENS), length))
        records.append(PathRecord(
            tokens=tokens,
            timing_ps=float(rng.random() * 100 + 10),
            area_um2=float(rng.random() * 50 + 1),
            power_mw=float(rng.random() * 5 + 0.1)))
    return records


@pytest.fixture(scope="module")
def records():
    return make_records(48)


@pytest.fixture(scope="module")
def tiny_designs():
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs()
               if e.name in ("gpio16", "piecewise8", "mergesort8", "conv3x3")]
    return build_design_dataset(entries, synth)


# --------------------------------------------------------------------- #
# Compatibility parity
# --------------------------------------------------------------------- #
class TestCompatParity:
    def test_circuitformer_matches_reference_loop(self, records):
        """Engine compat mode == reference loop: curves and weights."""
        config = TrainingConfig(circuitformer_epochs=3, circuitformer_batch=16,
                                seed=0)  # bucketed=False default
        ref_model = Circuitformer(TINY_CF, seed=0)
        ref_hist = train_circuitformer_reference(ref_model, records, config)

        eng_model = Circuitformer(TINY_CF, seed=0)
        eng_hist = train_circuitformer(eng_model, records, config)

        assert [(s.epoch, s.train_loss, s.val_loss) for s in ref_hist] == \
               [(s.epoch, s.train_loss, s.val_loss) for s in eng_hist]
        ref_state, eng_state = ref_model.state_dict(), eng_model.state_dict()
        assert set(ref_state) == set(eng_state)
        for name in ref_state:
            np.testing.assert_allclose(eng_state[name], ref_state[name],
                                       rtol=0, atol=1e-9, err_msg=name)

    def test_aggregator_matches_reference_loop(self, tiny_designs):
        config = TrainingConfig(aggregator_epochs=25, aggregator_batch=2,
                                seed=3)
        circuitformer = Circuitformer(TINY_CF, seed=0)
        sampler = PathSampler(k=5, max_paths=30, seed=0)

        ref_mlp = AggregationMLP(seed=1)
        ref_curve = train_aggregator_reference(
            ref_mlp, tiny_designs, circuitformer, sampler, config)

        eng_mlp = AggregationMLP(seed=1)
        eng_curve = train_aggregator(
            eng_mlp, tiny_designs, circuitformer, sampler, config)

        assert ref_curve == eng_curve
        for r_head, e_head in zip(ref_mlp.heads, eng_mlp.heads):
            for (name, rp), (_, ep) in zip(r_head.named_parameters(),
                                           e_head.named_parameters()):
                np.testing.assert_allclose(np.asarray(ep.data),
                                           np.asarray(rp.data),
                                           rtol=0, atol=1e-9, err_msg=name)


# --------------------------------------------------------------------- #
# Bucketed mode
# --------------------------------------------------------------------- #
class TestBucketedMode:
    def test_deterministic_in_seed(self, records):
        config = TrainingConfig(circuitformer_epochs=2, circuitformer_batch=16,
                                seed=7, bucketed=True)
        runs = []
        for _ in range(2):
            model = Circuitformer(TINY_CF, seed=0)
            hist = train_circuitformer(model, records, config)
            runs.append(([(s.train_loss, s.val_loss) for s in hist],
                         model.state_dict()))
        assert runs[0][0] == runs[1][0]
        for name, value in runs[0][1].items():
            np.testing.assert_array_equal(value, runs[1][1][name])

    def test_trains_and_profiles(self, records, monkeypatch):
        encoded = []

        def counting_encode(seqs, vocab, max_len):
            encoded.append(max_len)
            return encode_batch(seqs, vocab, max_len)

        monkeypatch.setattr("repro.runtime.trainer.encode_batch",
                            counting_encode)
        engine = TrainingEngine(bucketed=True)
        model = Circuitformer(TINY_CF, seed=0)
        config = TrainingConfig(circuitformer_epochs=2, circuitformer_batch=16)
        with obs.record() as recorder:
            hist = engine.train_circuitformer(model, records, config)
        assert len(hist) == 2
        assert all(np.isfinite(s.train_loss) and np.isfinite(s.val_loss)
                   for s in hist)
        run = recorder.as_dict()["spans"]["trainer.circuitformer"]
        assert run["calls"] == 1 and run["seconds"] > 0
        assert set(run["children"]) == {
            "trainer.prepare", "trainer.forward", "trainer.backward",
            "trainer.optimizer", "trainer.validation"}
        counters = recorder.counters
        steps = counters["trainer.circuitformer.steps"]
        assert steps > 0 and counters["trainer.circuitformer.epochs"] == 2
        assert run["children"]["trainer.optimizer"]["calls"] == steps
        buckets = {k: v for k, v in counters.items()
                   if k.startswith("trainer.bucket_rows.")}
        assert sum(buckets.values()) == len(records)
        # Each bucket is encoded once; every later epoch reuses it.
        assert len(encoded) == len(buckets)
        assert "trainer.pool.hits" in counters
        text = recorder.format()
        assert "  trainer.backward" in text and "trainer.bucket_rows." in text

    def test_batches_cover_every_row_once(self, records):
        engine = TrainingEngine(bucketed=True)
        prepared = PreparedPathDataset([r.tokens for r in records], VOCAB,
                                       max_len=63, bucketed=True)
        train_idx = np.arange(len(records))
        rng = np.random.default_rng(0)
        batches = list(engine._epoch_batches(prepared, train_idx, 8, rng))
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == train_idx.tolist()
        for batch in batches:
            assert len(set(prepared.bucket_of[batch].tolist())) == 1


# --------------------------------------------------------------------- #
# Prepared encodings
# --------------------------------------------------------------------- #
class TestPreparedDataset:
    def test_compat_slice_matches_global_encode(self, records):
        seqs = [r.tokens for r in records]
        max_len = min(63, max(len(s) for s in seqs))
        prepared = PreparedPathDataset(seqs, VOCAB, max_len, bucketed=False)
        ids, mask = encode_batch(seqs, VOCAB, max_len)
        rows = np.array([5, 0, 17, 3])
        got_ids, got_mask = prepared.slice(rows)
        np.testing.assert_array_equal(got_ids, ids[rows])
        np.testing.assert_array_equal(got_mask, mask[rows])

    def test_bucketed_slice_matches_bucket_encode(self, records):
        seqs = [r.tokens for r in records]
        prepared = PreparedPathDataset(seqs, VOCAB, 63, bucketed=True)
        for bucket, rows in prepared.group_by_bucket(
                np.arange(len(seqs))).items():
            ids, mask = encode_batch([seqs[r] for r in rows], VOCAB, bucket)
            got_ids, got_mask = prepared.slice(rows)
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_mask, mask)

    def test_bucketing_shrinks_padding(self, records):
        seqs = [r.tokens for r in records]
        bucketed = PreparedPathDataset(seqs, VOCAB, 63, bucketed=True)
        padded = PreparedPathDataset(seqs, VOCAB, 63, bucketed=False)
        assert bucketed.padded_cells() < padded.padded_cells()

    def test_encoding_cache_hits_and_lru_eviction(self):
        cache = EncodingCache(max_entries=2)
        seqs_a = [tuple(TOKENS[:3]), tuple(TOKENS[2:6])]
        seqs_b = [tuple(TOKENS[1:5])]
        first = cache.encode(seqs_a, VOCAB, 8)
        again = cache.encode(seqs_a, VOCAB, 8)
        assert again[0] is first[0] and cache.hits == 1
        np.testing.assert_array_equal(first[0],
                                      encode_batch(seqs_a, VOCAB, 8)[0])
        cache.encode(seqs_b, VOCAB, 8)
        cache.encode(seqs_a, VOCAB, 16)  # evicts the (seqs_a, 8) entry
        assert len(cache) == 2
        cache.encode(seqs_a, VOCAB, 8)
        assert cache.misses == 4  # re-encoded after eviction


# --------------------------------------------------------------------- #
# Autograd memory discipline
# --------------------------------------------------------------------- #
class TestGraphFreeing:
    def _build_loss(self):
        rng = np.random.default_rng(0)
        x = nn.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        mid = x.matmul(w)
        loss = (mid * mid).sum()
        return x, mid, loss

    def test_backward_frees_graph(self):
        x, mid, loss = self._build_loss()
        ref = weakref.ref(mid)
        loss.backward()
        assert loss._parents == () and loss._backward is None
        assert x.grad is not None
        del mid, loss
        assert ref() is None

    def test_free_graph_false_retains_graph(self):
        x, mid, loss = self._build_loss()
        ref = weakref.ref(mid)
        loss.backward(free_graph=False)
        assert loss._parents != ()
        del mid
        assert ref() is not None
        del loss
        assert ref() is None


# --------------------------------------------------------------------- #
# Fused optimizers and version tracking
# --------------------------------------------------------------------- #
def _optimizer_trajectory(opt_cls, steps: int = 10, **kwargs):
    rng = np.random.default_rng(0)
    params = [nn.Parameter(rng.normal(size=(6, 5))),
              nn.Parameter(rng.normal(size=(5,)))]
    opt = opt_cls(params, **kwargs)
    grad_rng = np.random.default_rng(1)
    for _ in range(steps):
        for p in params:
            p.grad = grad_rng.normal(size=p.shape)
        opt.step(max_grad_norm=1.5)
    return [np.array(p.data) for p in params]


class TestFusedOptimizers:
    def test_fused_adam_bit_identical_to_reference(self):
        fused = _optimizer_trajectory(nn.Adam, lr=0.01, weight_decay=1e-2)
        ref = _optimizer_trajectory(ReferenceAdam, lr=0.01, weight_decay=1e-2)
        for f, r in zip(fused, ref):
            np.testing.assert_array_equal(f, r)

    def test_fused_sgd_bit_identical_to_reference(self):
        fused = _optimizer_trajectory(nn.SGD, lr=0.05, momentum=0.9,
                                      weight_decay=1e-3)
        ref = _optimizer_trajectory(ReferenceSGD, lr=0.05, momentum=0.9,
                                    weight_decay=1e-3)
        for f, r in zip(fused, ref):
            np.testing.assert_array_equal(f, r)

    def test_fused_step_bumps_parameter_version(self):
        p = nn.Parameter(np.ones((3, 3)))
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.ones((3, 3))
        before = p.version
        opt.step()
        assert p.version > before

    def test_inplace_data_mutations_bump_version(self):
        p = nn.Parameter(np.zeros(4))
        base = p.version
        p.data += 1.0
        assert p.version == base + 1
        np.multiply(p.data, 2.0, out=p.data)
        assert p.version == base + 2
        p.data[1] = 5.0
        assert p.version == base + 3
        np.add.at(p.data, [0], 1.0)
        assert p.version == base + 4
        _ = p.data * 3.0  # ordinary read: no bump
        assert p.version == base + 4

    def test_clip_grad_norm_matches_naive(self):
        rng = np.random.default_rng(5)
        params = [nn.Parameter(rng.normal(size=shape))
                  for shape in ((3, 4), (7,), (2, 2, 2))]
        for p in params:
            p.grad = rng.normal(size=p.shape) * 10.0
        raw = [p.grad.copy() for p in params]
        expected_norm = float(np.sqrt(sum(float((g * g).sum()) for g in raw)))
        norm = nn.clip_grad_norm(params, 1.0)
        assert norm == pytest.approx(expected_norm, rel=1e-12)
        for p, g in zip(params, raw):
            np.testing.assert_allclose(p.grad, g * (1.0 / expected_norm),
                                       rtol=1e-12, atol=0)

    def test_clip_grad_norm_below_threshold_is_noop(self):
        p = nn.Parameter(np.zeros(3))
        p.grad = np.array([0.1, 0.2, 0.05])
        before = p.grad.copy()
        nn.clip_grad_norm([p], 5.0)
        np.testing.assert_array_equal(p.grad, before)
