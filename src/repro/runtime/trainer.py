"""The length-bucketed training engine with fused optimizer steps.

:class:`TrainingEngine` is the throughput path for fitting the
Circuitformer and the Aggregation MLP.  It differs from the seed
training loops (kept as the test oracle ``tests/oracles/training.py``)
in four ways:

1. **Length-bucketed minibatching** — path records are grouped into
   padded-length buckets (:data:`~repro.core.circuitformer.BUCKET_BOUNDARIES`),
   so a batch of 6-token paths runs a 9-wide forward pass instead of
   padding to the longest path in the dataset.  Shuffling stays
   deterministic in the training seed: the record order is permuted,
   records are grouped by bucket, and the resulting batch list is
   permuted again — all from the one ``TrainingConfig.seed`` stream.
2. **Fused optimizer steps** — ``opt.step(max_grad_norm=...)`` folds
   global-norm clipping into the in-place :class:`repro.nn.Adam` /
   :class:`repro.nn.SGD` kernels (bit-identical to the reference
   optimizers in ``tests/oracles/optim.py``, allocation-free after the
   first step).
3. **Autograd memory discipline** — every ``backward`` runs with
   ``free_graph=True``, releasing closure references as soon as each
   node's gradient is propagated, and the big attention temporaries
   recycle through :data:`repro.nn.scratch_pool`.
4. **Epoch-persistent encoding** — each bucket is encoded *once* into a
   :class:`PreparedPathDataset` and sliced per batch for every epoch,
   instead of re-padding per step.

``TrainingConfig.bucketed`` is the one switch.  Compatibility mode
(``bucketed=False``, the default) replicates the reference loops'
padding, batch composition, and RNG consumption *exactly*, so its loss
curves and final weights match the seed implementation to the last bit
(asserted in the test suite).  Bucketed mode changes padded widths —
and therefore BLAS kernel selection and rounding — so it reproduces
the seed curves statistically, not bitwise (the same caveat
``predict_unique`` documents for inference).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from .. import nn, obs
from ..core.circuitformer import (TargetScaler, bucket_for_length,
                                  encode_batch)
from ..core.training import EpochStats, TrainingConfig

__all__ = ["EncodingCache", "PreparedPathDataset", "TrainingEngine"]


class EncodingCache:
    """LRU cache over :func:`~repro.core.circuitformer.encode_batch`.

    Keyed on ``(vocabulary, padded length, token sequences)``; a hit
    returns the previously-built ``(ids, pad_mask)`` pair without
    touching numpy.  A served model's
    :class:`~repro.runtime.engine.BatchPredictor` hands one to
    ``predict_unique``, which re-encodes the same bucket chunks across
    requests.  Entries hold a strong reference to their vocabulary so
    ``id(vocab)`` keys cannot be recycled while an entry lives.

    Consumers must treat returned arrays as read-only (they only ever
    index them, which copies).
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def encode(self, token_seqs, vocab, max_len: int):
        """Cached ``encode_batch(token_seqs, vocab, max_len)``."""
        key = (id(vocab), int(max_len), tuple(tuple(s) for s in token_seqs))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        pair = encode_batch(list(token_seqs), vocab, int(max_len))
        self._entries[key] = (vocab, pair)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return pair

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}


class PreparedPathDataset:
    """Token sequences encoded once, sliceable per batch across epochs.

    In bucketed mode every sequence is assigned the smallest
    :data:`~repro.core.circuitformer.BUCKET_BOUNDARIES` boundary that
    holds it and each bucket is encoded at its own padded width.  In
    compatibility mode (``bucketed=False``) there is a single global
    bucket padded to ``max_len`` whose row order matches the input —
    ``slice(rows)`` is then exactly ``ids[rows], mask[rows]`` of the
    reference loop's one-shot encoding.
    """

    def __init__(self, token_seqs, vocab, max_len: int, bucketed: bool = True):
        self.max_len = int(max_len)
        self.bucketed = bool(bucketed)
        n = len(token_seqs)
        if bucketed:
            bucket_of = np.fromiter(
                (bucket_for_length(len(s), self.max_len) for s in token_seqs),
                dtype=np.int64, count=n)
        else:
            bucket_of = np.full(n, self.max_len, dtype=np.int64)
        self.bucket_of = bucket_of
        self.local_of = np.empty(n, dtype=np.int64)
        self._store: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for bucket in sorted(set(bucket_of.tolist())):
            idx = np.flatnonzero(bucket_of == bucket)
            ids, mask = encode_batch([token_seqs[i] for i in idx], vocab,
                                     bucket)
            self.local_of[idx] = np.arange(len(idx))
            self._store[int(bucket)] = (ids, mask)

    def __len__(self) -> int:
        return len(self.bucket_of)

    @property
    def buckets(self) -> list[int]:
        return sorted(self._store)

    def bucket_histogram(self) -> dict[int, int]:
        """Rows per padded width (the profile's bucket occupancy report)."""
        return {bucket: int(self._store[bucket][0].shape[0])
                for bucket in self.buckets}

    def padded_cells(self) -> int:
        """Total (row, position) cells across all encodings."""
        return int(sum(ids.size for ids, _ in self._store.values()))

    def slice(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, pad_mask)`` for ``rows``, which must share one bucket."""
        bucket = int(self.bucket_of[rows[0]])
        ids, mask = self._store[bucket]
        loc = self.local_of[rows]
        return ids[loc], mask[loc]

    def group_by_bucket(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        """Partition ``rows`` by bucket, preserving order within each."""
        groups: dict[int, list[int]] = {}
        for r in rows:
            groups.setdefault(int(self.bucket_of[r]), []).append(int(r))
        return {b: np.asarray(v, dtype=np.int64) for b, v in groups.items()}


class TrainingEngine:
    """Length-bucketed, fused-optimizer training over the nn stack.

    The Circuitformer run's ``TrainingConfig.bucketed`` picks the mode:
    ``True`` groups records into padded-length buckets (throughput
    mode); ``False`` is the compatibility mode, whose padding, batch
    composition, and RNG consumption replicate the reference loops
    exactly, so the engine reproduces the seed loss curves bit-for-bit.
    The mode rides on the :class:`PreparedPathDataset` the run builds.

    Under an open :func:`repro.obs.record`, each run is a
    ``trainer.circuitformer`` or ``trainer.aggregator`` span whose
    children are ``trainer.prepare``, ``trainer.forward``,
    ``trainer.backward``, ``trainer.optimizer`` and (Circuitformer only)
    ``trainer.validation``; counters add up steps, epochs, rows per
    padded width (``trainer.bucket_rows.<width>``) and the scratch-pool
    statistics' growth during the run.
    """

    # ------------------------------------------------------------------ #
    # Circuitformer
    # ------------------------------------------------------------------ #
    def train_circuitformer(self, model, records, config: TrainingConfig | None = None,
                            verbose: bool = False) -> list[EpochStats]:
        """Fit the Circuitformer on the Circuit Path Dataset; returns curves."""
        config = config or TrainingConfig()
        if len(records) < 4:
            raise ValueError(f"need at least 4 path records, got {len(records)}")
        with obs.span("trainer.circuitformer"), self._run_stats():
            rng = np.random.default_rng(config.seed)

            with obs.span("trainer.prepare"):
                labels = np.stack([r.labels for r in records])
                model.scaler = TargetScaler.fit(labels)
                targets = model.scaler.transform(labels)
                max_len = min(model.config.max_input_size - 1,
                              max(len(r.tokens) for r in records))
                prepared = PreparedPathDataset(
                    [r.tokens for r in records], model.vocab, max_len,
                    bucketed=config.bucketed)
            for bucket, rows in prepared.bucket_histogram().items():
                obs.count(f"trainer.bucket_rows.{bucket}", rows)

            n = len(records)
            n_val = max(1, int(round(config.validation_fraction * n)))
            perm = rng.permutation(n)
            val_idx, train_idx = perm[:n_val], perm[n_val:]

            opt = nn.Adam(model.parameters(), lr=config.circuitformer_lr)

            history: list[EpochStats] = []
            for epoch in range(config.circuitformer_epochs):
                model.train()
                train_losses = []
                for batch in self._epoch_batches(prepared, train_idx,
                                                 config.circuitformer_batch, rng):
                    ids, mask = prepared.slice(batch)
                    with obs.span("trainer.forward"):
                        pred = model.forward(ids, mask)
                        loss = nn.mse_loss(pred, targets[batch])
                    opt.zero_grad()
                    with obs.span("trainer.backward"):
                        loss.backward()
                    with obs.span("trainer.optimizer"):
                        opt.step(max_grad_norm=5.0)
                    train_losses.append(loss.item())
                    obs.count("trainer.circuitformer.steps")
                model.eval()
                with obs.span("trainer.validation"):
                    val_loss = self._validation_loss(model, prepared, val_idx,
                                                     targets)
                stats = EpochStats(epoch, float(np.mean(train_losses)), val_loss)
                history.append(stats)
                obs.count("trainer.circuitformer.epochs")
                if verbose:
                    print(f"[circuitformer] epoch {epoch:3d} "
                          f"train {stats.train_loss:.4f} val {stats.val_loss:.4f}")
            return history

    def _epoch_batches(self, prepared: PreparedPathDataset,
                       train_idx: np.ndarray, batch_size: int,
                       rng: np.random.Generator):
        """One epoch's batches, deterministic in the rng stream.

        Compatibility mode consumes the rng exactly like the reference
        loop (one ``permutation(train_idx)`` per epoch, contiguous
        slices).  Bucketed mode permutes the row order, groups rows by
        bucket, chunks each group, then permutes the batch list — two
        draws per epoch, but still a pure function of the seed stream.
        """
        if not prepared.bucketed:
            order = rng.permutation(train_idx)
            for lo in range(0, len(order), batch_size):
                yield order[lo:lo + batch_size]
            return
        shuffled = train_idx[rng.permutation(len(train_idx))]
        batches = []
        for rows in prepared.group_by_bucket(shuffled).values():
            for lo in range(0, len(rows), batch_size):
                batches.append(rows[lo:lo + batch_size])
        for j in rng.permutation(len(batches)):
            yield batches[j]

    def _validation_loss(self, model, prepared: PreparedPathDataset,
                         val_idx: np.ndarray, targets: np.ndarray) -> float:
        with nn.no_grad():
            if not prepared.bucketed:
                ids, mask = prepared.slice(val_idx)
                val_pred = model.forward(ids, mask)
                return nn.mse_loss(val_pred, targets[val_idx]).item()
            # Per-bucket forward passes; aggregate as sum-of-squared-errors
            # over element count, which equals the global-batch MSE.
            sse = 0.0
            count = 0
            for rows in prepared.group_by_bucket(val_idx).values():
                ids, mask = prepared.slice(rows)
                pred = model.forward(ids, mask).numpy()
                err = pred - targets[rows]
                sse += float((err * err).sum())
                count += err.size
            return sse / count

    # ------------------------------------------------------------------ #
    # Aggregation MLP
    # ------------------------------------------------------------------ #
    def prepare_design_features(self, designs, circuitformer, sampler) -> list:
        """Sample + predict + featurize every design once.

        The result can be passed to :meth:`train_aggregator` for each
        ensemble member — ``PathSampler.sample`` reseeds per call, so
        sharing features is bit-identical to recomputing them per member
        while paying the Circuitformer inference cost once.
        """
        from ..core.aggregator import featurize_design

        features = []
        for record in designs:
            paths = sampler.sample(record.graph)
            preds = circuitformer.predict_paths([p.tokens for p in paths])
            features.append(featurize_design(record.graph, preds, paths,
                                             circuitformer.vocab))
        return features

    def train_aggregator(self, mlp, designs, circuitformer, sampler,
                         config: TrainingConfig | None = None,
                         verbose: bool = False, features: list | None = None) -> list[float]:
        """Fit the Aggregation MLP on design-level labels; returns the curve.

        ``features`` may carry the output of
        :meth:`prepare_design_features` to skip the sampling + inference
        stage (used by ``SNS.fit`` to share it across ensemble members).
        """
        config = config or TrainingConfig()
        if len(designs) < 2:
            raise ValueError(f"need at least 2 design records, got {len(designs)}")
        with obs.span("trainer.aggregator"), self._run_stats():
            rng = np.random.default_rng(config.seed + 1)

            with obs.span("trainer.prepare"):
                if features is None:
                    features = self.prepare_design_features(designs, circuitformer, sampler)
                labels = np.stack([d.labels for d in designs])

                # Stage 1: closed-form physics calibration (area, energy, timing scale).
                mlp.fit_physics(features, labels)
                physics = np.stack([mlp.physics_predict(f) for f in features])

                # Stage 2: the per-target residual MLPs.
                log_inputs = np.stack([f.log_vector(p) for f, p in zip(features, physics)])
                residuals = np.log1p(labels) - np.log1p(physics)
                mlp.fit_scalers(log_inputs, residuals)
                targets = (residuals - mlp.residual_mean) / mlp.residual_std

            params = [p for head in mlp.heads for p in head.parameters()]
            opt = nn.Adam(params, lr=config.aggregator_lr,
                          weight_decay=config.aggregator_weight_decay)

            n = len(designs)
            curve: list[float] = []
            for epoch in range(config.aggregator_epochs):
                order = rng.permutation(n)
                losses = []
                for lo in range(0, n, config.aggregator_batch):
                    batch = order[lo:lo + config.aggregator_batch]
                    with obs.span("trainer.forward"):
                        total = None
                        for t in range(3):
                            pred = mlp.forward(log_inputs[batch], t).reshape(len(batch))
                            loss = nn.mse_loss(pred, targets[batch, t])
                            total = loss if total is None else total + loss
                    opt.zero_grad()
                    with obs.span("trainer.backward"):
                        total.backward()
                    with obs.span("trainer.optimizer"):
                        opt.step(max_grad_norm=5.0)
                    losses.append(total.item() / 3.0)
                    obs.count("trainer.aggregator.steps")
                curve.append(float(np.mean(losses)))
                obs.count("trainer.aggregator.epochs")
                if verbose and epoch % max(1, config.aggregator_epochs // 10) == 0:
                    print(f"[aggregator] epoch {epoch:4d} loss {curve[-1]:.4f}")
            return curve

    # ------------------------------------------------------------------ #
    @contextmanager
    def _run_stats(self):
        """Count the scratch-pool statistics' growth over one run
        (``trainer.pool.*``)."""
        before = nn.scratch_pool.stats()
        yield
        for key, value in nn.scratch_pool.stats().items():
            obs.count(f"trainer.pool.{key}", value - before[key])
