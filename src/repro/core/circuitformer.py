"""The Circuitformer — a lightweight Transformer for circuit paths.

Table 2 hyperparameters: vocabulary 79 (+2 special tokens), 2 hidden
layers, 2 attention heads, embedding size 128, maximum input 512.  A
``<cls>`` token is prepended and its final embedding feeds a regression
head predicting per-path [timing, area, power] in normalized log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..graphir import Vocabulary

__all__ = ["CircuitformerConfig", "Circuitformer", "TargetScaler", "encode_batch",
           "bucket_for_length", "BUCKET_BOUNDARIES"]

TARGETS = ("timing", "area", "power")

# Padded-length buckets for batched inference.  Sequences are padded to the
# smallest boundary that fits instead of the global maximum, so a 4-token
# path costs a 9-wide forward pass (cls + 8) rather than a 65-wide one.
# Boundaries start at 8: together with the >=2-row batch floor this keeps
# every flattened matmul past the small-matrix BLAS kernels whose summation
# order differs from the large-matrix ones (see ``predict_unique``).
BUCKET_BOUNDARIES = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 511)


def bucket_for_length(length: int, max_len: int) -> int:
    """Smallest bucket boundary that holds ``length`` (clamped to ``max_len``)."""
    length = min(length, max_len)
    for b in BUCKET_BOUNDARIES:
        if b >= length:
            return min(b, max_len)
    return max_len


@dataclass(frozen=True)
class CircuitformerConfig:
    """Model hyperparameters (defaults are the paper's Table 2 column)."""

    vocab_size: int = 79
    hidden_layers: int = 2
    attention_heads: int = 2
    embedding_size: int = 128
    max_input_size: int = 512
    dim_feedforward: int = 512
    dropout: float = 0.1


@dataclass
class TargetScaler:
    """Standardizes log1p-transformed regression targets.

    Physical labels span orders of magnitude (a path's area may be 1 um^2
    or 10^4 um^2), so the model regresses standardized log values.
    """

    mean: np.ndarray = field(default_factory=lambda: np.zeros(3))
    std: np.ndarray = field(default_factory=lambda: np.ones(3))

    @classmethod
    def fit(cls, labels: np.ndarray) -> "TargetScaler":
        logs = np.log1p(np.asarray(labels, dtype=np.float64))
        std = logs.std(axis=0)
        std[std == 0] = 1.0
        return cls(mean=logs.mean(axis=0), std=std)

    def transform(self, labels: np.ndarray) -> np.ndarray:
        return (np.log1p(labels) - self.mean) / self.std

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return np.expm1(scaled * self.std + self.mean)


def encode_batch(token_seqs: list[tuple[str, ...]], vocab: Vocabulary,
                 max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode token sequences into padded id arrays plus a padding mask.

    Returns ``(ids, pad_mask)`` of shape (batch, max_len+1); position 0 is
    the ``<cls>`` token.  Sequences beyond ``max_len`` are truncated.
    """
    batch = len(token_seqs)
    ids = np.full((batch, max_len + 1), vocab.PAD, dtype=np.int64)
    ids[:, 0] = vocab.CLS
    lengths = np.fromiter((min(len(s), max_len) for s in token_seqs),
                          dtype=np.int64, count=batch)
    total = int(lengths.sum())
    if total:
        flat = [t for seq in token_seqs for t in seq[:max_len]]
        rows = np.repeat(np.arange(batch), lengths)
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        cols = np.arange(total) - offsets[rows] + 1
        ids[rows, cols] = vocab.encode_array(flat)
    pad_mask = ids == vocab.PAD
    return ids, pad_mask


class Circuitformer(nn.Module):
    """Transformer encoder + CLS regression head over circuit paths."""

    def __init__(self, config: CircuitformerConfig | None = None,
                 vocab: Vocabulary | None = None, seed: int = 0):
        super().__init__()
        self.config = config or CircuitformerConfig()
        if self.config.hidden_layers < 1:
            raise ValueError(
                f"hidden_layers must be >= 1: {self.config.hidden_layers}")
        self.vocab = vocab or Vocabulary.standard()
        if self.vocab.circuit_size != self.config.vocab_size:
            raise ValueError(
                f"vocabulary size {self.vocab.circuit_size} does not match "
                f"config vocab_size {self.config.vocab_size}")
        rng = np.random.default_rng(seed)
        d = self.config.embedding_size
        self.token_embedding = nn.Embedding(len(self.vocab), d, rng=rng)
        self.position_embedding = nn.Embedding(self.config.max_input_size, d, rng=rng)
        self.encoder = nn.TransformerEncoder(
            num_layers=self.config.hidden_layers,
            d_model=d,
            num_heads=self.config.attention_heads,
            dim_feedforward=self.config.dim_feedforward,
            dropout=self.config.dropout,
            rng=rng,
        )
        self.head = nn.Sequential(
            nn.Linear(d, d // 2, rng=rng), nn.GELU(), nn.Linear(d // 2, 3, rng=rng))
        self.scaler = TargetScaler()

    # ------------------------------------------------------------------ #
    def forward(self, ids: np.ndarray, pad_mask: np.ndarray) -> nn.Tensor:
        """Predict normalized [timing, area, power] per sequence.

        ``ids``/``pad_mask``: (batch, seq) from :func:`encode_batch`.
        """
        if ids.shape[1] > self.config.max_input_size:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max input "
                f"{self.config.max_input_size}")
        positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        x = self.token_embedding(ids) + self.position_embedding(positions)
        encoded = self.encoder(x, key_padding_mask=pad_mask)
        return self.head(encoded[:, 0, :])  # CLS position

    def _encode_cls(self, ids: np.ndarray,
                    pad_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encoder pass up to the last layer's attention.

        Returns, per sequence, the CLS row of the last layer's input and
        of its attention context: all :meth:`_tail_rows_fixed` needs to
        finish that layer.
        """
        positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        x = self.token_embedding(ids) + self.position_embedding(positions)
        *body, last = self.encoder.layers
        for layer in body:
            x = layer(x, pad_mask)
        context = last.attn.context(x, pad_mask)
        return x.numpy()[:, 0, :], context.numpy()[:, 0, :]

    # Forward-pass chunk of ``predict_unique``: 32 rows keep each
    # flattened GEMM inside the CPU cache.  Over the 41 registry designs'
    # pooled unique paths it measured 0.35-0.40 s against 0.40-0.41 s at
    # 128 rows (2-vCPU x86 VM, OpenBLAS), serial ``predict_paths`` the
    # same at both, and the output does not depend on the chunk size.
    _CHUNK_ROWS = 32
    _HEAD_ROWS = 128

    def _tail_rows_fixed(self, x_cls: np.ndarray,
                         context_cls: np.ndarray) -> np.ndarray:
        """Finish the last encoder layer and run the head on up to
        ``_HEAD_ROWS`` CLS rows, padded to exactly that many.

        These matmuls are small enough that BLAS picks a different
        (differently-rounded) kernel depending on the row count; a fixed
        row count makes each row's output a function of that row alone,
        and equal to the same row of the layer's full ``batch * seq``-row
        products.
        """
        n = len(x_cls)
        x, context = (  # the last row repeats as padding
            np.concatenate([rows, np.broadcast_to(
                rows[-1], (self._HEAD_ROWS - n, rows.shape[1]))])
            for rows in (x_cls, context_cls))
        cls_emb = self.encoder.layers[-1].finish(nn.Tensor(x), nn.Tensor(context))
        return self.head(cls_emb).numpy()[:n]

    def predict_unique(self, unique_seqs: list[tuple[str, ...]],
                       encoding_cache=None) -> np.ndarray:
        """Physical [timing_ps, area_um2, power_mw] per *unique* sequence.

        This is the canonical inference kernel shared by
        :meth:`predict_paths` and the batched :mod:`repro.runtime` engine.
        Sequences are grouped into padded-length buckets
        (:data:`BUCKET_BOUNDARIES`) and each bucket runs one padded
        forward pass per ``_CHUNK_ROWS`` chunk, through every layer but
        the last and through the last layer's attention.  Only the CLS
        row is read out, so the rest of the last layer (``out_proj``,
        both LayerNorms and the feed-forward) and the head run on CLS rows
        alone, in ``_HEAD_ROWS`` groups filled across chunks and buckets
        (:meth:`_tail_rows_fixed`).  The attention stays full: a
        single-query attention product does not round like row 0 of the
        full one.

        Each sequence's output depends only on its own tokens and its
        bucket — not on which other sequences share the batch — so
        serial and cross-design batched prediction are bit-identical,
        and equal to the full-sequence pass (checked on every bucket by
        ``tests/test_circuitformer_tail.py``).  Two ingredients guarantee
        that: single-row batches are duplicated to two rows (numpy
        dispatches one-row matmuls to a differently-rounded GEMV kernel),
        and the tail always runs on a fixed row count.

        ``encoding_cache`` optionally supplies a
        :class:`repro.runtime.trainer.EncodingCache` so bucket chunks
        repeated across calls (a served model's requests) skip
        re-encoding; the encoded arrays are identical either way.
        """
        if not unique_seqs:
            return np.zeros((0, 3))
        max_len = self.config.max_input_size - 1
        buckets: dict[int, list[int]] = {}
        for i, seq in enumerate(unique_seqs):
            buckets.setdefault(bucket_for_length(len(seq), max_len), []).append(i)

        self.eval()
        scaled = np.empty((len(unique_seqs), 3))
        pending: list[tuple] = []    # (index, x row, context row) per sequence

        def run_tail(rows):
            idx, x_cls, context_cls = zip(*rows)
            scaled[list(idx)] = self._tail_rows_fixed(np.stack(x_cls),
                                                      np.stack(context_cls))

        with nn.no_grad():
            for bucket in sorted(buckets):
                idxs = buckets[bucket]
                for lo in range(0, len(idxs), self._CHUNK_ROWS):
                    chunk_idx = idxs[lo:lo + self._CHUNK_ROWS]
                    chunk = [unique_seqs[i] for i in chunk_idx]
                    if len(chunk) == 1:
                        chunk = chunk * 2
                    if encoding_cache is not None:
                        ids, mask = encoding_cache.encode(chunk, self.vocab, bucket)
                    else:
                        ids, mask = encode_batch(chunk, self.vocab, bucket)
                    x_rows, context_rows = self._encode_cls(ids, mask)
                    # Copies: pending rows must not keep the chunk alive.
                    pending += zip(chunk_idx, x_rows.copy(), context_rows.copy())
                    while len(pending) >= self._HEAD_ROWS:
                        run_tail(pending[:self._HEAD_ROWS])
                        del pending[:self._HEAD_ROWS]
            if pending:
                run_tail(pending)
        return np.maximum(self.scaler.inverse(scaled), 0.0)

    # ------------------------------------------------------------------ #
    def predict_paths(self, token_seqs: list[tuple[str, ...]]) -> np.ndarray:
        """Inference: physical [timing_ps, area_um2, power_mw] per path.

        Sampled designs repeat token sequences heavily (a systolic array
        yields hundreds of identical paths), so inference runs on the
        unique sequences only, through the length-bucketed
        :meth:`predict_unique` kernel, and results are broadcast back —
        often an order-of-magnitude speedup with bit-identical output.
        """
        if not token_seqs:
            return np.zeros((0, 3))
        unique: dict[tuple[str, ...], int] = {}
        index = np.empty(len(token_seqs), dtype=np.int64)
        for i, seq in enumerate(token_seqs):
            index[i] = unique.setdefault(tuple(seq), len(unique))
        return self.predict_unique(list(unique))[index]
