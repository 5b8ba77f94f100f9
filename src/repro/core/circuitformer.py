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

    def _encode_cls(self, ids: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
        """Encoder pass returning the CLS embedding per sequence."""
        positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        x = self.token_embedding(ids) + self.position_embedding(positions)
        return self.encoder(x, key_padding_mask=pad_mask).numpy()[:, 0, :]

    _HEAD_ROWS = 128

    def _head_rows_fixed(self, cls_emb: np.ndarray) -> np.ndarray:
        """Run the regression head in fixed-size row groups.

        The head's matmuls are small enough that BLAS picks a different
        (differently-rounded) kernel depending on the row count; padding
        every group to exactly ``_HEAD_ROWS`` rows makes each row's output
        a function of that row alone, independent of batch composition.
        """
        out = np.empty((len(cls_emb), 3))
        for lo in range(0, len(cls_emb), self._HEAD_ROWS):
            chunk = cls_emb[lo:lo + self._HEAD_ROWS]
            n = len(chunk)
            if n < self._HEAD_ROWS:
                chunk = np.concatenate(
                    [chunk, np.broadcast_to(chunk[-1], (self._HEAD_ROWS - n,
                                                        chunk.shape[1]))])
            out[lo:lo + n] = self.head(nn.Tensor(chunk)).numpy()[:n]
        return out

    def predict_unique(self, unique_seqs: list[tuple[str, ...]],
                       batch_size: int = 128, encoding_cache=None) -> np.ndarray:
        """Physical [timing_ps, area_um2, power_mw] per *unique* sequence.

        This is the canonical inference kernel shared by
        :meth:`predict_paths` and the batched :mod:`repro.runtime` engine.
        Sequences are grouped into padded-length buckets
        (:data:`BUCKET_BOUNDARIES`) and each bucket runs one padded
        forward pass per ``batch_size`` chunk.  Each sequence's output
        depends only on its own tokens and its bucket — not on which other
        sequences share the batch — so serial and cross-design batched
        prediction are bit-identical.  Two ingredients guarantee that:
        single-row batches are duplicated to two rows (numpy dispatches
        one-row matmuls to a differently-rounded GEMV kernel), and the
        regression head always runs on a fixed row count
        (:meth:`_head_rows_fixed`).

        ``encoding_cache`` optionally supplies a
        :class:`repro.runtime.trainer.EncodingCache` so repeated bucket
        chunks (across calls, or shared with the training engine) skip
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
        with nn.no_grad():
            for bucket in sorted(buckets):
                idxs = buckets[bucket]
                for lo in range(0, len(idxs), batch_size):
                    chunk_idx = idxs[lo:lo + batch_size]
                    chunk = [unique_seqs[i] for i in chunk_idx]
                    single = len(chunk) == 1
                    if single:
                        chunk = chunk * 2
                    if encoding_cache is not None:
                        ids, mask = encoding_cache.encode(chunk, self.vocab, bucket)
                    else:
                        ids, mask = encode_batch(chunk, self.vocab, bucket)
                    cls_emb = self._encode_cls(ids, mask)
                    if single:
                        cls_emb = cls_emb[:1]
                    scaled[chunk_idx] = self._head_rows_fixed(cls_emb)
        return np.maximum(self.scaler.inverse(scaled), 0.0)

    # ------------------------------------------------------------------ #
    def predict_paths(self, token_seqs: list[tuple[str, ...]],
                      batch_size: int = 128, bucketed: bool = True,
                      encoding_cache=None) -> np.ndarray:
        """Inference: physical [timing_ps, area_um2, power_mw] per path.

        Sampled designs repeat token sequences heavily (a systolic array
        yields hundreds of identical paths), so inference runs on the
        unique sequences only and results are broadcast back — often an
        order-of-magnitude speedup with bit-identical output.

        ``bucketed=True`` (default) routes through the length-bucketed
        :meth:`predict_unique` kernel; ``bucketed=False`` keeps the
        original pad-everything-to-the-longest behavior (the pre-runtime
        baseline, retained for the throughput benchmark).
        """
        if not token_seqs:
            return np.zeros((0, 3))
        unique: dict[tuple[str, ...], int] = {}
        index = np.empty(len(token_seqs), dtype=np.int64)
        for i, seq in enumerate(token_seqs):
            index[i] = unique.setdefault(tuple(seq), len(unique))
        unique_seqs = list(unique)

        if bucketed:
            return self.predict_unique(unique_seqs, batch_size=batch_size,
                                       encoding_cache=encoding_cache)[index]

        self.eval()
        outs = []
        max_len = min(self.config.max_input_size - 1,
                      max(len(s) for s in unique_seqs))
        with nn.no_grad():
            for lo in range(0, len(unique_seqs), batch_size):
                chunk = unique_seqs[lo:lo + batch_size]
                ids, mask = encode_batch(chunk, self.vocab, max_len)
                outs.append(self.forward(ids, mask).numpy())
        scaled = np.concatenate(outs, axis=0)
        physical = np.maximum(self.scaler.inverse(scaled), 0.0)
        return physical[index]
