"""Full-sequence Circuitformer inference, kept as a parity oracle.

``Circuitformer.predict_unique`` finishes the last encoder layer on the
CLS rows only.  This module is the pass it replaced: every layer runs
on every padded position, row 0 of the encoder output is read out, the
regression head runs in fixed 128-row groups, and the result is
inverse-scaled.  ``tests/test_circuitformer_tail.py`` asserts the two
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.circuitformer import bucket_for_length, encode_batch

CHUNK_ROWS = 32
HEAD_ROWS = 128


def _full_sequence_cls(model, ids: np.ndarray,
                       pad_mask: np.ndarray) -> np.ndarray:
    positions = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
    x = model.token_embedding(ids) + model.position_embedding(positions)
    return model.encoder(x, key_padding_mask=pad_mask).numpy()[:, 0, :]


def full_sequence_predict(model, unique_seqs) -> np.ndarray:
    """Physical [timing_ps, area_um2, power_mw] per unique sequence."""
    if not unique_seqs:
        return np.zeros((0, 3))
    max_len = model.config.max_input_size - 1
    buckets: dict[int, list[int]] = {}
    for i, seq in enumerate(unique_seqs):
        buckets.setdefault(bucket_for_length(len(seq), max_len), []).append(i)

    model.eval()
    cls = np.empty((len(unique_seqs), model.config.embedding_size))
    scaled = np.empty((len(unique_seqs), 3))
    with nn.no_grad():
        for bucket in sorted(buckets):
            idxs = buckets[bucket]
            for lo in range(0, len(idxs), CHUNK_ROWS):
                chunk_idx = idxs[lo:lo + CHUNK_ROWS]
                chunk = [unique_seqs[i] for i in chunk_idx]
                if len(chunk) == 1:       # two rows: no one-row GEMV kernel
                    chunk = chunk * 2
                ids, mask = encode_batch(chunk, model.vocab, bucket)
                cls[chunk_idx] = _full_sequence_cls(model, ids, mask)[
                    :len(chunk_idx)]
        for lo in range(0, len(cls), HEAD_ROWS):
            rows = cls[lo:lo + HEAD_ROWS]
            n = len(rows)
            padded = np.concatenate(
                [rows, np.broadcast_to(rows[-1], (HEAD_ROWS - n, rows.shape[1]))])
            scaled[lo:lo + n] = model.head(nn.Tensor(padded)).numpy()[:n]
    return np.maximum(model.scaler.inverse(scaled), 0.0)
