"""Transformer building blocks: multi-head attention and encoder layers.

These implement the encoder side of Vaswani et al. (2017) at the scale the
Circuitformer needs (2 layers, 2 heads, d_model=128 — Table 2 of the SNS
paper).
"""

from __future__ import annotations

import numpy as np

from .layers import Dropout, LayerNorm, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadSelfAttention", "TransformerEncoderLayer", "TransformerEncoder"]

_NEG_INF = -1e9


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Input/output shape: ``(batch, seq, d_model)``.  ``key_padding_mask`` is
    a boolean array of shape ``(batch, seq)`` that is True at *padding*
    positions; those keys receive zero attention weight.
    """

    def __init__(self, d_model: int, num_heads: int, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, S, D) -> (B, H, S, Dh)
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def context(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        """Attention-weighted values with the heads merged, before ``out_proj``."""
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        # Fused (q @ k^T) * scale: one (B, H, S, S) buffer instead of two,
        # bit-identical to the two-op composition.
        scores = q.matmul_scaled(k.transpose(0, 1, 3, 2), 1.0 / np.sqrt(self.d_head))
        mask = None
        if key_padding_mask is not None:
            mask = np.broadcast_to(np.asarray(key_padding_mask, dtype=bool)[:, None, None, :],
                                   scores.shape)
        if scores.requires_grad:
            if mask is not None:
                scores = scores.masked_fill(mask, _NEG_INF)
            weights = scores.softmax(axis=-1)
        else:
            # Nothing differentiates through the fresh score buffer: mask
            # and normalize it in place (the same ops as masked_fill and
            # softmax), so one (B, H, S, S) buffer is live instead of two.
            weights, data = scores, scores.data
            if mask is not None:
                np.copyto(data, _NEG_INF, where=mask)
            data -= data.max(axis=-1, keepdims=True)
            np.exp(data, out=data)
            data /= data.sum(axis=-1, keepdims=True)
        weights = self.dropout(weights)
        context = weights.matmul(v)  # (B, H, S, Dh)
        return context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        return self.out_proj(self.context(x, key_padding_mask))


class TransformerEncoderLayer(Module):
    """Post-norm encoder layer: self-attention + position-wise FFN."""

    def __init__(self, d_model: int, num_heads: int, dim_feedforward: int | None = None,
                 dropout: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        dim_feedforward = dim_feedforward or 4 * d_model
        self.attn = MultiHeadSelfAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, dim_feedforward, rng=rng)
        self.ff2 = Linear(dim_feedforward, d_model, rng=rng)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng=rng)

    def finish(self, x: Tensor, context: Tensor) -> Tensor:
        """Everything after attention: ``out_proj``, residual, ``norm1``,
        feed-forward, ``norm2``.

        Every op here is position-wise, so it may run on any subset of
        the rows of ``x`` and ``context`` (inference runs the last layer's
        on the CLS rows only).
        """
        x = self.norm1(x + self.dropout(self.attn.out_proj(context)))
        ff = self.ff2(self.dropout(self.ff1(x).gelu()))
        return self.norm2(x + self.dropout(ff))

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        return self.finish(x, self.attn.context(x, key_padding_mask))


class TransformerEncoder(Module):
    """A stack of :class:`TransformerEncoderLayer`."""

    def __init__(self, num_layers: int, d_model: int, num_heads: int,
                 dim_feedforward: int | None = None, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.layers = [
            TransformerEncoderLayer(d_model, num_heads, dim_feedforward, dropout, rng=rng)
            for _ in range(num_layers)
        ]

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, key_padding_mask)
        return x
