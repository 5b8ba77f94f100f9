"""A GRANNITE-style GCN power baseline (Zhang et al., DAC 2020).

GRANNITE predicts circuit power with a graph convolutional network over
the netlist.  This baseline follows that recipe at our scale: GCN layers
``h' = ReLU(W_self h + W_neigh mean(h_in))`` over the GraphIR, a global
mean-pool readout (power is an aggregate, unlike timing's max), and a
linear head regressing log power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..graphir import CompiledGraph, Vocabulary
from .gnn_ops import encode_graph, global_mean_pool, segment_mean_neighbors

__all__ = ["GCNConfig", "GCNPowerModel"]


@dataclass(frozen=True)
class GCNConfig:
    hidden_size: int = 32
    num_layers: int = 3
    epochs: int = 60
    lr: float = 0.005
    seed: int = 0
    max_nodes: int = 5000


class GCNPowerModel:
    """GCN regression of design-level power."""

    def __init__(self, config: GCNConfig | None = None, vocab: Vocabulary | None = None):
        self.config = config or GCNConfig()
        self.vocab = vocab or Vocabulary.standard()
        rng = np.random.default_rng(self.config.seed)
        h = self.config.hidden_size
        self.embed = nn.Embedding(len(self.vocab), h, rng=rng)
        self.self_layers = [nn.Linear(h, h, rng=rng)
                            for _ in range(self.config.num_layers)]
        self.neigh_layers = [nn.Linear(h, h, rng=rng)
                             for _ in range(self.config.num_layers)]
        self.head = nn.Linear(h, 1, rng=rng)
        self._mean = 0.0
        self._std = 1.0
        self._fitted = False

    # ------------------------------------------------------------------ #
    def _forward(self, tokens, src, dst, n) -> nn.Tensor:
        x = self.embed(tokens)
        for w_self, w_neigh in zip(self.self_layers, self.neigh_layers):
            neigh = segment_mean_neighbors(x, src, dst, n)
            x = (w_self(x) + w_neigh(neigh)).relu()
        pooled = global_mean_pool(x)
        return self.head(pooled.reshape(1, -1)).reshape(1)

    # ------------------------------------------------------------------ #
    def fit(self, graphs: list[CompiledGraph], powers_mw: np.ndarray,
            verbose: bool = False) -> "GCNPowerModel":
        cfg = self.config
        usable = [(g, p) for g, p in zip(graphs, powers_mw)
                  if g.num_nodes <= cfg.max_nodes]
        if len(usable) < 2:
            raise ValueError("need at least 2 training graphs under max_nodes")
        encoded = [encode_graph(g, self.vocab) for g, _ in usable]
        targets = np.log1p(np.array([p for _, p in usable]))
        self._mean = float(targets.mean())
        self._std = float(targets.std()) or 1.0
        norm = (targets - self._mean) / self._std

        params = self.embed.parameters() + self.head.parameters()
        for layer in self.self_layers + self.neigh_layers:
            params.extend(layer.parameters())
        opt = nn.Adam(params, lr=cfg.lr)
        rng = np.random.default_rng(cfg.seed)
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(encoded))
            losses = []
            for i in order:
                pred = self._forward(*encoded[i])
                loss = nn.mse_loss(pred, np.array([norm[i]]))
                opt.zero_grad()
                loss.backward()
                nn.clip_grad_norm(params, 5.0)
                opt.step()
                losses.append(loss.item())
            if verbose and epoch % 10 == 0:
                print(f"[gcn] epoch {epoch:3d} loss {np.mean(losses):.4f}")
        self._fitted = True
        return self

    def predict(self, graphs: list[CompiledGraph]) -> np.ndarray:
        """Predicted power (mW) per design."""
        if not self._fitted:
            raise RuntimeError("fit() must be called before predict()")
        out = []
        with nn.no_grad():
            for g in graphs:
                norm = self._forward(*encode_graph(g, self.vocab)).numpy()[0]
                out.append(np.expm1(norm * self._std + self._mean))
        return np.array(out).clip(min=0.0)
