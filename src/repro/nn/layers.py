"""Standard neural-network layers on top of the autograd engine."""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Tanh",
    "GELU",
    "Sequential",
]


def _kaiming_uniform(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine transform ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform(in_features, (in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        flat = x if x.ndim == 2 else x.reshape(-1, self.in_features)
        out = flat.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        if x.ndim != 2:
            out = out.reshape(*x.shape[:-1], self.out_features)
        return out


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"got min={token_ids.min()} max={token_ids.max()}"
            )
        return self.weight[token_ids]


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Sequential(Module):
    """Chain modules; ``Sequential(a, b, c)(x) == c(b(a(x)))``."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = list(modules)

    def forward(self, x):
        for step in self.steps:
            x = step(x)
        return x

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)
