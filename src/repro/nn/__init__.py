"""``repro.nn`` — a from-scratch numpy autograd engine and layer zoo.

The SNS paper builds its models (Circuitformer, Aggregation MLP, SeqGAN)
on PyTorch + HuggingFace Transformers; this package is the offline,
self-contained substitute. It provides:

- :class:`~repro.nn.tensor.Tensor`: reverse-mode autodiff over numpy.
- Layers: Linear, Embedding, LayerNorm, Dropout, multi-head attention,
  Transformer encoder stacks, GRUs.
- Optimizers: Adam and SGD with momentum (Table 6 of the paper).
- Losses.
"""

from .tensor import Tensor, tensor, zeros, ones, no_grad, is_grad_enabled
from .pool import ScratchPool, scratch_pool
from .module import Module, Parameter, ParamData
from .layers import Linear, Embedding, LayerNorm, Dropout, ReLU, Tanh, GELU, Sequential
from .attention import MultiHeadSelfAttention, TransformerEncoderLayer, TransformerEncoder
from .rnn import GRU, GRUCell
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .functional import (
    concatenate,
    stack,
    mse_loss,
    cross_entropy,
    binary_cross_entropy,
)

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "no_grad", "is_grad_enabled",
    "ScratchPool", "scratch_pool",
    "Module", "Parameter", "ParamData",
    "Linear", "Embedding", "LayerNorm", "Dropout", "ReLU", "Tanh", "GELU", "Sequential",
    "MultiHeadSelfAttention", "TransformerEncoderLayer", "TransformerEncoder",
    "GRU", "GRUCell",
    "SGD", "Adam", "Optimizer", "clip_grad_norm",
    "concatenate", "stack", "mse_loss",
    "cross_entropy", "binary_cross_entropy",
]
