"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` package: a small,
self-contained autograd engine in the style of PyTorch's eager autograd.
Every differentiable operation builds a node in a dynamic computation
graph; calling :meth:`Tensor.backward` on a scalar loss walks the graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

The engine supports full numpy broadcasting.  Gradients flowing into a
broadcast operand are reduced back to the operand's shape with
:func:`_unbroadcast`.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .pool import scratch_pool

__all__ = ["Tensor", "tensor", "zeros", "ones", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    # Grad mode is per-thread (like torch's): concurrent serve workers
    # each toggle their own flag, so one worker leaving ``no_grad``
    # cannot re-enable graph construction under another mid-forward.
    # Threads spawned *inside* a ``no_grad`` region start back at the
    # enabled default and must enter ``no_grad`` themselves.
    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Disable graph construction (inference mode) for the current thread.

    Usable three ways, mirroring ``torch.no_grad``::

        with no_grad(): ...          # context manager

        @no_grad                     # bare decorator
        def serve(x): ...

        @no_grad()                   # called decorator
        def serve(x): ...

    Like torch's, the mode is thread-local: worker threads spawned
    inside the block do not inherit it.
    """

    def __init__(self, func=None):
        self._func = func
        if func is not None:
            functools.update_wrapper(self, func)

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False

    def __call__(self, *args, **kwargs):
        if self._func is None:
            # ``@no_grad()`` decoration: the lone argument is the function.
            if len(args) == 1 and not kwargs and callable(args[0]):
                return no_grad(args[0])
            raise TypeError("no_grad() takes no arguments; use it as a "
                            "context manager or decorator")
        with no_grad():
            return self._func(*args, **kwargs)

    def __get__(self, obj, objtype=None):
        # Bound-method support for ``@no_grad`` on methods.
        if obj is None:
            return self
        return functools.partial(self.__call__, obj)


def is_grad_enabled() -> bool:
    """Return whether this thread records new operations for autodiff."""
    return _grad_mode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shaped like a broadcast result) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _pooled_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` into a scratch-pool buffer (caller gives it back)."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) \
        + (a.shape[-2], b.shape[-1])
    out = scratch_pool.take(shape)
    np.matmul(a, b, out=out)
    return out


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op",
                 "__weakref__")
    __array_priority__ = 100  # make numpy defer to our __radd__/__rmul__ etc.

    def __init__(self, data, requires_grad: bool = False, _parents=(), _op: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        enabled = _grad_mode.enabled
        self.requires_grad = bool(requires_grad) and enabled
        self._backward = None
        self._parents = _parents if enabled else ()
        self._op = _op

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #
    def _make_child(self, data, parents, op: str) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=tuple(parents), _op=op)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None,
                 free_graph: bool = True) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 and must be supplied for non-scalar
        outputs.  With ``free_graph=True`` (the default) the computation
        graph is torn down once gradients have flowed: every visited
        node drops its parent references and backward closure, so the
        forward intermediates those closures capture become collectible
        immediately instead of living until the loss tensor dies.  Pass
        ``free_graph=False`` to keep the graph (e.g. to call backward
        again with a different seed gradient).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() on non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order via iterative DFS (paths can be deep).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if free_graph:
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad, other.shape))
            out._backward = _backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad * self.data, other.shape))
            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,), "neg")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(-grad)
            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data / other.data, (self, other), "div")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                    )
            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data ** exponent, (self,), "pow")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad * exponent * self.data ** (exponent - 1))
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Matrix / shape ops
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        if a.ndim == 1 or b.ndim == 1:
            raise ValueError("matmul requires operands with ndim >= 2; reshape vectors first")
        out = self._make_child(a @ b, (self, other), "matmul")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    ga = _pooled_matmul(grad, np.swapaxes(b, -1, -2))
                    try:
                        self._accumulate(_unbroadcast(ga, a.shape))
                    finally:
                        scratch_pool.give(ga)
                if other.requires_grad:
                    gb = _pooled_matmul(np.swapaxes(a, -1, -2), grad)
                    try:
                        other._accumulate(_unbroadcast(gb, b.shape))
                    finally:
                        scratch_pool.give(gb)
            out._backward = _backward
        return out

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul_scaled(self, other: "Tensor", scale: float) -> "Tensor":
        """Fused ``(self @ other) * scale`` (attention's score kernel).

        Bit-identical to the two-op composition, but the scale is applied
        in place on the matmul output, so no second full-size intermediate
        (nor its gradient buffer) is ever materialized — on attention's
        ``(batch, heads, seq, seq)`` score matrices that is the largest
        allocation of the whole forward pass.
        """
        other = self._coerce(other)
        a, b = self.data, other.data
        if a.ndim == 1 or b.ndim == 1:
            raise ValueError("matmul requires operands with ndim >= 2; reshape vectors first")
        scale = float(scale)
        data = a @ b
        np.multiply(data, scale, out=data)
        out = self._make_child(data, (self, other), "matmul_scaled")
        if out.requires_grad:
            def _backward(grad):
                g = scratch_pool.take(grad.shape)
                try:
                    np.multiply(grad, scale, out=g)
                    if self.requires_grad:
                        ga = _pooled_matmul(g, np.swapaxes(b, -1, -2))
                        try:
                            self._accumulate(_unbroadcast(ga, a.shape))
                        finally:
                            scratch_pool.give(ga)
                    if other.requires_grad:
                        gb = _pooled_matmul(np.swapaxes(a, -1, -2), g)
                        try:
                            other._accumulate(_unbroadcast(gb, b.shape))
                        finally:
                            scratch_pool.give(gb)
                finally:
                    scratch_pool.give(g)
            out._backward = _backward
        return out

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad.reshape(self.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        axes = axes or None
        if axes and len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes) if axes else self.data.T,
                               (self,), "transpose")
        if out.requires_grad:
            def _backward(grad):
                if axes:
                    inverse = np.argsort(axes)
                    self._accumulate(grad.transpose(inverse))
                else:
                    self._accumulate(grad.T)
            out._backward = _backward
        return out

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        out = self._make_child(np.swapaxes(self.data, ax1, ax2), (self,), "swapaxes")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(np.swapaxes(grad, ax1, ax2))
            out._backward = _backward
        return out

    def __getitem__(self, key) -> "Tensor":
        out = self._make_child(self.data[key], (self,), "getitem")
        if out.requires_grad:
            def _backward(grad):
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            def _backward(grad):
                g = grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                buf = scratch_pool.take(self.shape)
                try:
                    np.copyto(buf, g)
                    self._accumulate(buf)
                finally:
                    scratch_pool.give(buf)
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(out_data, (self,), "max")
        if out.requires_grad:
            def _backward(grad):
                g = grad
                o = out_data
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                    o = np.expand_dims(o, axis)
                mask = (self.data == o)
                # Split gradient between ties, matching subgradient convention.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask * g / counts)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = self._make_child(out_data, (self,), "exp")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad * out_data)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,), "log")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad / self.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = self._make_child(out_data, (self,), "tanh")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad * (1.0 - out_data ** 2))
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(out_data, (self,), "sigmoid")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad * out_data * (1.0 - out_data))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_child(self.data * mask, (self,), "relu")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad * mask)
            out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        c = np.sqrt(2.0 / np.pi)
        inner = (self * c) * (1.0 + 0.044715 * self * self)
        # tanh-approx GELU built from differentiable primitives
        return self * 0.5 * (1.0 + inner.tanh())

    # ------------------------------------------------------------------ #
    # Softmax family (stable, fused backward)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        # One full-size allocation instead of three: the shifted logits
        # buffer is exponentiated and normalized in place (bit-identical
        # to the out-of-place composition).
        probs = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(probs, out=probs)
        np.divide(probs, probs.sum(axis=axis, keepdims=True), out=probs)
        out = self._make_child(probs, (self,), "softmax")
        if out.requires_grad:
            def _backward(grad):
                buf = scratch_pool.take(probs.shape)
                try:
                    np.multiply(grad, probs, out=buf)
                    dot = buf.sum(axis=axis, keepdims=True)
                    np.subtract(grad, dot, out=buf)
                    np.multiply(buf, probs, out=buf)
                    self._accumulate(buf)
                finally:
                    scratch_pool.give(buf)
            out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = scratch_pool.take(shifted.shape)
        try:
            np.exp(shifted, out=e)
            logsumexp = np.log(e.sum(axis=axis, keepdims=True))
        finally:
            scratch_pool.give(e)
        out_data = np.subtract(shifted, logsumexp, out=shifted)
        out = self._make_child(out_data, (self,), "log_softmax")
        if out.requires_grad:
            def _backward(grad):
                softmax = np.exp(out_data)
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Misc structured ops
    # ------------------------------------------------------------------ #
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)
        out = self._make_child(data, (self,), "masked_fill")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(np.where(mask, 0.0, grad))
            out._backward = _backward
        return out

    def clip(self, lo: float, hi: float) -> "Tensor":
        data = np.clip(self.data, lo, hi)
        pass_through = (self.data >= lo) & (self.data <= hi)
        out = self._make_child(data, (self,), "clip")
        if out.requires_grad:
            def _backward(grad):
                self._accumulate(grad * pass_through)
            out._backward = _backward
        return out


# ---------------------------------------------------------------------- #
# Free functions
# ---------------------------------------------------------------------- #
def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor` (convenience constructor)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
