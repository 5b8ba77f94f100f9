"""A shape-keyed scratch-buffer pool for float64 autograd temporaries.

Training allocates the same large temporaries every step — the
``(batch, heads, seq, seq)`` attention products in the backward pass are
the worst offenders.  Recycling those buffers across steps keeps peak RSS
flat and spares the allocator/GC the churn of multi-megabyte arrays.

The pool is deliberately dumb: buffers are keyed by exact shape,
``take`` pops a free buffer or allocates a fresh one, ``give`` returns a
buffer once the caller is done with it.  Stored bytes are capped;
over-cap buffers are simply dropped for the GC.  Callers must only
``give`` back float64 arrays they own outright — never views into
tensors that outlive the call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScratchPool", "scratch_pool"]


class ScratchPool:
    """Reusable float64 scratch arrays, keyed by shape."""

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        self.max_bytes = int(max_bytes)
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._stored_bytes = 0
        self.hits = 0
        self.misses = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """Return an uninitialized float64 array of ``shape``."""
        shape = tuple(int(s) for s in shape)
        bucket = self._free.get(shape)
        if bucket:
            self.hits += 1
            arr = bucket.pop()
            self._stored_bytes -= arr.nbytes
            return arr
        self.misses += 1
        return np.empty(shape)

    def give(self, arr: np.ndarray) -> None:
        """Return ``arr`` to the pool (dropped if the byte cap is hit)."""
        if arr.base is not None:
            return
        if self._stored_bytes + arr.nbytes > self.max_bytes:
            return
        self._free.setdefault(arr.shape, []).append(arr)
        self._stored_bytes += arr.nbytes

    def clear(self) -> None:
        self._free.clear()
        self._stored_bytes = 0

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stored_bytes": self._stored_bytes,
                "shapes": len(self._free)}


# The process-wide pool used by the autograd backward kernels.  Training
# engines read its stats for profiling; tests may ``clear()`` it.
scratch_pool = ScratchPool()
