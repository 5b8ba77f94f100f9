"""Spans and counters: where one run's wall time went.

``with record() as rec:`` opens a :class:`Recorder`; inside the block,
``with span("verilog.parse"):`` adds one call and its wall time to that
name under the open span, ``count(name, n)`` adds to a counter and
``add(name, seconds)`` credits time measured elsewhere (a worker
process) as a finished child span.  The recorder keeps totals per span
path, not events.  With no recorder open, ``span()`` returns one shared
no-op object and reads no clock.  A ``contextvars`` variable carries the
recorder, so asyncio tasks created inside the block inherit it while a
thread started without the context records nothing.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager, nullcontext

__all__ = ["Recorder", "record", "span", "count", "add"]

_clock = time.perf_counter
_NOOP = nullcontext()
# (recorder, totals of the innermost open span), or None when off.
_STATE: contextvars.ContextVar = contextvars.ContextVar("repro_obs",
                                                        default=None)


class _Node:
    """Totals of one span path: calls, seconds and child spans."""

    __slots__ = ("calls", "seconds", "children")

    def __init__(self):
        self.calls, self.seconds, self.children = 0, 0.0, {}

    def child(self, name: str) -> "_Node":
        if name not in self.children:
            self.children[name] = _Node()
        return self.children[name]

    def as_dict(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds,
                "children": {k: v.as_dict() for k, v in self.children.items()}}


class Recorder:
    """A tree of span totals keyed by span path, plus named counters."""

    def __init__(self):
        self.root = _Node()
        self.counters: dict[str, int | float] = {}

    def as_dict(self) -> dict:
        """``{"spans": {name: {calls, seconds, children}}, "counters"}``."""
        return {"spans": self.root.as_dict()["children"],
                "counters": dict(self.counters)}

    def format(self) -> str:
        """One indented tree (name, calls, seconds, share of the parent
        span, or of all top-level spans), then the counters."""
        rows = []

        def walk(node: _Node, depth: int, total: float) -> None:
            for name, child in node.children.items():
                share = child.seconds / total if total > 0 else 0.0
                rows.append(("  " * depth + name, child.calls, child.seconds,
                             share))
                walk(child, depth + 1, child.seconds)

        walk(self.root, 0, sum(c.seconds for c in self.root.children.values()))
        width = max([4] + [len(r[0]) for r in rows] + list(map(len, self.counters)))
        lines = [f"{'span':<{width}}  {'calls':>7}  {'seconds':>9}  share"]
        lines += [f"{name:<{width}}  {calls:7d}  {secs:9.4f}  {100 * share:5.1f}%"
                  for name, calls, secs, share in rows]
        if self.counters:
            lines.append("counters")
            lines += [f"{name:<{width}}  {value:>7}"
                      for name, value in self.counters.items()]
        return "\n".join(lines)


def span(name: str):
    """Context manager timing one call of ``name`` under the open span."""
    state = _STATE.get()
    if state is None:
        return _NOOP
    return _timed(state[0], state[1].child(name))


@contextmanager
def _timed(recorder: Recorder, node: _Node):
    token = _STATE.set((recorder, node))
    start = _clock()
    try:
        yield
    finally:
        node.seconds += _clock() - start
        node.calls += 1
        _STATE.reset(token)


def count(name: str, n: int | float = 1) -> None:
    """Add ``n`` to the counter ``name`` of the open recorder."""
    state = _STATE.get()
    if state is not None:
        state[0].counters[name] = state[0].counters.get(name, 0) + n


def add(name: str, seconds: float) -> None:
    """Credit ``seconds`` as one finished call of the child span ``name``."""
    state = _STATE.get()
    if state is not None:
        node = state[1].child(name)
        node.calls += 1
        node.seconds += seconds


@contextmanager
def record():
    """Open a fresh :class:`Recorder` for the block and yield it; a
    recorder open outside the block sees nothing of it."""
    recorder = Recorder()
    token = _STATE.set((recorder, recorder.root))
    try:
        yield recorder
    finally:
        _STATE.reset(token)
