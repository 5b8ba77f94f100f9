"""Admission control: per-client token buckets and bounded-queue shedding.

The server's overload policy is *shed, don't collapse*: a client that
exceeds its request rate gets a 429 before its request touches the
queue, and a full prediction queue turns new work away with a 503
instead of growing latency without bound.  Both decisions are made at
admission time — O(1), no allocation beyond the first sight of a new
client — so the rejection path stays cheap precisely when the server is
busiest.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

__all__ = ["TokenBucket", "RateLimiter"]


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/sec, capacity ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        self.tokens = min(self.burst,
                          self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after(self, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will have accumulated."""
        deficit = cost - self.tokens
        return max(0.0, deficit / self.rate) if self.rate > 0 else 60.0


class RateLimiter:
    """Per-client token buckets (client id -> bucket), LRU-bounded.

    ``rate=None`` disables limiting entirely.  Each bucket holds
    ``max(1, rate)`` tokens: a client may burst one second's worth of
    requests, and always at least one.  The bucket table is
    capped at ``max_clients`` (least-recently-seen evicted first) so an
    adversarial stream of fresh client ids cannot grow memory without
    bound — an evicted client simply starts over with a full bucket.
    """

    def __init__(self, rate: float | None, max_clients: int = 4096,
                 clock=time.monotonic):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive or None: {rate}")
        self.rate = rate
        self.burst = max(1.0, rate) if rate is not None else 0.0
        self.max_clients = max_clients
        self.clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._lock = threading.Lock()

    def check(self, client: str) -> tuple[bool, float]:
        """Admit or reject one request from ``client``.

        Returns ``(allowed, retry_after_s)``; ``retry_after_s`` is 0
        when allowed.
        """
        if self.rate is None:
            return True, 0.0
        now = self.clock()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    self.rate, self.burst, now)
            else:
                self._buckets.move_to_end(client)
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
            if bucket.allow(now):
                return True, 0.0
            return False, bucket.retry_after()
