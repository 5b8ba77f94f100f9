"""The unified content-addressed artifact store.

One :class:`ArtifactStore` holds every reusable artifact of the
pipeline, and callers read and write its kinds directly:
``BatchPredictor`` the ``prediction`` kind, the dataset builder the
``synth`` kind, ``FrontendCache`` (which only hides the payload
formats) the ``graph`` and ``paths`` kinds, and ``ModelStore`` the
trained models.  Three tiers, cheapest first:

- **object** — live deserialized values (a ``CompiledGraph``, a path
  tuple), LRU-bounded, no (de)serialization on a hit;
- **memory** — JSON payload dicts, LRU-bounded;
- **persistent** — an optional
  :class:`~repro.store.backend.SQLiteBackend` file that any number of
  processes can mount concurrently, which is what turns a warm hit
  from per-process into cluster-wide.

Entries are addressed by ``(kind, key)`` where ``kind`` names the
pipeline stage (see :mod:`repro.store.keys`) and ``key`` is a
content-addressed fingerprint, so one store safely holds the whole
pipeline — graphs, paths, synthesis labels, predictions, and trained
model weights — for any number of models and workers at once.

Serialization is lazy: ``put_object`` only invokes its ``encode``
callback when a persistent backend is attached, so memory-only stores
never pay payload construction (no compiled graph is serialized
unless it will be written).

All hit/miss counters are per-kind, per-tier, and mutated only under
the store lock, so ``/metrics`` aggregation and concurrent workers
never race on stats.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .backend import SQLiteBackend

__all__ = ["ArtifactStore"]

_COUNTERS = ("object_hits", "memory_hits", "persistent_hits", "misses",
             "puts")


class ArtifactStore:
    """Three-tier content-addressed store for pipeline artifacts.

    Parameters
    ----------
    max_entries:
        LRU bound of the memory (payload) tier and of the object tier,
        each counted across all kinds.
    backend:
        Optional persistent tier; ``None`` keeps the store
        process-local.
    """

    def __init__(self, max_entries: int = 4096,
                 backend: SQLiteBackend | None = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self.max_entries = max_entries
        self.backend = backend
        self._objects: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._payloads: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self._stats: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()

    # -- stats ---------------------------------------------------------- #
    def _bump(self, kind: str, counter: str, by: int = 1) -> None:
        # Callers hold self._lock.
        stats = self._stats.get(kind)
        if stats is None:
            stats = self._stats[kind] = dict.fromkeys(_COUNTERS, 0)
        stats[counter] += by

    def counters(self, kinds=None) -> dict[str, int]:
        """Summed per-tier counters, optionally restricted to ``kinds``."""
        with self._lock:
            total = dict.fromkeys(_COUNTERS, 0)
            for kind, stats in self._stats.items():
                if kinds is not None and kind not in kinds:
                    continue
                for name, value in stats.items():
                    total[name] += value
        return total

    def stats(self) -> dict:
        """Per-kind counters plus tier-level aggregates and sizes."""
        with self._lock:
            kinds = {k: dict(v) for k, v in sorted(self._stats.items())}
            object_entries = len(self._objects)
            memory_entries = len(self._payloads)
        total = dict.fromkeys(_COUNTERS, 0)
        for stats in kinds.values():
            for name, value in stats.items():
                total[name] += value
        hits = (total["object_hits"] + total["memory_hits"]
                + total["persistent_hits"])
        lookups = hits + total["misses"]

        def rate(n: int) -> float:
            return n / lookups if lookups else 0.0

        return {
            "backend": self.backend.name if self.backend else None,
            "tiers": {
                "object": {"entries": object_entries,
                           "hits": total["object_hits"],
                           "hit_rate": rate(total["object_hits"])},
                "memory": {"entries": memory_entries,
                           "hits": total["memory_hits"],
                           "hit_rate": rate(total["memory_hits"])},
                "persistent": {"hits": total["persistent_hits"],
                               "hit_rate": rate(total["persistent_hits"])},
            },
            "hit_rate": hits / lookups if lookups else 0.0,
            "misses": total["misses"],
            "puts": total["puts"],
            "kinds": kinds,
        }

    # -- payload path --------------------------------------------------- #
    def get(self, kind: str, key: str) -> dict | None:
        """Look up a payload artifact; ``None`` on an all-tier miss."""
        ref = (kind, key)
        with self._lock:
            value = self._payloads.get(ref)
            if value is not None:
                self._payloads.move_to_end(ref)
                self._bump(kind, "memory_hits")
                return value
        if self.backend is not None:
            value = self.backend.get(kind, key)
            if value is not None:
                with self._lock:
                    self._bump(kind, "persistent_hits")
                    self._insert(self._payloads, ref, value)
                return value
        with self._lock:
            self._bump(kind, "misses")
        return None

    def put(self, kind: str, key: str, value: dict,
            replace: bool = False) -> None:
        """Store a payload in the memory tier (and the backend, if any)."""
        with self._lock:
            self._bump(kind, "puts")
            self._insert(self._payloads, (kind, key), value)
        if self.backend is not None:
            self.backend.put(kind, key, value, replace=replace)

    def get_many(self, kind: str, keys: list[str]) -> dict[str, dict]:
        """Batched lookup: memory tier first, one backend round trip for
        the rest.  Returns only the keys that hit.  The counters read as
        a loop of :meth:`get` over ``keys`` would: a repeated key the
        backend supplies is one persistent hit, then memory hits."""
        found: dict[str, dict] = {}
        missing: dict[str, int] = {}     # key -> occurrences in ``keys``
        with self._lock:
            for key in keys:
                if key in missing:
                    missing[key] += 1
                    continue
                value = self._payloads.get((kind, key))
                if value is not None:
                    self._payloads.move_to_end((kind, key))
                    self._bump(kind, "memory_hits")
                    found[key] = value
                else:
                    missing[key] = 1
        if not missing:
            return found
        fetched = (self.backend.get_many(kind, list(missing))
                   if self.backend is not None else {})
        with self._lock:
            for key, count in missing.items():
                if key in fetched:
                    self._insert(self._payloads, (kind, key), fetched[key])
                    self._bump(kind, "persistent_hits")
                    self._bump(kind, "memory_hits", count - 1)
                else:
                    self._bump(kind, "misses", count)
        found.update(fetched)
        return found

    def put_many(self, kind: str, items: dict[str, dict],
                 replace: bool = False) -> None:
        with self._lock:
            self._bump(kind, "puts", len(items))
            for key, value in items.items():
                self._insert(self._payloads, (kind, key), value)
        if self.backend is not None:
            self.backend.put_many(kind, items, replace=replace)

    # -- object path ---------------------------------------------------- #
    def get_object(self, kind: str, key: str, decode=None):
        """Look up a live object; falls back to ``decode(payload)`` from
        the persistent tier (the decoded object is promoted)."""
        ref = (kind, key)
        with self._lock:
            obj = self._objects.get(ref)
            if obj is not None:
                self._objects.move_to_end(ref)
                self._bump(kind, "object_hits")
                return obj
        if self.backend is not None and decode is not None:
            payload = self.backend.get(kind, key)
            if payload is not None:
                obj = decode(payload)
                with self._lock:
                    self._bump(kind, "persistent_hits")
                    self._insert(self._objects, ref, obj)
                return obj
        with self._lock:
            self._bump(kind, "misses")
        return None

    def put_object(self, kind: str, key: str, obj, encode=None,
                   replace: bool = False) -> None:
        """Store a live object; ``encode()`` runs **only** when a
        persistent backend is attached (no wasted payload construction
        on memory-only stores)."""
        with self._lock:
            self._bump(kind, "puts")
            self._insert(self._objects, (kind, key), obj)
        if self.backend is not None and encode is not None:
            self.backend.put(kind, key, encode(), replace=replace)

    # -- bookkeeping ---------------------------------------------------- #
    def _insert(self, tier: OrderedDict, ref, value) -> None:
        # Callers hold self._lock.
        tier[ref] = value
        tier.move_to_end(ref)
        while len(tier) > self.max_entries:
            tier.popitem(last=False)

    def contains(self, kind: str, key: str) -> bool:
        with self._lock:
            if (kind, key) in self._payloads or (kind, key) in self._objects:
                return True
        return self.backend is not None and self.backend.contains(kind, key)

    def memory_len(self, kind: str | None = None) -> int:
        """Memory-tier entry count (optionally for one kind)."""
        with self._lock:
            if kind is None:
                return len(self._payloads)
            return sum(1 for k, _ in self._payloads if k == kind)

    def keys(self, kind: str) -> set[str]:
        """All keys of ``kind`` visible in any tier."""
        with self._lock:
            visible = {key for k, key in self._payloads if k == kind}
            visible |= {key for k, key in self._objects if k == kind}
        if self.backend is not None:
            visible |= {e.key for e in self.backend.entries()
                        if e.kind == kind}
        return visible

    def clear(self, memory_only: bool = True) -> None:
        """Drop the in-process tiers (and the backend if requested)."""
        with self._lock:
            self._objects.clear()
            self._payloads.clear()
        if not memory_only and self.backend is not None:
            self.backend.clear()

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
