"""The warm model registry: load-once, fingerprint-keyed, staleness-checked.

A serving process holds every model it has ever been asked for in
memory, fully warmed: the fitted :class:`~repro.core.predictor.SNS`
and one :class:`~repro.runtime.BatchPredictor` (bit-identical to
``SNS.predict``) whose predictions, compiled graphs and sampled paths
all live in one **shared** :class:`~repro.store.ArtifactStore`.
Loading is single-flight per path — concurrent first requests for the
same model deserialize it exactly once.

The registry mounts one store for the whole process (the SQLite file
``cache_dir`` names, opened like every other ``--cache-dir``), and any
number of sibling serve workers — or ``repro predict``/``compile``/
``datagen`` runs — may mount the same one: compiled graphs, sampled
paths, and predictions any of them computes are warm for all, and
models persisted by ``/train`` (see
:class:`~repro.store.ModelStore`) are resolvable by name, fingerprint,
or fingerprint prefix after a restart.

Models are addressable three ways: by registry *name* (``"default"``,
a CLI-chosen alias, or a ``/train``-assigned id), by *model
fingerprint* (the PR-1 content hash over every weight and scaler), and
by any *prefix* of the fingerprint of length >= 8.  The fingerprint is
re-checked against the live weights on every :meth:`ServedModel.fresh`
call — the ``Parameter.version`` counters make that a memoized O(1)
comparison — so a model fine-tuned in place (e.g. by ``/train`` on an
aliased instance) is re-keyed instead of served stale.
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..runtime import BatchPredictor, FrontendCache, fingerprint_model
from ..runtime.trainer import EncodingCache
from ..store import ArtifactStore, ModelStore, open_backend

__all__ = ["ServedModel", "ModelRegistry"]


class ServedModel:
    """One warm model: the SNS plus its predictor over the shared store."""

    def __init__(self, sns, name: str, *, store: ArtifactStore | None = None):
        self.sns = sns
        self.name = name
        self.fingerprint = fingerprint_model(sns)
        self.store = store if store is not None else ArtifactStore()
        self.frontend_cache = FrontendCache(self.store)
        self.encoding_cache = EncodingCache()
        self.predictor = BatchPredictor(
            sns, store=self.store, encoding_cache=self.encoding_cache,
            frontend_cache=self.frontend_cache)

    def fresh(self) -> bool:
        """Re-fingerprint the live weights; True if nothing changed.

        On a version bump (in-place fine-tuning) the stored fingerprint
        is updated.  Cached predictions need no flushing: their keys
        embed the old fingerprint, so they simply stop matching.
        """
        current = fingerprint_model(self.sns)
        if current == self.fingerprint:
            return True
        self.fingerprint = current
        return False

    def stats(self) -> dict:
        return {"name": self.name, "fingerprint": self.fingerprint}


class ModelRegistry:
    """Name/fingerprint-addressed table of warm :class:`ServedModel`\\ s
    over one shared :class:`~repro.store.ArtifactStore`."""

    def __init__(self, *, cache_dir: str | Path | None = None,
                 store: ArtifactStore | None = None):
        if store is None:
            backend = open_backend(cache_dir) if cache_dir else None
            store = ArtifactStore(backend=backend)
        self.store = store
        self.models = ModelStore(store)
        self._by_name: dict[str, ServedModel] = {}
        self._by_path: dict[str, ServedModel] = {}
        self._lock = threading.Lock()
        self.loads = 0

    # ------------------------------------------------------------------ #
    def _wrap(self, sns, name: str) -> ServedModel:
        return ServedModel(sns, name, store=self.store)

    def register(self, sns, name: str) -> ServedModel:
        """Adopt an already-fitted in-process model under ``name``."""
        served = self._wrap(sns, name)
        with self._lock:
            self._by_name[name] = served
        return served

    def load(self, path: str | Path, name: str | None = None) -> ServedModel:
        """Load a saved ``.npz`` model, once per resolved path.

        Repeat loads of the same file return the warm instance; the
        single-flight lock means concurrent first loads deserialize it
        exactly once.
        """
        from ..core.persistence import load_sns

        resolved = str(Path(path).resolve())
        with self._lock:
            served = self._by_path.get(resolved)
            if served is None:
                sns = load_sns(resolved)
                self.loads += 1
                served = self._wrap(sns, name or Path(path).stem)
                self._by_path[resolved] = served
                self._by_name.setdefault(served.name, served)
        return served

    # ------------------------------------------------------------------ #
    def _get_warm(self, ref: str) -> ServedModel | None:
        with self._lock:
            served = self._by_name.get(ref)
            if served is not None:
                return served
            if len(ref) >= 8:
                matches = {s.fingerprint: s
                           for s in self._by_name.values()
                           if s.fingerprint.startswith(ref)}
                if len(matches) == 1:
                    return next(iter(matches.values()))
                if len(matches) > 1:
                    raise KeyError(f"model ref {ref!r} is ambiguous")
        return None

    def get(self, ref: str) -> ServedModel:
        """Resolve a model by name, fingerprint, or fingerprint prefix.

        Falls back to the shared store: a model persisted there by a
        sibling worker or a previous incarnation of this server is
        rehydrated and registered on first reference.
        """
        served = self._get_warm(ref)
        if served is not None:
            return served
        model_fp = self.models.find(ref)
        if model_fp is not None:
            sns = self.models.load(model_fp)
            if sns is not None:
                alias = ref if self.models.resolve_alias(ref) else model_fp[:12]
                with self._lock:
                    self.loads += 1
                return self.register(sns, alias)
        raise KeyError(f"no model registered under {ref!r}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._by_name)

    def stats(self) -> dict:
        with self._lock:
            models = list(self._by_name.values())
        return {"loads": self.loads,
                "models": {m.name: m.stats() for m in models}}
