"""``repro.store`` — the unified content-addressed artifact store.

One store, three tiers (live-object LRU, memory LRU, pluggable
persistent backend), dependency-aware keys spanning the whole pipeline:
graph -> paths -> synthesis labels -> predictions -> trained-model
weights.  ``BatchPredictor``, the dataset builder, ``FrontendCache``
and the serve ``ModelRegistry`` all read and write its kinds, and every
``--cache-dir`` opens the same store through :func:`open_backend` (a
directory or a SQLite file).  Because both persistent backends
(directory, SQLite/WAL) tolerate any number of concurrent processes,
every warm hit is fleet-wide: a ``repro serve`` worker, a
``repro predict`` run, a ``build_design_dataset`` pool worker, and a
DSE sweep mounting one store all replay each other's work.

See :mod:`repro.store.keys` for the key schema,
:mod:`repro.store.backend` for the persistence contract, and
:mod:`repro.store.models` for the trained-model registry.
"""

from . import keys
from .backend import (BackendEntry, DirectoryBackend, PersistentBackend,
                      SQLiteBackend, gc_backend, open_backend)
from .models import ModelStore
from .store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "ModelStore",
    "PersistentBackend", "DirectoryBackend", "SQLiteBackend",
    "BackendEntry", "open_backend", "gc_backend",
    "keys",
]
