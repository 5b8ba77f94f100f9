"""Persistent backends for the :class:`~repro.store.ArtifactStore`.

Two implementations behind one small interface, both safe for many
processes mounting the same store concurrently:

- :class:`DirectoryBackend` — one JSON file per key under
  ``root/<kind>/<key[:2]>/<key>.json``, with unique-temp staging and
  atomic-rename publish, so a single root holds the whole pipeline.
- :class:`SQLiteBackend` — one WAL-mode database file with write-once
  ``INSERT OR IGNORE`` rows and *batched* multi-get/multi-put, which is
  what makes a 1k-entry warm scan one round trip instead of 1k file
  opens.

Both are corruption tolerant: a torn, truncated, or garbage entry reads
as a miss (and, where cheap, is deleted so the next put heals it) —
a reader never sees partial payloads and a crashed writer never poisons
the store.
"""

from __future__ import annotations

import itertools
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["BackendEntry", "PersistentBackend", "DirectoryBackend",
           "SQLiteBackend", "open_backend", "gc_backend"]

# Distinct temp-file names for concurrent writers of the same key: the
# pid separates processes, the counter separates threads.
_TMP_COUNTER = itertools.count()


@dataclass
class BackendEntry:
    """One persisted artifact, as seen by ``stats``/``gc`` sweeps."""

    kind: str
    key: str
    size: int
    created_at: float


class PersistentBackend:
    """Interface of the persistent tier: a (kind, key) -> dict table."""

    name = "abstract"

    def get(self, kind: str, key: str) -> dict | None:
        raise NotImplementedError

    def put(self, kind: str, key: str, value: dict,
            replace: bool = False) -> None:
        raise NotImplementedError

    def get_many(self, kind: str, keys: list[str]) -> dict[str, dict]:
        return {k: v for k in keys if (v := self.get(kind, k)) is not None}

    def put_many(self, kind: str, items: dict[str, dict],
                 replace: bool = False) -> None:
        for key, value in items.items():
            self.put(kind, key, value, replace=replace)

    def contains(self, kind: str, key: str) -> bool:
        return self.get(kind, key) is not None

    def entries(self):
        """Iterate :class:`BackendEntry` rows (for stats and gc)."""
        raise NotImplementedError

    def delete(self, kind: str, key: str) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        for entry in list(self.entries()):
            self.delete(entry.kind, entry.key)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
class DirectoryBackend(PersistentBackend):
    """One JSON file per artifact at ``root/<kind>/<key[:2]>/<key>.json``
    (``root`` is created on first write).

    Publishes are atomic (unique temp + rename) and last-writer-wins:
    entries are content-addressed so every writer of a key carries the
    same payload, and overwriting is what lets a later put heal a
    corrupt entry left by a crashed pre-staging writer.
    """

    name = "directory"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def get(self, kind: str, key: str) -> dict | None:
        try:
            value = json.loads(self._path(kind, key).read_text())
        except (OSError, ValueError):
            return None
        return value if isinstance(value, dict) else None

    def put(self, kind: str, key: str, value: dict,
            replace: bool = False) -> None:
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            tmp.write_text(json.dumps(value))
            tmp.replace(path)  # atomic publish
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def contains(self, kind: str, key: str) -> bool:
        return self._path(kind, key).is_file()

    def entries(self):
        if not self.root.is_dir():
            return
        for path in self.root.glob("*/*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield BackendEntry(kind=path.parts[len(self.root.parts)],
                               key=path.stem, size=stat.st_size,
                               created_at=stat.st_mtime)

    def delete(self, kind: str, key: str) -> None:
        self._path(kind, key).unlink(missing_ok=True)

    def clear(self) -> None:
        if not self.root.is_dir():
            return
        for pattern in ("*/*/*.json", "*/*/.*.tmp"):
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)


# ---------------------------------------------------------------------- #
class SQLiteBackend(PersistentBackend):
    """All artifacts in one WAL-mode SQLite file.

    - **write-once**: ``INSERT OR IGNORE`` — the first writer of a key
      wins and later writers are no-ops (entries are content-addressed,
      so they all carry the same payload);
    - **batched**: :meth:`get_many` / :meth:`put_many` are single
      round trips (chunked ``IN`` selects, one-transaction
      ``executemany``), the fast path for warm DSE scans;
    - **concurrent**: WAL mode lets any number of reader processes
      overlap one writer; writers serialize on a busy-timeout;
    - **corruption tolerant**: a row whose payload fails to decode is
      deleted and read as a miss; database-level errors read as misses
      rather than raising into the pipeline.

    Connections are per-thread (sqlite3 objects are not thread-safe),
    created lazily so a backend can be constructed in a parent process
    and used after ``fork``.
    """

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS artifacts (
            kind       TEXT    NOT NULL,
            key        TEXT    NOT NULL,
            value      BLOB    NOT NULL,
            size       INTEGER NOT NULL,
            created_at REAL    NOT NULL,
            PRIMARY KEY (kind, key)
        )
    """
    _CHUNK = 400  # keys per IN(...) select, well under the 999 cap

    def __init__(self, path: str | Path, timeout_s: float = 30.0):
        self.path = Path(path)
        self.timeout_s = timeout_s
        self._local = threading.local()
        self._conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._pid = os.getpid()
        # Fail fast on an unusable location; tolerate a corrupt file at
        # read time instead of import time.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn()

    def _conn(self) -> sqlite3.Connection:
        if os.getpid() != self._pid:
            # Forked child: drop inherited connections (unsafe to share).
            self._local = threading.local()
            self._conns = []
            self._pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=self.timeout_s,
                                   isolation_level=None)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(self._SCHEMA)
            except sqlite3.Error:
                pass  # corrupt file: reads will miss, puts will raise
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    @staticmethod
    def _decode(blob) -> dict | None:
        try:
            value = json.loads(blob)
        except (TypeError, UnicodeDecodeError, ValueError):
            return None
        return value if isinstance(value, dict) else None

    def get(self, kind: str, key: str) -> dict | None:
        try:
            row = self._conn().execute(
                "SELECT value FROM artifacts WHERE kind=? AND key=?",
                (kind, key)).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        value = self._decode(row[0])
        if value is None:
            self.delete(kind, key)  # heal: corrupt row reads as a miss
        return value

    def get_many(self, kind: str, keys: list[str]) -> dict[str, dict]:
        found: dict[str, dict] = {}
        try:
            conn = self._conn()
            for lo in range(0, len(keys), self._CHUNK):
                chunk = keys[lo:lo + self._CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT key, value FROM artifacts "
                    f"WHERE kind=? AND key IN ({marks})",
                    (kind, *chunk)).fetchall()
                for key, blob in rows:
                    value = self._decode(blob)
                    if value is not None:
                        found[key] = value
        except sqlite3.Error:
            return found
        return found

    def put(self, kind: str, key: str, value: dict,
            replace: bool = False) -> None:
        self.put_many(kind, {key: value}, replace=replace)

    def put_many(self, kind: str, items: dict[str, dict],
                 replace: bool = False) -> None:
        if not items:
            return
        verb = "INSERT OR REPLACE" if replace else "INSERT OR IGNORE"
        now = time.time()
        rows = []
        for key, value in items.items():
            blob = json.dumps(value).encode()
            rows.append((kind, key, blob, len(blob), now))
        conn = self._conn()
        for attempt in range(5):
            try:
                conn.execute("BEGIN IMMEDIATE")
                conn.executemany(
                    f"{verb} INTO artifacts "
                    "(kind, key, value, size, created_at) "
                    "VALUES (?, ?, ?, ?, ?)", rows)
                conn.execute("COMMIT")
                return
            except sqlite3.OperationalError:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                if attempt == 4:
                    raise
                time.sleep(0.05 * (attempt + 1))

    def contains(self, kind: str, key: str) -> bool:
        try:
            return self._conn().execute(
                "SELECT 1 FROM artifacts WHERE kind=? AND key=?",
                (kind, key)).fetchone() is not None
        except sqlite3.Error:
            return False

    def entries(self):
        try:
            rows = self._conn().execute(
                "SELECT kind, key, size, created_at FROM artifacts").fetchall()
        except sqlite3.Error:
            return
        for kind, key, size, created_at in rows:
            yield BackendEntry(kind=kind, key=key, size=size,
                               created_at=created_at)

    def delete(self, kind: str, key: str) -> None:
        try:
            self._conn().execute(
                "DELETE FROM artifacts WHERE kind=? AND key=?", (kind, key))
        except sqlite3.Error:
            pass

    def clear(self) -> None:
        try:
            self._conn().execute("DELETE FROM artifacts")
        except sqlite3.Error:
            pass

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()


# ---------------------------------------------------------------------- #
def open_backend(spec: str | Path) -> PersistentBackend:
    """Open a persistent tier from a path-like spec.

    ``*.sqlite`` / ``*.sqlite3`` / ``*.db`` (or an existing regular
    file) opens a :class:`SQLiteBackend`; anything else is a
    :class:`DirectoryBackend` root.
    """
    path = Path(spec)
    if path.suffix in (".sqlite", ".sqlite3", ".db") or path.is_file():
        return SQLiteBackend(path)
    return DirectoryBackend(path)


def gc_backend(backend: PersistentBackend, max_age_s: float | None = None,
               max_bytes: int | None = None, now: float | None = None,
               dry_run: bool = False) -> dict:
    """Age/size-bounded sweep of a persistent tier.

    Entries older than ``max_age_s`` are deleted; if the survivors still
    exceed ``max_bytes``, the oldest are deleted until they fit.  Returns
    a report dict (counts and bytes, before/after).  ``dry_run`` only
    reports what would be deleted.
    """
    now = time.time() if now is None else now
    entries = sorted(backend.entries(), key=lambda e: e.created_at)
    total = sum(e.size for e in entries)
    doomed: list[BackendEntry] = []
    kept_bytes = total
    survivors = []
    for entry in entries:
        if max_age_s is not None and now - entry.created_at > max_age_s:
            doomed.append(entry)
            kept_bytes -= entry.size
        else:
            survivors.append(entry)
    if max_bytes is not None:
        for entry in survivors:          # oldest first
            if kept_bytes <= max_bytes:
                break
            doomed.append(entry)
            kept_bytes -= entry.size
    if not dry_run:
        for entry in doomed:
            backend.delete(entry.kind, entry.key)
    return {
        "backend": backend.name,
        "scanned": len(entries),
        "deleted": len(doomed),
        "bytes_before": total,
        "bytes_freed": total - kept_bytes,
        "bytes_after": kept_bytes,
        "dry_run": dry_run,
    }
