"""The persistent tier of the :class:`~repro.store.ArtifactStore`.

:class:`SQLiteBackend` keeps every artifact in one WAL-mode database
file, with write-once ``INSERT OR IGNORE`` rows and *batched*
multi-get/multi-put (a 1k-entry warm scan is one round trip, not 1k
lookups), and any number of processes can mount the same file at once.
It is corruption tolerant: a row whose payload does not decode reads
as a miss and is deleted, so the next put heals it; a reader never sees
a partial payload and a crashed writer never poisons the store.

:func:`open_backend` turns a ``--cache-dir``/``cache_dir`` value into
that file: a ``.sqlite``/``.sqlite3``/``.db`` path, or an existing
regular file, is the database itself, and any other path is a
directory holding ``store.sqlite``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["BackendEntry", "SQLiteBackend", "store_file", "open_backend",
           "gc_backend"]

@dataclass
class BackendEntry:
    """One persisted artifact, as seen by ``stats``/``gc`` sweeps."""

    kind: str
    key: str
    size: int
    created_at: float


class SQLiteBackend:
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
        torn: list[str] = []
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
                    if value is None:
                        torn.append(key)
                    else:
                        found[key] = value
        except sqlite3.Error:
            pass
        for key in torn:
            self.delete(kind, key)  # heal, as in ``get``
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
def store_file(spec: str | Path) -> Path:
    """The database file a ``--cache-dir``/``cache_dir`` value names.

    ``*.sqlite`` / ``*.sqlite3`` / ``*.db``, or an existing regular file,
    is the file itself; any other path is a directory holding
    ``store.sqlite``.
    """
    path = Path(spec)
    if path.suffix in (".sqlite", ".sqlite3", ".db") or path.is_file():
        return path
    return path / "store.sqlite"


def open_backend(spec: str | Path) -> SQLiteBackend:
    """Open the store at ``spec`` (see :func:`store_file`), creating the
    file and any missing parent directories."""
    return SQLiteBackend(store_file(spec))


def gc_backend(backend: SQLiteBackend, max_age_s: float | None = None,
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
