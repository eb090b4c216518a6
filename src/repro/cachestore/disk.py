"""The on-disk backend: content-keyed entries in a SQLite file.

A :class:`DiskBackend` makes entries outlive the interpreter: a second
process (or a session started days later) pointed at the same ``cache_dir``
reads the search results the first one stored (``results.sqlite``, one entry
per summarize request).  This is sound because the keys hash the exact
content a computation reads, so an entry can only ever be hit by a lookup
whose inputs are byte-identical; stale data simply stops being referenced.

Content keys are blind to *configuration*, though: knobs like the k-means
seed or coverage thresholds change computed values without changing the data
a computation reads.  In-process stores never outlive their single
owning configuration, but a disk store does — so every key is additionally
folded with a ``namespace`` (``CharlesConfig.cache_fingerprint()`` of the
result-affecting fields, threaded through the factory).  Two differently
configured runs pointed at the same ``cache_dir`` therefore read and write
disjoint entries instead of silently reusing a wrong-config result.

Storage details:

* keys are the 16-byte :func:`~repro.cachestore.base.key_digest` of the
  ``(namespace, key)`` pair; values are pickled — both live in one
  ``entries`` table;
* every write is wrapped in a SQLite transaction, so concurrent readers and
  writers (e.g. two engines pointed at the same directory) see complete
  entries or nothing — never a torn write;
* connections are opened lazily *per process*: a backend that crosses a
  ``fork``/``spawn`` boundary re-opens its own connection on first use
  rather than sharing one unsafely;
* an optional ``capacity`` bounds the entry count, and eviction drops the
  oldest write first, in ``rowid`` order — ``INSERT OR REPLACE`` gives a
  rewritten row a new ``rowid``, so an overwrite counts as a new write, as
  in memory, and a read writes nothing;
* a persistent cache must *degrade, never abort*: the store carries a format
  stamp in ``PRAGMA user_version`` — known older versions open in place
  and are restamped, entries intact, unknown ones are dropped wholesale —
  and a blob that no longer unpickles, or a
  corrupt/locked database all surface as misses — the work is recomputed and
  the bad entry discarded; ``__len__`` and :meth:`~DiskBackend.clear` degrade
  the same way (0 entries / no-op).  Only an unusable location at
  construction raises;
* values are deserialised with :mod:`pickle`, so whoever can write the file
  can execute code in the search process.  New stores are created owner-only
  (``0600``, atomically at open) as a guard; pre-existing files keep their
  permissions, so ``cache_dir`` must live somewhere trusted — never a
  world-writable location.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from pathlib import Path
from typing import Any, Hashable

from repro.cachestore.base import (
    MISSING,
    STORE_ERRORS,
    UNPICKLE_ERRORS,
    CacheBackend,
    key_digest,
)
from repro.exceptions import CacheStoreError

__all__ = ["DiskBackend"]

# bump when the on-disk layout or the pickled value types change shape; a
# store stamped with a *newer or unknown* version is dropped wholesale at
# open time.  v3 reads the (key, value) columns of v1 and v2 stores as they
# are: a v2 file keeps its unused cost column, whose default fills it on
# insert, so both open in place and are restamped
_FORMAT_VERSION = 3
_READABLE_VERSIONS = (0, 1, 2, _FORMAT_VERSION)  # 0: a fresh file


class DiskBackend(CacheBackend):
    """A content-keyed persistent store in a single SQLite file."""

    kind = "disk"

    def __init__(
        self,
        path: str | Path,
        capacity: int | None = None,
        namespace: bytes = b"",
    ) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1 or None, got {capacity}")
        self._path = Path(path)
        self._capacity = capacity
        self._namespace = namespace
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._connection()  # fail fast on an unusable location

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None or self._pid != os.getpid():
            try:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                # the store holds pickles: create it owner-only atomically
                # (0600 at open, no chmod window; WAL/journal side files
                # inherit these bits).  A pre-existing file keeps its
                # permissions — it may belong to another trusted user, and
                # tightening it would fail for a non-owner anyway.
                os.close(os.open(self._path, os.O_CREAT | os.O_RDWR, 0o600))
                conn = sqlite3.connect(self._path, timeout=30.0)
                # WAL lets concurrent processes read while one writes; harmless
                # (and silently refused) on filesystems that cannot support it
                conn.execute("PRAGMA journal_mode=WAL")
                (stamp,) = conn.execute("PRAGMA user_version").fetchone()
                if stamp not in _READABLE_VERSIONS:
                    conn.execute("DROP TABLE IF EXISTS entries")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    "key BLOB PRIMARY KEY, value BLOB NOT NULL)"
                )
                conn.execute(f"PRAGMA user_version = {_FORMAT_VERSION}")
                conn.commit()
            except (sqlite3.Error, OSError) as error:
                raise CacheStoreError(
                    f"cannot open on-disk cache at {self._path}: {error}"
                ) from error
            self._conn = conn
            self._pid = os.getpid()
        return self._conn

    @property
    def path(self) -> Path:
        """Location of the SQLite file."""
        return self._path

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def namespace(self) -> bytes:
        """Configuration fingerprint folded into every key (b"" = unnamespaced)."""
        return self._namespace

    def _digest(self, key: Hashable) -> bytes:
        """The physical key: the logical key folded with this store's namespace."""
        if not self._namespace:
            return key_digest(key)
        return key_digest((self._namespace, key))

    def get(self, key: Hashable) -> Any:
        digest = self._digest(key)
        try:
            row = (
                self._connection()
                .execute("SELECT value FROM entries WHERE key = ?", (digest,))
                .fetchone()
            )
            if row is not None:
                value = pickle.loads(row[0])
                self.hits += 1
                return value
        except (sqlite3.Error, CacheStoreError):
            STORE_ERRORS.inc(backend=self.kind, op="get")
        except UNPICKLE_ERRORS:
            STORE_ERRORS.inc(backend=self.kind, op="get")
            self._discard(digest)
        self.misses += 1
        return MISSING

    def _discard(self, digest: bytes) -> None:
        """Best-effort removal of an entry that no longer unpickles."""
        try:
            conn = self._connection()
            with conn:
                conn.execute("DELETE FROM entries WHERE key = ?", (digest,))
        except (sqlite3.Error, CacheStoreError):
            STORE_ERRORS.inc(backend=self.kind, op="discard")

    def put(self, key: Hashable, value: Any) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            conn = self._connection()
            with conn:
                # REPLACE gives a rewritten row a new rowid: it is now the youngest
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, value) VALUES (?, ?)",
                    (self._digest(key), payload),
                )
                if self._capacity is not None:
                    (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
                    excess = count - self._capacity
                    if excess > 0:
                        conn.execute(
                            "DELETE FROM entries WHERE rowid IN ("
                            "SELECT rowid FROM entries ORDER BY rowid LIMIT ?)",
                            (excess,),
                        )
                        self.evictions += excess
        except (sqlite3.Error, CacheStoreError):
            # a cache write is an optimisation; a full or locked disk must not
            # abort the search — the entry is simply recomputed next time
            STORE_ERRORS.inc(backend=self.kind, op="put")

    def __len__(self) -> int:
        # counts every entry in the file, across namespaces; degrades to 0
        # on a locked/corrupt store, like get/put degrade to misses
        try:
            return self.strict_len()
        except CacheStoreError:
            STORE_ERRORS.inc(backend=self.kind, op="len")
            return 0

    def strict_len(self) -> int:
        """Entry count that *raises* on a locked/corrupt store.

        The degrading ``__len__`` is right for cache traffic; admin tooling
        (``charles cache stats``) wants the failure surfaced, not a silent 0.
        """
        try:
            (count,) = (
                self._connection().execute("SELECT COUNT(*) FROM entries").fetchone()
            )
            return count
        except sqlite3.Error as error:
            raise CacheStoreError(
                f"cannot read on-disk cache at {self._path}: {error}"
            ) from error

    def clear(self) -> None:
        try:
            self.strict_clear()
        except CacheStoreError:
            STORE_ERRORS.inc(backend=self.kind, op="clear")

    def strict_clear(self) -> None:
        """Drop every entry, *raising* on a locked/corrupt store (admin path)."""
        try:
            conn = self._connection()
            with conn:
                conn.execute("DELETE FROM entries")
        except sqlite3.Error as error:
            raise CacheStoreError(
                f"cannot clear on-disk cache at {self._path}: {error}"
            ) from error

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None
