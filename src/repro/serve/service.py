"""The catalog service: a crash-safe, concurrent statistics store.

This is the server's brain, factored free of any transport so the crash
and concurrency properties are testable in-process:

- **Durability.** A commit -- a client's staged ops, in order -- is
  checked whole, then appended to the
  :class:`~repro.serve.wal.WriteAheadLog` as **one** fsync'd record
  *before* it touches memory and before the caller is acknowledged.
  Startup loads the last snapshot and replays the log's suffix; an
  acknowledged commit therefore survives ``SIGKILL`` at any instruction,
  and a torn tail (the one commit that was never acknowledged) is
  discarded whole.  A commit is applied whole or not at all, live and on
  replay.

- **Write-behind snapshots.** Every ``snapshot_every`` commits
  the in-memory state is written as a normal
  :class:`~repro.catalog.store.StatisticsCatalog` document (atomic
  rename) carrying the last absorbed WAL sequence, and the log is
  truncated.  Replay time is thereby bounded by ``snapshot_every``, not
  by the server's lifetime, and the snapshot file doubles as the local
  catalog a degraded client can fall back to.

- **One catalog, two locks.** The entries are one
  :class:`~repro.catalog.store.StatisticsCatalog`, and every entry rule
  (usable, supersedes, stale, quality, collectable) is its: live
  commits and WAL replay both end in its ``apply(op, items)``.  Commits
  are serialized by the write lock -- WAL order *is* memory order, so
  replay reconstructs exactly the state the live server had, and two
  nights whose flushes overlap both land, one after the other.  A second,
  short-held state lock guards the entry dict itself, so a reader never
  waits for a WAL fsync, only for another dict access.

There is one service per catalog and no second copy of it: durability
comes from the WAL, and availability from the client's degradation to
its local view when the daemon is unreachable.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.catalog.store import (
    MUTATIONS,
    CatalogEntry,
    StatisticsCatalog,
)
from repro.core.persistence import PersistenceError, _load_json, atomic_write_json
from repro.serve.wal import WriteAheadLog

#: commits between write-behind snapshots
DEFAULT_SNAPSHOT_EVERY = 256

#: seconds between background snapshot-daemon wakeups
DEFAULT_SNAPSHOT_INTERVAL = 30.0


class CatalogService:
    """A :class:`StatisticsCatalog` made crash-safe: one WAL record a commit."""

    def __init__(
        self,
        path: str | Path,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        metrics=None,
        clock=time.time,
    ):
        self.path = Path(path)
        self.wal = WriteAheadLog(Path(str(path) + ".wal"))
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        self.clock = clock

        #: the entries and the entry rules; touched only under _state_lock
        self.catalog = StatisticsCatalog(None)
        self._state_lock = threading.Lock()
        self._write_lock = threading.Lock()

        self.snapshot_seq = 0  # last WAL seq absorbed by the snapshot
        self._since_snapshot = 0
        #: set when snapshot_every commits accumulated; the background
        #: snapshot daemon (not the request path) folds them into a snapshot
        self._snapshot_due = threading.Event()

        self._load()

    # ------------------------------------------------------------------
    # startup: snapshot + WAL replay
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Load the snapshot, then replay the WAL records it did not absorb.

        A snapshot is a plain catalog document; the absorbed WAL sequence
        rides as an extra top-level field the plain catalog loader ignores,
        as it ignores any other top-level field an earlier version wrote.
        """
        if self.path.exists():
            doc = _load_json(self.path, "catalog")
            self.catalog._load_doc(doc)
            self.snapshot_seq = int(doc.get("wal_seq", 0))
        replayed = 0
        for record in self.wal.replay(after_seq=self.snapshot_seq):
            self._apply(record)
            replayed += 1
        # a log truncated by the snapshot is empty: the next commit must
        # still number after everything the snapshot absorbed, or replay
        # would skip it as already absorbed
        self.wal.last_seq = max(self.wal.last_seq, self.snapshot_seq)
        self.replayed_records = replayed
        self._publish_gauges()
        if replayed and self.metrics is not None:
            self.metrics.counter(
                "catalog_server_wal_replayed_total",
                "WAL records replayed at startup",
            ).inc(replayed)

    def _publish_gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "catalog_server_entries", "entries held by the service"
            ).set(len(self))

    # ------------------------------------------------------------------
    # reads: the catalog's own, under the state lock
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.catalog)

    def get(self, key: str) -> CatalogEntry | None:
        with self._state_lock:
            return self.catalog.get(key)

    def lookup(
        self, keys, now: float | None = None, count_hits: bool = True
    ) -> list[CatalogEntry]:
        """The usable entries among ``keys`` (stale/expired never match)."""
        now = self.clock() if now is None else now
        with self._state_lock:
            return list(self.catalog.usable_among(keys, now, count_hits).values())

    def usable_keys(self, now: float | None = None) -> set[str]:
        now = self.clock() if now is None else now
        with self._state_lock:
            return self.catalog.usable_keys(now)

    def entries_on_se(self, se_keys) -> list[CatalogEntry]:
        wanted = set(se_keys)
        return [entry for entry in self.all_entries() if entry.se_key in wanted]

    def all_entries(self) -> list[CatalogEntry]:
        with self._state_lock:
            entries = list(self.catalog.entries.values())
        return sorted(entries, key=lambda e: e.key)

    # ------------------------------------------------------------------
    # commits: checked whole, WAL first, memory second, ack last
    # ------------------------------------------------------------------
    def commit(self, ops) -> int:
        """Log ``[[op, items], ...]`` as one record and apply it; its seq.

        Every op is checked (and put in canonical form) before anything
        is written, so a malformed op raises :class:`ValueError` with
        nothing logged and nothing applied.  An empty commit writes
        nothing.
        """
        if not isinstance(ops, list):
            raise ValueError(f"a commit is a list of [op, items], got {ops!r}")
        checked = [self._checked(op) for op in ops]
        with self._write_lock:
            return self._commit(checked) if checked else self.wal.last_seq

    @staticmethod
    def _checked(op) -> list:
        """One committed ``[op, items]`` as the WAL logs it.

        A client commits ``put`` / ``merge`` (entry documents), ``stale``
        (keys) and ``quality`` (``[key, rel_error]`` pairs); only
        :meth:`gc` commits a ``delete``.
        """
        try:
            name, items = op
            if name == "delete" or name not in MUTATIONS:
                raise ValueError(f"unknown commit op {name!r}")
            if not isinstance(items, list):
                raise ValueError(f"{name} items must be a list, got {items!r}")
            if name in ("put", "merge"):
                return [name, [CatalogEntry.of(doc).to_dict() for doc in items]]
            if name == "stale":
                return [name, sorted({str(key) for key in items})]
            return [name, [[str(key), float(err)] for key, err in items]]
        except TypeError as exc:
            raise ValueError(f"bad commit op {op!r}: {exc}") from exc

    def _commit(self, ops: list) -> int:
        """One durable record (write lock held): appended, then applied as
        replay applies it."""
        seq = self.wal.append(self.wal.last_seq + 1, ops)
        self._apply({"seq": seq, "ops": ops})
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            # snapshots happen off the request path: flag the backlog
            # and let the snapshot daemon (or an explicit caller) fold it
            self._snapshot_due.set()
        self._publish_gauges()
        if self.metrics is not None:
            self.metrics.counter(
                "catalog_server_wal_records_total", "durable WAL appends"
            ).inc()
        return seq

    def gc(self) -> int:
        """Drop expired/low-quality/stale entries; returns the count.

        The doomed set is committed as an explicit ``delete``, so replay
        removes exactly the same keys no matter when the replaying
        process runs.  Scan and record sit under one hold of the write
        lock: a commit that refreshes a doomed key lands before the scan
        or after the delete, never between them.
        """
        with self._write_lock:
            with self._state_lock:
                doomed = self.catalog.collectable_keys(self.clock())
            if doomed:
                self._commit([["delete", doomed]])
        return len(doomed)

    # ------------------------------------------------------------------
    # the single apply path (live commits and replay share it)
    # ------------------------------------------------------------------
    def _apply(self, record: dict) -> None:
        ops = record.get("ops")
        if ops is None:  # an earlier version's one-op record: a one-op commit
            op = record.get("op")
            ops = [[op, record.get(MUTATIONS.get(op), ())]]
        with self._state_lock:
            for op, items in ops:
                self.catalog.apply(op, items)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        with self._state_lock:
            doc = self.catalog.to_dict()
        return {**doc, "wal_seq": self.wal.last_seq}

    @property
    def snapshot_due(self) -> bool:
        """True when ``snapshot_every`` commits accumulated unfolded."""
        return self._snapshot_due.is_set()

    def maybe_snapshot(self) -> bool:
        """Snapshot only if one is due; the snapshot daemon's fast path."""
        if not self._snapshot_due.is_set():
            return False
        self.snapshot()
        return True

    def snapshot(self) -> None:
        """Persist memory as a plain catalog document, truncate the WAL."""
        with self._write_lock:
            doc = self.to_dict()
            atomic_write_json(doc, self.path)
            self.snapshot_seq = doc["wal_seq"]
            self.wal.truncate()
            self._since_snapshot = 0
            self._snapshot_due.clear()
        if self.metrics is not None:
            self.metrics.counter(
                "catalog_server_snapshots_total", "write-behind snapshots"
            ).inc()

    def close(self) -> None:
        self.snapshot()
        self.wal.close()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The health document ``GET /healthz`` returns."""
        return {
            "ok": True,
            "entries": len(self),
            "usable": len(self.usable_keys()),
            "wal_seq": self.wal.last_seq,
            "snapshot_seq": self.snapshot_seq,
        }


class SnapshotDaemon:
    """Background thread folding snapshots off requests.

    The request path only flags that a snapshot is *due*
    (``snapshot_every`` commits accumulated); this daemon wakes on that
    flag or every ``interval`` seconds -- whichever comes first -- and
    does the actual fold, so no client ever pays the snapshot's
    write-and-truncate latency.  It wakes every
    :data:`DEFAULT_SNAPSHOT_INTERVAL` seconds -- or at once, on the flag.
    """

    def __init__(self, service: CatalogService):
        self.service = service
        self.snapshots = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="catalog-snapshot-daemon", daemon=True
        )

    def start(self) -> "SnapshotDaemon":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.service._snapshot_due.wait(DEFAULT_SNAPSHOT_INTERVAL)
            if self._stop.is_set():
                return
            self.run_once()

    def run_once(self) -> None:
        """One daemon tick: fold the WAL into a snapshot if it holds any."""
        try:
            if self.service._since_snapshot:
                self.service.snapshot()
                self.snapshots += 1
        except PersistenceError:  # pragma: no cover - e.g. racing a close
            pass

    def stop(self) -> None:
        self._stop.set()
        self.service._snapshot_due.set()  # wake the wait immediately
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        if not self.service._since_snapshot:
            self.service._snapshot_due.clear()  # undo the wake-up poke


__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "DEFAULT_SNAPSHOT_INTERVAL",
    "CatalogService",
    "SnapshotDaemon",
]
