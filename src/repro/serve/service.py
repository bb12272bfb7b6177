"""The catalog service: a crash-safe, concurrent statistics store.

This is the server's brain, factored free of any transport so the crash
and concurrency properties are testable in-process:

- **Durability.** Every mutation is appended to the
  :class:`~repro.serve.wal.WriteAheadLog` (fsync'd) *before* it touches
  memory and before the caller is acknowledged.  Startup loads the last
  snapshot and replays the log's suffix; an acknowledged write therefore
  survives ``SIGKILL`` at any instruction, and a torn tail (the one write
  that was never acknowledged) is discarded.

- **Write-behind snapshots.** Every ``snapshot_every`` applied mutations
  the in-memory state is written as a normal
  :class:`~repro.catalog.store.StatisticsCatalog` document (atomic
  rename) carrying the last absorbed WAL sequence, and the log is
  truncated.  Replay time is thereby bounded by ``snapshot_every``, not
  by the server's lifetime, and the snapshot file doubles as the local
  catalog a degraded client can fall back to.

- **One catalog, two locks.** The entries are one
  :class:`~repro.catalog.store.StatisticsCatalog`, and every entry rule
  (usable, supersedes, stale, quality, collectable) is its: live
  mutations and WAL replay both end in its ``apply(op, items)``.
  Mutations are serialized by the write lock -- WAL order *is* memory
  order, so replay reconstructs exactly the state the live server had.  A
  second, short-held state lock guards the entry dict itself, so a reader
  never waits for a WAL fsync, only for another dict access.

- **Lease fencing.** Writers that reconcile a night's run first acquire
  a lease and attach its fence token to every write.  Tokens are
  monotonic and WAL-persisted; a paused holder whose lease was taken
  over comes back with a stale token and every one of its writes is
  rejected (:class:`FenceError`) instead of clobbering the takeover's.

There is one service per catalog and no second copy of it: durability
comes from the WAL, and availability from the client's degradation to
its local view when the daemon is unreachable.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.catalog.store import (
    DEFAULT_MIN_QUALITY,
    DEFAULT_TTL,
    MUTATIONS,
    CatalogEntry,
    StatisticsCatalog,
)
from repro.core.persistence import PersistenceError, _load_json, atomic_write_json
from repro.serve.wal import WAL_FORMAT_VERSION, WriteAheadLog

#: applied mutations between write-behind snapshots
DEFAULT_SNAPSHOT_EVERY = 256

#: seconds a writer lease lasts unless renewed
DEFAULT_LEASE_TTL = 60.0

#: seconds between background snapshot-daemon wakeups
DEFAULT_SNAPSHOT_INTERVAL = 30.0


class FenceError(PersistenceError):
    """A write carried a stale fence token: its lease was taken over."""


class CatalogService:
    """A :class:`StatisticsCatalog` made crash-safe and lease-fenced."""

    def __init__(
        self,
        path: str | Path,
        wal_path: str | Path | None = None,
        *,
        ttl: float = DEFAULT_TTL,
        min_quality: float = DEFAULT_MIN_QUALITY,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        fsync: bool = True,
        metrics=None,
        clock=time.time,
    ):
        self.path = Path(path)
        self.wal = WriteAheadLog(
            Path(wal_path) if wal_path is not None else Path(str(path) + ".wal"),
            fsync=fsync,
        )
        self.ttl = ttl
        self.min_quality = min_quality
        self.snapshot_every = snapshot_every
        self.lease_ttl = lease_ttl
        self.metrics = metrics
        self.clock = clock

        #: the entries and the entry rules; touched only under _state_lock
        self.catalog = StatisticsCatalog(None, ttl, min_quality)
        self._state_lock = threading.Lock()
        self._write_lock = threading.Lock()

        self.fence = 0  # latest issued lease token (monotonic, WAL'd)
        self.lease_holder = ""
        self.lease_deadline = 0.0
        self.snapshot_seq = 0  # last WAL seq absorbed by the snapshot
        self._since_snapshot = 0
        #: set when snapshot_every mutations accumulated; the background
        #: snapshot daemon (not the request path) folds them into a snapshot
        self._snapshot_due = threading.Event()

        self._load()

    # ------------------------------------------------------------------
    # startup: snapshot + WAL replay
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Load the snapshot, then replay the WAL records it did not absorb.

        A snapshot is a plain catalog document; the absorbed WAL sequence,
        the fence and the lease ride as extra top-level fields the plain
        catalog loader ignores, as it ignores any other top-level field an
        earlier release wrote.
        """
        if self.path.exists():
            doc = _load_json(self.path, "catalog")
            self.catalog._load_doc(doc)
            self.snapshot_seq = int(doc.get("wal_seq", 0))
            self.fence = int(doc.get("fence", 0))
            self.lease_holder = str(doc.get("lease_holder", ""))
            self.lease_deadline = float(doc.get("lease_deadline", 0.0))
        replayed = 0
        for record in self.wal.replay(after_seq=self.snapshot_seq):
            self._apply(record)
            replayed += 1
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
    # leases
    # ------------------------------------------------------------------
    def acquire_lease(self, holder: str, ttl: float | None = None) -> int:
        """Issue a fresh fence token; takes over an expired lease.

        A *live* lease held by someone else is not stolen -- the contender
        gets a :class:`FenceError` and retries after the TTL.  Every
        successful acquisition (including a renewal by the same holder)
        bumps the fence, which is what invalidates a paused predecessor.
        """
        ttl = self.lease_ttl if ttl is None else ttl
        with self._write_lock:
            now = self.clock()
            if (
                self.lease_holder
                and self.lease_holder != holder
                and now < self.lease_deadline
            ):
                raise FenceError(
                    f"catalog lease held by {self.lease_holder!r} for another "
                    f"{self.lease_deadline - now:.0f}s"
                )
            self._commit(
                "lease", fence=self.fence + 1, holder=holder, deadline=now + ttl
            )
            return self.fence

    def release_lease(self, fence: int) -> bool:
        """Give the lease back after a completed save.

        Releasing with a stale token is a silent no-op -- the lease was
        already taken over, so there is nothing of this holder's left to
        release.  The fence counter itself never goes backwards.
        """
        with self._write_lock:
            if fence != self.fence or not self.lease_holder:
                return False
            self._commit("lease", fence=self.fence, holder="", deadline=0.0)
            return True

    def _check_fence(self, fence: int | None) -> None:
        if fence is not None and fence != self.fence:
            raise FenceError(
                f"stale fence token {fence} (current {self.fence}): this "
                "writer's lease was taken over; re-acquire and retry"
            )

    # ------------------------------------------------------------------
    # mutations: WAL first, memory second, ack last
    # ------------------------------------------------------------------
    def _commit(self, op: str, **fields) -> int:
        """One durable record: appended, then applied as replay applies it."""
        seq = self.wal.last_seq + 1
        self.wal.append(op, seq, **fields)
        self._apply({"v": WAL_FORMAT_VERSION, "seq": seq, "op": op, **fields})
        if self.metrics is not None:
            self.metrics.counter(
                "catalog_server_wal_records_total", "durable WAL appends"
            ).inc(op=op)
        return seq

    def _mutate(self, op: str, items, fence: int | None) -> int:
        with self._write_lock:
            return self._mutate_locked(op, items, fence)

    def _mutate_locked(self, op, items, fence) -> int:
        self._check_fence(fence)
        seq = self._commit(op, **{MUTATIONS[op]: items})
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            # snapshots happen off the request path: flag the backlog
            # and let the snapshot daemon (or an explicit caller) fold it
            self._snapshot_due.set()
        self._publish_gauges()
        return seq

    def put_entries(self, entry_docs, fence: int | None = None) -> int:
        """Insert-or-replace whole entries (the reconcile write path)."""
        return self._mutate("put", self._entry_docs(entry_docs), fence)

    def merge_entries(self, entry_docs, fence: int | None = None) -> int:
        """Fold entries in, newer ``observed_at`` winning per key."""
        return self._mutate("merge", self._entry_docs(entry_docs), fence)

    def mark_stale(self, keys, fence: int | None = None) -> int:
        return self._mutate("stale", sorted(set(keys)), fence)

    def adjust_quality(self, adjustments, fence: int | None = None) -> int:
        """Blend prediction errors into quality scores; ``[[key, err]..]``."""
        pairs = [[str(key), float(err)] for key, err in adjustments]
        return self._mutate("quality", pairs, fence)

    def gc(
        self,
        ttl: float | None = None,
        min_quality: float | None = None,
        drop_stale: bool = True,
        fence: int | None = None,
    ) -> int:
        """Drop expired/low-quality/stale entries; returns the count.

        The doomed set is logged as an explicit ``delete`` record, so
        replay removes exactly the same keys no matter when the replaying
        process runs.  Scan and record sit under one hold of the write
        lock: a ``put`` that refreshes a doomed key lands before the scan
        or after the delete, never between them.
        """
        with self._write_lock:
            with self._state_lock:
                doomed = self.catalog.collectable_keys(
                    self.clock(), ttl, min_quality, drop_stale
                )
            if doomed:
                self._mutate_locked("delete", doomed, fence)
        return len(doomed)

    @staticmethod
    def _entry_docs(entries) -> list[dict]:
        """Entries (documents or objects) as validated, canonical documents."""
        return [CatalogEntry.of(entry).to_dict() for entry in entries]

    # ------------------------------------------------------------------
    # the single apply path (live mutations and replay share it)
    # ------------------------------------------------------------------
    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op in MUTATIONS:
            with self._state_lock:
                self.catalog.apply(op, record.get(MUTATIONS[op], ()))
        elif op == "lease":
            self.fence = max(self.fence, int(record.get("fence", 0)))
            self.lease_holder = str(record.get("holder", ""))
            self.lease_deadline = float(record.get("deadline", 0.0))
        else:
            raise PersistenceError(f"WAL record with unknown op {op!r}")

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        with self._state_lock:
            doc = self.catalog.to_dict()
        return {
            **doc,
            "wal_seq": self.wal.last_seq,
            "fence": self.fence,
            "lease_holder": self.lease_holder,
            "lease_deadline": self.lease_deadline,
        }

    @property
    def snapshot_due(self) -> bool:
        """True when ``snapshot_every`` mutations accumulated unfolded."""
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
            # the lease fence must survive the truncation: re-seed the fresh
            # log so a post-snapshot restart still rejects pre-snapshot tokens
            if self.fence:
                self._commit(
                    "lease",
                    fence=self.fence,
                    holder=self.lease_holder,
                    deadline=self.lease_deadline,
                )
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
            "fence": self.fence,
            "lease_holder": self.lease_holder,
        }


class SnapshotDaemon:
    """Background thread folding snapshots (and optional GC) off requests.

    The request path only flags that a snapshot is *due*
    (``snapshot_every`` mutations accumulated); this daemon wakes on that
    flag or every ``interval`` seconds -- whichever comes first -- and
    does the actual fold, so no client ever pays the snapshot's
    write-and-truncate latency.  With ``gc_interval`` set, expired and
    low-quality entries are also collected here.
    """

    def __init__(
        self,
        service: CatalogService,
        interval: float = DEFAULT_SNAPSHOT_INTERVAL,
        gc_interval: float | None = None,
        clock=time.monotonic,
    ):
        self.service = service
        self.interval = max(0.01, float(interval))
        self.gc_interval = gc_interval
        self.clock = clock
        self.snapshots = 0
        self.collected = 0
        self._last_gc = clock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="catalog-snapshot-daemon", daemon=True
        )

    def start(self) -> "SnapshotDaemon":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.service._snapshot_due.wait(self.interval)
            if self._stop.is_set():
                return
            self.run_once()

    def run_once(self) -> None:
        """One daemon tick: GC if its interval elapsed, then fold."""
        try:
            if (
                self.gc_interval is not None
                and self.clock() - self._last_gc >= self.gc_interval
            ):
                self.collected += self.service.gc(drop_stale=False)
                self._last_gc = self.clock()
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
    "DEFAULT_LEASE_TTL",
    "DEFAULT_SNAPSHOT_EVERY",
    "DEFAULT_SNAPSHOT_INTERVAL",
    "CatalogService",
    "FenceError",
    "SnapshotDaemon",
]
