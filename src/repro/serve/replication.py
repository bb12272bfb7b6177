"""The standby side of catalog replication: a WAL stream tailer.

A standby server owns a normal :class:`~repro.serve.service.CatalogService`
(read-only by role) plus one :class:`ReplicationTailer` thread.  The
tailer polls the primary's ``GET /wal/stream?from=<cursor>`` where the
cursor is the standby's own WAL head: the primary answers either the
tail records past the cursor or a *reset* snapshot when the cursor
predates its last fold.  Records are applied through the service's
single apply path with the primary's own sequence numbers, so the
standby's WAL is byte-equivalent to the primary's suffix and the cursor
survives standby restarts for free.

Lag is the distance between the primary's head sequence and the
standby's -- exported as the ``catalog_replication_lag_records`` gauge.

When the primary stops answering for ``auto_promote_after`` consecutive
polls the tailer promotes its service (epoch bump, fenced in the WAL
header) and stops: the standby is now the primary the surviving clients
fail over to.  Set ``auto_promote_after=0`` to leave promotion entirely
to operators / clients (``POST /promote``).
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPException

from repro.core.persistence import PersistenceError
from repro.engine.faults import as_injector
from repro.serve.client import _Endpoint
from repro.serve.service import CatalogService, EpochError

#: seconds between stream polls
DEFAULT_POLL_INTERVAL = 0.25

#: consecutive failed polls before the standby promotes itself (0 = never)
DEFAULT_AUTO_PROMOTE_AFTER = 8


class ReplicationError(PersistenceError):
    """A stream poll failed (connection, HTTP status, or bad payload)."""


class ReplicationTailer:
    """Daemon thread tailing a primary's WAL stream into a local service."""

    def __init__(
        self,
        service: CatalogService,
        primary_url: str,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        timeout: float = 5.0,
        auto_promote_after: int = DEFAULT_AUTO_PROMOTE_AFTER,
        faults=None,
        metrics=None,
        sleep=time.sleep,
    ):
        self.service = service
        self._upstream = _Endpoint(primary_url)  # the connection, and its URL
        self.primary_url = self._upstream.url
        self.poll_interval = max(0.005, float(poll_interval))
        self.timeout = timeout
        self.auto_promote_after = max(0, int(auto_promote_after))
        self.metrics = metrics
        self.sleep = sleep
        self._injector = as_injector(faults)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="catalog-replication-tailer", daemon=True
        )
        self.polls = 0  # successful polls
        self.failures = 0  # consecutive failed polls (reset on success)
        self.applied = 0  # records applied since start
        self.resets = 0  # snapshot bootstraps
        self.upstream_seq = 0  # primary head at the last successful poll
        self.lag = 0  # upstream_seq - our head, at the last poll
        self.promoted = False
        self.stopped_reason = ""

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _fetch(self, path: str) -> dict:
        conn = self._upstream.connection(self.timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, HTTPException) as exc:
            self._upstream.drop()
            raise ReplicationError(
                f"stream poll of {self.primary_url} failed: {exc}"
            ) from exc
        if response.status != 200:
            raise ReplicationError(
                f"stream poll of {self.primary_url} answered "
                f"{response.status}: {raw[:200]!r}"
            )
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReplicationError(
                f"stream poll of {self.primary_url} returned bad JSON"
            ) from exc
        if not isinstance(doc, dict):
            raise ReplicationError("stream payload must be a JSON object")
        return doc

    # ------------------------------------------------------------------
    # the poll loop
    # ------------------------------------------------------------------
    def poll_once(self) -> int:
        """One stream poll: fetch past our cursor, apply, measure lag.

        Returns the number of records applied.  Raises
        :class:`ReplicationError` on transport trouble and
        :class:`~repro.serve.service.EpochError` when the upstream's
        epoch is behind ours (we were promoted; the stream is stale).
        """
        if self._injector is not None:
            # a replication-stall fault sleeps here: the stream survives,
            # lag grows, and the gauge shows it
            self._injector.on_replication(self.primary_url)
        cursor = self.service.wal.last_seq
        doc = self._fetch(f"/wal/stream?from={cursor}")
        epoch = doc.get("epoch")
        applied = 0
        if doc.get("reset"):
            self.service.load_snapshot(doc.get("snapshot", {}), epoch=epoch)
            self.resets += 1
            applied = self.service.wal.last_seq - cursor
        else:
            applied = self.service.apply_replicated(
                doc.get("records", ()), epoch=epoch
            )
        self.applied += max(0, applied)
        self.upstream_seq = int(doc.get("seq", self.service.wal.last_seq))
        self.lag = max(0, self.upstream_seq - self.service.wal.last_seq)
        self.polls += 1
        self.failures = 0
        if self.metrics is not None:
            self.metrics.gauge(
                "catalog_replication_lag_records",
                "records the standby is behind its primary",
            ).set(self.lag)
        return max(0, applied)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except EpochError as exc:
                # our epoch outranks the stream: we were promoted (or the
                # upstream was superseded); tailing it would roll us back
                self.stopped_reason = str(exc)
                return
            except ReplicationError as exc:
                self.failures += 1
                self.stopped_reason = str(exc)
                if (
                    self.auto_promote_after
                    and self.failures >= self.auto_promote_after
                    and self.service.role != "primary"
                ):
                    self.service.promote()
                    self.promoted = True
                    self.stopped_reason = (
                        f"promoted after {self.failures} failed polls "
                        f"of {self.primary_url}"
                    )
                    return
            self._stop.wait(self.poll_interval)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicationTailer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        self._upstream.drop()

    def wait_caught_up(self, head_seq: int, timeout: float = 5.0) -> bool:
        """Block until our WAL head reaches ``head_seq`` (tests, drains)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.service.wal.last_seq >= head_seq:
                return True
            time.sleep(self.poll_interval / 4)
        return self.service.wal.last_seq >= head_seq


__all__ = [
    "DEFAULT_AUTO_PROMOTE_AFTER",
    "DEFAULT_POLL_INTERVAL",
    "ReplicationError",
    "ReplicationTailer",
]
