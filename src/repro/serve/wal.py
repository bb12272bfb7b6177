"""Write-ahead log backing the statistics-catalog service.

The durability contract of :mod:`repro.serve` is exactly one sentence: a
commit the server acknowledged survives ``SIGKILL``.  The mechanism is the
classic one -- before a commit touches the in-memory store, one record
carrying all of its ops is appended here and ``fsync``'d; only then is the
client answered.  On startup the service replays the log over the last
snapshot and arrives at the same state byte for byte.

Each record is one line::

    <crc32 hex, 8 chars> <compact JSON payload>\\n

The payload is ``{"v": WAL_FORMAT_VERSION, "seq": N, "ops": [[op, items],
...]}``, the ops being :data:`~repro.catalog.store.MUTATIONS`.  Sequence
numbers are strictly increasing; the snapshot stores the last sequence it
absorbed, so replay after a crash between snapshot and truncation skips
already-applied records instead of double-applying non-idempotent ones
(quality blends).

A ``SIGKILL`` mid-append leaves a *torn tail*: a final line with no
newline, half a JSON document, or a checksum that does not match.  Replay
treats the first such line as the end of the log and discards everything
from it on -- those bytes were never acknowledged, so losing them is the
contract, not a violation of it.  A torn commit is lost whole: none of its
ops is applied.  Anything wrong *before* the tail (a bad checksum followed
by healthy records) is real corruption and raises.

One daemon owns a log (an exclusive ``flock`` on ``<wal>.lock``).  A log
written by an earlier version may hold records of another shape: a
one-op record ``{"op": "put", "entries": [...]}`` replays as a one-op
commit, and the records of retired protocols are skipped (see
:meth:`WriteAheadLog.replay`).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Iterator

try:  # pragma: no cover - fcntl is present on every POSIX we target
    import fcntl
except ImportError:  # pragma: no cover - windows
    fcntl = None

from repro.catalog.store import MUTATIONS
from repro.core.persistence import PersistenceError

#: version stamped into every record; replay accepts 1..WAL_FORMAT_VERSION
WAL_FORMAT_VERSION = 1


class WalError(PersistenceError):
    """Raised for real WAL corruption (not a torn tail, which is normal)."""


def encode_record(doc: dict) -> bytes:
    """One framed record: checksum, space, compact JSON, newline."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    body = payload.encode("utf-8")
    return f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode() + body + b"\n"


def decode_record(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` means torn/unparseable."""
    if not line.endswith(b"\n") or len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:-1]
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict):
        return None
    return doc


class WriteAheadLog:
    """Append-only, fsync'd record log with torn-tail-tolerant replay."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        self.last_seq = 0  # highest sequence appended or replayed
        self.records_written = 0
        # two servers appending to one log interleave acknowledged
        # records and race the truncation swap: refuse the second one
        # at startup instead of corrupting state at shutdown
        self._lock_fd = None
        if fcntl is not None:
            lock_path = self.path.with_name(self.path.name + ".lock")
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                os.close(fd)
                raise WalError(
                    f"WAL {self.path} is held by another catalog server "
                    f"(lock {lock_path}): one daemon per catalog"
                ) from exc
            self._lock_fd = fd

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, seq: int, ops: list) -> int:
        """Durably append one commit; returns ``seq`` once it is on disk.

        The ``fsync`` is what makes the acknowledgement honest: after this
        returns, a ``SIGKILL`` (or power cut, modulo the disk's own cache)
        cannot lose the record.
        """
        for op, _ in ops:
            if op not in MUTATIONS:
                raise WalError(
                    f"unknown WAL op {op!r}; expected one of {tuple(MUTATIONS)}"
                )
        doc = {"v": WAL_FORMAT_VERSION, "seq": seq, "ops": ops}
        handle = self._handle()
        handle.write(encode_record(doc))
        handle.flush()
        os.fsync(handle.fileno())
        self.last_seq = seq
        self.records_written += 1
        return seq

    def _close_handle(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def close(self) -> None:
        self._close_handle()
        if self._lock_fd is not None:
            try:
                os.close(self._lock_fd)
            except OSError:  # pragma: no cover - close cannot matter here
                pass
            self._lock_fd = None

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self, after_seq: int) -> Iterator[dict]:
        """Yield every durable record with ``seq > after_seq``, in order.

        The torn tail -- at most one damaged *final* line -- is silently
        discarded (its bytes were never acknowledged).  Damage anywhere
        else raises :class:`WalError`: the log claims acknowledged records
        after the damage, so losing them silently would break the
        durability contract.
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            doc = decode_record(line)
            if doc is None:
                if index == len(lines) - 1:
                    break  # torn tail: the unacknowledged final write
                raise WalError(
                    f"WAL {self.path} is corrupt at record {index + 1} "
                    f"(damage before the tail; {len(lines) - index - 1} "
                    "acknowledged record(s) follow it)"
                )
            version = doc.get("v")
            if not isinstance(version, int) or not 1 <= version <= WAL_FORMAT_VERSION:
                raise WalError(
                    f"WAL {self.path} record {index + 1} has unsupported "
                    f"version {version!r}"
                )
            seq = doc.get("seq")
            if seq == 0 and doc.get("op") == "epoch":
                continue  # an earlier version's header record, not a commit
            if not isinstance(seq, int) or seq <= 0:
                raise WalError(
                    f"WAL {self.path} record {index + 1} has bad seq {seq!r}"
                )
            self.last_seq = max(self.last_seq, seq)
            if seq <= after_seq or doc.get("op") == "lease":
                # absorbed by the snapshot, or an earlier version's
                # writer-lease record, which carries no entry
                continue
            yield doc

    # ------------------------------------------------------------------
    # truncation (after a snapshot absorbed everything)
    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Atomically reset the log after a snapshot absorbed it.

        The snapshot carries ``last_seq``, so even a crash *before* this
        truncation is safe -- replay skips the absorbed records.  The swap
        is an atomic rename: there is never a moment with a half-written
        log on disk.
        """
        self._close_handle()  # keep the server's exclusive lock
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


__all__ = [
    "WAL_FORMAT_VERSION",
    "WalError",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
]
