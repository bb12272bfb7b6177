"""Shared-memory columnar transport between the parent and shard workers.

Fork inheritance moves the *initial* source tables into workers for free,
but any table produced after the pool forked (screened sources, upstream
block outputs) has to travel.  Pickling whole tables through the pool's
pipe would copy them once per shard; instead the parent encodes each such
table **once** into a ``multiprocessing.shared_memory`` segment and ships
a tiny :class:`ShmRef`, which every worker attaches read-only and decodes
(with a per-process cache, so k shards of the same block decode once).

Layout of a segment::

    [8-byte little-endian meta length][meta pickle][column payload ...]

The meta pickle carries the row count and, per column, its name, encoding
and byte length.  Columns of pure ``int`` / pure ``float`` values are
packed as fixed-width arrays (decoded through ``numpy.frombuffer``,
measured no slower than ``array.frombytes`` on 1M-row columns -- see
EXPERIMENTS.md); anything else (strings, ``None``-bearing, mixed) falls
back to a pickled list.

CPython 3.11 registers a segment with the ``resource_tracker`` on
*attach* as well as on create.  The backend forks its pool only after
ensuring the parent's tracker process is running, so every worker shares
that tracker and the attach-side registration dedups against the parent's
create-side one (the tracker keeps a set); the parent stays the only
owner and unlinks each segment exactly once.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.engine.table import Table

_LEN = struct.Struct("<Q")


@dataclass(frozen=True)
class ShmRef:
    """A picklable handle to one encoded table."""

    name: str
    size: int


def _encode_column(values: list) -> tuple[str, bytes]:
    """``(encoding, payload)`` for one column; fixed-width when possible."""
    if values and all(
        type(v) is int  # bools are ints; keep them in the pickle rung
        for v in values
    ):
        try:
            return "i8", array("q", values).tobytes()
        except OverflowError:
            pass  # unbounded Python ints: fall through to the pickle rung
    if values and all(type(v) is float for v in values):
        return "f8", array("d", values).tobytes()
    return "pkl", pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_column(encoding: str, payload: memoryview) -> list:
    if encoding in ("i8", "f8"):
        return np.frombuffer(payload, dtype="<" + encoding).tolist()
    return pickle.loads(payload)


def encode_table(table: Table) -> tuple[ShmRef, shared_memory.SharedMemory]:
    """Write ``table`` into a fresh shared-memory segment.

    Returns the reference to ship plus the segment itself; the caller owns
    the segment and must ``close()`` and ``unlink()`` it when the workers
    are done (the backend does this at the next run start / at close).
    """
    columns = [
        (attr, *_encode_column(list(table.column(attr))))
        for attr in table.attrs
    ]
    meta = pickle.dumps(
        {
            "num_rows": table.num_rows,
            "columns": [
                (attr, encoding, len(payload))
                for attr, encoding, payload in columns
            ],
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    total = _LEN.size + len(meta) + sum(len(p) for _, _, p in columns)
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    buf = segment.buf
    buf[: _LEN.size] = _LEN.pack(len(meta))
    offset = _LEN.size
    buf[offset : offset + len(meta)] = meta
    offset += len(meta)
    for _, _, payload in columns:
        buf[offset : offset + len(payload)] = payload
        offset += len(payload)
    return ShmRef(name=segment.name, size=total), segment


def attach_table(ref: ShmRef) -> Table:
    """Attach a worker-side segment and decode it back into a table.

    The data is copied out into plain lists, so the segment is closed
    before returning (the parent remains the only owner).
    """
    segment = shared_memory.SharedMemory(name=ref.name)
    try:
        buf = memoryview(segment.buf)
        try:
            (meta_len,) = _LEN.unpack(bytes(buf[: _LEN.size]))
            offset = _LEN.size
            meta = pickle.loads(bytes(buf[offset : offset + meta_len]))
            offset += meta_len
            columns: dict[str, list] = {}
            for attr, encoding, nbytes in meta["columns"]:
                columns[attr] = _decode_column(
                    encoding, buf[offset : offset + nbytes]
                )
                offset += nbytes
        finally:
            buf.release()
    finally:
        segment.close()
    if not columns:
        return Table.empty(())
    return Table.wrap(columns)


__all__ = ["ShmRef", "attach_table", "encode_table"]
