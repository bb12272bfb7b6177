"""Catalog-as-a-service: the statistics catalog behind a socket.

The paper's Section 6.2 sharing scheme pays off when a *fleet* of ETL
pipelines draws on one statistics catalog.  This package turns the
file-backed :class:`~repro.catalog.store.StatisticsCatalog` into a
long-lived daemon (``repro-etl serve``) and a degrading client:

- :mod:`repro.serve.wal` -- fsync'd, checksummed write-ahead log; an
  acknowledged write survives ``SIGKILL``, a torn tail is discarded;
- :mod:`repro.serve.service` -- the transport-free store: one
  ``StatisticsCatalog`` behind a state lock, WAL-then-memory writes under
  a write lock, lease-fenced writers and write-behind snapshots;
- :mod:`repro.serve.server` -- stdlib HTTP over TCP or a unix socket,
  ``/metrics`` + ``/healthz`` on the shared Prometheus exporter;
- :mod:`repro.serve.client` -- :class:`~repro.serve.client.CatalogClient`,
  a ``StatisticsCatalog`` look-alike with timeouts, seeded retry,
  per-endpoint circuit breakers, write failover across a list of
  endpoints, and degradation to the local file catalog -- a vanished
  server demotes plan confidence, never fails the run;
- :mod:`repro.serve.replication` -- the standby's WAL-stream tailer:
  ``serve --replicate-from URL`` replays the primary's log, tracks lag,
  and promotes itself (epoch-fenced) when the primary goes silent.
"""

from repro.serve.client import (
    CatalogClient,
    CatalogRequestError,
    CatalogUnavailable,
    is_catalog_url,
    resolve_stats_catalog,
    split_catalog_urls,
)
from repro.serve.replication import ReplicationError, ReplicationTailer
from repro.serve.server import ServerThread, make_server, parse_listen
from repro.serve.service import (
    CatalogService,
    EpochError,
    FenceError,
    NotPrimaryError,
    SnapshotDaemon,
)
from repro.serve.wal import WalError, WriteAheadLog

__all__ = [
    "CatalogClient",
    "CatalogRequestError",
    "CatalogService",
    "CatalogUnavailable",
    "EpochError",
    "FenceError",
    "NotPrimaryError",
    "ReplicationError",
    "ReplicationTailer",
    "ServerThread",
    "SnapshotDaemon",
    "WalError",
    "WriteAheadLog",
    "is_catalog_url",
    "make_server",
    "parse_listen",
    "resolve_stats_catalog",
    "split_catalog_urls",
]
