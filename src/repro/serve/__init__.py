"""Catalog-as-a-service: the statistics catalog behind a socket.

The paper's Section 6.2 sharing scheme pays off when a *fleet* of ETL
pipelines draws on one statistics catalog.  This package turns the
file-backed :class:`~repro.catalog.store.StatisticsCatalog` into one
long-lived daemon (``repro-etl serve``) and a degrading client:

- :mod:`repro.serve.wal` -- fsync'd, checksummed write-ahead log, one
  record per commit; an acknowledged commit survives ``SIGKILL``, a torn
  tail is discarded whole;
- :mod:`repro.serve.service` -- the transport-free store: one
  ``StatisticsCatalog`` behind a state lock, commits checked whole and
  then logged and applied under a write lock, write-behind snapshots;
- :mod:`repro.serve.server` -- stdlib HTTP over TCP or a unix socket,
  ``/metrics`` + ``/healthz`` on the shared Prometheus exporter;
- :mod:`repro.serve.client` -- :class:`~repro.serve.client.CatalogClient`,
  a ``StatisticsCatalog`` look-alike whose ``save`` is one ``POST
  /commit``, with timeouts, seeded retry, a circuit breaker, and
  degradation to the local file catalog -- a vanished server demotes plan
  confidence, never fails the run.

Durability comes from the WAL, availability from that degradation:
there is one daemon per catalog and no replica of it.
"""

from repro.serve.client import (
    CatalogClient,
    CatalogRequestError,
    CatalogUnavailable,
    is_catalog_url,
    resolve_stats_catalog,
)
from repro.serve.server import make_server, parse_listen
from repro.serve.service import CatalogService, SnapshotDaemon
from repro.serve.wal import WalError, WriteAheadLog

__all__ = [
    "CatalogClient",
    "CatalogRequestError",
    "CatalogService",
    "CatalogUnavailable",
    "SnapshotDaemon",
    "WalError",
    "WriteAheadLog",
    "is_catalog_url",
    "make_server",
    "parse_listen",
    "resolve_stats_catalog",
]
