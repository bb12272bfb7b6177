"""Persistent statistics catalog: cross-workflow sharing of observations.

The subsystem turns per-run, per-workflow statistics observation into a
fleet-wide, incrementally maintained asset:

- :mod:`repro.catalog.signatures` — canonical, schema-aware identities
  for statistics and sub-expressions, stable across workflows and plans;
- :mod:`repro.catalog.store` — the versioned, file-backed
  :class:`StatisticsCatalog` with per-entry provenance, TTL and GC;
- :mod:`repro.catalog.drift` — per-run reconciliation: fresh runs refresh
  entries, drifted entries are penalized and marked stale so only they
  get re-observed;
- :mod:`repro.catalog.fleet` — one combined nightly observation plan for
  a whole suite of workflows, observing each shared statistic once.
"""

from repro.catalog.drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftReport,
    prediction_errors,
    reconcile_run,
    rel_error,
)
from repro.catalog.fleet import FleetPlan, WorkflowObservationPlan, plan_fleet
from repro.catalog.signatures import SignatureError, WorkflowSigner
from repro.catalog.store import (
    DEFAULT_MIN_QUALITY,
    DEFAULT_TTL,
    CatalogEntry,
    CatalogHits,
    StatisticsCatalog,
)

__all__ = [
    "DEFAULT_DRIFT_THRESHOLD",
    "DEFAULT_MIN_QUALITY",
    "DEFAULT_TTL",
    "CatalogEntry",
    "CatalogHits",
    "DriftReport",
    "FleetPlan",
    "SignatureError",
    "StatisticsCatalog",
    "WorkflowObservationPlan",
    "WorkflowSigner",
    "plan_fleet",
    "prediction_errors",
    "reconcile_run",
    "rel_error",
]
