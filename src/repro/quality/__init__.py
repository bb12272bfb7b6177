"""Data-quality layer: source contracts, quarantine, schema drift.

The trust boundary in front of statistics observation: declared (or
inferred) per-source contracts, row-level validation that diverts invalid
rows to a dead-letter table instead of failing the block, and schema-drift
reconciliation governed by a per-source policy.  Enforced once, by
:meth:`~repro.framework.pipeline.StatisticsPipeline.run_once` before it
reads the catalog, so every execution backend receives identical
surviving rows.
"""

from repro.quality.contracts import (
    COLUMN_TYPES,
    VIOLATION_CODES,
    ColumnContract,
    ContractSet,
    QualityError,
    SourceContract,
    validate_rows,
)
from repro.quality.drift import (
    DEFAULT_POLICY,
    DRIFT_KINDS,
    DRIFT_POLICIES,
    SchemaDriftError,
    SchemaDriftEvent,
    reconcile_schema,
)
from repro.quality.gate import QualityGate
from repro.quality.quarantine import QuarantineStore, Violation

__all__ = [
    "COLUMN_TYPES",
    "DEFAULT_POLICY",
    "DRIFT_KINDS",
    "DRIFT_POLICIES",
    "VIOLATION_CODES",
    "ColumnContract",
    "ContractSet",
    "QualityError",
    "QualityGate",
    "QuarantineStore",
    "SchemaDriftError",
    "SchemaDriftEvent",
    "SourceContract",
    "Violation",
    "reconcile_schema",
    "validate_rows",
]
