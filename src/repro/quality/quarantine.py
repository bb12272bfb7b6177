"""The dead letter: quarantined rows, their violations, and persistence.

A contract violation must not fail the block -- the paper's nightly loop
is worth more completed-with-99%-of-the-rows than aborted -- but it must
also never pollute the observed statistics.  The quarantine is where the
diverted rows go: one dead-letter :class:`~repro.engine.table.Table` per
source, each invalid row paired with structured :class:`Violation`
records (which column, which check, which value), plus the schema-drift
events the reconciler resolved on the way in.

:class:`QuarantineStore` persists the dead letter as one JSON artifact
per source (``quarantine-<source>.json``, on the usual ``format_version``
machinery) so a nightly run's rejects can be shipped, inspected
(``repro-etl quality report``), and replayed once the upstream fix lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    _load_json,
    atomic_write_json,
    table_from_dict,
    table_to_dict,
)
from repro.engine.table import Table
from repro.quality.drift import SchemaDriftEvent

#: dead-letter artifact filename pattern
ARTIFACT_PREFIX = "quarantine-"


@dataclass(frozen=True)
class Violation:
    """One failed contract check: (source, row, column) plus the verdict."""

    source: str
    row: int  # index within the source table as it arrived tonight
    column: str
    code: str  # "null" | "type" | "domain"
    message: str = ""

    def to_dict(self) -> dict:
        doc = {
            "source": self.source,
            "row": self.row,
            "column": self.column,
            "code": self.code,
        }
        if self.message:
            doc["message"] = self.message
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Violation":
        try:
            return cls(
                source=doc.get("source", ""),
                row=int(doc["row"]),
                column=doc["column"],
                code=doc["code"],
                message=doc.get("message", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"corrupt violation record {doc!r}: {exc}") from exc


@dataclass
class QuarantineStore:
    """Per-source dead-letter tables with their violation records."""

    tables: dict[str, Table] = field(default_factory=dict)
    violations: dict[str, list[Violation]] = field(default_factory=dict)
    drift: dict[str, list[SchemaDriftEvent]] = field(default_factory=dict)

    def add(
        self,
        source: str,
        table: Table,
        violations: "list[Violation]",
        drift_events: "list[SchemaDriftEvent] | tuple" = (),
    ) -> None:
        """Replace everything recorded for ``source`` with tonight's screening
        (a store shared across nights must not replay last night's drift)."""
        self.tables[source] = table
        self.violations[source] = list(violations)
        self.drift[source] = list(drift_events)

    # ------------------------------------------------------------------
    @property
    def total_rows(self) -> int:
        return sum(t.num_rows for t in self.tables.values())

    def dead_letter_tables(self) -> dict[str, Table]:
        """Only the sources that actually quarantined rows."""
        return {s: t for s, t in self.tables.items() if t.num_rows}

    def all_violations(self) -> "list[Violation]":
        out: list[Violation] = []
        for source in sorted(self.violations):
            out.extend(self.violations[source])
        return out

    def drift_events(self) -> "list[SchemaDriftEvent]":
        out: list[SchemaDriftEvent] = []
        for source in sorted(self.drift):
            out.extend(self.drift[source])
        return out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> list[Path]:
        """Write one artifact per source with anything to report.

        Sources that screened fully clean (no dead rows, no drift) are
        skipped so a healthy night leaves an empty dead-letter directory.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for source in sorted(self.tables):
            table = self.tables[source]
            violations = self.violations.get(source, [])
            events = self.drift.get(source, [])
            if not table.num_rows and not violations and not events:
                continue
            path = directory / f"{ARTIFACT_PREFIX}{source}.json"
            atomic_write_json(
                {
                    "format_version": FORMAT_VERSION,
                    "kind": "quarantine",
                    "source": source,
                    "rows": table.num_rows,
                    "table": table_to_dict(table),
                    "violations": [v.to_dict() for v in violations],
                    "schema_drift": [e.to_dict() for e in events],
                },
                path,
            )
            written.append(path)
        return written

    @classmethod
    def load_dir(cls, directory: str | Path) -> "QuarantineStore":
        """Read every dead-letter artifact in ``directory``."""
        directory = Path(directory)
        if not directory.is_dir():
            raise PersistenceError(
                f"quarantine directory not found: {directory}"
            )
        store = cls()
        for path in sorted(directory.glob(f"{ARTIFACT_PREFIX}*.json")):
            doc = _load_json(path, "quarantine")
            if doc.get("kind") not in (None, "quarantine"):
                raise PersistenceError(
                    f"{path} is a {doc.get('kind')!r} document, not a quarantine"
                )
            source = doc.get("source") or path.stem[len(ARTIFACT_PREFIX):]
            try:
                table = table_from_dict(doc["table"])
            except KeyError as exc:
                raise PersistenceError(
                    f"corrupt quarantine artifact {path}: no table"
                ) from exc
            violations = doc.get("violations", [])
            if not isinstance(violations, list):
                raise PersistenceError(
                    f"corrupt quarantine artifact {path}: 'violations' "
                    "is not a list"
                )
            events = doc.get("schema_drift", [])
            if not isinstance(events, list):
                raise PersistenceError(
                    f"corrupt quarantine artifact {path}: 'schema_drift' "
                    "is not a list"
                )
            store.add(
                source,
                table,
                [Violation.from_dict(v) for v in violations],
                [SchemaDriftEvent.from_dict(e) for e in events],
            )
        return store

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """The ``repro-etl quality report`` rendering."""
        dead = self.dead_letter_tables()
        n_viol = len(self.all_violations())
        n_drift = len(self.drift_events())
        lines = [
            f"quarantine: {self.total_rows} row(s) across "
            f"{len(dead)} source(s), {n_viol} violation(s), "
            f"{n_drift} schema drift event(s)"
        ]
        for source in sorted(self.tables):
            table = self.tables[source]
            violations = self.violations.get(source, [])
            events = self.drift.get(source, [])
            if not table.num_rows and not violations and not events:
                continue
            lines.append(f"  {source}: {table.num_rows} row(s) quarantined")
            by_check: dict[tuple[str, str], int] = {}
            for violation in violations:
                key = (violation.column, violation.code)
                by_check[key] = by_check.get(key, 0) + 1
            for (column, code), count in sorted(by_check.items()):
                sample = next(
                    v.message
                    for v in violations
                    if v.column == column and v.code == code
                )
                lines.append(f"    {column} [{code}] x{count}: {sample}")
            for event in events:
                lines.append(f"    drift: {event.describe()}")
        return "\n".join(lines)


__all__ = ["ARTIFACT_PREFIX", "QuarantineStore", "Violation"]
