"""Source contracts: what a source table is supposed to look like.

The paper's premise (Section 1) is that ETL sources are flat files and
foreign DBMSs *outside the engine's control* -- nothing guarantees that
tonight's extract has the declared columns, types, or value domains.  Yet
every statistic the framework taps (and every catalog entry it shares
fleet-wide) is observed over exactly those sources, so a single malformed
extract can silently poison the cost model for every workflow that trusts
the catalog.

A :class:`SourceContract` is the trust boundary: per-column expectations
(:class:`ColumnContract`: type, nullability, an optional domain predicate)
that the execution core checks *before* any observation point fires.  Rows
that violate the contract are diverted to a dead-letter table
(:mod:`repro.quality.quarantine`) instead of failing the block; structural
mismatches -- added/dropped/renamed/retyped columns -- are resolved by the
per-source drift policy (:mod:`repro.quality.drift`).

Contracts are declared in a versioned JSON file (the same
``format_version`` machinery as every other persisted document) or
inferred from the first clean run (:meth:`ContractSet.infer`): column
types and nullability are derived from the observed values, which is how
a fleet bootstraps contracts without hand-writing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    _load_json,
    atomic_write_json,
)
from repro.engine.table import Table

#: column types a contract may declare; "any" disables the type check
COLUMN_TYPES = ("any", "int", "float", "str", "bool")

#: python types accepted per declared type (bool is NOT an int here:
#: ``type(v)`` identity keeps True out of integer columns)
_TYPE_SETS: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}

#: violation codes, in the order :meth:`ColumnContract.classify` checks them
VIOLATION_CODES = ("null", "type", "domain")


class QualityError(ValueError):
    """Raised for malformed contracts and unresolvable schema drift."""


def _type_name(value) -> str:
    kind = type(value)
    if kind is bool:
        return "bool"
    if kind is int:
        return "int"
    if kind is float:
        return "float"
    if kind is str:
        return "str"
    return "any"


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _compile_domain(domain: str) -> "Callable[[object], bool] | None":
    """Compile the small domain DSL into one predicate.

    Clauses are comma-separated and all must hold: ``min:N`` / ``max:N``
    (numeric bounds), ``in:a|b|c`` (membership, compared as strings), and
    ``nonempty`` (non-empty string).  An empty domain means no constraint.
    """
    clauses: list[Callable[[object], bool]] = []
    for raw in domain.split(","):
        part = raw.strip()
        if not part:
            continue
        if part.startswith("min:"):
            try:
                bound = float(part[4:])
            except ValueError as exc:
                raise QualityError(f"bad domain clause {part!r}: {exc}") from exc
            clauses.append(lambda v, b=bound: _is_number(v) and v >= b)
        elif part.startswith("max:"):
            try:
                bound = float(part[4:])
            except ValueError as exc:
                raise QualityError(f"bad domain clause {part!r}: {exc}") from exc
            clauses.append(lambda v, b=bound: _is_number(v) and v <= b)
        elif part.startswith("in:"):
            allowed = frozenset(part[3:].split("|"))
            clauses.append(lambda v, a=allowed: str(v) in a)
        elif part == "nonempty":
            clauses.append(lambda v: v != "")
        else:
            raise QualityError(
                f"unknown domain clause {part!r}; expected min:N, max:N, "
                "in:a|b|c or nonempty"
            )
    if not clauses:
        return None
    if len(clauses) == 1:
        return clauses[0]

    def all_of(value, _clauses=tuple(clauses)) -> bool:
        return all(clause(value) for clause in _clauses)

    return all_of


@dataclass(frozen=True)
class ColumnContract:
    """Expectations for one source column."""

    name: str
    type: str = "any"
    nullable: bool = True
    domain: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise QualityError("a column contract needs a name")
        if self.type not in COLUMN_TYPES:
            raise QualityError(
                f"unknown column type {self.type!r}; expected one of "
                f"{COLUMN_TYPES}"
            )
        _compile_domain(self.domain)  # validate eagerly

    # ------------------------------------------------------------------
    def checker(self) -> Callable[[object], bool]:
        """One fast per-value predicate combining every check.

        Specialized for the common shapes so screening a fully clean
        column stays a tight loop (the quarantine-overhead benchmark
        budgets the whole gate at 5% of a run).
        """
        types = _TYPE_SETS.get(self.type)
        domain_ok = _compile_domain(self.domain)
        nullable = self.nullable
        if domain_ok is None:
            if types is None:
                return (lambda v: True) if nullable else (lambda v: v is not None)
            if nullable:
                return lambda v, t=types: v is None or type(v) in t
            return lambda v, t=types: type(v) in t

        def ok(value) -> bool:
            if value is None:
                return nullable
            if types is not None and type(value) not in types:
                return False
            return domain_ok(value)

        return ok

    def bulk_clean(self, values: Sequence) -> bool:
        """Whole-column screen at C speed; ``True`` proves every value
        passes, ``False`` sends the caller to the per-value slow path.

        The clean extract is the overwhelmingly common case, and per-value
        python calls are what the quarantine-overhead budget cannot
        afford: this uses ``set(map(type, ...))``, ``min``/``max`` and
        containment scans -- all C loops -- and only a column that fails
        one of them pays for exact row-level attribution.
        """
        pytypes = set(map(type, values))
        if type(None) in pytypes:
            if not self.nullable:
                return False
            pytypes.discard(type(None))
            nonnull = [v for v in values if v is not None]
        else:
            nonnull = values
        allowed = _TYPE_SETS.get(self.type)
        if allowed is not None and not pytypes.issubset(allowed):
            return False
        if not self.domain or not nonnull:
            return True
        for raw in self.domain.split(","):
            part = raw.strip()
            if not part:
                continue
            if part.startswith(("min:", "max:")):
                if not pytypes.issubset((int, float)):
                    return False  # non-numeric values: slow path decides
                bound = float(part[4:])
                if part.startswith("min:"):
                    if min(nonnull) < bound:
                        return False
                elif max(nonnull) > bound:
                    return False
            elif part.startswith("in:"):
                if not set(map(str, nonnull)).issubset(part[3:].split("|")):
                    return False
            elif part == "nonempty":
                if "" in nonnull:
                    return False
        return True

    def classify(self, value) -> tuple[str, str]:
        """Violation code + message for a value the checker rejected."""
        if value is None:
            return "null", f"column {self.name!r} is not nullable"
        types = _TYPE_SETS.get(self.type)
        if types is not None and type(value) not in types:
            return "type", (
                f"column {self.name!r} expects {self.type}, "
                f"got {_type_name(value)} ({value!r})"
            )
        return "domain", (
            f"column {self.name!r} value {value!r} violates domain "
            f"{self.domain!r}"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        doc: dict = {"name": self.name}
        if self.type != "any":
            doc["type"] = self.type
        if not self.nullable:
            doc["nullable"] = False
        if self.domain:
            doc["domain"] = self.domain
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnContract":
        if not isinstance(doc, dict):
            raise QualityError(f"column contract must be an object, got {doc!r}")
        unknown = set(doc) - {"name", "type", "nullable", "domain"}
        if unknown:
            raise QualityError(
                f"unknown column contract field(s): {sorted(unknown)}"
            )
        try:
            return cls(
                name=doc["name"],
                type=doc.get("type", "any"),
                nullable=bool(doc.get("nullable", True)),
                domain=doc.get("domain", ""),
            )
        except KeyError as exc:
            raise QualityError(
                f"column contract missing required field {exc}"
            ) from exc

    @classmethod
    def infer(cls, name: str, values: Sequence) -> "ColumnContract":
        """Derive a contract from one clean column's observed values."""
        nullable = False
        seen: set[str] = set()
        for value in values:
            if value is None:
                nullable = True
            else:
                seen.add(_type_name(value))
        if len(seen) == 1:
            inferred = seen.pop()
        elif seen == {"int", "float"}:
            inferred = "float"
        else:
            inferred = "any"
        return cls(name=name, type=inferred, nullable=nullable)


@dataclass(frozen=True)
class SourceContract:
    """The declared shape of one source table."""

    source: str
    columns: tuple[ColumnContract, ...]

    def __post_init__(self) -> None:
        if not self.source:
            raise QualityError("a source contract needs a source name")
        if not self.columns:
            raise QualityError(
                f"source contract {self.source!r} declares no columns"
            )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise QualityError(
                f"source contract {self.source!r} declares duplicate columns"
            )

    @property
    def column_map(self) -> dict[str, ColumnContract]:
        return {c.name: c for c in self.columns}

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "columns": [c.to_dict() for c in self.columns],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SourceContract":
        if not isinstance(doc, dict):
            raise QualityError(f"source contract must be an object, got {doc!r}")
        columns = doc.get("columns")
        if not isinstance(columns, list):
            raise QualityError(
                f"source contract {doc.get('source')!r}: 'columns' must be a list"
            )
        return cls(
            source=doc.get("source", ""),
            columns=tuple(ColumnContract.from_dict(c) for c in columns),
        )

    @classmethod
    def infer(cls, source: str, table: Table) -> "SourceContract":
        return cls(
            source=source,
            columns=tuple(
                ColumnContract.infer(attr, table.column(attr))
                for attr in table.attrs
            ),
        )


@dataclass
class ContractSet:
    """Every declared source contract, JSON round-trippable."""

    contracts: dict[str, SourceContract] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.contracts)

    def get(self, source: str) -> SourceContract | None:
        return self.contracts.get(source)

    def add(self, contract: SourceContract) -> None:
        self.contracts[contract.source] = contract

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "source-contracts",
            "sources": [
                self.contracts[name].to_dict() for name in sorted(self.contracts)
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ContractSet":
        if doc.get("kind") not in (None, "source-contracts"):
            raise PersistenceError(
                f"expected a source-contracts document, got {doc.get('kind')!r}"
            )
        sources = doc.get("sources", [])
        if not isinstance(sources, list):
            raise PersistenceError(
                "corrupt contracts document: 'sources' is not a list"
            )
        contracts = cls()
        try:
            for entry in sources:
                contracts.add(SourceContract.from_dict(entry))
        except QualityError as exc:
            raise PersistenceError(f"corrupt contracts document: {exc}") from exc
        return contracts

    @classmethod
    def from_file(cls, path: str | Path) -> "ContractSet":
        return cls.from_dict(_load_json(path, "contracts"))

    def save(self, path: str | Path) -> None:
        atomic_write_json(self.to_dict(), path)

    @classmethod
    def infer(cls, sources: dict[str, Table]) -> "ContractSet":
        """Bootstrap contracts from the first clean run's source tables."""
        contracts = cls()
        for name in sorted(sources):
            contracts.add(SourceContract.infer(name, sources[name]))
        return contracts

    def describe(self) -> str:
        lines = [f"contracts: {len(self.contracts)} source(s)"]
        for name in sorted(self.contracts):
            contract = self.contracts[name]
            cols = ", ".join(
                f"{c.name}:{c.type}{'' if c.nullable else '!'}"
                f"{'[' + c.domain + ']' if c.domain else ''}"
                for c in contract.columns
            )
            lines.append(f"  {name}: {cols}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# row-level validation
# ---------------------------------------------------------------------------


def validate_rows(
    table: Table, contract: SourceContract, source: str = ""
) -> "tuple[Table, Table, list]":
    """Split a (schema-reconciled) table into clean and quarantined rows.

    Returns ``(clean, quarantined, violations)``.  A row with any failing
    column lands in the quarantine table exactly once, with one structured
    :class:`~repro.quality.quarantine.Violation` per failing column.  A
    fully clean table is returned unchanged (no copy), which is what keeps
    the contract overhead on healthy data down to one predicate pass.
    """
    from repro.quality.quarantine import Violation

    source = source or contract.source
    bad_rows: set[int] = set()
    violations: list[Violation] = []
    for column in contract.columns:
        values = table.column(column.name)
        if column.bulk_clean(values):
            continue
        check = column.checker()
        for index, value in enumerate(values):
            if check(value):
                continue
            code, message = column.classify(value)
            violations.append(
                Violation(
                    source=source,
                    row=index,
                    column=column.name,
                    code=code,
                    message=message,
                )
            )
            bad_rows.add(index)
    if not bad_rows:
        return table, Table.empty(table.attrs), []
    quarantined, clean = table.partition(sorted(bad_rows))
    violations.sort(key=lambda v: (v.row, v.column, v.code))
    return clean, quarantined, violations


__all__ = [
    "COLUMN_TYPES",
    "VIOLATION_CODES",
    "ColumnContract",
    "ContractSet",
    "QualityError",
    "SourceContract",
    "validate_rows",
]
