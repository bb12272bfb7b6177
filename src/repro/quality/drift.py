"""Schema drift: reconcile an arriving source against its contract.

Structural drift -- a column added, dropped, renamed or retyped upstream
-- is the failure mode row-level validation cannot express: every single
row "violates" the contract at once.  :func:`reconcile_schema` resolves
it *before* row validation, governed by a per-source policy:

- ``strict`` -- any structural mismatch is a hard
  :class:`SchemaDriftError`; the run refuses to observe statistics over a
  source whose shape changed;
- ``ignore-extra`` -- columns the contract does not declare are dropped
  (recorded as drift events); anything else is still an error;
- ``coerce`` (default) -- the reconciler does its best: extra columns are
  dropped, a missing column is matched to a unique type-compatible
  unknown column and renamed back (the upstream-rename case), a column
  whose *every* non-null value arrived with the wrong type is coerced
  value-by-value (the classic ints-serialized-as-strings extract), and a
  dropped nullable column is refilled with nulls.  Whatever coercion
  cannot fix is left in place for row validation to quarantine.

Every resolution is reported as a :class:`SchemaDriftEvent`; before it
reads the catalog, the pipeline uses those events to mark the matching
statistics-catalog entries stale (yesterday's statistics describe
yesterday's schema), so tonight re-observes them and a degraded night
finds them on the ``prior`` rung.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.table import Table
from repro.quality.contracts import (
    ColumnContract,
    QualityError,
    SourceContract,
)

#: exact-type name map mirroring ``contracts._type_name`` (bool before int
#: never matters here: ``type()`` identity keeps them distinct keys)
_NAME_BY_TYPE = {bool: "bool", int: "int", float: "float", str: "str"}

#: per-source schema-drift policies, strictest first
DRIFT_POLICIES = ("strict", "ignore-extra", "coerce")

#: the policy used when none is declared
DEFAULT_POLICY = "coerce"

#: drift event kinds
DRIFT_KINDS = ("added", "dropped", "renamed", "retyped")


class SchemaDriftError(QualityError):
    """Structural drift the active policy refuses to resolve."""


@dataclass(frozen=True)
class SchemaDriftEvent:
    """One structural mismatch and how it was resolved."""

    source: str
    kind: str  # "added" | "dropped" | "renamed" | "retyped"
    column: str  # the contract-side column name (or the extra column)
    detail: str = ""
    resolution: str = ""  # "dropped-extra" | "renamed-back" | "coerced" | "filled-null"

    def to_dict(self) -> dict:
        doc = {"source": self.source, "kind": self.kind, "column": self.column}
        if self.detail:
            doc["detail"] = self.detail
        if self.resolution:
            doc["resolution"] = self.resolution
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SchemaDriftEvent":
        return cls(
            source=doc.get("source", ""),
            kind=doc.get("kind", ""),
            column=doc.get("column", ""),
            detail=doc.get("detail", ""),
            resolution=doc.get("resolution", ""),
        )

    def describe(self) -> str:
        note = f" ({self.detail})" if self.detail else ""
        fix = f" -> {self.resolution}" if self.resolution else ""
        return f"{self.source}.{self.column}: {self.kind}{note}{fix}"


def _dominant_type(values) -> str | None:
    """The single type of every non-null value, or ``None`` if mixed/empty.

    Requiring unanimity is deliberate: a 99%-ints column with a few
    corrupt strings is *not* a retyped column -- row validation quarantines
    the strays -- whereas a column whose every value arrived as a string
    is a schema-level retype worth coercing wholesale.
    """
    pytypes = set(map(type, values))  # one C-level pass, not N python calls
    pytypes.discard(type(None))
    if len(pytypes) != 1:
        return None
    return _NAME_BY_TYPE.get(pytypes.pop(), "any")


def _coerce_value(value, target: str):
    """Best-effort lossless cast; returns the original value on failure
    (row validation then quarantines it)."""
    try:
        if target == "int":
            if type(value) is str:
                return int(value.strip())
            if type(value) is float and value.is_integer():
                return int(value)
        elif target == "float":
            if type(value) in (str, int):
                return float(value)
        elif target == "str":
            return str(value)
        elif target == "bool":
            if type(value) is str and value.strip().lower() in ("true", "false"):
                return value.strip().lower() == "true"
            if value in (0, 1):
                return bool(value)
    except (TypeError, ValueError):
        return value
    return value


def _type_compatible(declared: ColumnContract, values) -> bool:
    """Could this unknown column plausibly be the declared one, renamed?"""
    if declared.type == "any":
        return True
    dominant = _dominant_type(values)
    if dominant is None:
        return False
    if dominant == declared.type:
        return True
    return declared.type == "float" and dominant == "int"


def reconcile_schema(
    table: Table,
    contract: SourceContract,
    policy: str = DEFAULT_POLICY,
    source: str = "",
) -> tuple[Table, list[SchemaDriftEvent]]:
    """Resolve structural drift between an arriving table and its contract.

    Returns the reconciled table (column set and order match the contract
    whenever any drift was resolved; untouched when none was) plus the
    drift events describing every resolution.  Raises
    :class:`SchemaDriftError` when the policy refuses a mismatch.
    """
    if policy not in DRIFT_POLICIES:
        raise QualityError(
            f"unknown drift policy {policy!r}; expected one of {DRIFT_POLICIES}"
        )
    source = source or contract.source
    expected = contract.column_map
    events: list[SchemaDriftEvent] = []

    missing = [c.name for c in contract.columns if not table.has_column(c.name)]
    extra = [a for a in table.attrs if a not in expected]

    # renamed columns: pair each missing expected column with a unique
    # type-compatible unknown column (coerce only -- a rename is a guess)
    if policy == "coerce" and missing and extra:
        renames: dict[str, str] = {}
        unclaimed = list(extra)
        for name in missing:
            candidates = [
                a for a in unclaimed
                if _type_compatible(expected[name], table.column(a))
            ]
            if len(candidates) == 1:
                renames[candidates[0]] = name
                unclaimed.remove(candidates[0])
        if renames:
            table = table.rename_columns(renames)
            for old in sorted(renames):
                events.append(
                    SchemaDriftEvent(
                        source=source,
                        kind="renamed",
                        column=renames[old],
                        detail=f"arrived as {old!r}",
                        resolution="renamed-back",
                    )
                )
            claimed = set(renames.values())
            missing = [m for m in missing if m not in claimed]
            extra = [e for e in extra if e not in renames]

    # retyped columns: every non-null value arrived with the wrong type
    for declared in contract.columns:
        if declared.type == "any" or not table.has_column(declared.name):
            continue
        values = table.column(declared.name)
        dominant = _dominant_type(values)
        if dominant is None or dominant == declared.type:
            continue
        if declared.type == "float" and dominant == "int":
            continue  # ints are valid floats; not drift
        if policy != "coerce":
            raise SchemaDriftError(
                f"source {source!r}: column {declared.name!r} arrived as "
                f"{dominant}, contract says {declared.type} "
                f"(policy {policy})"
            )
        table = table.with_column(
            declared.name,
            [
                value if value is None else _coerce_value(value, declared.type)
                for value in values
            ],
        )
        events.append(
            SchemaDriftEvent(
                source=source,
                kind="retyped",
                column=declared.name,
                detail=f"arrived as {dominant}",
                resolution="coerced",
            )
        )

    # dropped columns: refill nullable ones with nulls (coerce only)
    for name in missing:
        declared = expected[name]
        if policy == "coerce" and declared.nullable:
            table = table.with_column(name, [None] * table.num_rows)
            events.append(
                SchemaDriftEvent(
                    source=source,
                    kind="dropped",
                    column=name,
                    resolution="filled-null",
                )
            )
        else:
            raise SchemaDriftError(
                f"source {source!r}: expected column {name!r} is missing "
                f"(policy {policy}"
                + (", column is not nullable)" if policy == "coerce" else ")")
            )

    # added columns: drop them unless the policy is strict
    if extra:
        if policy == "strict":
            raise SchemaDriftError(
                f"source {source!r}: unexpected column(s) "
                f"{sorted(extra)} (policy strict)"
            )
        for name in extra:
            events.append(
                SchemaDriftEvent(
                    source=source,
                    kind="added",
                    column=name,
                    resolution="dropped-extra",
                )
            )

    if events:
        # normalize to the contract's column set and order; an undrifted
        # table passes through untouched (and uncopied)
        table = table.select_columns([c.name for c in contract.columns])
    return table, events


__all__ = [
    "DEFAULT_POLICY",
    "DRIFT_KINDS",
    "DRIFT_POLICIES",
    "SchemaDriftError",
    "SchemaDriftEvent",
    "reconcile_schema",
]
