"""Physical operators: filter, transform, project, hash join, group-by.

The hash join produces reject outputs on demand -- the rows of one side
that matched no row of the other (the *reject links* of Section 1).  The
engine uses them both for materialized diagnostics outputs and for the
instrumentation-only reject links the union-division method adds
(Section 4.1.2).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.algebra.blocks import Step
from repro.engine.table import Table, TableError


def apply_filter(table: Table, attr: str, predicate: Callable) -> Table:
    """Keep the rows whose ``attr`` value satisfies the predicate."""
    col = table.column(attr)
    keep = [i for i, v in enumerate(col) if predicate(v)]
    return table.take(keep)


def apply_transform(
    table: Table,
    in_attrs: Sequence[str],
    fn: Callable,
    out_attr: str,
) -> Table:
    """Apply a per-row UDF.  Single input attribute -> ``fn(value)``;
    multiple -> ``fn(value_tuple)``."""
    if len(in_attrs) == 1:
        values = [fn(v) for v in table.column(in_attrs[0])]
    else:
        cols = [table.column(a) for a in in_attrs]
        values = [fn(vals) for vals in zip(*cols)]
    return table.with_column(out_attr, values)


def apply_project(table: Table, attrs: Sequence[str]) -> Table:
    """Restrict the table to the given columns."""
    return table.select_columns(attrs)


def apply_step(table: Table, step: Step) -> Table:
    """Execute one anchored unary step from block analysis."""
    node = step.node
    if step.kind == "filter":
        return apply_filter(table, step.attrs[0], node.predicate.fn)
    if step.kind == "transform":
        out_attr = step.result_attr if step.result_attr else step.attrs[0]
        return apply_transform(table, step.attrs, node.udf.fn, out_attr)
    if step.kind == "project":
        return apply_project(table, step.attrs)
    raise TableError(f"unknown step kind {step.kind!r}")


def hash_join(
    left: Table,
    right: Table,
    key: Sequence[str],
    want_reject_left: bool = False,
    want_reject_right: bool = False,
) -> tuple[Table, Table | None, Table | None]:
    """Equi-join on ``key``; optionally produce reject outputs.

    Output columns: all of the left side plus the right side's non-key,
    non-duplicate columns (join keys coalesce, as in the logical model).
    """
    key = tuple(key)
    build: dict[tuple, list[int]] = defaultdict(list)
    for idx, kv in enumerate(right.rows(key)):
        build[kv].append(idx)

    out_left_attrs = left.attrs
    out_right_attrs = tuple(a for a in right.attrs if a not in left.attrs)
    out_cols: dict[str, list] = {a: [] for a in out_left_attrs + out_right_attrs}

    matched_right: set[int] = set()
    reject_left_rows: list[int] = []
    left_key_rows = list(left.rows(key))
    for li in range(left.num_rows):
        matches = build.get(left_key_rows[li], ())
        if not matches:
            if want_reject_left:
                reject_left_rows.append(li)
            continue
        for ri in matches:
            for a in out_left_attrs:
                out_cols[a].append(left.columns[a][li])
            for a in out_right_attrs:
                out_cols[a].append(right.columns[a][ri])
        if want_reject_right:
            matched_right.update(matches)

    result = Table.wrap(out_cols) if out_cols else Table.empty(out_left_attrs)
    reject_left = left.take(reject_left_rows) if want_reject_left else None
    reject_right = None
    if want_reject_right:
        unmatched = [i for i in range(right.num_rows) if i not in matched_right]
        reject_right = right.take(unmatched)
    return result, reject_left, reject_right


def group_by(
    table: Table,
    group_attrs: Sequence[str],
    aggregates: dict[str, tuple[str, str]] | None = None,
) -> Table:
    """Group-by with count/sum/min/max aggregates."""
    group_attrs = tuple(group_attrs)
    aggregates = dict(aggregates or {})
    groups: dict[tuple, list[int]] = defaultdict(list)
    for idx, kv in enumerate(table.rows(group_attrs)):
        groups[kv].append(idx)

    out: dict[str, list] = {a: [] for a in group_attrs}
    for name in aggregates:
        out[name] = []
    for kv in sorted(groups, key=repr):
        idxs = groups[kv]
        for a, v in zip(group_attrs, kv):
            out[a].append(v)
        for name, (fn, in_attr) in aggregates.items():
            if fn == "count":
                out[name].append(len(idxs))
                continue
            values = [table.columns[in_attr][i] for i in idxs]
            if fn == "sum":
                out[name].append(sum(values))
            elif fn == "min":
                out[name].append(min(values))
            elif fn == "max":
                out[name].append(max(values))
            else:  # pragma: no cover - validated upstream
                raise TableError(f"unknown aggregate {fn!r}")
    if not out:
        raise TableError("group-by needs group attributes or aggregates")
    return Table.wrap(out)


def apply_aggregate_udf(table: Table, fn: Callable) -> Table:
    """Run a black-box blocking UDF over row dicts."""
    rows = fn(table.row_dicts())
    if not rows:
        return Table.empty(table.attrs)
    attrs = tuple(rows[0])
    return Table.from_rows(attrs, [tuple(r[a] for a in attrs) for r in rows])
