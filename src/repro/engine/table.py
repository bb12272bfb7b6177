"""In-memory columnar tables: the record-sets the ETL engine moves around.

The paper's engine is DataStage; ours is a small columnar executor whose
only jobs are (a) running workflows faithfully enough to produce ground
truth, and (b) exposing per-tuple observation points for statistics
instrumentation (Section 3.2.5).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.histogram import Histogram


class TableError(ValueError):
    """Raised for malformed tables and invalid column access."""


class Table:
    """An immutable-by-convention columnar table."""

    __slots__ = ("attrs", "columns", "_nrows")

    def __init__(self, columns: dict[str, list]):
        if not columns:
            raise TableError("a table needs at least one column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise TableError(f"ragged columns: lengths {sorted(lengths)}")
        self.attrs = tuple(columns)
        # copy the column lists: sharing them with the caller would let
        # external mutation reach through the "immutable" table
        self.columns = {a: list(col) for a, col in columns.items()}
        self._nrows = next(iter(lengths))

    # ------------------------------------------------------------------
    @classmethod
    def wrap(cls, columns: dict[str, list]) -> "Table":
        """Trusted constructor: adopt the column lists without copying.

        For engine-internal call sites whose columns are freshly built (or
        owned by another table and never mutated); the public ``__init__``
        defensively copies instead.  Columns must be equal-length lists.
        """
        if not columns:
            raise TableError("a table needs at least one column")
        table = cls.__new__(cls)
        table.attrs = tuple(columns)
        table.columns = dict(columns)
        table._nrows = len(next(iter(columns.values())))
        return table

    @classmethod
    def from_rows(cls, attrs: Sequence[str], rows: Iterable[tuple]) -> "Table":
        attrs = tuple(attrs)
        columns: dict[str, list] = {a: [] for a in attrs}
        for row in rows:
            if len(row) != len(attrs):
                raise TableError(f"row {row!r} does not match attrs {attrs}")
            for a, v in zip(attrs, row):
                columns[a].append(v)
        return cls.wrap(columns)

    @classmethod
    def empty(cls, attrs: Sequence[str]) -> "Table":
        return cls.wrap({a: [] for a in attrs})

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._nrows

    def column(self, attr: str) -> list:
        try:
            return self.columns[attr]
        except KeyError:
            raise TableError(
                f"no column {attr!r}; available: {self.attrs}"
            ) from None

    def has_column(self, attr: str) -> bool:
        return attr in self.columns

    def rows(self, attrs: Sequence[str] | None = None) -> Iterable[tuple]:
        attrs = tuple(attrs) if attrs is not None else self.attrs
        cols = [self.column(a) for a in attrs]
        return zip(*cols) if cols else iter(())

    def row_dicts(self) -> list[dict]:
        return [dict(zip(self.attrs, row)) for row in self.rows()]

    def take(self, indexes: Sequence[int]) -> "Table":
        return Table.wrap(
            {a: [col[i] for i in indexes] for a, col in self.columns.items()}
        )

    def partition(self, indexes: Sequence[int]) -> "tuple[Table, Table]":
        """Split into ``(rows at indexes, remaining rows)``, order kept.

        The quality gate's primitive: quarantined row indexes go left,
        surviving rows go right, each side preserving source order.
        """
        chosen = set(indexes)
        rest = [i for i in range(self._nrows) if i not in chosen]
        return self.take(sorted(chosen)), self.take(rest)

    def rename_columns(self, mapping: dict[str, str]) -> "Table":
        """A table with columns renamed per ``mapping`` (order preserved)."""
        renamed = {mapping.get(a, a): col for a, col in self.columns.items()}
        if len(renamed) != len(self.columns):
            raise TableError(
                f"column rename {mapping!r} collides with existing attrs "
                f"{self.attrs}"
            )
        return Table.wrap(renamed)

    def with_column(self, attr: str, values: list) -> "Table":
        if len(values) != self._nrows:
            raise TableError("new column length does not match table")
        columns = dict(self.columns)
        columns[attr] = list(values)
        return Table.wrap(columns)

    def select_columns(self, attrs: Sequence[str]) -> "Table":
        return Table.wrap({a: self.column(a) for a in attrs})

    def histogram(self, attrs: Sequence[str]) -> Histogram:
        """Exact frequency histogram over the given attributes."""
        return Histogram.from_rows(tuple(attrs), self.rows(attrs))

    def distinct_count(self, attrs: Sequence[str]) -> int:
        return len(set(self.rows(attrs)))

