"""Persistence: statistics and plans across engine restarts.

The paper's lifecycle spans *separate* executions of the ETL engine — the
statistics gathered tonight must optimize tomorrow night's run, after every
process involved has exited.  This module serializes the moving parts to
JSON:

- :class:`~repro.core.statistics.StatisticsStore` values (counters,
  distinct counts, exact histograms) keyed by their statistic identity,
  as a run checkpoint journals them;
- plan trees (the chosen join order per block);
- a :class:`SessionState` bundling both plus the adopted cardinalities the
  drift detector compares against;
- :class:`~repro.engine.table.Table` payloads, so run checkpoints
  (:mod:`repro.framework.recovery`) can restore a finished block's output.

Histogram bucket keys may be arbitrary value tuples; they are stored as
JSON arrays, so values must be JSON-representable (ints/strings — which is
what the engine produces).

Every top-level document carries a ``format_version`` and loaders validate
shape before use: a corrupt or future-versioned file raises a clear
:class:`PersistenceError` instead of a ``KeyError`` deep in a loop.
Version-1 files (written before the field existed) still load.
"""

from __future__ import annotations

import json
import os
import reprlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.algebra.expressions import (
    AnySE,
    RejectJoinSE,
    RejectSE,
    SubExpression,
)
from repro.algebra.plans import JoinNode, Leaf, PlanTree
from repro.core.histogram import Histogram
from repro.core.statistics import StatKind, Statistic, StatisticsStore
from repro.engine.table import Table, TableError

#: version written into every new document; loaders accept 1..FORMAT_VERSION
FORMAT_VERSION = 2


class PersistenceError(ValueError):
    """Raised for malformed persisted documents."""


def validate_document(doc, kind: str) -> int:
    """Shape- and version-check a loaded top-level document.

    Returns the document's format version (1 for legacy files that predate
    the field).  Raises :class:`PersistenceError` for non-object documents
    and versions this build does not read.
    """
    if not isinstance(doc, dict):
        raise PersistenceError(
            f"corrupt {kind} document: expected a JSON object, "
            f"got {type(doc).__name__}"
        )
    version = doc.get("format_version", 1)
    if not isinstance(version, int) or not 1 <= version <= FORMAT_VERSION:
        raise PersistenceError(
            f"{kind} document has unsupported format_version {version!r}; "
            f"this build reads versions 1..{FORMAT_VERSION}"
        )
    return version


def _read_text(path: str | Path, kind: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"cannot read {kind} file {path}: {exc}") from exc


def _parse_json(text: str, path: str | Path, kind: str) -> dict:
    """Parse + shape-check the text of one persisted file."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid {kind} file {path}: {exc}") from exc
    validate_document(doc, kind)
    return doc


def _load_json(path: str | Path, kind: str) -> dict:
    """Read + parse + shape-check one persisted file."""
    return _parse_json(_read_text(path, kind), path, kind)


#: without ``indent`` this is the C encoder
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(doc: dict) -> str:
    """The one on-disk form: keys sorted, no padding, each element of a
    top-level list (``entries``, ``statistics``, ...) on its own line --
    byte-stable across runs, and a changed entry is a one-line diff."""
    members = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value:
            text = "[\n" + ",\n".join(map(_encode, value)) + "\n]"
        else:
            text = _encode(value)
        members.append(f"{_encode(key)}:{text}")
    return "{\n" + ",\n".join(members) + "\n}\n"


def atomic_write_json(doc: dict, path: str | Path) -> None:
    """Write ``doc`` (as :func:`canonical_json`) to ``path`` via rename."""
    atomic_write_text(canonical_json(doc), path)


def atomic_write_text(text: str, path: str | Path) -> None:
    """Write ``text`` to ``path`` via rename, so readers (and a resumed
    run) never see a half-written checkpoint."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# sub-expressions
# ---------------------------------------------------------------------------


def se_to_dict(se: AnySE) -> dict:
    """JSON-ready form of any sub-expression flavour."""
    if isinstance(se, SubExpression):
        return {"type": "se", "relations": sorted(se.relations)}
    if isinstance(se, RejectSE):
        key = list(se.key) if isinstance(se.key, tuple) else se.key
        return {
            "type": "reject",
            "source": se_to_dict(se.source),
            "key": key,
            "against": se_to_dict(se.against),
        }
    if isinstance(se, RejectJoinSE):
        key = list(se.key) if isinstance(se.key, tuple) else se.key
        return {
            "type": "reject_join",
            "reject": se_to_dict(se.reject),
            "key": key,
            "other": se_to_dict(se.other),
        }
    raise PersistenceError(f"not a sub-expression: {se!r}")


def se_from_dict(doc: dict) -> AnySE:
    """Inverse of :func:`se_to_dict`."""
    kind = doc.get("type")
    if kind == "se":
        return SubExpression(frozenset(doc["relations"]))
    if kind == "reject":
        key = doc["key"]
        key = tuple(key) if isinstance(key, list) else key
        return RejectSE(se_from_dict(doc["source"]), key, se_from_dict(doc["against"]))
    if kind == "reject_join":
        key = doc["key"]
        key = tuple(key) if isinstance(key, list) else key
        return RejectJoinSE(
            se_from_dict(doc["reject"]), key, se_from_dict(doc["other"])
        )
    raise PersistenceError(f"unknown SE document type {kind!r}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def statistic_to_dict(stat: Statistic) -> dict:
    """JSON-ready form of a statistic key."""
    return {
        "kind": stat.kind.value,
        "se": se_to_dict(stat.se),
        "attrs": list(stat.attrs),
    }


def statistic_from_dict(doc: dict) -> Statistic:
    """Inverse of :func:`statistic_to_dict`."""
    try:
        kind = StatKind(doc["kind"])
    except (KeyError, ValueError) as exc:
        raise PersistenceError(f"bad statistic kind: {doc!r}") from exc
    return Statistic(kind, se_from_dict(doc["se"]), tuple(doc.get("attrs", ())))


def value_to_doc(value) -> dict:
    """JSON-ready form of a statistic value (number or histogram)."""
    if isinstance(value, Histogram):
        return {
            "histogram": {
                "attrs": list(value.attrs),
                "buckets": sorted(
                    ([list(k), v] for k, v in value.counts.items()),
                    key=lambda bucket: json.dumps(bucket[0]),
                ),
            }
        }
    return {"value": value}


def value_from_doc(doc: dict):
    """Inverse of :func:`value_to_doc`; a malformed value (a bucket that is
    not ``[key, count]``, unsorted or duplicate attrs, ...) raises
    :class:`PersistenceError`."""
    try:
        if "histogram" in doc:
            hdoc = doc["histogram"]
            counts = {tuple(k): v for k, v in hdoc["buckets"]}
            return Histogram(tuple(hdoc["attrs"]), counts)
        return doc["value"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"malformed statistic value {reprlib.repr(doc)}: {exc}"
        ) from exc


def store_to_dict(store: StatisticsStore) -> dict:
    """Serialize a statistics store (values included) deterministically."""
    entries = []
    for stat, value in store.items():
        entry = {"stat": statistic_to_dict(stat)}
        entry.update(value_to_doc(value))
        entries.append(entry)
    entries.sort(key=lambda e: json.dumps(e["stat"], sort_keys=True))
    return {"format_version": FORMAT_VERSION, "statistics": entries}


def store_from_dict(doc: dict) -> StatisticsStore:
    """Inverse of :func:`store_to_dict`."""
    validate_document(doc, "statistics")
    store = StatisticsStore()
    entries = doc.get("statistics", [])
    if not isinstance(entries, list):
        raise PersistenceError("corrupt statistics document: 'statistics' is not a list")
    for entry in entries:
        try:
            stat = statistic_from_dict(entry["stat"])
            store.put(stat, value_from_doc(entry))
        except PersistenceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"corrupt statistics entry {entry!r}: {exc}"
            ) from exc
    return store


# ---------------------------------------------------------------------------
# tables (checkpoint payloads)
# ---------------------------------------------------------------------------


def table_to_dict(table: Table) -> dict:
    """JSON-ready form of a columnar table (attribute order preserved)."""
    return {
        "attrs": list(table.attrs),
        "columns": {a: list(table.column(a)) for a in table.attrs},
    }


def table_from_dict(doc: dict) -> Table:
    """Inverse of :func:`table_to_dict`."""
    try:
        attrs = doc["attrs"]
        columns = doc["columns"]
        return Table.wrap({a: list(columns[a]) for a in attrs})
    except (KeyError, TypeError, TableError) as exc:
        raise PersistenceError(f"corrupt table document: {exc}") from exc


# ---------------------------------------------------------------------------
# plan trees
# ---------------------------------------------------------------------------


def tree_to_dict(tree: PlanTree) -> dict:
    """JSON-ready form of a plan tree."""
    if isinstance(tree, Leaf):
        return {"leaf": tree.name}
    return {
        "key": list(tree.key),
        "left": tree_to_dict(tree.left),
        "right": tree_to_dict(tree.right),
    }


def tree_from_dict(doc: dict) -> PlanTree:
    """Inverse of :func:`tree_to_dict`."""
    if "leaf" in doc:
        return Leaf(doc["leaf"])
    try:
        return JoinNode(
            tree_from_dict(doc["left"]),
            tree_from_dict(doc["right"]),
            tuple(doc["key"]),
        )
    except KeyError as exc:
        raise PersistenceError(f"malformed plan document: missing {exc}") from exc


# ---------------------------------------------------------------------------
# session state
# ---------------------------------------------------------------------------


@dataclass
class SessionState:
    """What a restarting session needs: the adopted plans and statistics."""

    trees: dict[str, PlanTree] = field(default_factory=dict)
    adopted_cardinalities: dict[AnySE, float] = field(default_factory=dict)
    runs_completed: int = 0

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "runs_completed": self.runs_completed,
            "trees": {name: tree_to_dict(t) for name, t in self.trees.items()},
            "cardinalities": [
                [se_to_dict(se), value]
                for se, value in sorted(
                    self.adopted_cardinalities.items(), key=lambda kv: repr(kv[0])
                )
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionState":
        validate_document(doc, "session")
        trees = doc.get("trees", {})
        cards = doc.get("cardinalities", [])
        if not isinstance(trees, dict) or not isinstance(cards, list):
            raise PersistenceError(
                "corrupt session document: 'trees' must be an object and "
                "'cardinalities' a list"
            )
        try:
            return cls(
                trees={name: tree_from_dict(t) for name, t in trees.items()},
                adopted_cardinalities={
                    se_from_dict(se_doc): value for se_doc, value in cards
                },
                runs_completed=doc.get("runs_completed", 0),
            )
        except PersistenceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"corrupt session document: {exc}") from exc

    def save(self, path: str | Path) -> None:
        atomic_write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "SessionState":
        return cls.from_dict(_load_json(path, "session"))
