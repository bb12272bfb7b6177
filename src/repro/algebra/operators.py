"""Logical ETL workflow DAG: nodes, edges and schema propagation.

An ETL workflow (Section 1) is a DAG whose input nodes are source
record-sets, output nodes are targets, and intermediate nodes are
transformation / cleansing / join activities.  This module models that DAG at
the logical level, exactly as an ETL designer export (e.g. the DataStage XML
the paper consumed) would describe it:

- :class:`Source` -- a base record-set (relation).
- :class:`Filter` -- a selection ``sigma_a(T)`` with a named predicate.
- :class:`Project` -- a projection ``pi_attrs(T)``.
- :class:`Transform` -- a (black-box) UDF ``U(T, a)`` rewriting attribute
  ``a``; optionally producing a *derived* attribute.
- :class:`Join` -- an equi-join on a shared attribute, with optional
  *materialized* reject links (the diagnostics pattern of Section 1).
- :class:`Aggregate` -- a group-by ``G(T, a)``.
- :class:`AggregateUDF` -- a custom blocking operator whose semantics are
  opaque to the optimizer (Section 3.2.1).
- :class:`Materialize` -- an explicit intermediate materialization point.
- :class:`Target` -- a workflow output.

Every node knows its output attributes (propagated from sources) and the set
of base relations its rows originate from -- both are needed by block
analysis (Section 3.2.1) and by the rule engine (Section 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.algebra.schema import Catalog, SchemaError


class WorkflowError(ValueError):
    """Raised for malformed workflow graphs."""


@dataclass(frozen=True)
class Predicate:
    """A named selection predicate on a single attribute.

    Equality and hashing use only the name, so plans built from the same
    workflow definition compare equal; ``fn`` is used by the execution
    engine.
    """

    name: str
    fn: Callable[[object], bool] = field(compare=False, hash=False, default=lambda v: True)

    def __call__(self, value: object) -> bool:
        return self.fn(value)


@dataclass(frozen=True)
class UdfSpec:
    """A named per-value transformation function (black box to the optimizer)."""

    name: str
    fn: Callable[[object], object] = field(compare=False, hash=False, default=lambda v: v)

    def __call__(self, value: object) -> object:
        return self.fn(value)


_node_ids = itertools.count()


class Node:
    """Base class for workflow DAG nodes."""

    def __init__(self, inputs: list["Node"]):
        self.node_id = next(_node_ids)
        self.inputs = list(inputs)

    # subclasses override ``output_attrs`` and ``label`` -------------------
    def origin_relations(self) -> frozenset[str]:
        """Names of the base sources whose rows flow into this node."""
        out: set[str] = set()
        for node in self.inputs:
            out |= node.origin_relations()
        return frozenset(out)


class Source(Node):
    """A base record-set; the relation name must exist in the catalog."""

    def __init__(self, catalog: Catalog, name: str):
        super().__init__([])
        self.name = name
        self.schema = catalog.relation(name)

    def output_attrs(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def origin_relations(self) -> frozenset[str]:
        return frozenset({self.name})

    @property
    def label(self) -> str:
        return f"Source({self.name})"


class _Unary(Node):
    def __init__(self, input_node: Node):
        super().__init__([input_node])

    @property
    def input(self) -> Node:
        return self.inputs[0]


class Filter(_Unary):
    """``sigma_{attr}(input)`` with a named predicate."""

    def __init__(self, input_node: Node, attr: str, predicate: Predicate):
        super().__init__(input_node)
        if attr not in input_node.output_attrs():
            raise WorkflowError(
                f"filter attribute {attr!r} not produced by {input_node.label}"
            )
        self.attr = attr
        self.predicate = predicate

    def output_attrs(self) -> tuple[str, ...]:
        return self.input.output_attrs()

    @property
    def label(self) -> str:
        return f"Filter({self.attr}:{self.predicate.name})"


class Project(_Unary):
    """``pi_{attrs}(input)``."""

    def __init__(self, input_node: Node, attrs: tuple[str, ...]):
        super().__init__(input_node)
        missing = set(attrs) - set(input_node.output_attrs())
        if missing:
            raise WorkflowError(f"project attributes {sorted(missing)} not available")
        self.attrs = tuple(attrs)

    def output_attrs(self) -> tuple[str, ...]:
        return self.attrs

    @property
    def label(self) -> str:
        return f"Project({','.join(self.attrs)})"


class Transform(_Unary):
    """``U(input, attr)``: a UDF rewriting ``attr``.

    With ``output_attr`` set, the UDF *derives* a new attribute instead of
    rewriting in place (the Figure 3 pattern where the derived attribute
    later serves as a join key, forcing a block boundary).
    """

    def __init__(
        self,
        input_node: Node,
        attr: str | tuple[str, ...],
        udf: UdfSpec,
        output_attr: Optional[str] = None,
    ):
        super().__init__(input_node)
        attrs = (attr,) if isinstance(attr, str) else tuple(attr)
        if not attrs:
            raise WorkflowError("transform needs at least one input attribute")
        for a in attrs:
            if a not in input_node.output_attrs():
                raise WorkflowError(
                    f"transform attribute {a!r} not produced by {input_node.label}"
                )
        if len(attrs) > 1 and output_attr is None:
            raise WorkflowError(
                "a multi-attribute transform must name its output attribute"
            )
        self.input_attrs = attrs
        self.attr = attrs[0]
        self.udf = udf
        self.output_attr = output_attr

    @property
    def result_attr(self) -> str:
        """The attribute holding the UDF result."""
        return self.output_attr if self.output_attr is not None else self.attr

    def output_attrs(self) -> tuple[str, ...]:
        attrs = self.input.output_attrs()
        if self.output_attr is not None and self.output_attr not in attrs:
            return attrs + (self.output_attr,)
        return attrs

    @property
    def label(self) -> str:
        return f"Transform({self.udf.name}:{self.attr}->{self.result_attr})"


class Join(Node):
    """Equi-join of two inputs on a shared attribute.

    ``reject_left`` / ``reject_right`` mark *materialized* reject links: the
    non-joining rows of that side are collected into a side output.  A
    materialized reject link pins the join in place (Section 3.2.1), because
    reordering would change the reject contents.
    """

    def __init__(
        self,
        left: Node,
        right: Node,
        attr: str,
        reject_left: bool = False,
        reject_right: bool = False,
    ):
        super().__init__([left, right])
        for side in (left, right):
            if attr not in side.output_attrs():
                raise WorkflowError(
                    f"join attribute {attr!r} not produced by {side.label}"
                )
        if left.origin_relations() & right.origin_relations():
            raise WorkflowError("join inputs share base relations; not a valid DAG")
        self.attr = attr
        # Natural-join discipline: attributes are global identities, so any
        # attribute name both sides carry is the *same* logical attribute
        # and joins implicitly (otherwise "which side's column survives"
        # would make downstream cardinalities depend on join order).
        shared = set(left.output_attrs()) & set(right.output_attrs())
        self.key_attrs = tuple(sorted(shared | {attr}))
        self.reject_left = reject_left
        self.reject_right = reject_right

    @property
    def left(self) -> Node:
        return self.inputs[0]

    @property
    def right(self) -> Node:
        return self.inputs[1]

    @property
    def has_materialized_reject(self) -> bool:
        return self.reject_left or self.reject_right

    def output_attrs(self) -> tuple[str, ...]:
        left = self.left.output_attrs()
        extra = tuple(a for a in self.right.output_attrs() if a not in left)
        return left + extra

    @property
    def label(self) -> str:
        flags = ""
        if self.reject_left:
            flags += " rej<-"
        if self.reject_right:
            flags += " rej->"
        return f"Join({self.attr}{flags})"


class Aggregate(_Unary):
    """Group-by ``G(input, group_attrs)`` with named aggregate outputs.

    ``aggregates`` maps an output attribute name to ``(agg_fn, input_attr)``
    where ``agg_fn`` is one of ``count / sum / min / max``.
    """

    SUPPORTED = ("count", "sum", "min", "max")

    def __init__(
        self,
        input_node: Node,
        group_attrs: tuple[str, ...],
        aggregates: Optional[dict[str, tuple[str, str]]] = None,
    ):
        super().__init__(input_node)
        available = set(input_node.output_attrs())
        missing = set(group_attrs) - available
        if missing:
            raise WorkflowError(f"group-by attributes {sorted(missing)} not available")
        aggregates = dict(aggregates or {})
        for out_attr, (fn, in_attr) in aggregates.items():
            if fn not in self.SUPPORTED:
                raise WorkflowError(f"unsupported aggregate function {fn!r}")
            if fn != "count" and in_attr not in available:
                raise WorkflowError(f"aggregate input {in_attr!r} not available")
        self.group_attrs = tuple(group_attrs)
        self.aggregates = aggregates

    def output_attrs(self) -> tuple[str, ...]:
        return self.group_attrs + tuple(self.aggregates)

    @property
    def label(self) -> str:
        return f"Aggregate({','.join(self.group_attrs)})"


class AggregateUDF(_Unary):
    """A custom blocking operator; a black box that may shrink its input.

    ``fn`` receives and returns a list of row dicts.  Because its semantics
    are opaque, block analysis always places a boundary here
    (Section 3.2.1).
    """

    def __init__(self, input_node: Node, name: str, fn: Optional[Callable] = None):
        super().__init__(input_node)
        self.name = name
        self.fn = fn if fn is not None else (lambda rows: rows)

    def output_attrs(self) -> tuple[str, ...]:
        return self.input.output_attrs()

    @property
    def label(self) -> str:
        return f"AggregateUDF({self.name})"


class Materialize(_Unary):
    """Explicitly materialize the intermediate result under ``name``."""

    def __init__(self, input_node: Node, name: str):
        super().__init__(input_node)
        self.name = name

    def output_attrs(self) -> tuple[str, ...]:
        return self.input.output_attrs()

    @property
    def label(self) -> str:
        return f"Materialize({self.name})"


class Target(_Unary):
    """A workflow output record-set."""

    def __init__(self, input_node: Node, name: str):
        super().__init__(input_node)
        self.name = name

    def output_attrs(self) -> tuple[str, ...]:
        return self.input.output_attrs()

    @property
    def label(self) -> str:
        return f"Target({self.name})"


class Workflow:
    """A complete ETL workflow: a catalog plus one or more target nodes."""

    def __init__(self, name: str, catalog: Catalog, targets: list[Target]):
        if not targets:
            raise WorkflowError("a workflow needs at least one target")
        self.name = name
        self.catalog = catalog
        self.targets = list(targets)
        self._validate()

    def _validate(self) -> None:
        for node in self.nodes():
            node.output_attrs()  # forces schema propagation errors early
            if isinstance(node, Source) and node.name not in self.catalog.relations:
                raise SchemaError(f"source {node.name!r} missing from catalog")

    def nodes(self) -> list[Node]:
        """All nodes in topological order (inputs before consumers)."""
        seen: set[int] = set()
        order: list[Node] = []

        def visit(node: Node) -> None:
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            for child in node.inputs:
                visit(child)
            order.append(node)

        for target in self.targets:
            visit(target)
        return order

    def sources(self) -> list[Source]:
        return [n for n in self.nodes() if isinstance(n, Source)]

    def source_names(self) -> list[str]:
        return sorted({s.name for s in self.sources()})

    def consumers(self) -> dict[int, list[Node]]:
        """Map node-id -> nodes that consume its output."""
        out: dict[int, list[Node]] = {}
        for node in self.nodes():
            for child in node.inputs:
                out.setdefault(child.node_id, []).append(node)
        return out

    def describe(self) -> str:
        """A human-readable multi-line summary of the DAG."""
        lines = [f"Workflow {self.name!r}"]
        for node in self.nodes():
            inputs = ", ".join(child.label for child in node.inputs)
            lines.append(f"  {node.label}" + (f" <- [{inputs}]" if inputs else ""))
        return "\n".join(lines)
