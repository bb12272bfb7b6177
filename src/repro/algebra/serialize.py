"""Workflow serialization: JSON round-trip and DataStage-flavoured XML.

Section 7: *"all the workflows were exported as XMLs from DataStage to be
consumed by our module"*.  This module plays that role for the library: a
workflow (catalog + DAG) can be exported to a JSON document or to an XML
dialect shaped like an ETL designer export, and re-imported into live
:class:`~repro.algebra.operators.Workflow` objects.

Because predicates and UDFs are code, they cannot travel inside a document;
imports resolve them by *name* from a caller-supplied registry (defaulting
to pass-through semantics), mirroring how an engine binds stage types by
name at run time.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.algebra.operators import (
    Aggregate,
    AggregateUDF,
    Filter,
    Join,
    Materialize,
    Node,
    Predicate,
    Project,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
    WorkflowError,
)
from repro.algebra.schema import Catalog


class SerializationError(ValueError):
    """Raised for malformed workflow documents."""


@dataclass
class FunctionRegistry:
    """Resolves predicate / UDF / blocking-UDF names to callables."""

    predicates: dict[str, Callable] = field(default_factory=dict)
    udfs: dict[str, Callable] = field(default_factory=dict)
    aggregate_udfs: dict[str, Callable] = field(default_factory=dict)

    def predicate(self, name: str) -> Predicate:
        return Predicate(name, self.predicates.get(name, lambda v: True))

    def udf(self, name: str) -> UdfSpec:
        return UdfSpec(name, self.udfs.get(name, lambda v: v))

    def aggregate_udf(self, name: str) -> Callable:
        return self.aggregate_udfs.get(name, lambda rows: rows)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def workflow_to_dict(workflow: Workflow) -> dict:
    """A JSON-ready description of the catalog and the DAG."""
    nodes = workflow.nodes()
    ids = {node.node_id: f"n{i}" for i, node in enumerate(nodes)}

    def describe(node: Node) -> dict:
        base = {
            "id": ids[node.node_id],
            "kind": type(node).__name__,
            "inputs": [ids[child.node_id] for child in node.inputs],
        }
        if isinstance(node, Source):
            base["relation"] = node.name
        elif isinstance(node, Filter):
            base["attr"] = node.attr
            base["predicate"] = node.predicate.name
        elif isinstance(node, Project):
            base["attrs"] = list(node.attrs)
        elif isinstance(node, Transform):
            base["attrs"] = list(node.input_attrs)
            base["udf"] = node.udf.name
            if node.output_attr is not None:
                base["output_attr"] = node.output_attr
        elif isinstance(node, Join):
            base["attr"] = node.attr
            base["reject_left"] = node.reject_left
            base["reject_right"] = node.reject_right
        elif isinstance(node, Aggregate):
            base["group_attrs"] = list(node.group_attrs)
            base["aggregates"] = {
                out: list(spec) for out, spec in node.aggregates.items()
            }
        elif isinstance(node, (AggregateUDF, Materialize, Target)):
            base["name"] = node.name
        return base

    catalog = workflow.catalog
    return {
        "name": workflow.name,
        "catalog": {
            "relations": {
                name: {
                    attr.name: attr.domain_size for attr in rel.attributes
                }
                for name, rel in sorted(catalog.relations.items())
            },
            "attributes": {
                name: attr.domain_size
                for name, attr in sorted(catalog._attributes.items())
            },
            "foreign_keys": [
                [fk.child, fk.parent, fk.attr] for fk in catalog.foreign_keys
            ],
        },
        "nodes": [describe(node) for node in nodes],
        "targets": [ids[t.node_id] for t in workflow.targets],
    }


def workflow_to_json(workflow: Workflow) -> str:
    """Serialize a workflow (catalog + DAG) to a JSON document.

    Keys are sorted so the same workflow always renders byte-identical
    output -- exports are diffable and safe to keep under version control.
    """
    return json.dumps(workflow_to_dict(workflow), indent=2, sort_keys=True)


def workflow_to_xml(workflow: Workflow) -> str:
    """A designer-export-flavoured XML rendering of the same document."""
    doc = workflow_to_dict(workflow)
    root = ET.Element("etl-workflow", name=doc["name"])
    catalog_el = ET.SubElement(root, "catalog")
    for rel, attrs in doc["catalog"]["relations"].items():
        rel_el = ET.SubElement(catalog_el, "relation", name=rel)
        for attr, domain in attrs.items():
            ET.SubElement(rel_el, "attribute", name=attr, domain=str(domain))
    for name, domain in doc["catalog"]["attributes"].items():
        relations_attrs = {
            a for attrs in doc["catalog"]["relations"].values() for a in attrs
        }
        if name not in relations_attrs:
            ET.SubElement(
                catalog_el, "derived-attribute", name=name, domain=str(domain)
            )
    for child, parent, attr in doc["catalog"]["foreign_keys"]:
        ET.SubElement(
            catalog_el, "foreign-key", child=child, parent=parent, attr=attr
        )
    stages = ET.SubElement(root, "stages")
    for node in doc["nodes"]:
        stage = ET.SubElement(stages, "stage", id=node["id"], kind=node["kind"])
        for key, value in node.items():
            if key in ("id", "kind", "inputs"):
                continue
            prop = ET.SubElement(stage, "property", name=key)
            prop.text = json.dumps(value)
        for input_id in node["inputs"]:
            ET.SubElement(stage, "link", source=input_id)
    targets = ET.SubElement(root, "targets")
    for target_id in doc["targets"]:
        ET.SubElement(targets, "target", ref=target_id)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------


def workflow_from_dict(
    doc: dict, registry: Optional[FunctionRegistry] = None
) -> Workflow:
    """Rebuild a workflow from its dictionary form; functions resolve by
    name through ``registry``."""
    registry = registry or FunctionRegistry()
    try:
        catalog_doc = doc["catalog"]
        node_docs = doc["nodes"]
        target_ids = doc["targets"]
        name = doc["name"]
    except KeyError as exc:
        raise SerializationError(f"missing workflow section: {exc}") from exc

    catalog = Catalog()
    for rel, attrs in catalog_doc.get("relations", {}).items():
        catalog.add_relation(rel, dict(attrs))
    for attr, domain in catalog_doc.get("attributes", {}).items():
        catalog.add_attribute(attr, domain)
    for child, parent, attr in catalog_doc.get("foreign_keys", []):
        catalog.add_foreign_key(child, parent, attr)

    built: dict[str, Node] = {}
    for node_doc in node_docs:
        node_id = node_doc.get("id")
        kind = node_doc.get("kind")
        inputs = [built[i] for i in node_doc.get("inputs", [])]
        try:
            built[node_id] = _build_node(kind, node_doc, inputs, catalog, registry)
        except (KeyError, WorkflowError) as exc:
            raise SerializationError(
                f"invalid node {node_id!r} ({kind}): {exc}"
            ) from exc

    targets = []
    for target_id in target_ids:
        node = built.get(target_id)
        if not isinstance(node, Target):
            raise SerializationError(f"target ref {target_id!r} is not a Target")
        targets.append(node)
    return Workflow(name, catalog, targets)


def _build_node(kind, doc, inputs, catalog, registry) -> Node:
    if kind == "Source":
        return Source(catalog, doc["relation"])
    if kind == "Filter":
        return Filter(inputs[0], doc["attr"], registry.predicate(doc["predicate"]))
    if kind == "Project":
        return Project(inputs[0], tuple(doc["attrs"]))
    if kind == "Transform":
        return Transform(
            inputs[0],
            tuple(doc["attrs"]),
            registry.udf(doc["udf"]),
            output_attr=doc.get("output_attr"),
        )
    if kind == "Join":
        return Join(
            inputs[0],
            inputs[1],
            doc["attr"],
            reject_left=doc.get("reject_left", False),
            reject_right=doc.get("reject_right", False),
        )
    if kind == "Aggregate":
        aggregates = {
            out: (spec[0], spec[1])
            for out, spec in doc.get("aggregates", {}).items()
        }
        return Aggregate(inputs[0], tuple(doc["group_attrs"]), aggregates)
    if kind == "AggregateUDF":
        return AggregateUDF(
            inputs[0], doc["name"], registry.aggregate_udf(doc["name"])
        )
    if kind == "Materialize":
        return Materialize(inputs[0], doc["name"])
    if kind == "Target":
        return Target(inputs[0], doc["name"])
    raise SerializationError(f"unknown node kind {kind!r}")


def workflow_from_json(
    text: str, registry: Optional[FunctionRegistry] = None
) -> Workflow:
    """Parse a JSON workflow document (see :func:`workflow_to_json`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return workflow_from_dict(doc, registry)


def workflow_from_xml(
    text: str, registry: Optional[FunctionRegistry] = None
) -> Workflow:
    """Parse a designer-export-flavoured XML workflow document."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SerializationError(f"invalid XML: {exc}") from exc
    if root.tag != "etl-workflow":
        raise SerializationError(f"unexpected root element {root.tag!r}")

    relations: dict[str, dict[str, int]] = {}
    attributes: dict[str, int] = {}
    foreign_keys = []
    catalog_el = root.find("catalog")
    if catalog_el is not None:
        for rel_el in catalog_el.findall("relation"):
            relations[rel_el.get("name")] = {
                a.get("name"): int(a.get("domain"))
                for a in rel_el.findall("attribute")
            }
        for attr_el in catalog_el.findall("derived-attribute"):
            attributes[attr_el.get("name")] = int(attr_el.get("domain"))
        for fk_el in catalog_el.findall("foreign-key"):
            foreign_keys.append(
                [fk_el.get("child"), fk_el.get("parent"), fk_el.get("attr")]
            )

    nodes = []
    stages_el = root.find("stages")
    for stage in (stages_el.findall("stage") if stages_el is not None else []):
        node_doc = {
            "id": stage.get("id"),
            "kind": stage.get("kind"),
            "inputs": [link.get("source") for link in stage.findall("link")],
        }
        for prop in stage.findall("property"):
            node_doc[prop.get("name")] = json.loads(prop.text or "null")
        nodes.append(node_doc)

    targets_el = root.find("targets")
    targets = [
        t.get("ref") for t in (targets_el.findall("target") if targets_el is not None else [])
    ]
    doc = {
        "name": root.get("name", "workflow"),
        "catalog": {
            "relations": relations,
            "attributes": attributes,
            "foreign_keys": foreign_keys,
        },
        "nodes": nodes,
        "targets": targets,
    }
    return workflow_from_dict(doc, registry)
