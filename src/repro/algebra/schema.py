"""Schema metadata: attributes, domains, relations, keys.

The paper (Section 3.1) works with a handful of schema-level facts:

- ``||a||`` -- the *domain size* of an attribute over all relations.  This is
  the conservative memory bound for a histogram bucket count (Section 5.4).
- ``|a_T|`` -- the number of distinct values of ``a`` actually present in a
  relation ``T`` (used by the group-by rule G1).
- join keys -- the paper writes ``J_ij`` for the join attribute between
  ``T_i`` and ``T_j``.  We model join keys as *shared attribute names*:
  relations that can join on a key both carry a column with that attribute
  name.  This makes the identity ``H_{T_1}^{J_12} = H_{T_1}^{J_13}`` (when
  ``J_12 = J_13``) fall out naturally, which is exactly the cost-amortization
  effect exploited in Section 5.
- foreign keys -- metadata that lets the optimizer treat a join as a lookup
  (``|T_1 join T_2| = |T_1|``) and prune the plan space (Section 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SchemaError(ValueError):
    """Raised for inconsistent schema definitions."""


@dataclass(frozen=True)
class Attribute:
    """A named attribute with a global domain size.

    ``domain_size`` is ``||a||`` from the paper: the number of possible
    distinct values of the attribute over all relations.  It is the
    conservative estimate used for histogram memory costing.
    """

    name: str
    domain_size: int = 1024

    def __post_init__(self) -> None:
        if self.domain_size <= 0:
            raise SchemaError(
                f"attribute {self.name!r} must have a positive domain size"
            )


@dataclass(frozen=True)
class ForeignKey:
    """Foreign key: ``child.attr`` references ``parent.attr``.

    A join between ``child`` and ``parent`` on ``attr`` is then a *lookup*:
    every child row matches exactly one parent row, so the join cardinality
    equals the child cardinality.  The optimizer uses this to prune SEs
    (Section 3.2.2) and the baseline uses it to shrink coverage requirements.
    """

    child: str
    parent: str
    attr: str


@dataclass(frozen=True)
class RelationSchema:
    """A named relation with an ordered set of attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate attribute names in relation {self.name!r}")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)


@dataclass
class Catalog:
    """All schema-level metadata known to the framework.

    The catalog is what an ETL engine would extract from the workflow design
    document: relation shapes, global attribute domains and key metadata.  It
    deliberately carries *no data statistics* -- the whole point of the paper
    is that those must be observed.
    """

    relations: dict[str, RelationSchema] = field(default_factory=dict)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    _attributes: dict[str, Attribute] = field(default_factory=dict)

    def add_attribute(self, name: str, domain_size: int) -> Attribute:
        """Register (or fetch) a global attribute definition."""
        existing = self._attributes.get(name)
        if existing is not None:
            if existing.domain_size != domain_size:
                raise SchemaError(
                    f"attribute {name!r} registered twice with different "
                    f"domain sizes ({existing.domain_size} vs {domain_size})"
                )
            return existing
        attr = Attribute(name, domain_size)
        self._attributes[name] = attr
        return attr

    def add_relation(self, name: str, attrs: dict[str, int]) -> RelationSchema:
        """Register a relation given ``{attribute_name: domain_size}``."""
        if name in self.relations:
            raise SchemaError(f"relation {name!r} already registered")
        attributes = tuple(
            self.add_attribute(attr_name, size) for attr_name, size in attrs.items()
        )
        rel = RelationSchema(name, attributes)
        self.relations[name] = rel
        return rel

    def add_foreign_key(self, child: str, parent: str, attr: str) -> ForeignKey:
        for rel_name in (child, parent):
            if rel_name not in self.relations:
                raise SchemaError(f"unknown relation {rel_name!r} in foreign key")
            if not self.relations[rel_name].has_attribute(attr):
                raise SchemaError(
                    f"relation {rel_name!r} has no attribute {attr!r} for foreign key"
                )
        fk = ForeignKey(child, parent, attr)
        self.foreign_keys.append(fk)
        return fk

    def relation(self, name: str) -> RelationSchema:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def domain_size(self, attr: str) -> int:
        """``||a||`` -- the domain size of an attribute over all relations."""
        return self.attribute(attr).domain_size

    def is_lookup_join(self, child: str, parent: str, attr: str) -> bool:
        """True if joining ``child`` to ``parent`` on ``attr`` is a FK lookup."""
        return any(
            fk.child == child and fk.parent == parent and fk.attr == attr
            for fk in self.foreign_keys
        )

