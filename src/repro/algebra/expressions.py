"""Sub-expressions (SEs): the logical results at intermediate plan stages.

Section 3.1: *"a sub-expression (SE) logically denotes the result at an
intermediate stage of the plan"*.  Within one optimizable block, an SE is
fully identified by the subset of the block's inputs that have been joined,
since unary operators (filters, projections, UDFs) are anchored to the input
they apply to.

Two extra SE forms exist only to support the paper's union-division method
(Section 4.1.2, rules J4/J5):

- :class:`RejectSE` -- ``rej(T_1, J_13, T_3)``, the rows of ``T_1`` rejected
  by its join with ``T_3`` (written ``\\overline{T}_1^{J_13}`` in the paper).
- :class:`RejectJoinSE` -- ``rej(T_1, J_13, T_3) join T_2``, the side join of
  a reject link with another SE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Union


class CachedHash:
    """Base of the frozen dataclasses used as set members and dict keys.

    Subclasses are declared ``eq=False`` and call :meth:`_freeze` with their
    field values last in ``__post_init__``.  The hash is computed there,
    once, and is the value the dataclass-generated ``__hash__`` would
    return, so sets and dicts iterate in the same order.  Equality checks
    identity, then the hashes, then the fields.  A pickle rebuilds the
    object from its fields: hash seeds differ between processes, so a
    cached hash must never cross one.
    """

    def _freeze(self, *fields) -> None:
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._fields == other._fields

    def __reduce__(self):
        return self.__class__, self._fields


@total_ordering
@dataclass(frozen=True, eq=False)
class SubExpression(CachedHash):
    """A join of a subset of block inputs.

    ``relations`` holds input names; a singleton SE is a (possibly filtered /
    transformed) base input, the full set is the block output.
    """

    relations: frozenset[str]

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError("a sub-expression must contain at least one relation")
        if not isinstance(self.relations, frozenset):
            object.__setattr__(self, "relations", frozenset(self.relations))
        self._freeze(self.relations)

    @classmethod
    def of(cls, *relations: str) -> "SubExpression":
        return cls(frozenset(relations))

    @property
    def is_base(self) -> bool:
        return len(self.relations) == 1

    @property
    def base_name(self) -> str:
        if not self.is_base:
            raise ValueError(f"{self} is not a base sub-expression")
        return next(iter(self.relations))

    def union(self, other: "SubExpression") -> "SubExpression":
        return SubExpression(self.relations | other.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def _sort_key(self) -> tuple:
        return (len(self.relations), tuple(sorted(self.relations)))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, SubExpression):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __repr__(self) -> str:
        return "SE(" + "*".join(sorted(self.relations)) + ")"


@dataclass(frozen=True, eq=False)
class RejectSE(CachedHash):
    """Rows of ``source`` rejected by its join with ``against`` on ``key``.

    The paper writes this as ``\\overline{T}_i^{J_ij}``.  It is observable by
    instrumenting (or adding) a reject link after the join in the initial
    plan (Section 4.1.2).
    """

    source: SubExpression
    key: str
    against: SubExpression

    def __post_init__(self) -> None:
        self._freeze(self.source, self.key, self.against)

    def __repr__(self) -> str:
        return f"Rej({self.source!r}, {self.key}, {self.against!r})"


@dataclass(frozen=True, eq=False)
class RejectJoinSE(CachedHash):
    """The side join ``reject join_{key} other`` used by rules J4/J5."""

    reject: RejectSE
    key: str
    other: SubExpression

    def __post_init__(self) -> None:
        self._freeze(self.reject, self.key, self.other)

    def __repr__(self) -> str:
        return f"RejJoin({self.reject!r} |x|_{self.key} {self.other!r})"


AnySE = Union[SubExpression, RejectSE, RejectJoinSE]


def se_sort_key(se: AnySE) -> tuple:
    """Stable ordering across the three SE flavours (for determinism)."""
    if isinstance(se, SubExpression):
        return (0, se._sort_key())
    if isinstance(se, RejectSE):
        return (1, se.source._sort_key(), se.key, se.against._sort_key())
    if isinstance(se, RejectJoinSE):
        return (2, se_sort_key(se.reject), se.key, se.other._sort_key())
    raise TypeError(f"not a sub-expression: {se!r}")
