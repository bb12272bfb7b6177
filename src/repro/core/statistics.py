"""Statistic identities: the ``s_e = (s, e)`` pairs of Definition 2.

The paper considers three statistic kinds (Section 4.1):

- cardinality ``|T|``,
- distinct values ``|a_T|`` of an attribute in a relation,
- (multi-)attribute distributions ``H_T^a`` / ``H_T^{a,b}``.

A :class:`Statistic` is a *key* -- it names a measurement, it does not hold a
value.  Observed or computed values are kept separately in a
:class:`StatisticsStore` so the same key can be compared across runs.

Canonicalization matters: histogram attribute tuples are sorted so that
``H_T^{a,b}`` and ``H_T^{b,a}`` are the same statistic, and SEs are
order-insensitive relation sets.  This is what lets the optimization
framework share the cost of a statistic across CSSs (Section 5's
amortization example relies on ``H_{T1}^{J12}`` and ``H_{T1}^{J13}`` being
recognized as identical when the join keys coincide).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.algebra.expressions import AnySE, CachedHash, se_sort_key
from repro.core.histogram import Histogram


class StatKind(enum.Enum):
    """The statistic kinds of Section 4.1."""

    CARDINALITY = "card"
    DISTINCT = "distinct"
    HISTOGRAM = "hist"


@dataclass(frozen=True, eq=False)
class Statistic(CachedHash):
    """An identified statistic ``s_e`` on a sub-expression ``e``."""

    kind: StatKind
    se: AnySE
    attrs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is StatKind.CARDINALITY:
            if self.attrs:
                raise ValueError("cardinality statistics carry no attributes")
        elif self.kind is StatKind.DISTINCT:
            if not self.attrs:
                raise ValueError("distinct-count statistics need attributes")
        elif not self.attrs:
            raise ValueError("histogram statistics need at least one attribute")
        object.__setattr__(self, "attrs", tuple(sorted(set(self.attrs))))
        self._freeze(self.kind, self.se, self.attrs)

    # -- constructors ---------------------------------------------------
    @classmethod
    def card(cls, se: AnySE) -> "Statistic":
        """``|e|``"""
        return cls(StatKind.CARDINALITY, se)

    @classmethod
    def hist(cls, se: AnySE, *attrs: str) -> "Statistic":
        """``H_e^{attrs}``"""
        return cls(StatKind.HISTOGRAM, se, tuple(attrs))

    @classmethod
    def distinct(cls, se: AnySE, *attrs: str) -> "Statistic":
        """``|attrs_e|``"""
        return cls(StatKind.DISTINCT, se, tuple(attrs))

    # -- helpers ---------------------------------------------------------
    @property
    def is_cardinality(self) -> bool:
        return self.kind is StatKind.CARDINALITY

    @property
    def is_histogram(self) -> bool:
        return self.kind is StatKind.HISTOGRAM

    def sort_key(self) -> tuple:
        return (self.kind.value, se_sort_key(self.se), self.attrs)

    def __repr__(self) -> str:
        if self.kind is StatKind.CARDINALITY:
            return f"|{self.se!r}|"
        if self.kind is StatKind.DISTINCT:
            return f"|{','.join(self.attrs)}_{self.se!r}|"
        return f"H[{self.se!r}]^({','.join(self.attrs)})"


StatValue = Union[float, int, Histogram]


class StatisticsStore:
    """Observed / computed values keyed by :class:`Statistic`.

    A thin mapping with type checks: cardinalities and distinct counts are
    numbers, histogram statistics are :class:`Histogram` objects whose
    attributes match the key.
    """

    def __init__(self) -> None:
        self._values: dict[Statistic, StatValue] = {}

    def put(self, stat: Statistic, value: StatValue) -> None:
        if stat.is_histogram:
            if not isinstance(value, Histogram):
                raise TypeError(f"{stat!r} requires a Histogram value")
            if value.attrs != stat.attrs:
                raise ValueError(
                    f"histogram attrs {value.attrs} do not match statistic "
                    f"attrs {stat.attrs}"
                )
        elif isinstance(value, Histogram):
            raise TypeError(f"{stat!r} requires a numeric value")
        self._values[stat] = value

    def get(self, stat: Statistic) -> StatValue:
        return self._values[stat]

    def maybe(self, stat: Statistic, default=None):
        return self._values.get(stat, default)

    def __contains__(self, stat: Statistic) -> bool:
        return stat in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def items(self):
        return self._values.items()

    def cardinality(self, se: AnySE) -> float:
        """Convenience: the stored cardinality of an SE."""
        return float(self._values[Statistic.card(se)])

    def merge(self, other: "StatisticsStore") -> None:
        for stat, value in other.items():
            self.put(stat, value)

    def copy(self) -> "StatisticsStore":
        clone = StatisticsStore()
        clone._values = dict(self._values)
        return clone
