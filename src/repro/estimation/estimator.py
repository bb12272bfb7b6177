"""Cardinality estimation over ℰ from learned statistics."""

from __future__ import annotations

from repro.algebra.expressions import AnySE
from repro.core.css import CssCatalog
from repro.core.statistics import Statistic, StatisticsStore
from repro.estimation.calculator import StatisticsCalculator


class EstimationError(KeyError):
    """Raised when a cardinality cannot be derived from the observations."""


class CardinalityEstimator:
    """Derives |e| for every SE from a set of observed statistics.

    The constructor runs the CSS fixpoint once, for ``S_C`` only; lookups
    are O(1) after.
    """

    def __init__(self, catalog: CssCatalog, observed: StatisticsStore):
        self.catalog = catalog
        calculator = StatisticsCalculator(catalog, observed)
        self.values = calculator.compute(catalog.required)

    def cardinality(self, se: AnySE) -> float:
        stat = Statistic.card(se)
        if stat not in self.values:
            raise EstimationError(
                f"cardinality of {se!r} is not computable from the observed "
                "statistics; the selection step should have covered it"
            )
        return float(self.values.get(stat))

    def all_cardinalities(self) -> dict[AnySE, float]:
        """|e| for every required SE (the set S_C)."""
        return {
            stat.se: float(self.values.get(stat))
            for stat in self.catalog.required
            if stat in self.values
        }

    def coverage(self) -> tuple[int, int]:
        """(computable required stats, total required stats)."""
        have = sum(1 for s in self.catalog.required if s in self.values)
        return have, len(self.catalog.required)

