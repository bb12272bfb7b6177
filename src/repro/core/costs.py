"""Cost metrics for observing statistics (Section 5.4).

Two metrics are modelled:

- **memory**: the conservative bucket-count bound -- ``1`` for a counter,
  ``||a||`` for a single-attribute histogram or distinct count, and the
  product of domain sizes for a joint histogram (the paper's table in
  Section 5.4).
- **CPU**: proportional to the number of tuples flowing past the
  observation point, i.e. the size of the SE being instrumented.  That size
  is exactly what the statistics are meant to estimate; the paper breaks
  the circularity by using SE sizes from the previous run, falling back to
  a coarse independence-assumption estimate on the first run.

Unobservable statistics cost ``inf`` -- the selection layer can never pick
them for direct observation (Figure 8 marks them the same way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.algebra.expressions import AnySE, RejectSE
from repro.algebra.schema import Catalog
from repro.core.statistics import StatKind, Statistic

INFINITE = math.inf
#: rows assumed for an SE without a size estimate (the coarse first run)
DEFAULT_SE_SIZE = 1000.0
#: values assumed for an attribute the catalog does not know
DEFAULT_DOMAIN = 1024


@dataclass
class CostModel:
    """Computes per-statistic observation costs.

    ``se_sizes`` maps SEs to (estimated) row counts for CPU costing; when an
    SE is missing, :data:`DEFAULT_SE_SIZE` applies (the coarse first-run
    approximation).  ``memory_weight`` / ``cpu_weight`` blend the metrics;
    the paper's experiments use pure memory cost (Figure 11), which is the
    default.
    """

    catalog: Catalog
    se_sizes: dict[AnySE, float] = field(default_factory=dict)
    memory_weight: float = 1.0
    cpu_weight: float = 0.0

    def domain_size(self, attr: str) -> int:
        try:
            return self.catalog.domain_size(attr)
        except Exception:
            return DEFAULT_DOMAIN

    def memory_units(self, stat: Statistic) -> float:
        """The Section 5.4 memory table.

        A histogram's bucket count is "the number of distinct values of that
        set of attributes" on the observed SE; lacking the exact count, the
        bound is the domain-size product, *capped by the SE's row count*
        when a size estimate exists (a frequency histogram cannot have more
        non-empty buckets than rows -- this is what makes histograms on
        selective join results and on reject links cheap, the effect behind
        the paper's Figure 8 costs and the union-division savings of
        Figure 11).  First runs without size estimates fall back to the
        conservative domain product.
        """
        if stat.kind is StatKind.CARDINALITY:
            return 1.0
        units = 1.0
        for attr in stat.attrs:
            units *= self.domain_size(attr)
        bound = self._size_bound(stat.se)
        if bound is not None:
            units = min(units, max(bound, 1.0))
        return units

    def _size_bound(self, se: AnySE) -> float | None:
        """Row-count bound for an SE, if any estimate is available."""
        if se in self.se_sizes:
            return float(self.se_sizes[se])
        if isinstance(se, RejectSE):
            base = self.se_sizes.get(se.source)
            return float(base) if base is not None else None
        return None

    def se_size(self, se: AnySE) -> float:
        if se in self.se_sizes:
            return float(self.se_sizes[se])
        if isinstance(se, RejectSE):
            base = self.se_sizes.get(se.source)
            return float(base) if base is not None else DEFAULT_SE_SIZE
        return DEFAULT_SE_SIZE

    def cpu_units(self, stat: Statistic) -> float:
        """One update per tuple passing the observation point."""
        return self.se_size(stat.se)

    def cost(self, stat: Statistic, observable: bool = True) -> float:
        if not observable:
            return INFINITE
        return (
            self.memory_weight * self.memory_units(stat)
            + self.cpu_weight * self.cpu_units(stat)
        )
