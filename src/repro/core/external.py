"""Integrating existing source-system statistics (Section 6.2).

When a source is a relational DBMS, its system catalog already holds
statistics.  *"All the statistics that are available can be added by
default to the set of observable statistics S_O and their costs c_i set to
0.  This ensures that the framework will always pick these statistics."*

``harvest_source_statistics`` simulates a DBMS catalog: it profiles the
given source tables (cardinality + single-attribute histograms, the usual
catalog contents) and returns both the statistic keys -- to pass as
``free_statistics`` to the selection problem -- and their values, to merge
into the observation store before estimation.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.algebra.expressions import SubExpression
from repro.core.statistics import Statistic, StatisticsStore
from repro.engine.table import Table


def harvest_source_statistics(
    sources: dict[str, Table],
    relations: Iterable[str] | None = None,
) -> tuple[set[Statistic], StatisticsStore]:
    """Profile (some of) the source tables like a DBMS catalog would.

    Returns ``(free_statistics, values)``:

    - ``free_statistics`` -- keys to feed into
      :func:`repro.core.selection.build_problem` so they cost nothing;
    - ``values`` -- a store to merge into the run's observations so the
      estimator can actually use them.
    """
    chosen = set(relations) if relations is not None else set(sources)
    free: set[Statistic] = set()
    values = StatisticsStore()
    for name in sorted(chosen):
        table = sources[name]
        se = SubExpression.of(name)
        card = Statistic.card(se)
        free.add(card)
        values.put(card, table.num_rows)
        for attr in table.attrs:
            hist_stat = Statistic.hist(se, attr)
            free.add(hist_stat)
            values.put(hist_stat, table.histogram((attr,)))
            distinct_stat = Statistic.distinct(se, attr)
            free.add(distinct_stat)
            values.put(distinct_stat, table.distinct_count((attr,)))
    return free, values
