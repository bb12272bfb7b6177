"""The paper's core contribution: statistics, CSS rules, selection.

:func:`select_statistics` is the one identification step every layer
goes through: Algorithm 1's CSS catalog, the Section 6.2 zero-cost
statistics and the Section 5 solve (the exact ILP of 5.2 or the greedy
heuristic of 5.3).  It is the only caller of :func:`build_problem` outside
the per-step stopwatch in :mod:`repro.experiments`, and the only place a
solver is chosen.
"""

from __future__ import annotations

from repro.core.costs import CostModel
from repro.core.css import CssCatalog
from repro.core.greedy import solve_greedy
from repro.core.histogram import Histogram, HistogramError
from repro.core.ilp import solve_ilp
from repro.core.selection import SelectionResult, build_problem
from repro.core.statistics import StatKind, Statistic, StatisticsStore


def select_statistics(
    catalog: CssCatalog,
    cost_model: CostModel,
    free: set[Statistic] | None = None,
    solver: str = "ilp",
    time_limit: float | None = None,
) -> SelectionResult:
    """The cheapest set of statistics to observe that covers ``catalog``.

    ``free`` are statistics already available at zero cost (source-system
    statistics, shared-catalog entries, another workflow's claims tonight);
    ``time_limit`` caps the ILP in seconds and does not apply to
    ``solver="greedy"``.  Raises ``ValueError("selection infeasible: ...")``
    when some required cardinality has no observable coverage.
    """
    problem = build_problem(catalog, cost_model, free_statistics=free)
    if solver == "greedy":
        return solve_greedy(problem)
    return solve_ilp(problem, time_limit=time_limit)


__all__ = [
    "Histogram",
    "HistogramError",
    "StatKind",
    "Statistic",
    "StatisticsStore",
    "select_statistics",
]
