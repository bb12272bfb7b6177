"""repro -- essential statistics for cost-based ETL workflow optimization.

A faithful, executable reproduction of *"Determining Essential Statistics
for Cost Based Optimization of an ETL Workflow"* (EDBT 2014): given an ETL
workflow that runs repeatedly, determine the cheapest set of statistics to
observe during one run so that a cost-based optimizer can cost **every**
alternative plan for all subsequent runs.

Typical entry points:

- build a workflow DAG with :class:`Catalog`, :class:`Source`,
  :class:`Join`, :class:`Filter`, :class:`Transform`, :class:`Aggregate`,
  :class:`Target` and wrap it in :class:`Workflow`;
- run the whole Figure-2 loop with :class:`StatisticsPipeline` /
  :class:`EtlSession`;
- or drive the stages directly: :func:`analyze` (optimizable blocks),
  :func:`generate_css` (Algorithm 1), :func:`select_statistics`
  (Section 5 in one call; or its steps :func:`build_problem` +
  :func:`solve_ilp` / :func:`solve_greedy`),
  :class:`~repro.engine.instrumentation.TapSet` +
  :class:`~repro.engine.backend.BackendExecutor` (instrumented runs), and
  :class:`~repro.estimation.estimator.CardinalityEstimator` +
  :class:`~repro.estimation.optimizer.PlanOptimizer` (Step 7).
"""

from repro.algebra.blocks import Block, BlockAnalysis, analyze
from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.algebra.operators import (
    Aggregate,
    AggregateUDF,
    Filter,
    Join,
    Materialize,
    Predicate,
    Project,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
)
from repro.algebra.schema import Catalog
from repro.catalog import (
    StatisticsCatalog,
    WorkflowSigner,
    plan_fleet,
    reconcile_run,
)
from repro.core import select_statistics
from repro.core.costs import CostModel
from repro.core.css import CSS, CssCatalog
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.greedy import solve_greedy
from repro.core.histogram import Histogram
from repro.core.ilp import solve_ilp
from repro.core.persistence import SessionState
from repro.core.resource import ConstrainedSchedule, plan_constrained
from repro.core.selection import SelectionResult, build_problem
from repro.core.statistics import StatKind, Statistic, StatisticsStore
from repro.engine.backend import (
    BackendExecutor,
    ExecutionBackend,
    WorkflowRun,
    available_backends,
    get_backend,
)
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.instrumentation import TapSet
from repro.engine.scheduler import RetryPolicy, RunFailure
from repro.engine.table import Table
from repro.estimation.estimator import CardinalityEstimator
from repro.estimation.optimizer import PlanOptimizer, optimize_workflow
from repro.framework.pipeline import PipelineReport, StatisticsPipeline
from repro.framework.recovery import RunCheckpoint
from repro.framework.session import EtlSession

__version__ = "1.0.0"

__all__ = [
    "Aggregate", "AggregateUDF", "analyze", "available_backends",
    "BackendExecutor", "Block", "BlockAnalysis",
    "build_problem", "CardinalityEstimator", "Catalog",
    "ConstrainedSchedule", "CostModel", "CSS", "CssCatalog", "EtlSession",
    "ExecutionBackend", "FaultPlan",
    "FaultSpec", "Filter",
    "generate_css", "get_backend",
    "GeneratorOptions", "Histogram", "Join", "Materialize",
    "optimize_workflow", "PipelineReport", "plan_constrained",
    "plan_fleet", "PlanOptimizer", "Predicate", "Project",
    "reconcile_run", "RejectJoinSE", "RejectSE",
    "RetryPolicy", "RunCheckpoint", "RunFailure",
    "select_statistics", "SelectionResult", "SessionState",
    "solve_greedy", "solve_ilp", "Source", "StatKind",
    "Statistic", "StatisticsCatalog", "StatisticsPipeline",
    "StatisticsStore", "SubExpression",
    "Table", "TapSet", "Target", "Transform", "UdfSpec", "Workflow",
    "WorkflowRun", "WorkflowSigner",
]
