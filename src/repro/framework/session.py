"""Repeated-execution lifecycle: design once, execute repeatedly.

The paper's premise (Section 1) is that an ETL workflow runs periodically
over changing data, so statistics learned in one run optimize the next.
:class:`EtlSession` models that loop:

- every run executes the *currently chosen* plans, instrumented with the
  selected statistics;
- after each run the statistics are refreshed and the plans re-optimized
  ("The whole cycle is repeated in each execution so that the statistics
  are kept updated with the changing data", Section 1);
- the session keeps a history so experiments can chart how plan cost tracks
  data drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.plans import PlanTree
from repro.catalog.drift import rel_error
from repro.catalog.store import StatisticsCatalog
from repro.engine.faults import FaultPlan
from repro.engine.scheduler import RetryPolicy
from repro.engine.table import Table
from repro.estimation.costmodel import PlanCostModel
from repro.framework.pipeline import PipelineReport, StatisticsPipeline


@dataclass
class RunRecord:
    """Bookkeeping for one session run."""

    index: int
    report: PipelineReport
    executed_trees: dict[str, PlanTree]
    actual_plan_cost: float
    reoptimized: bool
    drift: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(self.report.failures)


@dataclass
class EtlSession:
    """Drives repeated executions with continuous re-optimization.

    Two adoption policies:

    - periodic (default): adopt the re-optimized plans every
      ``reoptimize_every`` runs ("the process can either repeat at each run
      of the workflow or at some other user defined interval", Section 3.2);
    - drift-triggered: with ``drift_threshold`` set, adopt new plans only
      when some learned SE cardinality moved by more than that relative
      fraction since the previously adopted statistics -- cheap plan
      stability when the data is quiet.

    Resilience: a ``retry`` policy and/or ``faults`` plan is forwarded to
    every run.  A night whose block fails permanently is optimized from
    what the catalog remembers of earlier nights (the ``prior`` rung);
    drift and plan adoption for the failed statistics stand still until
    real observations return.

    Sharing: a ``stats_catalog``
    (:class:`~repro.catalog.store.StatisticsCatalog`) is threaded into
    every run -- catalog-covered statistics are consumed at zero cost
    instead of re-observed, each completed run reconciles (and persists)
    the catalog, and runs of *other* workflows sharing the same catalog
    file inherit tonight's observations.  By default the session threads a
    private in-memory catalog with a zero TTL: every entry has expired by
    the next night, so each night re-observes everything (Section 1's
    cycle) and earlier nights survive only as the ``prior`` rung.

    Quality: ``quality`` (a :class:`~repro.quality.gate.QualityGate`)
    screens every run's sources under its contracts and schema policy; its
    dead-letter store holds the latest night's rejects, so the session's
    statistics are only ever learned from rows that honored their source
    contracts.

    Observability: ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) aggregates the standard
    run series across every run of the session -- several sessions may
    share one registry, which is how a fleet exports one scrape surface.
    ``tracing=True`` gives every run a fresh
    :class:`~repro.obs.trace.Tracer` (clocked by the pipeline's
    injectable ``clock``), surfaced as ``record.report.trace``.  Both
    default to off and cost nothing when off.
    """

    pipeline: StatisticsPipeline
    reoptimize_every: int = 1
    drift_threshold: float | None = None
    history: list[RunRecord] = field(default_factory=list)
    _current_trees: dict[str, PlanTree] | None = None
    _adopted_cards: dict | None = None
    retry: RetryPolicy | None = None  # scheduler policy for every run
    faults: "FaultPlan | None" = None  # chaos sessions (tests/benchmarks)
    #: shared StatisticsCatalog (default: a private in-memory one, ttl 0)
    stats_catalog: "object | None" = field(
        default_factory=lambda: StatisticsCatalog(ttl=0.0)
    )
    metrics: "object | None" = None  # shared MetricsRegistry
    tracing: bool = False  # span tree per run, on record.report.trace
    quality: "object | None" = None  # QualityGate screening every run

    def run(self, sources: dict[str, Table]) -> RunRecord:
        """Execute one load with the current plans; maybe re-optimize."""
        index = len(self.history)
        executed = dict(self._current_trees or {})
        tracer = None
        if self.tracing:
            from repro.obs.trace import Tracer

            tracer = Tracer(clock=self.pipeline.clock)
        report = self.pipeline.run_once(
            sources,
            trees=self._current_trees,
            retry=self.retry,
            faults=self.faults,
            stats_catalog=self.stats_catalog,
            run_id=f"run{index}",
            tracer=tracer,
            quality=self.quality,
        )
        if self.metrics is not None:
            from repro.obs.record import record_run_metrics

            record_run_metrics(self.metrics, report)

        cards = report.estimator.all_cardinalities()
        drift = self._measure_drift(cards)
        if self.drift_threshold is not None:
            # first-ever adoption happens once; a resumed session already
            # carries adopted statistics and only re-adopts on drift
            cold_start = self._adopted_cards is None
            reoptimize = cold_start or drift > self.drift_threshold
        else:
            reoptimize = index % max(self.reoptimize_every, 1) == 0
        if reoptimize:
            self._current_trees = report.chosen_trees
            if report.failures:
                # a degraded run observed nothing for its failed blocks;
                # keep the previously adopted statistics for those SEs so
                # the drift detector compares against real observations
                self._adopted_cards = {**(self._adopted_cards or {}), **cards}
            else:
                self._adopted_cards = dict(cards)

        actual = self._actual_cost(report, executed)
        record = RunRecord(
            index=index,
            report=report,
            executed_trees=executed,
            actual_plan_cost=actual,
            reoptimized=reoptimize,
            drift=drift,
        )
        self.history.append(record)
        return record

    def _measure_drift(self, cards: dict) -> float:
        """Worst relative change vs the statistics behind the current plan."""
        if not self._adopted_cards:
            return 0.0
        worst = 0.0
        for se, value in cards.items():
            previous = self._adopted_cards.get(se)
            if previous is not None:
                worst = max(worst, rel_error(previous, value))
        return worst

    def _actual_cost(
        self, report: PipelineReport, executed: dict[str, PlanTree]
    ) -> float:
        """True cost of the plans that actually ran, from observed sizes."""
        model = PlanCostModel(dict(report.run.se_sizes))
        total = 0.0
        for block in report.analysis.blocks:
            tree = executed.get(block.name, block.initial_tree)
            try:
                total += model.tree_cost(tree)
            except KeyError:  # pragma: no cover - sizes recorded per run
                pass
        return total

    @property
    def current_trees(self) -> dict[str, PlanTree]:
        return dict(self._current_trees or {})

    def cost_history(self) -> list[float]:
        return [record.actual_plan_cost for record in self.history]

    # ------------------------------------------------------------------
    # persistence across engine restarts
    # ------------------------------------------------------------------
    def save_state(self, path) -> None:
        """Persist the adopted plans and statistics for the next process."""
        from repro.core.persistence import SessionState

        SessionState(
            trees=self.current_trees,
            adopted_cardinalities=dict(self._adopted_cards or {}),
            runs_completed=len(self.history),
        ).save(path)

    @classmethod
    def resume(cls, pipeline: StatisticsPipeline, path, **kwargs) -> "EtlSession":
        """Reconstruct a session from a persisted state file."""
        from repro.core.persistence import SessionState

        state = SessionState.load(path)
        session = cls(pipeline, **kwargs)
        if state.trees:
            session._current_trees = dict(state.trees)
        if state.adopted_cardinalities:
            session._adopted_cards = dict(state.adopted_cardinalities)
        return session
