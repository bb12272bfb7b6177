"""Chaos: dirty-data injection against the quality gate, end to end.

The ISSUE's acceptance criterion: a run with ~1% injected dirty rows must
complete, quarantine *exactly* the injected rows, exclude them from every
tapped statistic and materialized count, and still select the same plan as
the clean baseline.  Every injection is seeded via ``REPRO_CHAOS_SEED``;
backend coverage is parametrized (restrict with ``REPRO_CHAOS_BACKEND``
for the CI matrix).
"""

import os

import pytest

from repro.algebra.expressions import SubExpression
from repro.engine.faults import CORRUPT_SENTINEL, FaultPlan, FaultSpec
from repro.framework.pipeline import StatisticsPipeline
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

pytestmark = pytest.mark.chaos

SE = SubExpression.of

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))
_only = os.environ.get("REPRO_CHAOS_BACKEND", "")
BACKENDS = [_only] if _only else ["columnar", "streaming", "vectorized"]

WORKFLOW = 25


def _sources():
    return case(WORKFLOW).tables(scale=0.05, seed=7)


def _dirty_plan():
    # ~1% of rows poisoned per source, each by a different injector, plus
    # one upstream rename for the schema-drift path
    return FaultPlan(
        (
            FaultSpec(target="Trade", kind="corrupt-row", fraction=0.01),
            FaultSpec(target="DimAccount", kind="null-burst", fraction=0.01),
            FaultSpec(target="DimSecurity", kind="type-flip", fraction=0.01),
            FaultSpec(
                target="DimDate", kind="column-rename",
                column="year_id", rename_to="yr",
            ),
        ),
        seed=CHAOS_SEED,
    )


def _run_once(backend, **kwargs):
    pipeline = StatisticsPipeline(
        case(WORKFLOW).build(), backend=backend, solver="greedy"
    )
    return pipeline.run_once(_sources(), **kwargs)


def _plan_trees(report):
    # tree reprs only: removing 1% of the rows legitimately shifts costs
    return {name: repr(p.tree) for name, p in report.plans.items()}


@pytest.mark.parametrize("backend", BACKENDS)
class TestDirtyDataChaos:
    def test_dirty_run_quarantines_exactly_the_injected_rows(self, backend):
        sources = _sources()
        contracts = ContractSet.infer(sources)
        injector = _dirty_plan().injector()
        report = _run_once(
            backend,
            faults=injector,
            quality=QualityGate(contracts),
        )
        assert report.ok

        # exactly the poisoned rows, row for row
        poisoned = _dirty_plan().injector().apply_sources(sources)
        assert set(injector.dirty_rows) == {
            "Trade", "DimAccount", "DimSecurity"
        }
        for name, victims in injector.dirty_rows.items():
            assert victims, name
            dead = report.quarantined[name]
            expected = poisoned[name].take(sorted(victims))
            assert list(dead.rows()) == list(expected.rows()), name
        assert report.rows_quarantined == sum(
            len(v) for v in injector.dirty_rows.values()
        )

        # quarantined rows are excluded from the materialized ground truth
        for name, table in sources.items():
            victims = injector.dirty_rows.get(name, set())
            assert report.run.se_sizes[SE(name)] == table.num_rows - len(
                victims
            ), name

        # the rename survived the gate as a drift event, not a failure
        assert [(e.source, e.kind) for e in report.schema_drift] == [
            ("DimDate", "renamed")
        ]

    def test_dirty_run_selects_the_clean_baseline_plan(self, backend):
        baseline = _run_once(backend)
        report = _run_once(
            backend,
            faults=_dirty_plan().injector(),
            quality=QualityGate(ContractSet.infer(_sources())),
        )
        assert _plan_trees(report) == _plan_trees(baseline)

    def test_without_contracts_the_dirt_gets_through(self, backend):
        # control: the gate (not luck) is what keeps the dirt out
        injector = _dirty_plan().injector()
        report = _run_once(backend, faults=injector)
        assert report.rows_quarantined == 0
        trade_rows = list(report.run.env["Trade"].rows())
        assert any(CORRUPT_SENTINEL in row for row in trade_rows)


class TestViolationCodes:
    def test_each_injector_yields_its_violation_code(self):
        report = _run_once(
            "columnar",
            faults=_dirty_plan().injector(),
            quality=QualityGate(ContractSet.infer(_sources())),
        )
        codes = {(v.source, v.code) for v in report.violations}
        assert ("Trade", "type") in codes  # corrupt-row: str sentinel
        assert ("DimAccount", "null") in codes  # null-burst
        assert ("DimSecurity", "type") in codes  # type-flip
