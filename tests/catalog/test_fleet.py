"""Fleet observation planning: each shared statistic observed once."""

import pytest

from repro.algebra.blocks import analyze
from repro.catalog import StatisticsCatalog, WorkflowSigner, plan_fleet
from repro.workloads import case

NOW = 3_000_000.0


def builds(numbers):
    return [case(n).build() for n in numbers]


@pytest.mark.parametrize("solver", ["greedy", "ilp"])
def test_no_statistic_observed_twice(solver):
    fleet = plan_fleet(builds([11, 12, 13]), solver=solver)
    seen = {}
    for plan in fleet.workflows:
        analysis = analyze(case(int(plan.name[2:4])).build())
        signer = WorkflowSigner(analysis)
        for stat in plan.observe:
            key = signer.statistic_key(stat)
            assert key not in seen, (
                f"{stat!r} observed by both {seen[key]} and {plan.name}"
            )
            seen[key] = plan.name


def test_later_workflows_reuse_earlier_observations():
    fleet = plan_fleet(builds([11, 12, 13]))
    first, *rest = fleet.workflows
    assert first.shared == {} or all(
        provider == "catalog" for provider in first.shared.values()
    )
    providers = {
        provider
        for plan in rest
        for provider in plan.shared.values()
    }
    assert providers, "overlapping workflows must share observations"
    assert all(p != "catalog" for p in providers)
    assert fleet.total_planned_cost < fleet.total_standalone_cost


def test_catalog_entries_cover_every_workflow():
    # a catalog populated by a real run of wf11 removes wf11's whole share
    # of the fleet plan and shrinks the others'
    from repro.framework.pipeline import StatisticsPipeline

    wfcase = case(11)
    catalog = StatisticsCatalog()
    StatisticsPipeline(wfcase.build(), solver="greedy").run_once(
        wfcase.tables(scale=0.2, seed=7), stats_catalog=catalog
    )
    cold = plan_fleet(builds([11, 12]))
    warm = plan_fleet(builds([11, 12]), catalog=catalog, now=NOW)
    warm_wf11 = warm.workflows[0]
    assert warm_wf11.observe == []
    assert {p for p in warm_wf11.shared.values()} == {"catalog"}
    assert warm.unique_observations < cold.unique_observations


def test_order_matters_but_coverage_is_total():
    forward = plan_fleet(builds([11, 12, 13]))
    backward = plan_fleet(builds([13, 12, 11]))
    # whoever goes first pays; totals stay below standalone either way
    for fleet in (forward, backward):
        assert fleet.total_planned_cost <= fleet.total_standalone_cost
        for plan in fleet.workflows:
            assert plan.selection.is_valid
            assert plan.planned_cost <= plan.standalone_cost


def test_disjoint_workflows_share_nothing():
    # wf1 (linear, its own source) against itself shares everything; a
    # sanity check that sharing is symmetric and complete
    fleet = plan_fleet(builds([11, 11]))
    a, b = fleet.workflows
    assert b.observe == []
    assert set(b.shared.values()) == {a.name}
    assert b.planned_cost == 0.0


def test_fleet_describe_is_informative():
    fleet = plan_fleet(builds([11, 12]))
    text = fleet.describe()
    assert "fleet plan" in text
    assert "standalone" in text
    for plan in fleet.workflows:
        assert plan.name in text
