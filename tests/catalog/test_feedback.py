"""The adaptive feedback loop: one estimated-vs-actual pass, one memory.

:func:`~repro.catalog.drift.reconcile_run` is the only place a night's
beliefs are compared with the run, the only writer of corrections, and an
entry's ``quality`` is the only memory of its errors: a miss is blended in
once, and an entry that keeps missing falls below the catalog's
``min_quality`` and leaves the zero-cost offer
(:func:`~repro.catalog.fleet.plan_fleet` then observes it afresh).  Pins:
the one-charge regression (a miss costs an entry's quality once), the
wrong-predictor regression (an entry is charged only with the error of its
own value), the stationary-data property of ROADMAP 5(c), the withdrawal of
a twice-missed entry, and the acceptance scenario: a two-night pipeline run
where night one is poisoned with a misestimate, the reconcile pass fixes
the catalog in place (``etl_catalog_corrections_total`` > 0), and night
two's estimation error is strictly lower.
"""

import os

import pytest

from repro.algebra.blocks import analyze
from repro.catalog import (
    DEFAULT_MIN_QUALITY,
    StatisticsCatalog,
    WorkflowSigner,
    plan_fleet,
    reconcile_run,
)
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic, StatisticsStore
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.framework.pipeline import StatisticsPipeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import record_run_metrics
from repro.obs.trace import Tracer
from repro.workloads import case

pytestmark = pytest.mark.catalog

NOW = 3_000_000.0

PROPERTY_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))


def observe(number=11, scale=0.2, seed=7):
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    selection = solve_greedy(
        build_problem(generate_css(analysis), CostModel(workflow.catalog))
    )
    sources = wfcase.tables(scale=scale, seed=seed)
    backend = get_backend("columnar")
    run = BackendExecutor(analysis, backend).run(
        sources, taps=backend.make_taps(selection.observed)
    )
    return workflow, WorkflowSigner(analysis), selection, run


def seeded_catalog(signer, selection, run):
    catalog = StatisticsCatalog()
    reconcile_run(
        catalog,
        signer,
        run.observations,
        run.se_sizes,
        selection.observed,
        workflow="wf11",
        run_id="r0",
        backend="columnar",
        now=NOW,
    )
    return catalog


def poison(catalog, base_only=True):
    """Inflate cardinality entries tenfold in place; returns their keys."""
    keys = []
    for key, entry in list(catalog.entries.items()):
        stat = entry.statistic()
        if not stat.is_cardinality or (base_only and len(stat.se) != 1):
            continue
        catalog.record(
            key,
            entry.se_key,
            stat,
            int(entry.value()) * 10,
            workflow=entry.workflow,
            run_id="poison",
            backend=entry.backend,
            observed_at=entry.observed_at,
        )
        keys.append(key)
    assert keys
    return keys


def poisoned_wf11(path):
    """Night zero populates an honest wf11 catalog; then every base-source
    cardinality is inflated tenfold -- the catalog hit feeds the optimizer
    the wrong prior on night one."""
    wfcase = case(11)
    sources = wfcase.tables(scale=0.2, seed=7)
    catalog = StatisticsCatalog(path)
    StatisticsPipeline(wfcase.build(), solver="greedy").run_once(
        sources, stats_catalog=catalog, run_id="n0"
    )
    return wfcase, sources, catalog, poison(catalog)


def night(wfcase, sources, catalog, run_id, **kwargs):
    return StatisticsPipeline(wfcase.build(), solver="greedy").run_once(
        sources, stats_catalog=catalog, run_id=run_id, **kwargs
    )


class TestOneCharge:
    """A night is compared with what it believed once."""

    def test_a_miss_is_charged_once(self, tmp_path):
        wfcase, sources, catalog, poisoned = poisoned_wf11(tmp_path / "c.json")
        night(wfcase, sources, catalog, "n1")
        truth = dict(ground_truth_cardinalities(analyze(wfcase.build()), sources))
        entries = [catalog.get(key) for key in poisoned]
        for entry in entries:
            assert entry.run_id == "n1"
            assert entry.value() == truth[entry.statistic().se]
            # penalised for the tenfold miss once: 0.5 * 1.0 + 0.5 * (1 - 0.9)
            assert entry.quality == pytest.approx(0.55)
            assert entry.usable(entry.observed_at, catalog.ttl, catalog.min_quality)
        night2 = night(wfcase, sources, catalog, "n2")
        assert night2.corrections == 0
        tapped_keys = {
            WorkflowSigner(night2.analysis).statistic_key(stat)
            for stat in night2.tapped
        }
        assert not tapped_keys & set(poisoned)  # the corrected value is reused

    def test_entry_is_charged_only_with_its_own_error(self):
        # a stale cardinality entry that is *right* tonight keeps its
        # quality: the scan charges it the error of its own value, which is 0
        _, signer, selection, run = observe()
        catalog = seeded_catalog(signer, selection, run)
        se, rows = next(
            (se, rows)
            for se, rows in sorted(run.se_sizes.items(), key=repr)
            if rows > 1 and signer.statistic_key(Statistic.card(se)) in catalog
        )
        key = signer.statistic_key(Statistic.card(se))
        catalog.mark_stale([key])
        reconcile_run(
            catalog, signer, run.observations, run.se_sizes, [], now=NOW + 10
        )
        entry = catalog.get(key)
        assert entry.quality == 1.0 and entry.value() == rows
        assert entry.run_id == "r0"

    def test_metrics_and_describe(self, tmp_path):
        wfcase, sources, catalog, poisoned = poisoned_wf11(tmp_path / "c.json")
        registry = MetricsRegistry()
        report = night(wfcase, sources, catalog, "n1")
        record_run_metrics(registry, report)
        labels = dict(workflow=wfcase.build().name, backend="columnar")
        # every reconcile series comes off the report, once
        assert report.corrections == len(report.drift.drifted) == len(poisoned)
        for name, expected in (
            ("etl_catalog_corrections_total", report.corrections),
            ("etl_catalog_drifted_total", len(report.drift.drifted)),
            ("catalog_stale_marked_total", report.drift.stale_marked),
            ("catalog_max_rel_error", report.drift.max_rel_error),
        ):
            assert registry.get(name).value(**labels) == pytest.approx(expected)
        for duplicate in ("feedback_corrections_total", "catalog_drifted_total"):
            assert registry.get(duplicate) is None
        assert "drifted" in report.drift.describe()
        assert report.drift.describe() in report.describe()


@pytest.mark.property
@pytest.mark.parametrize("number", [2, 9, 11, 13])
def test_stationary_data_never_moves_an_entry_away_from_truth(number):
    """ROADMAP 5(c): on stationary data the reconcile pass never moves an
    estimate away from truth, never lowers a quality, and warm nights tap
    nothing."""
    wfcase = case(number)
    sources = wfcase.tables(scale=0.2, seed=PROPERTY_SEED * 1000 + number)
    pipeline = StatisticsPipeline(wfcase.build(), solver="greedy")
    signer = WorkflowSigner(pipeline.analysis)
    truth = {
        signer.statistic_key(Statistic.card(se)): rows
        for se, rows in ground_truth_cardinalities(
            pipeline.analysis, sources
        ).items()
    }
    catalog = StatisticsCatalog()

    def snapshot():
        return {
            key: (abs(entry.value() - truth[key]), entry.quality)
            for key, entry in catalog.entries.items()
            if key in truth
        }

    previous = None
    for index in range(4):
        report = pipeline.run_once(
            sources, stats_catalog=catalog, run_id=f"n{index}"
        )
        current = snapshot()
        assert current
        if previous is not None:
            assert report.tapped == [] and report.corrections == 0
            for key, (distance, quality) in previous.items():
                assert current[key][0] <= distance
                assert current[key][1] >= quality
        assert all(
            entry.quality >= catalog.min_quality
            for entry in catalog.entries.values()
        )
        previous = current


class TestFleetWithdrawal:
    def test_twice_missed_entries_are_observed_not_offered(self):
        workflow, signer, selection, run = observe()
        catalog = seeded_catalog(signer, selection, run)

        # warm catalog: nothing to observe tonight
        warm = plan_fleet([workflow], catalog, solver="greedy", now=NOW + 1)
        assert warm.workflows[0].observe == []

        # two nights on which every cardinality prediction missed by a
        # relative error of 1.0 (the data doubled, then doubled again)
        for night_index, factor in ((1, 2), (2, 4)):
            reconcile_run(
                catalog,
                signer,
                StatisticsStore(),
                {se: rows * factor for se, rows in run.se_sizes.items()},
                [],
                run_id=f"r{night_index}",
                now=NOW + night_index,
            )
        missed = {
            key
            for key, entry in catalog.entries.items()
            if entry.statistic().is_cardinality
            and entry.quality < DEFAULT_MIN_QUALITY
        }
        assert missed
        assert not missed & catalog.usable_keys(NOW + 3)

        plan = plan_fleet(
            [workflow], catalog, solver="greedy", now=NOW + 3
        ).workflows[0]
        observed_keys = {signer.statistic_key(stat) for stat in plan.observe}
        assert observed_keys & missed  # observed afresh, not offered free


class TestTwoNightSelfCorrection:
    """The acceptance scenario: a poisoned night self-corrects."""

    def test_injected_misestimate_corrected_on_night_two(self, tmp_path):
        wfcase, sources, catalog, _ = poisoned_wf11(tmp_path / "catalog.json")

        reports, registries = [], []
        for run_id in ("n1", "n2"):
            registry = MetricsRegistry()
            report = night(wfcase, sources, catalog, run_id, tracer=Tracer())
            record_run_metrics(registry, report)
            reports.append(report)
            registries.append(registry)

        night1, night2 = reports
        # night one saw the poison and corrected the catalog in place
        assert night1.corrections > 0
        assert night1.drift.max_rel_error > 0.25
        assert registries[0].get("etl_catalog_corrections_total").value(
            workflow=wfcase.build().name, backend="columnar"
        ) == night1.corrections

        # night two runs on the corrected entries: strictly lower error,
        # nothing left to fix
        assert night2.drift.max_rel_error < night1.drift.max_rel_error
        assert night2.corrections == 0
        assert registries[1].get("etl_catalog_corrections_total") is None

        # the trace-layer histogram tells the same story
        name = wfcase.build().name
        labels = dict(workflow=name, backend="columnar")
        means = []
        for registry in registries:
            hist = registry.get("etl_estimation_rel_error")
            assert hist is not None and hist.count(**labels) > 0
            means.append(hist.sum(**labels) / hist.count(**labels))
        assert means[1] < means[0]

        # and the corrections were persisted with the night-one save
        reopened = StatisticsCatalog.open(tmp_path / "catalog.json")
        assert not any(
            entry.run_id == "poison" for entry in reopened.entries.values()
        )
