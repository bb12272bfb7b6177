"""The adaptive feedback loop: one estimated-vs-actual pass, one memory.

:func:`~repro.catalog.drift.reconcile_run` is the only place a night's
beliefs are compared with the run and the only writer of corrections;
:class:`~repro.catalog.feedback.FeedbackCorrector` is fed that pass's
errors and only remembers (EWMA smoothing, miss streaks) for its
re-ranking contract with :func:`~repro.catalog.fleet.plan_fleet`.  Pins:
the unit behaviour of both halves, the double-charge regression (a miss
costs an entry's quality once, corrector or not), the wrong-predictor
regression (an entry is charged only with the error of its own value), the
stationary-data property of ROADMAP 5(c), and the acceptance scenario: a
two-night pipeline run where night one is poisoned with a misestimate, the
reconcile pass fixes the catalog in place
(``etl_catalog_corrections_total`` > 0), and night two's estimation error
is strictly lower.
"""

import os

import pytest

from repro.algebra.blocks import analyze
from repro.catalog import (
    FeedbackCorrector,
    StatisticsCatalog,
    WorkflowSigner,
    plan_fleet,
    prediction_errors,
    reconcile_run,
)
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.framework.pipeline import StatisticsPipeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import record_run_metrics
from repro.obs.trace import Tracer
from repro.workloads import case

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


def errors_of(signer, estimates, actuals):
    """The error stream a catalog-less night feeds the corrector."""
    return {
        key: err
        for _se, key, _entry, err in prediction_errors(signer, actuals, estimates)
    }


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


class TestCorrectorUnit:
    def test_accurate_predictions_correct_nothing(self):
        _, signer, selection, run = observe()
        catalog = seeded_catalog(signer, selection, run)
        before = dict(catalog.entries)
        corrector = FeedbackCorrector()
        report = reconcile_run(
            catalog, signer, run.observations, run.se_sizes, [],
            now=NOW, corrector=corrector,
        )
        assert report.feedback.observed > 0
        assert report.drifted == [] and report.feedback.flagged == []
        assert report.feedback.mean_rel_error == 0.0
        assert catalog.entries == before

    def test_misestimate_corrects_entry_in_place(self):
        _, signer, selection, run = observe()
        catalog = seeded_catalog(signer, selection, run)
        size_before = len(catalog)
        poisoned = poison(catalog, base_only=False)
        corrector = FeedbackCorrector()
        report = reconcile_run(
            catalog, signer, run.observations, run.se_sizes, [],
            workflow="wf11", run_id="r1", now=NOW + 10, corrector=corrector,
        )
        assert len(report.drifted) == len(poisoned)
        assert len(catalog) == size_before  # in place, never new entries

        corrected = 0
        for se, rows in run.se_sizes.items():
            key = signer.statistic_key(Statistic.card(se))
            entry = catalog.get(key)
            if entry is None:
                continue
            corrected += 1
            assert entry.value() == rows  # refreshed to the observed value
            # penalized for the miss -- once: 0.5 * 1.0 + 0.5 * (1 - 0.9)
            assert entry.quality == pytest.approx(0.55)
            assert entry.run_id == "r1"
            # the corrector remembers the same error and wrote nothing
            assert corrector.errors[key] == pytest.approx(0.9)
            assert corrector.streaks[key] == 1
        assert corrected == len(poisoned)

    def test_corrector_holds_no_catalog_and_no_second_threshold(self):
        with pytest.raises(TypeError):
            FeedbackCorrector(StatisticsCatalog())
        wfcase = case(11)
        with pytest.raises(TypeError):
            StatisticsPipeline(wfcase.build(), solver="greedy").run_once(
                wfcase.tables(scale=0.05, seed=7), drift_threshold=0.5
            )

    def test_ewma_smoothing_and_streaks(self):
        _, signer, selection, run = observe()
        corrector = FeedbackCorrector(smoothing=0.5)
        se = next(iter(run.se_sizes))
        key = signer.statistic_key(Statistic.card(se))
        actual = {se: run.se_sizes[se]}

        corrector.observe_run(
            errors_of(signer, {se: run.se_sizes[se] * 2}, actual)
        )
        first = corrector.errors[key]
        assert first > corrector.threshold
        assert corrector.streaks[key] == 1
        assert not corrector.should_reobserve(key) or first > 0.25

        corrector.observe_run(errors_of(signer, dict(actual), actual))
        # EWMA halves toward zero; an accurate run resets the streak
        assert corrector.errors[key] == pytest.approx(first / 2)
        assert corrector.streaks[key] == 0

    def test_streak_flags_reobservation(self):
        _, signer, selection, run = observe()
        corrector = FeedbackCorrector(reobserve_streak=2)
        se = next(iter(run.se_sizes))
        key = signer.statistic_key(Statistic.card(se))
        wrong = errors_of(
            signer, {se: run.se_sizes[se] * 3}, {se: run.se_sizes[se]}
        )

        corrector.observe_run(wrong)
        assert corrector.streaks[key] == 1
        report = corrector.observe_run(wrong)
        assert corrector.streaks[key] == 2
        assert corrector.should_reobserve(key)
        assert key in report.flagged

    def test_priority_is_smoothed_error(self):
        corrector = FeedbackCorrector()
        corrector.errors["k1"] = 0.8
        assert corrector.priority("k1") == 0.8
        assert corrector.priority("unknown") == 0.0
        assert corrector.priority(None) == 0.0

    def test_metrics_and_describe(self, tmp_path):
        wfcase, sources, catalog, poisoned = poisoned_wf11(tmp_path / "c.json")
        registry = MetricsRegistry()
        report = night(
            wfcase, sources, catalog, "n1", feedback=FeedbackCorrector()
        )
        record_run_metrics(registry, report)
        labels = dict(workflow=wfcase.build().name, backend="columnar")
        # every reconcile series comes off the report, once
        assert report.corrections == len(report.drift.drifted) == len(poisoned)
        for name, expected in (
            ("etl_catalog_corrections_total", report.corrections),
            ("etl_catalog_drifted_total", len(report.drift.drifted)),
            ("catalog_stale_marked_total", report.drift.stale_marked),
            ("catalog_max_rel_error", report.drift.max_rel_error),
            ("feedback_mean_rel_error", report.feedback.mean_rel_error),
        ):
            assert registry.get(name).value(**labels) == pytest.approx(expected)
        for duplicate in ("feedback_corrections_total", "catalog_drifted_total"):
            assert registry.get(duplicate) is None
        assert "drifted" in report.drift.describe()
        assert "prediction(s) checked" in report.feedback.describe()
        assert report.feedback.describe() in report.describe()

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            FeedbackCorrector(smoothing=0.0)


class TestOneCharge:
    """A night is compared with what it believed once."""

    def test_corrector_does_not_charge_a_miss_twice(self, tmp_path):
        outcomes = []
        for label, corrector in (("control", None), ("both", FeedbackCorrector())):
            wfcase, sources, catalog, poisoned = poisoned_wf11(
                tmp_path / f"{label}.json"
            )
            night(wfcase, sources, catalog, "n1", feedback=corrector)
            truth = dict(
                ground_truth_cardinalities(analyze(wfcase.build()), sources)
            )
            entries = [catalog.get(key) for key in poisoned]
            for entry in entries:
                assert entry.run_id == "n1"
                assert entry.value() == truth[entry.statistic().se]
                assert entry.usable(entry.observed_at, catalog.ttl, catalog.min_quality)
            night2 = night(wfcase, sources, catalog, "n2", feedback=corrector)
            outcomes.append(
                (
                    [entry.quality for entry in entries],
                    night2.catalog_hits,
                    sorted(map(repr, night2.tapped)),
                )
            )
        control, both = outcomes
        assert control[0] == [pytest.approx(0.55)] * len(control[0])
        assert both == control

    def test_entry_is_charged_only_with_its_own_error(self):
        # a stale cardinality entry that is *right* tonight, while the
        # previous cycle's size for the same SE is 2x off: the corrector
        # hears the entry's error (0), and the entry is not penalised with
        # the other predictor's
        _, signer, selection, run = observe()
        catalog = seeded_catalog(signer, selection, run)
        se, rows = next(
            (se, rows)
            for se, rows in sorted(run.se_sizes.items(), key=repr)
            if rows > 1 and signer.statistic_key(Statistic.card(se)) in catalog
        )
        key = signer.statistic_key(Statistic.card(se))
        catalog.mark_stale([key])
        corrector = FeedbackCorrector()
        reconcile_run(
            catalog, signer, run.observations, run.se_sizes, [],
            now=NOW + 10, previous_sizes={se: rows * 2}, corrector=corrector,
        )
        entry = catalog.get(key)
        assert entry.quality == 1.0 and entry.value() == rows
        assert entry.run_id == "r0"
        assert corrector.errors[key] == 0.0

    def test_catalog_less_night_feeds_previous_cycle_errors(self):
        wfcase = case(11)
        pipeline = StatisticsPipeline(wfcase.build(), solver="greedy")
        corrector = FeedbackCorrector()
        first = pipeline.run_once(
            wfcase.tables(scale=0.2, seed=7), feedback=corrector
        )
        assert first.feedback.observed == 0  # nothing believed yet
        second = pipeline.run_once(
            wfcase.tables(scale=0.4, seed=7), feedback=corrector
        )
        assert second.drift is None and second.corrections == 0
        assert second.feedback.observed == len(corrector.errors) > 0
        assert second.feedback.max_rel_error > corrector.threshold
        assert "feedback" not in second.timings


@pytest.mark.property
@pytest.mark.parametrize("number", [2, 9, 11, 13])
def test_stationary_data_never_moves_an_entry_away_from_truth(number):
    """ROADMAP 5(c): on stationary data feedback never moves an estimate
    away from truth, never lowers a quality, and warm nights tap nothing."""
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
    corrector = FeedbackCorrector()

    def snapshot():
        return {
            key: (abs(entry.value() - truth[key]), entry.quality)
            for key, entry in catalog.entries.items()
            if key in truth
        }

    previous = None
    for index in range(4):
        report = pipeline.run_once(
            sources, stats_catalog=catalog, run_id=f"n{index}",
            feedback=corrector,
        )
        current = snapshot()
        assert current
        if previous is not None:
            assert report.tapped == [] and report.corrections == 0
            for key, (distance, quality) in previous.items():
                assert current[key][0] <= distance
                assert current[key][1] >= quality
        assert not any(
            corrector.should_reobserve(key) for key in corrector.errors
        )
        previous = current


class TestFleetReRanking:
    def test_flagged_keys_withdrawn_from_catalog_cover(self):
        workflow, signer, selection, run = observe()
        catalog = seeded_catalog(signer, selection, run)

        # warm catalog: nothing to observe tonight
        warm = plan_fleet([workflow], catalog, solver="greedy", now=NOW + 1)
        assert warm.workflows[0].observe == []

        # two badly-missed nights flag every cardinality for re-observation
        corrector = FeedbackCorrector()
        wrong = errors_of(
            signer,
            {se: rows * 10 for se, rows in run.se_sizes.items()},
            run.se_sizes,
        )
        corrector.observe_run(wrong)
        corrector.observe_run(wrong)

        replanned = plan_fleet(
            [workflow], catalog, solver="greedy",
            now=NOW + 4, feedback=corrector,
        )
        plan = replanned.workflows[0]
        assert plan.observe  # the poisoned entries are observed afresh
        flagged_keys = {
            key for key in corrector.errors if corrector.should_reobserve(key)
        }
        observed_keys = {
            signer.statistic_key(stat) for stat in plan.observe
        }
        assert observed_keys & flagged_keys

    def test_observe_list_ordered_most_misestimated_first(self):
        workflow, signer, selection, run = observe()
        corrector = FeedbackCorrector()
        # cold catalog: everything is observed; seed distinct priorities
        # straight into the corrector's smoothed-error state
        baseline = plan_fleet([workflow], solver="greedy", now=NOW)
        stats = baseline.workflows[0].observe
        assert len(stats) >= 2
        for rank, stat in enumerate(reversed(stats)):
            corrector.errors[signer.statistic_key(stat)] = 0.3 + 0.01 * rank

        ranked = plan_fleet(
            [workflow], solver="greedy", now=NOW, feedback=corrector
        )
        priorities = [
            corrector.priority(signer.statistic_key(stat))
            for stat in ranked.workflows[0].observe
        ]
        assert priorities == sorted(priorities, reverse=True)


class TestTwoNightSelfCorrection:
    """The acceptance scenario: a poisoned night self-corrects."""

    def test_injected_misestimate_corrected_on_night_two(self, tmp_path):
        wfcase, sources, catalog, _ = poisoned_wf11(tmp_path / "catalog.json")

        # both halves at their defaults: the drift scan corrects, the
        # corrector remembers
        corrector = FeedbackCorrector()
        reports, registries = [], []
        for run_id in ("n1", "n2"):
            registry = MetricsRegistry()
            report = night(
                wfcase,
                sources,
                catalog,
                run_id,
                feedback=corrector,
                tracer=Tracer(),
            )
            record_run_metrics(registry, report)
            reports.append(report)
            registries.append(registry)

        night1, night2 = reports
        # night one saw the poison and corrected the catalog in place
        assert night1.corrections > 0
        assert night1.feedback.mean_rel_error > 0.25
        assert registries[0].get("etl_catalog_corrections_total").value(
            workflow=wfcase.build().name, backend="columnar"
        ) == night1.corrections

        # night two runs on the corrected entries: strictly lower error,
        # nothing left to fix
        assert night2.feedback.mean_rel_error < night1.feedback.mean_rel_error
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


class TestSessionWiring:
    def test_session_feeds_every_run_through_the_corrector(self, tmp_path):
        from repro.framework.session import EtlSession

        wfcase = case(11)
        sources = wfcase.tables(scale=0.2, seed=7)
        catalog = StatisticsCatalog(tmp_path / "catalog.json")
        corrector = FeedbackCorrector()
        session = EtlSession(
            StatisticsPipeline(wfcase.build(), solver="greedy"),
            stats_catalog=catalog,
            feedback=corrector,
        )
        session.run(sources)
        session.run(sources)
        assert all(
            record.report.feedback is not None for record in session.history
        )
        # honest catalog entries, honest priors: nothing to correct
        assert all(record.report.corrections == 0 for record in session.history)
        assert session.history[1].report.feedback.observed > 0
