"""Drift detection: reconcile_run keeps the catalog honest.

The acceptance scenario from the issue: inject a 10x shift into one
source's cardinality and verify the drift detector catches it, refreshes
the affected cardinality entries in place, marks only the sibling
histogram/distinct entries stale, and leaves every unrelated entry
untouched -- so the next run re-observes exactly the invalidated
statistics and nothing else.
"""

from repro.algebra.blocks import analyze
from repro.catalog import (
    StatisticsCatalog,
    WorkflowSigner,
    reconcile_run,
)
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.costs import CostModel
from repro.engine.backend import BackendExecutor, get_backend
from repro.framework.pipeline import StatisticsPipeline
from repro.workloads import case

NOW = 2_000_000.0


def grow_table(table, factor):
    """Repeat a table's rows ``factor`` times (the injected data shift)."""
    rows = list(table.rows())
    repeated = [rows[i % len(rows)] for i in range(len(rows) * factor)]
    return type(table).from_rows(table.attrs, repeated)


def observe(number, scale=0.2, seed=7, grow=None):
    """Run one instrumented execution; returns what reconcile_run needs."""
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    css = generate_css(analysis)
    selection = solve_greedy(build_problem(css, CostModel(workflow.catalog)))
    sources = wfcase.tables(scale=scale, seed=seed)
    if grow:
        name, factor = grow
        sources[name] = grow_table(sources[name], factor)
    backend = get_backend("columnar")
    run = BackendExecutor(analysis, backend).run(
        sources, taps=backend.make_taps(selection.observed)
    )
    signer = WorkflowSigner(analysis)
    return signer, selection, run


def test_first_run_admits_everything():
    signer, selection, run = observe(11)
    catalog = StatisticsCatalog()
    report = reconcile_run(
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
    assert len(report.added) == len(selection.observed)
    assert report.refreshed == [] and report.drifted == []
    assert len(catalog) == len(selection.observed)
    entry = next(iter(catalog.entries.values()))
    assert entry.workflow == "wf11" and entry.run_id == "r0"


def test_steady_state_refreshes_without_drift():
    signer, selection, run = observe(11)
    catalog = StatisticsCatalog()
    reconcile_run(
        catalog, signer, run.observations, run.se_sizes,
        selection.observed, now=NOW,
    )
    report = reconcile_run(
        catalog, signer, run.observations, run.se_sizes,
        selection.observed, now=NOW + 10,
    )
    assert report.added == []
    assert len(report.refreshed) == len(selection.observed)
    assert report.drifted == [] and report.stale_marked == 0
    assert report.max_rel_error == 0.0
    assert all(e.quality == 1.0 for e in catalog.entries.values())


def test_untapped_run_drift_scan_validates_entries():
    # second run taps nothing (catalog-covered); identical data means the
    # drift scan confirms every prediction and touches nothing
    signer, selection, run = observe(11)
    catalog = StatisticsCatalog()
    reconcile_run(
        catalog, signer, run.observations, run.se_sizes,
        selection.observed, now=NOW,
    )
    before = dict(catalog.entries)
    report = reconcile_run(
        catalog, signer, run.observations, run.se_sizes, [], now=NOW + 10,
    )
    assert report.touched == 0 and report.drifted == []
    assert catalog.entries == before


def test_tenfold_shift_caught_and_isolated():
    signer, selection, run = observe(11)
    catalog = StatisticsCatalog()
    reconcile_run(
        catalog, signer, run.observations, run.se_sizes,
        selection.observed, now=NOW, workflow="wf11", run_id="r0",
    )
    untouched = {
        key: entry
        for key, entry in catalog.entries.items()
        if "Trade" not in entry.repr
    }

    # night 2: Trade grows 10x; the catalog covers everything, so nothing
    # is tapped and only the drift scan sees the change
    signer2, _, run2 = observe(11, grow=("Trade", 10))
    report = reconcile_run(
        catalog, signer2, run2.observations, run2.se_sizes, [],
        now=NOW + 10, workflow="wf11", run_id="r1",
    )

    assert report.drifted, "a 10x shift must register as drift"
    assert report.max_rel_error >= 5.0
    # every drifted SE involves the shifted source
    assert all("Trade" in se_repr for se_repr in report.drifted)
    # cardinalities refreshed in place carry the true size and a
    # penalized quality score
    for se_repr in report.drifted:
        matches = [
            e
            for e in catalog.entries.values()
            if e.repr == f"|{se_repr}|"
        ]
        assert matches and matches[0].run_id == "r1"
        assert matches[0].quality < 1.0
    # sibling histogram/distinct entries forced out for re-observation
    assert report.stale_marked >= 1
    stale = [e for e in catalog.entries.values() if e.stale]
    assert stale
    assert all("Trade" in e.repr for e in stale)
    # unrelated entries are byte-identical
    for key, entry in untouched.items():
        assert catalog.entries[key] == entry


def test_next_run_reobserves_only_the_drifted():
    # end-to-end through the pipeline: after the shift, run 3 taps exactly
    # the entries the drift detector invalidated
    wfcase = case(11)
    catalog = StatisticsCatalog()
    pipeline = StatisticsPipeline(wfcase.build(), solver="greedy")
    pipeline.run_once(wfcase.tables(scale=0.2, seed=7), stats_catalog=catalog)

    grown = wfcase.tables(scale=0.2, seed=7)
    grown["Trade"] = grow_table(grown["Trade"], 10)
    report2 = pipeline.run_once(grown, stats_catalog=catalog)
    assert report2.tapped == []  # everything was covered...
    assert report2.drift is not None and report2.drift.drifted

    report3 = pipeline.run_once(grown, stats_catalog=catalog)
    assert report3.tapped, "stale entries must be re-observed"
    assert all("Trade" in repr(stat) for stat in report3.tapped)
    # and once re-observed the catalog is whole again
    report4 = pipeline.run_once(grown, stats_catalog=catalog)
    assert report4.tapped == []


def test_threshold_is_respected(monkeypatch):
    import repro.catalog.drift as drift

    signer, selection, run = observe(11)
    catalog = StatisticsCatalog()
    reconcile_run(
        catalog, signer, run.observations, run.se_sizes,
        selection.observed, now=NOW,
    )
    _, _, run2 = observe(11, grow=("Trade", 2))
    monkeypatch.setattr(drift, "DEFAULT_DRIFT_THRESHOLD", 100.0)
    lax = reconcile_run(
        catalog, signer, run2.observations, run2.se_sizes, [], now=NOW + 10,
    )
    assert lax.drifted == [] and lax.stale_marked == 0
