"""The streaming backend and the run-level tap semantics it relies on."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.algebra.operators import (
    Join,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
)
from repro.algebra.schema import Catalog
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor, available_backends
from repro.engine.faults import TransientFault
from repro.engine.instrumentation import TapSet
from repro.engine.scheduler import RetryPolicy
from repro.engine.table import Table
from repro.estimation.estimator import CardinalityEstimator
from repro.workloads import case
from tests.oracle import assert_matches_reference, reference_run

SE = SubExpression.of

#: the structural variety of the suite in a few members
SAMPLE = [1, 5, 9, 13, 17, 22, 23, 25, 28]


@pytest.mark.parametrize("number", SAMPLE)
def test_streaming_matches_oracle(number):
    """Targets, SE sizes and every observed statistic agree exactly."""
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    tables = wfcase.tables(scale=0.12, seed=7)

    ref = reference_run(analysis, tables, stats=selection.observed)
    streaming = BackendExecutor(analysis, "streaming").run(
        tables, taps=TapSet(selection.observed)
    )
    assert_matches_reference(streaming, ref, selection.observed)


def test_streaming_estimates_are_exact():
    wfcase = case(13)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    tables = wfcase.tables(scale=0.12, seed=9)
    run = BackendExecutor(analysis, "streaming").run(
        tables, taps=TapSet(selection.observed)
    )
    estimator = CardinalityEstimator(catalog, run.observations)
    from repro.engine.ground_truth import ground_truth_cardinalities

    truth = ground_truth_cardinalities(analysis, tables)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual)


def test_reordered_plan_supported():
    wfcase = case(9)
    analysis = analyze(wfcase.build())
    block = analysis.blocks[0]
    tables = wfcase.tables(scale=0.2, seed=3)
    alternative = block.graph.enumerate_trees()[1]
    trees = {block.name: alternative}
    alt = BackendExecutor(analysis, "streaming").run(tables, trees=trees)
    assert_matches_reference(alt, reference_run(analysis, tables, trees))


@pytest.mark.parametrize("backend", available_backends())
def test_shared_feed_is_counted_once(backend):
    """wf25's B2 and B3 both read all of ``B1.out``; the taps are
    additive, so the feed's statistics must come from one of them only."""
    wfcase = case(25)
    analysis = analyze(wfcase.build())
    consumers = [
        b for b in analysis.blocks
        if any(inp.base_name == "B1.out" for inp in b.inputs.values())
    ]
    assert len(consumers) == 2
    tables = wfcase.tables(scale=0.1, seed=5)
    shared = SE("B1.out")
    attr = next(iter(consumers[0].inputs["B1.out"].out_attrs))
    stats = [
        Statistic.card(shared),
        Statistic.hist(shared, attr),
        Statistic.distinct(shared, attr),
    ]
    run = BackendExecutor(analysis, backend).run(tables, taps=TapSet(stats))
    feed = run.env["B1.out"]
    assert run.observations.get(stats[0]) == feed.num_rows > 0
    assert run.observations.get(stats[1]) == feed.histogram((attr,))
    assert run.observations.get(stats[2]) == len(set(feed.rows((attr,))))


# ---------------------------------------------------------------------------
# a block that dies mid-stream
# ---------------------------------------------------------------------------
def _flaky_workflow(fail_calls: int):
    """O |x| P, then a post-join UDF that raises on its first
    ``fail_calls`` invocations *after* rows have streamed past the taps."""
    cat = Catalog()
    cat.add_relation("O", {"pid": 5, "amt": 100})
    cat.add_relation("P", {"pid": 5, "weight": 10})
    calls = {"n": 0}

    def scale(vals):
        calls["n"] += 1
        if calls["n"] <= fail_calls:
            raise TransientFault("lookup service hiccup")
        return vals[0] * vals[1]

    joined = Join(Source(cat, "O"), Source(cat, "P"), "pid")
    out = Transform(
        joined, ("amt", "weight"), UdfSpec("scale", scale),
        output_attr="scaled",
    )
    analysis = analyze(Workflow("flaky", cat, [Target(out, "out")]))
    sources = {
        "O": Table({"pid": [1, 1, 2, 3], "amt": [10, 20, 30, 40]}),
        "P": Table({"pid": [1, 2, 2, 4], "weight": [7, 8, 9, 1]}),
    }
    stats = [
        Statistic.card(SE("O")),
        Statistic.hist(SE("O"), "pid"),
        Statistic.distinct(SE("P"), "pid"),
    ]
    return analysis, sources, stats


@pytest.mark.parametrize("backend", ["columnar", "streaming", "vectorized"])
class TestMidStreamFailure:
    def test_failed_block_statistics_read_as_missing_not_zero(self, backend):
        analysis, sources, stats = _flaky_workflow(fail_calls=10**6)
        run = BackendExecutor(analysis, backend).run(
            sources, taps=TapSet(stats), retry=RetryPolicy(max_retries=0)
        )
        assert run.failures  # the block died after its raw points streamed
        assert len(run.observations) == 0
        assert SE("O") not in run.se_sizes

    def test_retried_block_counts_once(self, backend):
        analysis, sources, stats = _flaky_workflow(fail_calls=1)
        run = BackendExecutor(analysis, backend).run(
            sources,
            taps=TapSet(stats),
            retry=RetryPolicy(max_retries=1, base_delay=0.0, jitter=0.0),
        )
        assert not run.failures
        clean_analysis, _, _ = _flaky_workflow(fail_calls=0)
        ref = reference_run(clean_analysis, sources, stats=stats)
        assert_matches_reference(run, ref, stats)
