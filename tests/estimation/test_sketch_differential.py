"""Exact-vs-HLL differential over the 30-workflow TPC-DI suite.

Two guarantees make ``--distinct-sketch hll`` safe to turn on:

- **Identification is unchanged.**  The optimizer's chosen plans under
  sketched distinct tracking are identical to exact tracking for every
  suite workflow (the sketch only changes *how* distinct taps count, and
  the memory cost model's ``distinct_sketch_units`` cap never flips a
  plan choice here).
- **Estimates are accurate and backend-independent.**  Distinct taps
  forced onto every observable point stay within 5% relative error of
  the exact counts, and -- because the sketch hash is deterministic
  across processes -- every backend (columnar, streaming, vectorized,
  and the multiprocess backend at 1/2/4 shards) produces the *same* estimate, not merely an equally-close one.

The dist-marker chaos case at the bottom pins the no-double-merge
property: a worker killed mid-shard is retried, and the retried shard's
sketch replaces (never re-merges into) the dead attempt's contribution.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor, get_backend
from repro.estimation.sketches import SketchSpec
from repro.framework.pipeline import StatisticsPipeline
from repro.workloads import case, suite
from tests.oracle import variant_backend

pytestmark = pytest.mark.estimation

SCALE, SEED = 0.05, 11
HLL = SketchSpec(mode="hll")
#: forced-distinct accuracy bound from the acceptance criteria; the
#: default precision's typical error is ~0.8%, so 5% has ample headroom
MAX_REL_ERROR = 0.05

#: engine variants: the second element is the shard count, which only
#: multiprocess reads (``inline`` keeps this suite fork-free; the pool
#: path is pinned by the dist-marker chaos case below and tests/dist)
VARIANTS = [
    ("columnar", 1),
    ("streaming", 1),
    ("multiprocess", 1),
    ("multiprocess", 2),
    ("multiprocess", 4),
]


def _forced_distincts(selection, sources) -> list[Statistic]:
    """Distinct statistics on points the run demonstrably materializes.

    The greedy selection rarely picks a DISTINCT statistic on these
    workflows (observing the aggregate output's cardinality is always
    cheaper than the upstream distinct), so the accuracy differential
    taps its own: one per observed histogram's (SE, attrs) pair plus the
    first two attributes of every base source.
    """
    stats: list[Statistic] = []
    seen = set()

    def want(stat: Statistic) -> None:
        if stat not in seen:
            seen.add(stat)
            stats.append(stat)

    for stat in selection.observed:
        if stat.is_histogram:
            want(Statistic.distinct(stat.se, *stat.attrs))
    for name, table in sorted(sources.items()):
        se = SubExpression.of(name)
        for attr in sorted(table.attrs)[:2]:
            want(Statistic.distinct(se, attr))
    return stats


@pytest.fixture(scope="module")
def prepared():
    """Per-workflow (analysis, taps list, sources, exact reference)."""
    cache = {}

    def get(wfcase):
        if wfcase.number not in cache:
            workflow = wfcase.build()
            analysis = analyze(workflow)
            selection = solve_greedy(
                build_problem(
                    generate_css(analysis), CostModel(workflow.catalog)
                )
            )
            sources = wfcase.tables(scale=SCALE, seed=SEED)
            forced = _forced_distincts(selection, sources)
            tapped = list(selection.observed) + forced
            backend = get_backend("columnar")
            ref = BackendExecutor(analysis, backend).run(
                sources, taps=backend.make_taps(tapped)
            )
            # keep only the forced taps the run actually observed
            observed = [
                stat
                for stat in forced
                if ref.observations.maybe(stat) is not None
            ]
            cache[wfcase.number] = (analysis, tapped, observed, sources, ref)
        return cache[wfcase.number]

    return get


@pytest.mark.parametrize("wfcase", suite(), ids=lambda c: f"wf{c.number:02d}")
def test_chosen_plans_identical_under_hll(wfcase):
    sources = wfcase.tables(scale=SCALE, seed=SEED)
    trees = {}
    for mode in ("exact", "hll"):
        report = StatisticsPipeline(
            wfcase.build(), solver="greedy", distinct_sketch=mode
        ).run_once(sources)
        trees[mode] = {
            name: repr(tree) for name, tree in report.chosen_trees.items()
        }
        assert report.sketch_mode == mode
    assert trees["hll"] == trees["exact"]


@pytest.mark.parametrize("backend_name,shards", [
    ("streaming", 1), ("vectorized", 1), ("multiprocess", 2),
])
@pytest.mark.parametrize("number", [7, 17, 21])
def test_chosen_plans_identical_across_backends(number, backend_name, shards):
    # plan choice is backend-independent, so a representative sample
    # suffices here; observation-level equivalence below covers all 30
    wfcase = case(number)
    sources = wfcase.tables(scale=SCALE, seed=SEED)
    trees = {}
    for mode in ("exact", "hll"):
        kwargs = {"shards": shards} if backend_name == "multiprocess" else {}
        pipeline = StatisticsPipeline(
            wfcase.build(),
            solver="greedy",
            backend=backend_name,
            distinct_sketch=mode,
            **kwargs,
        )
        try:
            report = pipeline.run_once(sources)
        finally:
            pipeline.close()
        trees[mode] = {
            name: repr(tree) for name, tree in report.chosen_trees.items()
        }
    assert trees["hll"] == trees["exact"]


@pytest.mark.parametrize(
    "backend_name,shards", VARIANTS, ids=lambda v: str(v)
)
@pytest.mark.parametrize("wfcase", suite(), ids=lambda c: f"wf{c.number:02d}")
def test_distinct_estimates_accurate_and_backend_identical(
    wfcase, backend_name, shards, prepared
):
    analysis, tapped, observed, sources, ref = prepared(wfcase)
    assert observed, "no distinct tap materialized -- the test is vacuous"

    backend = variant_backend(backend_name, shards)
    run = BackendExecutor(analysis, backend).run(
        sources, taps=backend.make_taps(tapped, sketch=HLL)
    )

    for stat in observed:
        exact = ref.observations.get(stat)
        estimate = run.observations.maybe(stat)
        assert estimate is not None, stat
        err = abs(estimate - exact) / max(exact, 1)
        assert err <= MAX_REL_ERROR, (stat, exact, estimate)

    if backend_name != "columnar":
        # deterministic hashing: every backend lands the same registers,
        # so estimates agree exactly -- not merely within the bound
        columnar = get_backend("columnar")
        hll_ref = BackendExecutor(analysis, columnar).run(
            sources, taps=columnar.make_taps(tapped, sketch=HLL)
        )
        for stat in observed:
            assert run.observations.maybe(stat) == hll_ref.observations.maybe(
                stat
            ), stat


@pytest.mark.dist
class TestShardRetryNeverDoubleMerges:
    """A worker-kill retry must not fold the same shard's sketch twice.

    The dispatcher keys shard results by shard index (a retry *replaces*
    the dead attempt's slot) and the merge folds each slot exactly once,
    so the estimate under a mid-run worker kill is identical to a clean
    pool run -- any double merge would inflate registers and show up as
    a differing estimate here.
    """

    def test_worker_kill_estimate_unchanged(self):
        from repro.engine.dist import MultiprocessBackend
        from repro.engine.faults import FaultPlan, FaultSpec

        wfcase = case(21)
        workflow = wfcase.build()
        analysis = analyze(workflow)
        selection = solve_greedy(
            build_problem(generate_css(analysis), CostModel(workflow.catalog))
        )
        sources = wfcase.tables(scale=SCALE, seed=SEED)
        forced = _forced_distincts(selection, sources)
        tapped = list(selection.observed) + forced

        def pool_run(faults=None):
            backend = MultiprocessBackend(
                shards=2, inline=False, factors={"min_shard_rows": 0}
            )
            try:
                return BackendExecutor(analysis, backend).run(
                    sources,
                    taps=backend.make_taps(tapped, sketch=HLL),
                    faults=faults,
                )
            finally:
                backend.close()

        clean = pool_run()
        killed = pool_run(
            FaultPlan(
                (FaultSpec(target="B1", kind="worker-kill"),), seed=5
            ).injector()
        )
        assert killed.shard_stats["retries"] >= 1

        compared = 0
        for stat in forced:
            estimate = clean.observations.maybe(stat)
            if estimate is None:
                continue
            compared += 1
            assert killed.observations.maybe(stat) == estimate, stat
        assert compared, "no distinct tap materialized under sharding"
