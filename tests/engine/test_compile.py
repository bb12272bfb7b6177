"""The block runtime: lowering, fused execution, and the signature cache.

The runtime's contract is *oracle equivalence* (``tests/oracle.py``): same
targets, same SE sizes, same tapped statistics, same reject rows -- under
every profile, chunked or whole-column.  On top of that this file pins the
cache behaviour: warm runs hit, plan changes miss, and a program -- which
reads no table -- still hits on a screened extract whose schema drifted.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.compile import (
    ChainIR,
    CompiledProfile,
    JoinIR,
    PlanCache,
    compile_block,
    lower_block,
)
from repro.engine.instrumentation import TapSet
from repro.engine.streaming import StreamingBackend
from repro.engine.table import Table
from repro.workloads import case
from tests.oracle import assert_matches_reference, reference_run

SCALE, SEED = 0.06, 23


def _setup(number):
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    sources = wfcase.tables(scale=SCALE, seed=SEED)
    return analysis, selection, sources


def compile_blocks(analysis, trees=None, **options):
    """Lower every block; returns the cache traffic it caused."""
    from types import SimpleNamespace

    hits = 0
    for block in analysis.blocks:
        tree = (trees or {}).get(block.name, block.initial_tree)
        _program, hit = compile_block(analysis, block, tree, **options)
        hits += hit
    return SimpleNamespace(
        cache_hits=hits, cache_misses=len(analysis.blocks) - hits
    )


def _floating_workflow():
    """Join + cross-input transform + pinned join: keeps a FloatingOp."""
    from repro.algebra.operators import (
        Join,
        Source,
        Target,
        Transform,
        UdfSpec,
        Workflow,
    )
    from repro.algebra.schema import Catalog

    cat = Catalog()
    cat.add_relation("O", {"pid": 5, "cid": 5, "amt": 100})
    cat.add_relation("P", {"pid": 5, "weight": 10})
    cat.add_relation("C", {"cid": 5, "cname": 10})
    o, p, c = Source(cat, "O"), Source(cat, "P"), Source(cat, "C")
    spanning = Transform(
        Join(o, p, "pid"),
        ("amt", "weight"),
        UdfSpec("scale", lambda vals: vals[0] * vals[1]),
        output_attr="scaled",
    )
    pinned = Join(spanning, c, "cid", reject_left=True)
    workflow = Workflow("float_wf", cat, [Target(pinned, "out")])
    sources = {
        "O": Table(
            {"pid": [1, 1, 2, 3], "cid": [1, 2, 2, 9], "amt": [10, 20, 30, 40]}
        ),
        "P": Table({"pid": [1, 2, 2, 3], "weight": [7, 8, 9, 1]}),
        "C": Table({"cid": [1, 2, 4], "cname": [5, 6, 7]}),
    }
    return analyze(workflow), sources


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------
class TestLowering:
    def test_chain_mirrors_stage_names(self):
        analysis, _, _ = _setup(21)
        for block in analysis.blocks:
            program = lower_block(block, block.initial_tree)
            chains = {}

            def collect(node):
                if isinstance(node, ChainIR):
                    chains[node.input_name] = node
                else:
                    collect(node.left)
                    collect(node.right)

            collect(program.root)
            assert set(chains) == set(block.inputs)
            for name, inp in block.inputs.items():
                chain = chains[name]
                stages = inp.stage_names()
                assert chain.base_name == inp.base_name
                assert chain.raw_se == SubExpression.of(stages[0])
                assert [s.se for s in chain.steps] == [
                    SubExpression.of(n) for n in stages[1:]
                ]
                # operator callables are pre-resolved at compile time
                for fused, step in zip(chain.steps, inp.steps):
                    assert fused.kind == step.kind
                    if step.kind != "project":
                        assert callable(fused.fn)

    def test_floating_ops_are_placed_and_execute_identically(self):
        # floating ops only survive into a Block when a cross-input
        # transform feeds a pinned (materialized-reject) join; build one
        analysis, sources = _floating_workflow()
        block = next(b for b in analysis.blocks if b.floating)
        program = lower_block(block, block.initial_tree)
        placed = 0

        def count(node):
            nonlocal placed
            if isinstance(node, JoinIR):
                placed += len(node.floating)
                count(node.left)
                count(node.right)

        count(program.root)
        assert placed == len(block.floating) > 0

        ref = reference_run(analysis, sources)
        assert ref.rejects  # the reject path actually fires
        assert all(table.num_rows > 0 for table in ref.rejects.values())
        for backend in ("columnar", "streaming", "vectorized"):
            run = BackendExecutor(analysis, backend).run(sources)
            assert_matches_reference(run, ref)

    def test_post_steps_carry_their_stage_ses(self):
        analysis, _, _ = _setup(21)
        for block in analysis.blocks:
            program = lower_block(block, block.initial_tree)
            assert [s.se for s in program.post] == block.post_stage_ses()


# ---------------------------------------------------------------------------
# profile knobs: the chunk size never changes what a run observes
# ---------------------------------------------------------------------------
class TestProfileEquivalence:
    def test_tiny_chunks_equal_the_oracle(self):
        class TinyChunks(StreamingBackend):
            profile = CompiledProfile(chunk_rows=5, canonical_output=True)

        backend = TinyChunks()
        analysis, selection, sources = _setup(9)
        ref = reference_run(analysis, sources, stats=selection.observed)
        run = BackendExecutor(analysis, backend).run(
            sources, taps=backend.make_taps(selection.observed)
        )
        assert_matches_reference(run, ref, selection.observed)


# ---------------------------------------------------------------------------
# the hash join: duplicated build keys, in order
# ---------------------------------------------------------------------------
def _dup_join_analysis(key_attrs, reject_left, reject_right):
    """``L JOIN R`` on ``key_attrs`` (shared names join implicitly)."""
    from repro.algebra.operators import Join, Source, Target, Workflow
    from repro.algebra.schema import Catalog

    cat = Catalog()
    cat.add_relation("L", {**{a: 10 for a in key_attrs}, "lv": 100})
    cat.add_relation("R", {**{a: 10 for a in key_attrs}, "rv": 100})
    join = Join(
        Source(cat, "L"), Source(cat, "R"), key_attrs[0],
        reject_left=reject_left, reject_right=reject_right,
    )
    return analyze(Workflow("dup_wf", cat, [Target(join, "out")]))


def _ordered_rows(table):
    """Rows in table order under sorted attribute order (profiles may
    differ in column order, never in row order)."""
    return list(table.rows(sorted(table.attrs)))


def _assert_same_order(analysis, sources, chunk_rows):
    class Chunked(StreamingBackend):
        profile = CompiledProfile(chunk_rows=chunk_rows, canonical_output=True)

    ref = reference_run(analysis, sources)
    run = BackendExecutor(analysis, Chunked()).run(sources)
    assert_matches_reference(run, ref)
    assert _ordered_rows(run.targets["out"]) == _ordered_rows(ref.targets["out"])
    for rej, table in ref.rejects.items():
        assert _ordered_rows(run.rejects[rej]) == _ordered_rows(table), rej
    return ref


REJECT_FLAGS = [(False, False), (True, False), (False, True), (True, True)]


class TestDuplicateBuildKeys:
    # build side R: key 2 three times, 1 twice, 3 once, 7 and 5 never probed;
    # probe side L: duplicates too, a None, and 9 / 4 that miss.  With
    # chunk_rows=2 key 2's probe rows (1, 3, 8) fall in three chunks.
    L_KEYS = [1, 2, None, 2, 3, 9, 1, 4, 2]
    R_KEYS = [2, 1, 2, 7, 2, 3, 1, 5]

    def _sources(self, key_attrs, l_keys, r_keys):
        left = {"lv": list(range(len(l_keys)))}
        right = {"rv": [100 + i for i in range(len(r_keys))]}
        for pos, attr in enumerate(key_attrs):
            # later key columns are a function of the first, so every
            # duplicate of the first column stays a duplicate of the tuple
            left[attr] = [k if pos == 0 or k is None else k % 2 for k in l_keys]
            right[attr] = [k if pos == 0 else k % 2 for k in r_keys]
        return {"L": Table(left), "R": Table(right)}

    @pytest.mark.parametrize("chunk_rows", [None, 2])
    @pytest.mark.parametrize("reject_left,reject_right", REJECT_FLAGS)
    @pytest.mark.parametrize("key_attrs", [("k",), ("k", "k2")])
    def test_rows_and_rejects_in_oracle_order(
        self, key_attrs, reject_left, reject_right, chunk_rows
    ):
        analysis = _dup_join_analysis(key_attrs, reject_left, reject_right)
        sources = self._sources(key_attrs, self.L_KEYS, self.R_KEYS)
        ref = _assert_same_order(analysis, sources, chunk_rows)
        # 1 hits twice x2 rows, 2 hits three times x3 rows, 3 once
        assert ref.targets["out"].num_rows == 2 * 2 + 3 * 3 + 1
        assert len(ref.rejects) == reject_left + reject_right
        assert all(t.num_rows > 0 for t in ref.rejects.values())

    @pytest.mark.parametrize("chunk_rows", [None, 2])
    @pytest.mark.parametrize("key_attrs", [("k",), ("k", "k2")])
    def test_empty_build_side_rejects_every_probe_row(self, key_attrs, chunk_rows):
        analysis = _dup_join_analysis(key_attrs, True, True)
        sources = self._sources(key_attrs, self.L_KEYS, [])
        ref = _assert_same_order(analysis, sources, chunk_rows)
        assert ref.targets["out"].num_rows == 0
        assert sorted(t.num_rows for t in ref.rejects.values()) == [0, len(self.L_KEYS)]

    @pytest.mark.parametrize("chunk_rows", [None, 3])
    @pytest.mark.parametrize("case_no", range(6))
    def test_seeded_random_key_multiplicities(self, case_no, chunk_rows):
        import os
        import random

        seed = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))
        rng = random.Random(1000 * seed + case_no)
        key_attrs = ("k", "k2") if case_no % 2 else ("k",)
        # a small domain repeats keys 1 / 2 / many times on both sides
        domain = [None, *range(rng.randint(2, 12))]
        l_keys = [rng.choice(domain) for _ in range(rng.randint(0, 25))]
        r_keys = [rng.choice(domain[1:]) for _ in range(rng.randint(0, 25))]
        analysis = _dup_join_analysis(key_attrs, *REJECT_FLAGS[case_no % 4])
        sources = self._sources(key_attrs, l_keys, r_keys)
        _assert_same_order(analysis, sources, chunk_rows)


class TestBuildSide:
    def test_unique_keys_allocate_no_buckets(self):
        from repro.engine.compile.runtime import _build_side

        last, earlier = _build_side({"k": [5, 3, 9]}, ("k",))
        assert last == {5: 0, 3: 1, 9: 2} and earlier == {}
        last, earlier = _build_side({"a": [1, 1], "b": [0, 1]}, ("a", "b"))
        assert last == {(1, 0): 0, (1, 1): 1} and earlier == {}
        assert _build_side({"k": []}, ("k",)) == ({}, {})

    def test_earlier_holds_only_duplicated_keys_ascending(self):
        from repro.engine.compile.runtime import _build_side

        col = [2, 1, 2, 7, 2, 3, 1, 5]
        last, earlier = _build_side({"k": col}, ("k",))
        assert last == {2: 4, 1: 6, 7: 3, 3: 5, 5: 7}
        assert earlier == {2: [0, 2], 1: [1]}  # d = 2 keys, last row excluded
        last, earlier = _build_side(
            {"a": col, "b": [k % 2 for k in col]}, ("a", "b")
        )
        assert earlier == {(2, 0): [0, 2], (1, 1): [1]}
        assert all(last[k] not in rows for k, rows in earlier.items())

    def test_unique_build_runs_no_collector_pass(self):
        """``zip``, ``range`` and one ``dict`` are the only containers a
        unique single-column build creates, so the cyclic collector's
        allocation counter never reaches a threshold."""
        import gc

        from repro.engine.compile.runtime import _build_side

        cols = {"k": list(range(100_000))}
        passes = []

        def on_gc(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            last, earlier = _build_side(cols, ("k",))
        finally:
            gc.callbacks.remove(on_gc)
        assert passes == []
        assert len(last) == 100_000 and not earlier


# ---------------------------------------------------------------------------
# the plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_warm_compile_is_all_hits(self):
        analysis, _, _ = _setup(21)
        cache = PlanCache()
        cold = compile_blocks(analysis, backend="columnar", cache=cache)
        assert cold.cache_misses == len(analysis.blocks)
        assert cold.cache_hits == 0
        warm = compile_blocks(analysis, backend="columnar", cache=cache)
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(analysis.blocks)

    def test_plan_change_is_a_miss_not_a_stale_hit(self):
        analysis, _, _ = _setup(9)
        block = next(b for b in analysis.blocks if len(b.inputs) >= 3)
        trees = [
            t
            for t in block.graph.enumerate_trees(limit=8)
            if repr(t) != repr(block.initial_tree)
        ]
        assert trees
        cache = PlanCache()
        compile_blocks(analysis, backend="columnar", cache=cache)
        replan = compile_blocks(
            analysis, {block.name: trees[0]}, backend="columnar", cache=cache
        )
        assert replan.cache_misses == 1
        assert replan.cache_hits == len(analysis.blocks) - 1

    def test_backend_and_chunking_key_separately(self, monkeypatch):
        import repro.engine.compile.cache as cache_module

        key_docs = []
        digest = cache_module.digest
        monkeypatch.setattr(
            cache_module, "digest", lambda doc: key_docs.append(doc) or digest(doc)
        )
        analysis, _, _ = _setup(1)
        cache = PlanCache()
        compile_blocks(analysis, backend="columnar", cache=cache)
        other = compile_blocks(
            analysis,
            backend="streaming",
            profile=CompiledProfile(chunk_rows=2048, canonical_output=True),
            cache=cache,
        )
        assert other.cache_hits == 0
        # the profile's two fields are all of it that reaches the key
        assert key_docs and all("gather" not in doc for doc in key_docs)
        assert {doc["chunk"] for doc in key_docs} == {None, 2048}

    def test_lru_eviction_is_bounded(self):
        analysis, _, _ = _setup(25)  # three blocks
        cache = PlanCache()
        cache.capacity = 2
        compile_blocks(analysis, backend="columnar", cache=cache)
        assert len(cache) == 2
        again = compile_blocks(analysis, backend="columnar", cache=cache)
        # with capacity below the block count a full recompile cannot be
        # all hits, but the cache never grows past its bound
        assert len(cache) == 2
        assert again.cache_misses > 0


# ---------------------------------------------------------------------------
# programs are data-free: schema drift the gate resolved reuses them
# ---------------------------------------------------------------------------
class TestDataFreePrograms:
    def test_clean_program_is_a_hit_on_the_coerced_extract(self):
        """A night whose extract renamed a column (the gate coerces it
        back) executes the programs compiled on the clean night: lowering
        reads no table, so there is nothing to evict, and the run equals
        the oracle on the survivors."""
        from repro.engine.faults import FaultPlan, FaultSpec
        from repro.framework.pipeline import StatisticsPipeline
        from repro.quality import ContractSet, QualityGate

        wfcase = case(25)
        sources = wfcase.tables(scale=SCALE, seed=SEED)
        pipeline = StatisticsPipeline(
            wfcase.build(), solver="greedy", backend="vectorized"
        )
        blocks = len(pipeline.analysis.blocks)
        gate = QualityGate(contracts=ContractSet.infer(sources))
        clean = pipeline.run_once(sources, quality=gate)
        assert clean.plan_cache_misses == blocks

        drifty = FaultPlan(
            (
                FaultSpec(
                    target="DimDate",
                    kind="column-rename",
                    column="month_id",
                    rename_to="month",
                ),
            ),
            seed=11,
        )
        night = pipeline.run_once(sources, quality=gate, faults=drifty)
        assert night.schema_drift  # the drift actually happened
        assert (night.plan_cache_hits, night.plan_cache_misses) == (blocks, 0)

        survivors = QualityGate(
            contracts=ContractSet.infer(sources)
        ).screen_sources(drifty.injector().apply_sources(sources))
        ref = reference_run(pipeline.analysis, survivors, stats=night.tapped)
        assert_matches_reference(night.run, ref, night.tapped)


# ---------------------------------------------------------------------------
# column-batch tap protocol
# ---------------------------------------------------------------------------
class TestObserveColumns:
    def test_batched_observation_equals_direct_table_statistics(self):
        from repro.core.statistics import StatKind

        _analysis, selection, sources = _setup(1)
        stats = selection.observed
        table = next(iter(sources.values()))
        taps = TapSet(stats)
        half = table.num_rows // 2
        cols = dict(table.columns)
        for se in {stat.se for stat in stats}:
            # two half batches: the accumulators must add up
            taps.observe_columns(
                se, half, {a: c[:half] for a, c in cols.items()}
            )
            taps.observe_columns(
                se,
                table.num_rows - half,
                {a: c[half:] for a, c in cols.items()},
            )
            taps.mark_streamed(se)
        got = taps.collect()
        for stat in stats:
            if stat.kind is StatKind.CARDINALITY:
                want = table.num_rows
            elif stat.kind is StatKind.HISTOGRAM:
                want = table.histogram(stat.attrs)
            else:
                want = len(set(table.rows(stat.attrs)))
            assert got.get(stat) == want, stat

    def test_missing_attr_raises(self):
        from repro.core.statistics import StatKind, Statistic
        from repro.engine.instrumentation import InstrumentationError

        se = SubExpression.of("T")
        stat = Statistic(StatKind.HISTOGRAM, se, ("missing",))
        taps = TapSet([stat])
        with pytest.raises(InstrumentationError, match="not live"):
            taps.observe_columns(se, 3, {"present": [1, 2, 3]})


# ---------------------------------------------------------------------------
# compile phase in the trace
# ---------------------------------------------------------------------------
class TestCompileTrace:
    def test_compile_span_records_cache_traffic(self):
        from repro.obs import Tracer
        from repro.obs.render import render_trace

        analysis, _, sources = _setup(1)
        ex = BackendExecutor(analysis, "vectorized")
        tracer = Tracer()
        ex.run(sources, tracer=tracer)
        # one compile span per block, under that block's task span
        cold = tracer.root.find(name="compile")
        assert len(cold) == len(analysis.blocks)
        assert all(s.attrs["cache_misses"] == 1 for s in cold)
        assert all(s.attrs["cache_hits"] == 0 for s in cold)
        assert sum(s.attrs["fused_ops"] for s in cold) > 0

        warm_tracer = Tracer()
        ex.run(sources, tracer=warm_tracer)
        warm = warm_tracer.root.find(name="compile")
        assert len(warm) == len(analysis.blocks)
        assert all(s.attrs["cache_hits"] == 1 for s in warm)
        assert all(s.attrs["cache_misses"] == 0 for s in warm)
        # trace show renders hit/miss even when one of them is zero
        text = render_trace(warm_tracer.root)
        assert "cache_hits=" in text and "cache_misses=0" in text

    def test_pipeline_surfaces_compile_span_under_execution(self):
        from repro.framework.pipeline import StatisticsPipeline
        from repro.obs import Tracer

        wfcase = case(1)
        pipeline = StatisticsPipeline(
            wfcase.build(), solver="greedy", backend="vectorized"
        )
        tracer = Tracer()
        pipeline.run_once(wfcase.tables(scale=SCALE, seed=SEED), tracer=tracer)
        spans = tracer.root.find(name="compile")
        assert spans and spans[0].duration is not None
