"""Unit tests for the shard planner (row ranges, routing, strategies)."""

import pytest

from repro.algebra.blocks import analyze
from repro.engine.dist.sharding import (
    ShardPlan,
    hash_partition_indexes,
    plan_block_shards,
    reject_is_sharded,
    shard_range,
    stable_shard_of,
)
from repro.engine.table import Table
from repro.workloads import case, suite

NO_FLOOR = {"min_shard_rows": 0}


class TestShardRange:
    @pytest.mark.parametrize("rows", [0, 1, 2, 5, 7, 100, 101])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_ranges_tile_the_table(self, rows, shards):
        ranges = [shard_range(rows, shards, i) for i in range(shards)]
        # contiguous, in order, exactly covering [0, rows)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == rows
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        # balanced within one row
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_trailing_shards_may_be_empty(self):
        lo, hi = shard_range(2, 4, 3)
        assert lo == hi


class TestStableHash:
    def test_deterministic_and_in_range(self):
        for shards in (2, 3, 8):
            for value in [(1,), ("x", 2), (None,), (3.5, "y")]:
                route = stable_shard_of(value, shards)
                assert 0 <= route < shards
                assert route == stable_shard_of(value, shards)

    def test_spreads_keys(self):
        routes = {stable_shard_of((i,), 4) for i in range(100)}
        assert routes == {0, 1, 2, 3}

    def test_partition_indexes_are_disjoint_and_complete(self):
        table = Table({"k": [i % 13 for i in range(60)]})
        parts = [
            hash_partition_indexes(table, ("k",), 3, i) for i in range(3)
        ]
        seen = sorted(i for part in parts for i in part)
        assert seen == list(range(60))
        # co-located keys: every occurrence of a key lands in one shard
        for part in parts:
            keys = {table.column("k")[i] for i in part}
            for other in parts:
                if other is not part:
                    assert keys.isdisjoint(
                        {table.column("k")[i] for i in other}
                    )


def _block_env(number: int):
    wfcase = case(number)
    analysis = analyze(wfcase.build())
    env = wfcase.tables(scale=0.05, seed=7)
    return analysis, env


class TestPlanStrategy:
    def test_one_shard_is_single(self):
        analysis, env = _block_env(21)
        block = analysis.blocks[0]
        plan = plan_block_shards(
            block, block.initial_tree, env, 1, NO_FLOOR
        )
        assert plan == ShardPlan(strategy="single", shards=1)

    def test_broadcast_spine_is_largest_base(self):
        analysis, env = _block_env(21)
        block = analysis.blocks[0]
        plan = plan_block_shards(
            block, block.initial_tree, env, 4, NO_FLOOR
        )
        assert plan.strategy in ("broadcast", "hash")
        if plan.strategy == "broadcast":
            sizes = {
                name: env[inp.base_name].num_rows
                for name, inp in block.inputs.items()
            }
            assert sizes[plan.spine] == max(sizes.values())

    def test_min_shard_rows_caps_the_shard_count(self):
        analysis, env = _block_env(21)
        block = analysis.blocks[0]
        spine_rows = max(
            env[inp.base_name].num_rows for inp in block.inputs.values()
        )
        plan = plan_block_shards(
            block,
            block.initial_tree,
            env,
            64,
            {"min_shard_rows": spine_rows},  # one worker's worth of rows
        )
        assert plan.strategy == "single"
        capped = plan_block_shards(
            block,
            block.initial_tree,
            env,
            64,
            {"min_shard_rows": max(spine_rows // 3, 1)},
        )
        assert capped.shards <= 3

    def test_every_suite_block_gets_a_plan(self):
        for wfcase in suite():
            analysis = analyze(wfcase.build())
            env = wfcase.tables(scale=0.02, seed=3)
            for block in analysis.blocks:
                if any(
                    inp.base_name not in env
                    for inp in block.inputs.values()
                ):
                    continue  # fed by an upstream block, not a source
                plan = plan_block_shards(
                    block, block.initial_tree, env, 3, NO_FLOOR
                )
                assert plan.strategy in ("broadcast", "hash", "single")
                assert 1 <= plan.shards <= 3
                if plan.strategy == "broadcast":
                    assert plan.spine in block.inputs
                if plan.strategy == "hash":
                    assert plan.key

    def test_duplicate_base_tables_force_single(self):
        analysis, env = _block_env(21)
        block = analysis.blocks[0]
        inputs = list(block.inputs.values())
        if len(inputs) < 2:
            pytest.skip("needs a multi-input block")
        # alias two inputs onto one base table: a self-join shape
        import dataclasses

        first, second = list(block.inputs)[:2]
        aliased = dict(block.inputs)
        aliased[second] = dataclasses.replace(
            aliased[second], base_name=aliased[first].base_name
        )
        selfjoin = dataclasses.replace(block, inputs=aliased)
        plan = plan_block_shards(
            selfjoin, block.initial_tree, env, 4, NO_FLOOR
        )
        assert plan == ShardPlan(strategy="single", shards=1)


class TestRejectRouting:
    def test_hash_rejects_are_always_sharded(self):
        from repro.algebra.expressions import RejectSE, SubExpression

        rej = RejectSE(
            SubExpression.of("A"), "k", SubExpression.of("B")
        )
        plan = ShardPlan(strategy="hash", shards=2, key=("k",))
        assert reject_is_sharded(rej, plan)

    def test_broadcast_rejects_follow_the_spine(self):
        from repro.algebra.expressions import RejectSE, SubExpression

        plan = ShardPlan(strategy="broadcast", shards=2, spine="A")
        spine_side = RejectSE(
            SubExpression.of("A"), "k", SubExpression.of("B")
        )
        other_side = RejectSE(
            SubExpression.of("B"), "k", SubExpression.of("A")
        )
        assert reject_is_sharded(spine_side, plan)
        assert not reject_is_sharded(other_side, plan)
