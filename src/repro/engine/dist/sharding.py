"""Shard planning for the multiprocess backend.

One block execution becomes ``k`` worker tasks.  The planner picks, per
block, how the input tables are split so that the per-shard observations
recompose *exactly* into the whole-table statistics:

``broadcast``
    The **spine** (largest base table) is cut into contiguous row ranges;
    every other input is replicated into each worker.  Row-local steps
    (filter / transform / project) commute with row sharding, so every
    plan point whose sub-expression contains the spine is a disjoint
    decomposition across shards -- counts and histogram buckets merge
    additively, distinct values merge by set union.  Points *without* the
    spine (a broadcast input's stages, a join of two broadcast subtrees)
    are computed identically in every worker; only shard 0 reports them.

``hash``
    Both inputs of a two-way step-free join are partitioned on the join
    key with a process-stable hash: every row lands in exactly one shard
    and co-located keys join completely there, so *every* point decomposes
    disjointly.  Chosen when the smaller input exceeds the broadcast
    threshold from :data:`DIST_COST_FACTORS`.

``single``
    One whole-table shard (shard count 1).  The correctness fallback for
    shapes row sharding cannot decompose: several inputs reading the same
    base table (a self-join would shard both occurrences at once).

The reject links of a join are never merged additively by the workers;
:func:`reject_join_keys` gives the parent (and workers) the key columns
needed to recompose them -- concatenation for a sharded probe/build side,
key-set intersection for a replicated one (a build row is globally
unmatched only if *no* shard matched its key).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.algebra.blocks import Block
from repro.algebra.expressions import AnySE, RejectSE, SubExpression
from repro.algebra.plans import JoinNode, Leaf, PlanTree
from repro.engine.table import Table

#: constants the sharded (multiprocess) backend's dispatch planner uses to
#: pick a per-block strategy.  A join input smaller than
#: ``broadcast_max_rows`` is cheaper to replicate into every worker than to
#: hash-partition (fork inheritance makes replication nearly free); above
#: it, both join inputs are hash-partitioned on the join key.  The
#: ``*_factor`` entries weigh the two strategies' per-row costs when the
#: cap alone does not decide (see :func:`plan_block_shards`), and
#: ``min_shard_rows`` stops over-sharding tiny tables.
DIST_COST_FACTORS: dict[str, float] = {
    "broadcast_max_rows": 50_000.0,
    "broadcast_build_factor": 1.5,  # per replicated build row, per shard
    "partition_scan_factor": 1.0,  # per row hashed + routed to its shard
    "merge_row_factor": 0.2,  # per output row folded back into the parent
    "min_shard_rows": 64.0,
}


@dataclass(frozen=True)
class ShardPlan:
    """How one block's inputs are split across ``shards`` workers."""

    strategy: str  # "broadcast" | "hash" | "single"
    shards: int
    spine: str | None = None  # broadcast: the sharded input's name
    key: tuple[str, ...] = ()  # hash: the partitioning join key


def plan_block_shards(
    block: Block,
    tree: PlanTree,
    env: dict[str, Table],
    shards: int,
    factors: dict[str, float],
) -> ShardPlan:
    """Pick the shard strategy for one block from the dist cost factors.

    ``factors`` may be a partial override; anything missing falls back to
    :data:`DIST_COST_FACTORS`.
    """
    factors = {**DIST_COST_FACTORS, **factors}
    sizes = {
        name: env[inp.base_name].num_rows
        for name, inp in block.inputs.items()
    }
    base_names = [inp.base_name for inp in block.inputs.values()]
    if shards <= 1:
        return ShardPlan(strategy="single", shards=1)
    if len(set(base_names)) < len(base_names):
        # two inputs over one base table: sharding the shared env entry
        # would shard both occurrences -- run whole-table instead
        return ShardPlan(strategy="single", shards=1)
    # deterministic spine: largest base table, name as the tie-break
    spine = max(sorted(sizes), key=lambda name: sizes[name])
    shards = _cap_shards(shards, sizes[spine], factors)
    if shards <= 1:
        return ShardPlan(strategy="single", shards=1)
    hash_key = _hash_partition_key(block, tree)
    if hash_key is not None:
        small = min(sizes.values())
        total = sum(sizes.values())
        broadcast_cost = (
            shards * factors["broadcast_build_factor"] * small
        )
        partition_cost = factors["partition_scan_factor"] * total
        if small > factors["broadcast_max_rows"] or (
            broadcast_cost > partition_cost
        ):
            return ShardPlan(strategy="hash", shards=shards, key=hash_key)
    return ShardPlan(strategy="broadcast", shards=shards, spine=spine)


def _cap_shards(shards: int, spine_rows: int, factors: dict[str, float]) -> int:
    """Keep at least ``min_shard_rows`` spine rows per worker.

    Dispatch and merge overhead dwarfs the work below that point, so tiny
    tables run on fewer shards (down to one).  A zero/absent factor
    disables the cap (the equivalence suites do this to exercise the
    multi-shard path on small fixtures).
    """
    floor = int(factors.get("min_shard_rows", 0))
    if floor <= 0:
        return shards
    return max(1, min(shards, spine_rows // floor))


def _hash_partition_key(block: Block, tree: PlanTree) -> tuple[str, ...] | None:
    """The join key to hash-partition on, or ``None`` if ineligible.

    Hash partitioning needs the key columns on the *base* tables (rows are
    routed before any step runs), so it only applies to a two-way join of
    step-free inputs.
    """
    if not isinstance(tree, JoinNode):
        return None
    if not (isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)):
        return None
    for inp in block.inputs.values():
        if inp.steps:
            return None
    return tuple(tree.key)


def shard_range(num_rows: int, shards: int, index: int) -> tuple[int, int]:
    """Contiguous row range ``[lo, hi)`` of shard ``index`` out of ``shards``.

    Ranges tile ``range(num_rows)`` in order (shard 0 first), sized within
    one row of each other; trailing shards may be empty for tiny tables.
    """
    base, extra = divmod(num_rows, shards)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


def stable_shard_of(values: tuple, shards: int) -> int:
    """Process-stable shard route for one key-value tuple.

    Built-in ``hash()`` is salted per process (``PYTHONHASHSEED``), so the
    route uses CRC-32 of the canonical repr instead -- identical in every
    worker and across runs.
    """
    payload = repr(values).encode("utf-8", "backslashreplace")
    return zlib.crc32(payload) % shards


def hash_partition_indexes(
    table: Table, key: tuple[str, ...], shards: int, index: int
) -> list[int]:
    """Row indexes of ``table`` routed to shard ``index``."""
    return [
        i
        for i, values in enumerate(table.rows(key))
        if stable_shard_of(values, shards) == index
    ]


def sharded_points(block: Block, tree: PlanTree, spine: str) -> set[AnySE]:
    """Plan points that decompose disjointly under broadcast sharding.

    Everything whose sub-expression contains the spine: the spine input's
    stage chain, every join node joining the spine's subtree, and the post
    steps (the block output always contains every input).  The complement
    is replicated -- identical in every worker, reported by shard 0 only.
    """
    points: set[AnySE] = set()
    for stage in block.inputs[spine].stage_names():
        points.add(SubExpression.of(stage))

    def walk(node: PlanTree) -> None:
        if isinstance(node, JoinNode):
            if spine in node.se.relations:
                points.add(node.se)
            walk(node.left)
            walk(node.right)

    walk(tree)
    points.update(block.post_stage_ses())
    return points


def reject_join_keys(tree: PlanTree) -> dict[RejectSE, tuple[str, ...]]:
    """Every reject link the tree can produce, mapped to its join key."""
    mapping: dict[RejectSE, tuple[str, ...]] = {}

    def walk(node: PlanTree) -> None:
        if not isinstance(node, JoinNode):
            return
        key = tuple(node.key)
        rej_key = key[0] if len(key) == 1 else key
        mapping[RejectSE(node.left.se, rej_key, node.right.se)] = key
        mapping[RejectSE(node.right.se, rej_key, node.left.se)] = key
        walk(node.left)
        walk(node.right)

    walk(tree)
    return mapping


def reject_is_sharded(rej: RejectSE, plan: ShardPlan) -> bool:
    """Whether this reject link's rows land in disjoint shards (concat)
    or replicated ones (key-set intersection, rows from shard 0)."""
    if plan.strategy == "hash":
        return True
    if plan.strategy == "broadcast":
        return plan.spine in rej.source.relations
    return True  # single: trivially exact


def concat_tables(tables: "list[Table]") -> Table:
    """Concatenate shard outputs in shard order (columns by name).

    Every shard reports an output table (possibly zero-row), so an empty
    list means the dispatch lost results -- better a loud error than an
    empty table silently entering the environment.
    """
    tables = [t for t in tables if t is not None]
    if not tables:
        raise ValueError("concat_tables needs at least one shard output")
    attrs = tables[0].attrs
    columns: dict[str, list] = {a: [] for a in attrs}
    for table in tables:
        for a in attrs:
            columns[a].extend(table.column(a))
    return Table.wrap(columns)


__all__ = [
    "ShardPlan",
    "concat_tables",
    "hash_partition_indexes",
    "plan_block_shards",
    "reject_is_sharded",
    "reject_join_keys",
    "shard_range",
    "sharded_points",
    "stable_shard_of",
]
