"""Optimizable-block analysis (Section 3.2.1).

The workflow DAG is cut into *optimizable blocks* -- maximal regions inside
which joins may be re-ordered.  Boundaries appear at:

- **materialized intermediate results**: :class:`Materialize` nodes, targets,
  and joins whose reject link is materialized (re-ordering would change the
  reject contents);
- **transformation operators** whose result is derived from a join of
  multiple relations *and* later used as a join key (the Figure 3 ``B_2``
  case);
- **aggregate UDF operators** and group-bys, which are blocking;
- any node whose output is consumed by more than one downstream operator
  (a shared intermediate result is implicitly materialized).

Inside a block, unary operators are *anchored*: the analysis pushes filters
(and single-origin transforms not touching join keys) down to the block
input whose attribute they reference.  This is ordinary predicate push-down
-- a canonicalization every cost-based optimizer performs before join
enumeration -- and it is what makes each block input a *stage chain*
``raw -> filter -> transform -> ...`` whose statistics the rule set of
Section 4 (S1/S2, P1/P2, U1/U2) can relate to raw-source statistics.

Transformation operators that genuinely depend on several inputs stay
*floating* above their anchor SE; if a later join uses their result as a
key, the cluster built so far is sealed into a block exactly as the paper
prescribes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.algebra.enumeration import JoinEdge, JoinGraph
from repro.algebra.expressions import RejectSE, SubExpression
from repro.algebra.operators import (
    Aggregate,
    AggregateUDF,
    Filter,
    Join,
    Materialize,
    Node,
    Project,
    Source,
    Target,
    Transform,
    Workflow,
    WorkflowError,
)
from repro.algebra.plans import JoinNode, Leaf, PlanTree, tree_ses


@dataclass(frozen=True)
class Step:
    """One anchored unary operator in a stage chain."""

    kind: str  # "filter" | "transform" | "project"
    node_id: int
    attrs: tuple[str, ...]
    result_attr: Optional[str]
    payload: str  # predicate / udf name, or "" for project
    out_attrs: tuple[str, ...]
    node: Node = field(compare=False, hash=False, repr=False, default=None)

    @property
    def is_transform(self) -> bool:
        return self.kind == "transform"


@dataclass(frozen=True)
class UpstreamLink:
    """Provenance of a block input that is another block's (post-boundary)
    output; enables the cross-block rules (G1/G2, pass-through)."""

    block_name: str
    kind: str  # "aggregate" | "aggregate_udf" | "materialize" | "shared" | "output"
    output_se: SubExpression
    output_attrs: tuple[str, ...]
    group_attrs: tuple[str, ...] = ()


class _InputHandle:
    """Mutable in-progress block input; named at block finalize time."""

    def __init__(
        self,
        base_name: str,
        base_node: Node,
        steps: tuple[Step, ...],
        upstream: Optional[UpstreamLink],
    ):
        self.base_name = base_name
        self.base_node = base_node
        self.steps = list(steps)
        self.upstream = upstream

    @property
    def out_attrs(self) -> tuple[str, ...]:
        if self.steps:
            return self.steps[-1].out_attrs
        return tuple(self.base_node.output_attrs())

    def final_name(self) -> str:
        if not self.steps:
            return self.base_name
        return f"{self.base_name}@{self.steps[-1].node_id}"

    def copy(self) -> "_InputHandle":
        return _InputHandle(
            self.base_name, self.base_node, tuple(self.steps), self.upstream
        )


@dataclass(frozen=True)
class BlockInput:
    """A finalized block input: a base feed plus its anchored stage chain."""

    name: str
    base_name: str
    steps: tuple[Step, ...]
    out_attrs: tuple[str, ...]
    raw_attrs: tuple[str, ...] = ()
    upstream: Optional[UpstreamLink] = None

    def stage_names(self) -> list[str]:
        """Names of every stage, raw feed first, final (= ``name``) last."""
        names = [self.base_name]
        for step in self.steps[:-1]:
            names.append(f"{self.base_name}@{step.node_id}")
        if self.steps:
            names.append(self.name)
        return names

    def stage_ses(self) -> list[SubExpression]:
        return [SubExpression.of(n) for n in self.stage_names()]

    def stage_attrs(self, index: int) -> tuple[str, ...]:
        """Output attributes available at stage ``index`` (0 = raw)."""
        if index == 0:
            return self.raw_attrs if self.raw_attrs else self.out_attrs
        return self.steps[index - 1].out_attrs


@dataclass(frozen=True)
class FloatingOp:
    """A transform/project that could not be anchored to a single input.

    ``anchor`` is the smallest input set whose join the op must follow.
    Floating ops are cardinality-neutral (rules U1/P1), so join enumeration
    ignores them; the engine applies them once the anchor is joined.
    """

    step: Step
    anchor: frozenset[str]


@dataclass
class Block:
    """One optimizable block: inputs, join graph, and the initial plan."""

    name: str
    inputs: dict[str, BlockInput]
    graph: JoinGraph
    initial_tree: PlanTree
    floating: tuple[FloatingOp, ...]
    post_steps: tuple[Step, ...] = ()
    materialized_rejects: tuple[RejectSE, ...] = ()
    pinned: bool = False

    # ------------------------------------------------------------------
    @property
    def output_name(self) -> str:
        return f"{self.name}.out"

    @property
    def join_se(self) -> SubExpression:
        """The SE of the full join (before post-steps)."""
        return SubExpression(frozenset(self.inputs))

    def relations_on(self, sources) -> set[str]:
        """Input and stage relation names fed by one of the base ``sources``."""
        names: set[str] = set()
        for name, inp in self.inputs.items():
            if inp.base_name in sources:
                names.add(name)
                names.update(inp.stage_names())
        return names

    def post_stage_names(self) -> list[str]:
        return [f"{self.name}:post@{s.node_id}" for s in self.post_steps]

    def post_stage_ses(self) -> list[SubExpression]:
        return [SubExpression.of(n) for n in self.post_stage_names()]

    @property
    def output_se(self) -> SubExpression:
        stages = self.post_stage_ses()
        return stages[-1] if stages else self.join_se

    @property
    def output_attrs(self) -> tuple[str, ...]:
        if self.post_steps:
            return self.post_steps[-1].out_attrs
        attrs: list[str] = []
        for inp in self.inputs.values():
            for a in inp.out_attrs:
                if a not in attrs:
                    attrs.append(a)
        for op in self.floating:
            for a in op.step.out_attrs:
                if a not in attrs:
                    attrs.append(a)
        return tuple(sorted(attrs))

    # ------------------------------------------------------------------
    def join_ses(self) -> list[SubExpression]:
        """ℰ restricted to joins: all connected input subsets."""
        return self.graph.enumerate_ses()

    def stage_ses(self) -> list[SubExpression]:
        """SEs of every input stage chain plus output post stages."""
        out: list[SubExpression] = []
        for name in sorted(self.inputs):
            out.extend(self.inputs[name].stage_ses())
        out.extend(self.post_stage_ses())
        return out

    def universe(self) -> list[SubExpression]:
        """Every SE whose cardinality the optimizer must be able to cost."""
        seen: set[SubExpression] = set()
        ordered: list[SubExpression] = []
        for se in self.stage_ses() + self.join_ses():
            if se not in seen:
                seen.add(se)
                ordered.append(se)
        return ordered

    def observable_ses(self) -> set[SubExpression]:
        """SEs produced by the *initial* plan (instrumentable points)."""
        out = set(self.stage_ses())
        out.update(tree_ses(self.initial_tree))
        return out

    def se_attrs(self, se: SubExpression) -> tuple[str, ...]:
        """Attributes available on an SE's rows."""
        post_names = self.post_stage_names()
        if se.is_base and se.base_name in post_names:
            idx = post_names.index(se.base_name)
            return self.post_steps[idx].out_attrs
        attrs: set[str] = set()
        for rel in se.relations:
            inp = self.inputs.get(rel)
            if inp is not None:
                attrs.update(inp.out_attrs)
            else:
                attrs.update(self._stage_attrs_by_name(rel))
        for op in self.floating:
            if op.anchor <= se.relations:
                attrs.update(op.step.out_attrs)
        return tuple(sorted(attrs))

    def _stage_attrs_by_name(self, name: str) -> tuple[str, ...]:
        for inp in self.inputs.values():
            stage_names = inp.stage_names()
            if name in stage_names:
                return inp.stage_attrs(stage_names.index(name))
        raise WorkflowError(f"unknown SE member {name!r} in block {self.name}")

    @property
    def n_way(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class BoundaryOp:
    """A blocking/materializing operator between blocks."""

    node: Node
    input_name: str
    output_name: str


@dataclass
class BlockAnalysis:
    """The full decomposition of a workflow into blocks and boundaries."""

    workflow: Workflow
    blocks: list[Block]
    boundaries: list[BoundaryOp]
    targets: dict[str, str] = field(default_factory=dict)  # target name -> env name

    def block(self, name: str) -> Block:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(name)

    def describe(self) -> str:
        lines = [f"Analysis of {self.workflow.name!r}: {len(self.blocks)} block(s)"]
        for blk in self.blocks:
            lines.append(
                f"  {blk.name}: {blk.n_way}-way"
                f" inputs={sorted(blk.inputs)} pinned={blk.pinned}"
                f" plan={blk.initial_tree!r}"
            )
        for b in self.boundaries:
            lines.append(f"  boundary {b.node.label}: {b.input_name} -> {b.output_name}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# analysis implementation
# ---------------------------------------------------------------------------


class _TLeaf:
    def __init__(self, handle: _InputHandle):
        self.handle = handle


class _TJoin:
    def __init__(self, left, right, attrs: tuple[str, ...]):
        self.left = left
        self.right = right
        self.attrs = tuple(attrs)


class _Cluster:
    """An in-progress optimizable block."""

    def __init__(self):
        self.handles: list[_InputHandle] = []
        self.edges: list[tuple[_InputHandle, _InputHandle, str]] = []
        self.tree = None  # _TLeaf / _TJoin
        self.floating: list[tuple[Step, frozenset]] = []  # (step, anchor handles ids)
        self.rejects: list[tuple] = []  # (side_tree, attr, other_tree)

    def owner_of(self, attr: str) -> Optional[_InputHandle]:
        owners = [h for h in self.handles if attr in h.out_attrs]
        if not owners:
            return None
        owners.sort(key=lambda h: h.base_name)
        return owners[0]

    def join_key_attrs(self) -> set[str]:
        return {attr for _u, _v, attr in self.edges}

    def floating_result_attrs(self) -> set[str]:
        return {
            step.result_attr
            for step, _ in self.floating
            if step.is_transform and step.result_attr
        }


_Feed = Union[_InputHandle, _Cluster]


class _Analyzer:
    def __init__(self, workflow: Workflow):
        self.workflow = workflow
        self.blocks: list[Block] = []
        self.boundaries: list[BoundaryOp] = []
        self.targets: dict[str, str] = {}
        self._feeds: dict[int, _Feed] = {}
        self._counter = itertools.count(1)
        self._consumers = {
            nid: len(nodes) for nid, nodes in workflow.consumers().items()
        }
        # workflow-local node ids: identical workflows analyze to identical
        # stage / boundary names regardless of global construction order
        self._local_ids = {
            node.node_id: i for i, node in enumerate(workflow.nodes())
        }

    # -- feed helpers ---------------------------------------------------
    def _next_block_name(self) -> str:
        return f"B{next(self._counter)}"

    def _leaf_cluster(self, handle: _InputHandle) -> _Cluster:
        # copy the handle: source feeds are memoized and may be shared by
        # several blocks; push-down must not leak across them
        handle = handle.copy()
        cluster = _Cluster()
        cluster.handles.append(handle)
        cluster.tree = _TLeaf(handle)
        return cluster

    def _finalize(self, feed: _Feed) -> tuple[Block, _InputHandle]:
        """Seal a feed into a Block; return the block and its output handle."""
        cluster = feed if isinstance(feed, _Cluster) else self._leaf_cluster(feed)
        name = self._next_block_name()

        # assign final names
        names: dict[int, str] = {}
        used: set[str] = set()
        for handle in cluster.handles:
            candidate = handle.final_name()
            while candidate in used:
                candidate = candidate + "'"
            used.add(candidate)
            names[id(handle)] = candidate

        inputs = {
            names[id(h)]: BlockInput(
                name=names[id(h)],
                base_name=h.base_name,
                steps=tuple(h.steps),
                out_attrs=tuple(h.out_attrs),
                raw_attrs=tuple(h.base_node.output_attrs()),
                upstream=h.upstream,
            )
            for h in cluster.handles
        }

        def to_tree(t) -> PlanTree:
            if isinstance(t, _TLeaf):
                return Leaf(names[id(t.handle)])
            return JoinNode(to_tree(t.left), to_tree(t.right), t.attrs)

        tree = to_tree(cluster.tree)
        edges = {
            JoinEdge(names[id(u)], names[id(v)], attr)
            for u, v, attr in cluster.edges
        }
        # Equi-join transitive closure: the *declared* join predicates induce
        # equivalence classes of (input, attr) columns; inputs inside one
        # class can join pairwise.  Same-named columns that no predicate
        # equates (e.g. two unrelated status_id foreign keys) stay apart.
        for attr in {e.attr for e in edges}:
            adjacency: dict[str, set[str]] = {}
            for e in edges:
                if e.attr != attr:
                    continue
                adjacency.setdefault(e.u, set()).add(e.v)
                adjacency.setdefault(e.v, set()).add(e.u)
            seen: set[str] = set()
            for start in sorted(adjacency):
                if start in seen:
                    continue
                component = {start}
                frontier = [start]
                while frontier:
                    for nxt in adjacency[frontier.pop()] - component:
                        component.add(nxt)
                        frontier.append(nxt)
                seen |= component
                for u, v in itertools.combinations(sorted(component), 2):
                    edges.add(JoinEdge(u, v, attr))
        graph = JoinGraph(sorted(inputs), sorted(edges, key=lambda e: (e.u, e.v, e.attr)))

        floating = tuple(
            FloatingOp(step, frozenset(names[hid] for hid in anchor))
            for step, anchor in cluster.floating
        )
        rejects = tuple(
            RejectSE(to_tree(side).se, attr, to_tree(other).se)
            for side, attr, other in cluster.rejects
        )

        block = Block(
            name=name,
            inputs=inputs,
            graph=graph,
            initial_tree=tree,
            floating=floating,
            materialized_rejects=rejects,
            pinned=bool(rejects),
        )
        self.blocks.append(block)
        out_handle = _InputHandle(
            base_name=block.output_name,
            base_node=_BlockOutputNode(block),
            steps=(),
            upstream=UpstreamLink(
                block_name=block.name,
                kind="output",
                output_se=block.output_se,
                output_attrs=block.output_attrs,
            ),
        )
        return block, out_handle

    # -- node visitors ----------------------------------------------------
    def feed(self, node: Node) -> _Feed:
        if node.node_id in self._feeds:
            return self._feeds[node.node_id]
        feed = self._compute_feed(node)
        # shared intermediate results are implicit materialization points
        if self._consumers.get(node.node_id, 0) > 1 and not isinstance(node, Source):
            block, handle = self._finalize(feed)
            feed = handle
        self._feeds[node.node_id] = feed
        return feed

    def _compute_feed(self, node: Node) -> _Feed:
        if isinstance(node, Source):
            return _InputHandle(node.name, node, (), None)
        if isinstance(node, (Filter, Transform, Project)):
            return self._unary(node)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, (Aggregate, AggregateUDF, Materialize, Target)):
            return self._boundary(node)
        raise WorkflowError(f"unknown node type {type(node).__name__}")

    def _make_step(self, node: Node) -> Step:
        local_id = self._local_ids[node.node_id]
        if isinstance(node, Filter):
            return Step(
                "filter", local_id, (node.attr,), None,
                node.predicate.name, tuple(node.output_attrs()), node,
            )
        if isinstance(node, Transform):
            return Step(
                "transform", local_id, node.input_attrs, node.result_attr,
                node.udf.name, tuple(node.output_attrs()), node,
            )
        if isinstance(node, Project):
            return Step(
                "project", local_id, tuple(node.attrs), None,
                "", tuple(node.output_attrs()), node,
            )
        raise WorkflowError(f"not a unary step: {node.label}")

    def _unary(self, node: Union[Filter, Transform, Project]) -> _Feed:
        upstream = self.feed(node.inputs[0])
        step = self._make_step(node)

        if isinstance(upstream, _InputHandle):
            return _InputHandle(
                upstream.base_name,
                upstream.base_node,
                tuple(upstream.steps) + (step,),
                upstream.upstream,
            )

        cluster = upstream
        if isinstance(node, Filter):
            owner = cluster.owner_of(node.attr)
            if owner is not None and not cluster.floating:
                # predicate push-down onto the owning input
                owner.steps.append(self._rescoped_step(step, owner))
                return cluster
            cluster.floating.append((step, self._anchor(cluster, step.attrs)))
            return cluster
        if isinstance(node, Transform):
            owners = {cluster.owner_of(a) for a in node.input_attrs}
            owners.discard(None)
            single = len(owners) == 1
            owner = next(iter(owners)) if single else None
            touches_join_key = bool(set(node.input_attrs) & cluster.join_key_attrs())
            if single and not touches_join_key and not cluster.floating:
                owner.steps.append(self._rescoped_step(step, owner))
                return cluster
            cluster.floating.append((step, self._anchor(cluster, step.attrs)))
            return cluster
        # Project over a cluster: cardinality-neutral, keep floating
        cluster.floating.append((step, self._anchor(cluster, step.attrs)))
        return cluster

    def _rescoped_step(self, step: Step, owner: _InputHandle) -> Step:
        """Re-scope a pushed-down step's output attrs to the owning input."""
        base = list(owner.out_attrs)
        if step.is_transform and step.result_attr and step.result_attr not in base:
            base.append(step.result_attr)
        if step.kind == "project":
            base = [a for a in base if a in step.attrs]
        return replace(step, out_attrs=tuple(base))

    def _anchor(self, cluster: _Cluster, attrs: tuple[str, ...]) -> frozenset:
        anchor: set[int] = set()
        for attr in attrs:
            for h in cluster.handles:
                if attr in h.out_attrs:
                    anchor.add(id(h))
                    break
        if not anchor:
            anchor = {id(h) for h in cluster.handles}
        return frozenset(anchor)

    def _join(self, node: Join) -> _Feed:
        left = self.feed(node.left)
        right = self.feed(node.right)

        key_attrs = tuple(node.key_attrs)
        left = self._seal_if_key_derived(left, key_attrs)
        right = self._seal_if_key_derived(right, key_attrs)
        rej_key = key_attrs[0] if len(key_attrs) == 1 else key_attrs

        if node.has_materialized_reject:
            # Pinned join: seal both sides, build a 2-input block.
            left_h = (
                left.copy()
                if isinstance(left, _InputHandle)
                else self._finalize(left)[1]
            )
            right_h = (
                right.copy()
                if isinstance(right, _InputHandle)
                else self._finalize(right)[1]
            )
            cluster = _Cluster()
            cluster.handles = [left_h, right_h]
            cluster.edges = [
                (left_h, right_h, attr) for attr in key_attrs
            ]
            lt, rt = _TLeaf(left_h), _TLeaf(right_h)
            cluster.tree = _TJoin(lt, rt, key_attrs)
            if node.reject_left:
                cluster.rejects.append((lt, rej_key, rt))
            if node.reject_right:
                cluster.rejects.append((rt, rej_key, lt))
            _block, handle = self._finalize(cluster)
            return handle

        left_c = left if isinstance(left, _Cluster) else self._leaf_cluster(left)
        right_c = right if isinstance(right, _Cluster) else self._leaf_cluster(right)

        merged = _Cluster()
        merged.handles = left_c.handles + right_c.handles
        merged.edges = left_c.edges + right_c.edges
        for attr in key_attrs:
            left_owner = left_c.owner_of(attr)
            right_owner = right_c.owner_of(attr)
            if left_owner is None or right_owner is None:
                raise WorkflowError(
                    f"join attribute {attr!r} is not anchored to any input"
                )
            merged.edges.append((left_owner, right_owner, attr))
        merged.floating = left_c.floating + right_c.floating
        merged.rejects = left_c.rejects + right_c.rejects
        merged.tree = _TJoin(left_c.tree, right_c.tree, key_attrs)
        return merged

    def _seal_if_key_derived(
        self, feed: _Feed, key_attrs: tuple[str, ...]
    ) -> _Feed:
        """Seal a cluster whose floating transform derives a join key
        (Section 3.2.1, the Figure 3 ``B_2`` boundary)."""
        if isinstance(feed, _Cluster) and (
            set(key_attrs) & feed.floating_result_attrs()
        ):
            # floating ops become post-steps of the sealed block
            post = tuple(step for step, _anchor in feed.floating)
            feed.floating = []
            _block, handle = self._finalize_with_post(feed, post)
            return handle
        return feed

    def _finalize_with_post(
        self, cluster: _Cluster, post: tuple[Step, ...]
    ) -> tuple[Block, _InputHandle]:
        block, handle = self._finalize(cluster)
        if post:
            sealed = replace_block_post(block, post)
            self.blocks[self.blocks.index(block)] = sealed
            handle.base_node = _BlockOutputNode(sealed)
            handle.upstream = UpstreamLink(
                block_name=sealed.name,
                kind="output",
                output_se=sealed.output_se,
                output_attrs=sealed.output_attrs,
            )
            return sealed, handle
        return block, handle

    def _boundary(self, node: Node) -> _Feed:
        upstream = self.feed(node.inputs[0])
        if isinstance(upstream, _Cluster):
            post = tuple(step for step, _ in upstream.floating)
            upstream.floating = []
            block, handle = self._finalize_with_post(upstream, post)
        else:
            block, handle = self._finalize(upstream)
        in_name = block.output_name

        if isinstance(node, Target):
            self.targets[node.name] = in_name
            self.boundaries.append(BoundaryOp(node, in_name, f"target:{node.name}"))
            return handle

        out_name = f"{node.label}#{self._local_ids[node.node_id]}"
        self.boundaries.append(BoundaryOp(node, in_name, out_name))
        kind = {
            Aggregate: "aggregate",
            AggregateUDF: "aggregate_udf",
            Materialize: "materialize",
        }[type(node)]
        upstream_link = UpstreamLink(
            block_name=block.name,
            kind=kind,
            output_se=block.output_se,
            output_attrs=block.output_attrs,
            group_attrs=getattr(node, "group_attrs", ()),
        )
        return _InputHandle(out_name, node, (), upstream_link)

    def run(self) -> BlockAnalysis:
        for target in self.workflow.targets:
            self.feed(target)
        return BlockAnalysis(
            workflow=self.workflow,
            blocks=self.blocks,
            boundaries=self.boundaries,
            targets=self.targets,
        )


class _BlockOutputNode(Node):
    """Synthetic node standing for a finalized block's output feed."""

    def __init__(self, block: Block):
        super().__init__([])
        self.block = block

    def output_attrs(self) -> tuple[str, ...]:
        return self.block.output_attrs


def replace_block_post(block: Block, post: tuple[Step, ...]) -> Block:
    """Return a copy of ``block`` with ``post`` appended as post-steps."""
    return replace(block, post_steps=block.post_steps + post)


def analyze(workflow: Workflow) -> BlockAnalysis:
    """Decompose a workflow into optimizable blocks (Section 3.2.1)."""
    return _Analyzer(workflow).run()


def with_plans(
    analysis: BlockAnalysis, trees: dict[str, PlanTree]
) -> BlockAnalysis:
    """Re-bind the *initial* plan of each block to a chosen join tree.

    The framework's cycle repeats with whatever plan the optimizer chose
    (Section 3.2 / Section 1): observability, union-division patterns and
    reject links must then be derived from the plan actually executed.
    Pinned blocks keep their plan; unknown block names are rejected.
    """
    from repro.algebra.plans import leaves as tree_leaves

    known = {block.name for block in analysis.blocks}
    unknown = set(trees) - known
    if unknown:
        raise WorkflowError(f"unknown blocks in plan override: {sorted(unknown)}")
    blocks: list[Block] = []
    for block in analysis.blocks:
        tree = trees.get(block.name)
        if tree is None or block.pinned or tree == block.initial_tree:
            blocks.append(block)
            continue
        if {leaf.name for leaf in tree_leaves(tree)} != set(block.inputs):
            raise WorkflowError(
                f"plan override for {block.name} does not cover its inputs"
            )
        blocks.append(replace(block, initial_tree=tree))
    return BlockAnalysis(
        workflow=analysis.workflow,
        blocks=blocks,
        boundaries=analysis.boundaries,
        targets=analysis.targets,
    )
