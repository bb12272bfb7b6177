"""Algorithm 1: generating the candidate statistics sets for a workflow.

This is the paper's Section 4 in executable form.  Starting from the
cardinality of every SE in ℰ (the *tobecomputed* seed), rules are applied
one level at a time; every statistic a rule demands is queued so its own
CSSs get generated, and a final identity pass (I1/I2) adds coarsening
alternatives **without minting new statistics** -- exactly the restriction
Section 4.2/4.3 imposes to avoid the exponential blow-up of histograms on
attribute supersets.

Rule inventory (Tables 2-5 plus Section 6 extensions):

====  ======================================================================
S1    ``|sigma_a(T)|``            from ``H_T^a``
S2    ``H_{sigma_a(T)}^b``        from ``H_T^{(a,b)}``
P1/P2 projection pass-through
J1    ``|T_12|``                  from ``H_{T1}^a . H_{T2}^a``
J2    ``H_{T12}^b``               from ``H_{T1}^{a,b}, H_{T2}^a`` (and the
      generalized multi-attribute / both-sides form)
J3    ``H_{T12}^a``               from ``H_{T1}^a, H_{T2}^a`` (b = join key)
J4/J5 the union-division method (Section 4.1.2, Equations 1-3)
G1    ``|G(T,a)|``                from ``|a_T|``
G2    ``H_{G(T,a)}^b``            from ``H_T^{(a)}`` when ``b`` within ``a``
U1/U2 transformation pass-through (black-box UDFs)
I1    ``|T|``                     from any ``H_T^a``
I2    ``H_T^a``                   from ``H_T^{(a,b)}``
D1    ``|a_T|``                   from ``H_T^a`` (distinct = bucket count)
B1    boundary pass-through (materialized output feeds next block)
FK    ``|e|`` = ``|e - parent|``  for unfiltered foreign-key lookups
====  ======================================================================

Trivial CSSs are implicit: a statistic is *observable* (member of ``S_O``)
when the initial plan can be instrumented to measure it (Section 3.2.5); the
selection layer charges the observation cost directly rather than storing a
self-referential CSS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import (
    AnySE,
    RejectJoinSE,
    RejectSE,
    SubExpression,
)
from repro.algebra.index import SEIndex
from repro.algebra.plans import JoinNode, JoinSplit
from repro.algebra.schema import Catalog
from repro.core.css import CSS, CssCatalog
from repro.core.statistics import StatKind, Statistic


@dataclass
class GeneratorOptions:
    """Knobs controlling CSS generation.

    ``union_division`` toggles the paper's novel J4/J5 rules (the Figure 9 /
    Figure 11 "with vs without union-division" comparison flips this).
    ``fk_rules`` enables lookup-join derivations from catalog metadata.
    """

    union_division: bool = True
    fk_rules: bool = True


@dataclass(frozen=True)
class _UDPattern:
    """One applicable union-division context inside an initial plan.

    The initial plan contains ``h = (e1 join_{kg} t3) join other``; for the
    SE ``e = e1 U other`` (not produced by that plan) rules J4/J5 apply.
    """

    e: SubExpression
    h: SubExpression
    t3: SubExpression
    kg: tuple[str, ...]
    e1: SubExpression
    other: SubExpression
    ke: tuple[str, ...]


class CssGenerator:
    """Runs Algorithm 1 over all optimizable blocks of a workflow."""

    def __init__(
        self, analysis: BlockAnalysis, options: GeneratorOptions | None = None
    ):
        self.analysis = analysis
        self.options = options or GeneratorOptions()
        self.catalog = CssCatalog()
        self.index = SEIndex(analysis)
        # intern table: (kind, se, attrs) -> the one Statistic of this
        # generation (queued when first asked for); its SEs are the index's
        # one object each (``SEIndex.one``), so keys match by identity
        self._stats: dict[tuple, Statistic] = {}
        self._queue: deque[Statistic] = deque()
        self._ud_patterns: dict[SubExpression, list[_UDPattern]] = {}

        for block in analysis.blocks:
            self._index_block(block)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_block(self, block: Block) -> None:
        for inp in block.inputs.values():
            for step in inp.steps:
                self.catalog.register_step(step)
        for step in block.post_steps:
            self.catalog.register_step(step)
        if self.options.union_division:
            for pattern in self._scan_ud(block):
                self._ud_patterns.setdefault(pattern.e, []).append(pattern)

    def _scan_ud(self, block: Block) -> list[_UDPattern]:
        patterns: list[_UDPattern] = []
        for h_node in self.index.tree_joins[block.name]:
            for g, other in (
                (h_node.left, h_node.right),
                (h_node.right, h_node.left),
            ):
                if not isinstance(g, JoinNode):
                    continue
                for e1, t3 in ((g.left, g.right), (g.right, g.left)):
                    ke = block.graph.crossing_key(
                        e1.se.relations, other.se.relations
                    )
                    if not ke:
                        continue
                    # soundness: dividing H_h by H_t3 on kg assumes t3
                    # meets e = e1 U other on exactly the kg attributes.
                    # a join edge between t3 and `other` on an attribute
                    # outside kg adds a constraint the division (and the
                    # reject complement) cannot see, so the pattern does
                    # not apply; an edge on a kg attribute is already
                    # accounted for by the per-group division
                    extra = set(
                        block.graph.crossing_key(
                            t3.se.relations, other.se.relations
                        )
                    ) - set(g.key)
                    if extra:
                        continue
                    one = self.index.one
                    patterns.append(
                        _UDPattern(
                            e=one(e1.se.union(other.se)),
                            h=one(h_node.se),
                            t3=one(t3.se),
                            kg=tuple(g.key),
                            e1=one(e1.se),
                            other=one(other.se),
                            ke=ke,
                        )
                    )
        return patterns

    # ------------------------------------------------------------------
    # SE helpers
    # ------------------------------------------------------------------
    def _block_of(self, se: AnySE) -> Block:
        return self.index.block_of(se)

    def se_attrs(self, se: AnySE) -> tuple[str, ...]:
        return self.index.se_attrs(se)

    def is_observable(self, stat: Statistic) -> bool:
        if not self.index.se_observable(stat.se):
            return False
        return set(stat.attrs) <= set(self.se_attrs(stat.se))

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    def _stat(self, kind: StatKind, se: AnySE, *attrs: str) -> Statistic:
        key = (kind, se, tuple(sorted(set(attrs))))
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = Statistic(*key)
            self._queue.append(stat)
            if self.is_observable(stat):
                self.catalog.mark_observable(stat)
            try:
                self.catalog.block_of[stat] = self._block_of(se).name
            except KeyError:
                pass
        return stat

    def _card(self, se: AnySE) -> Statistic:
        return self._stat(StatKind.CARDINALITY, se)

    def _hist(self, se: AnySE, *attrs: str) -> Statistic:
        return self._stat(StatKind.HISTOGRAM, se, *attrs)

    def _emit(self, target: Statistic, rule: str, inputs: list[Statistic], **ctx):
        context = tuple(sorted(ctx.items()))
        self.catalog.add(CSS(target, tuple(inputs), rule, context))

    # ------------------------------------------------------------------
    # main loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> CssCatalog:
        for block in self.analysis.blocks:
            for se in block.universe():
                stat = self._card(self.index.one(se))
                self.catalog.require(stat)
        while self._queue:
            stat = self._queue.popleft()
            self._expand(stat)
        self._identity_pass()
        return self.catalog

    def _expand(self, stat: Statistic) -> None:
        se = stat.se
        if isinstance(se, RejectSE):
            return  # only the trivial (observed) form exists
        if isinstance(se, RejectJoinSE):
            self._expand_reject_join(stat, se)
            return
        if stat.kind is StatKind.DISTINCT:
            # D1: distinct values = bucket count of the exact histogram
            self._emit(stat, "D1", [self._hist(se, *stat.attrs)])
            return
        if len(se) > 1:
            self._expand_join(stat, se)
            return
        self._expand_stage(stat, se)

    # -- join SEs ---------------------------------------------------------
    def _expand_join(self, stat: Statistic, se: SubExpression) -> None:
        block = self._block_of(se)
        for split in self.index.splits.get(se, []):
            if stat.is_cardinality:
                self._emit(
                    stat,
                    "J1",
                    [
                        self._hist(split.left, *split.key),
                        self._hist(split.right, *split.key),
                    ],
                    key=split.key,
                )
            else:
                self._emit_join_hist(stat, split)
        if stat.is_cardinality and self.options.fk_rules:
            for smaller in self._fk_reductions(block, se):
                self._emit(stat, "FK", [self._card(smaller)])
        for pattern in self._ud_patterns.get(se, []):
            self._emit_union_division(stat, pattern)

    def _emit_join_hist(self, stat: Statistic, split: JoinSplit) -> None:
        bs = set(stat.attrs)
        key = set(split.key)
        if bs == key:
            # J3: the join key's own distribution multiplies bucket-wise
            self._emit(
                stat,
                "J3",
                [
                    self._hist(split.left, *stat.attrs),
                    self._hist(split.right, *stat.attrs),
                ],
                key=split.key,
            )
            return
        left_attrs = set(self.se_attrs(split.left))
        right_attrs = set(self.se_attrs(split.right))
        carried_left = key | {b for b in bs if b in left_attrs}
        carried_right = key | {b for b in bs if b in right_attrs and b not in left_attrs}
        self._emit(
            stat,
            "J2",
            [
                self._hist(split.left, *sorted(carried_left)),
                self._hist(split.right, *sorted(carried_right)),
            ],
            key=split.key,
            bs=tuple(sorted(bs)),
        )

    def _fk_reductions(self, block: Block, se: SubExpression):
        """SEs whose cardinality equals |se| by FK-lookup metadata."""
        catalog: Catalog = self.analysis.workflow.catalog
        out = []
        # sorted: a frozenset's order follows the string-hash seed, and this
        # order is the catalog's, build_problem's and HiGHS's column order
        for parent_name in sorted(se.relations):
            parent = block.inputs.get(parent_name)
            if parent is None or parent.steps:
                continue  # filtered / transformed parents break the lookup
            rest = se.relations - {parent_name}
            if not rest or not block.graph.is_connected(rest):
                continue
            crossing = block.graph.crossing_key(frozenset({parent_name}), rest)
            if len(crossing) != 1:
                continue
            attr = crossing[0]
            child_ok = any(
                catalog.is_lookup_join(
                    block.inputs[c].base_name, parent.base_name, attr
                )
                for c in rest
                if c in block.inputs and attr in block.inputs[c].out_attrs
            )
            if child_ok:
                out.append(self.index.one(SubExpression(rest)))
        return out

    def _emit_union_division(self, stat: Statistic, p: _UDPattern) -> None:
        reject = RejectSE(p.e1, p.kg[0] if len(p.kg) == 1 else p.kg, p.t3)
        reject = self.index.one(reject)
        side_join = RejectJoinSE(reject, p.ke[0] if len(p.ke) == 1 else p.ke, p.other)
        side_join = self.index.one(side_join)
        if stat.is_cardinality:
            # J4: |e| = |H_h^kg / H_t3^kg| + |rej(e1) join other|
            self._emit(
                stat,
                "J4",
                [
                    self._hist(p.h, *p.kg),
                    self._hist(p.t3, *p.kg),
                    self._card(side_join),
                ],
                kg=p.kg,
            )
        else:
            bs = set(stat.attrs)
            if not bs <= set(self.se_attrs(p.h)):
                return
            # J5: H_e^b = marg_b(H_h^{kg,b} / H_t3^kg) + H_{rej join}^b
            self._emit(
                stat,
                "J5",
                [
                    self._hist(p.h, *sorted(bs | set(p.kg))),
                    self._hist(p.t3, *p.kg),
                    self._hist(side_join, *sorted(bs)),
                ],
                kg=p.kg,
                bs=tuple(sorted(bs)),
            )

    def _expand_reject_join(self, stat: Statistic, se: RejectJoinSE) -> None:
        key = (se.key,) if isinstance(se.key, str) else tuple(se.key)
        if stat.is_cardinality:
            self._emit(
                stat,
                "J1",
                [
                    self._hist(se.reject, *key),
                    self._hist(se.other, *key),
                ],
                key=key,
            )
            return
        bs = set(stat.attrs)
        if bs == set(key):
            self._emit(
                stat,
                "J3",
                [self._hist(se.reject, *key), self._hist(se.other, *key)],
                key=key,
            )
            return
        rej_attrs = set(self.se_attrs(se.reject))
        other_attrs = set(self.se_attrs(se.other))
        carried_rej = set(key) | {b for b in bs if b in rej_attrs}
        carried_other = set(key) | {
            b for b in bs if b in other_attrs and b not in rej_attrs
        }
        self._emit(
            stat,
            "J2",
            [
                self._hist(se.reject, *sorted(carried_rej)),
                self._hist(se.other, *sorted(carried_other)),
            ],
            key=key,
            bs=tuple(sorted(bs)),
        )

    # -- stage SEs ---------------------------------------------------------
    def _expand_stage(self, stat: Statistic, se: SubExpression) -> None:
        name = se.base_name
        if name in self.index.post:
            block, idx = self.index.post[name]
            prev = (
                block.post_stage_ses()[idx - 1] if idx > 0 else block.join_se
            )
            prev = self.index.one(prev)
            self._emit_step_rules(stat, block.post_steps[idx], prev)
            return
        block, inp, idx = self.index.stage[name]
        if idx > 0:
            prev = self.index.one(SubExpression.of(inp.stage_names()[idx - 1]))
            self._emit_step_rules(stat, inp.steps[idx - 1], prev)
            return
        # raw feed: cross-block provenance rules
        link = inp.upstream
        if link is None:
            return
        output_se = self.index.one(link.output_se)
        if link.kind in ("output", "materialize", "shared"):
            if stat.is_cardinality:
                self._emit(stat, "B1", [self._card(output_se)])
            elif set(stat.attrs) <= set(link.output_attrs):
                self._emit(
                    stat, "B1", [self._hist(output_se, *stat.attrs)]
                )
        elif link.kind == "aggregate":
            group = tuple(sorted(link.group_attrs))
            if stat.is_cardinality and group:
                self._emit(
                    stat,
                    "G1",
                    [self._stat(StatKind.DISTINCT, output_se, *group)],
                    group=group,
                )
            elif stat.is_histogram and set(stat.attrs) <= set(group):
                self._emit(
                    stat,
                    "G2",
                    [self._hist(output_se, *group)],
                    group=group,
                    bs=stat.attrs,
                )
        # aggregate_udf: black box -- only the trivial observation exists

    def _emit_step_rules(self, stat: Statistic, step, prev: SubExpression) -> None:
        if step.kind == "filter":
            attr = step.attrs[0]
            if stat.is_cardinality:
                self._emit(
                    stat, "S1", [self._hist(prev, attr)], step=step.node_id
                )
            else:
                joint = tuple(sorted(set(stat.attrs) | {attr}))
                prev_attrs = set(self.se_attrs(prev))
                if set(joint) <= prev_attrs:
                    self._emit(
                        stat,
                        "S2",
                        [self._hist(prev, *joint)],
                        step=step.node_id,
                        bs=stat.attrs,
                    )
        elif step.kind == "transform":
            changed = {step.result_attr} if step.result_attr else set(step.attrs)
            if stat.is_cardinality:
                self._emit(stat, "U1", [self._card(prev)], step=step.node_id)
            elif not (set(stat.attrs) & changed):
                prev_attrs = set(self.se_attrs(prev))
                if set(stat.attrs) <= prev_attrs:
                    self._emit(
                        stat, "U2", [self._hist(prev, *stat.attrs)],
                        step=step.node_id,
                    )
        elif step.kind == "project":
            if stat.is_cardinality:
                self._emit(stat, "P1", [self._card(prev)], step=step.node_id)
            elif set(stat.attrs) <= set(step.attrs):
                self._emit(
                    stat, "P2", [self._hist(prev, *stat.attrs)],
                    step=step.node_id,
                )

    # ------------------------------------------------------------------
    # identity pass (I1 / I2), restricted to already-generated statistics
    # ------------------------------------------------------------------
    def _identity_pass(self) -> None:
        stats = sorted(self._stats.values(), key=Statistic.sort_key)
        by_se: dict[AnySE, list[tuple[Statistic, set[str]]]] = {}
        for stat in stats:
            if stat.is_histogram:
                by_se.setdefault(stat.se, []).append((stat, set(stat.attrs)))
        for stat in stats:
            hists = by_se.get(stat.se, [])
            if stat.is_cardinality:
                for h, _ in hists:
                    self.catalog.add(CSS(stat, (h,), "I1"))
            elif stat.is_histogram:
                bs = set(stat.attrs)
                for h, attrs in hists:
                    if bs < attrs:
                        self.catalog.add(CSS(stat, (h,), "I2", (("bs", stat.attrs),)))


def generate_css(
    analysis: BlockAnalysis, options: GeneratorOptions | None = None
) -> CssCatalog:
    """Run Algorithm 1 and return the CSS catalog for the workflow."""
    return CssGenerator(analysis, options).run()
