"""Tests for the pay-as-you-go baseline (Section 7.3)."""

import pytest

from repro.algebra.blocks import BlockInput, Block, analyze
from repro.algebra.enumeration import JoinEdge, JoinGraph
from repro.algebra.plans import JoinNode, Leaf, internal_ses, leaves
from repro.baselines.payg import (
    CoverageScheduler,
    coverable_ses,
    min_executions,
    semantic_lower_bound,
    workflow_executions,
    workflow_lower_bound,
    workflow_schedule,
)
from repro.workloads import case


def make_block(names, edges, name="B1"):
    inputs = {
        m: BlockInput(m, m, (), tuple(sorted({e.attr for e in edges if m in (e.u, e.v)})),
                      tuple(sorted({e.attr for e in edges if m in (e.u, e.v)})))
        for m in names
    }
    graph = JoinGraph(list(names), edges)
    tree = Leaf(names[0])
    for m in names[1:]:
        key = graph.crossing_key(tree.se.relations, frozenset({m}))
        tree = JoinNode(tree, Leaf(m), key)
    return Block(name, inputs, graph, tree, floating=())


def clique_block(n):
    names = [f"T{i}" for i in range(n)]
    edges = [JoinEdge(a, b, "k") for i, a in enumerate(names) for b in names[i + 1:]]
    return make_block(names, edges)


def chain_block(n):
    names = [f"T{i}" for i in range(n)]
    edges = [JoinEdge(names[i], names[i + 1], f"k{i}") for i in range(n - 1)]
    return make_block(names, edges)


class TestMinExecutions:
    def test_paper_values(self):
        """The exact numbers quoted in Section 7.3."""
        assert min_executions(5) == 9
        assert min_executions(8) == 41  # workflow 21
        assert min_executions(6) == 14  # workflow 30

    def test_trivial_sizes(self):
        assert min_executions(1) == 1
        assert min_executions(2) == 1
        assert min_executions(3) == 3

    def test_monotone_in_n(self):
        values = [min_executions(n) for n in range(2, 10)]
        assert values == sorted(values)


class TestCoverableSes:
    def test_excludes_bases_and_final(self):
        block = clique_block(4)
        targets = coverable_ses(block)
        for se in targets:
            assert 1 < len(se) < 4
        assert len(targets) == 2**4 - 1 - 4 - 1  # all subsets minus bases/full

    def test_chain_counts(self):
        block = chain_block(4)
        # connected proper intervals of length 2..3: (2:3, 3:2)
        assert len(coverable_ses(block)) == 5

    def test_semantic_lower_bound_le_generic(self):
        for n in (4, 5, 6):
            block = chain_block(n)
            assert semantic_lower_bound(block) <= min_executions(n)


class TestCoverageScheduler:
    @pytest.mark.parametrize("factory,n", [
        (clique_block, 4), (clique_block, 5), (clique_block, 6),
        (chain_block, 4), (chain_block, 6),
    ])
    def test_schedule_covers_everything(self, factory, n):
        block = factory(n)
        schedule = CoverageScheduler(block).schedule()
        targets = set(coverable_ses(block))
        covered = set()
        for tree in schedule.trees:
            assert {leaf.name for leaf in leaves(tree)} == set(block.inputs)
            covered.update(internal_ses(tree))
        assert targets <= covered

    def test_schedule_respects_lower_bound(self):
        for n in (4, 5, 6):
            block = clique_block(n)
            schedule = CoverageScheduler(block).schedule()
            assert schedule.executions >= min_executions(n)

    def test_two_way_needs_single_run(self):
        block = clique_block(2)
        assert CoverageScheduler(block).schedule().executions == 1

    def test_chain_efficiency(self):
        """Chains have few SEs; the schedule should stay near the semantic
        bound, far below the generic formula."""
        block = chain_block(6)
        schedule = CoverageScheduler(block).schedule()
        assert schedule.executions <= 2 * semantic_lower_bound(block) + 2
        assert schedule.executions < min_executions(6)


class TestWorkflowLevel:
    def test_linear_workflows_need_one_execution(self):
        for number in (1, 2, 3, 4, 5, 6):
            analysis = analyze(case(number).build())
            assert workflow_executions(analysis) == 1

    def test_wf21_lower_bound_is_41(self):
        analysis = analyze(case(21).build())
        assert workflow_lower_bound(analysis) == 41

    def test_wf30_lower_bound_is_14(self):
        analysis = analyze(case(30).build())
        assert workflow_lower_bound(analysis) == 14

    def test_found_schedule_at_least_lower_bound_on_cliquish_blocks(self):
        analysis = analyze(case(21).build())
        found = workflow_executions(analysis)
        # the greedy schedule cannot beat the semantic bound of any block
        semantic = max(
            semantic_lower_bound(b, analysis.workflow.catalog)
            for b in analysis.blocks
        )
        assert found >= semantic

    def test_fk_semantics_reduce_executions(self):
        """Exploiting lookup metadata shrinks the coverage requirement
        (the Section 7.3 remark)."""
        analysis = analyze(case(11).build())
        plain = workflow_executions(analysis, use_fk=False)
        with_fk = workflow_executions(analysis, use_fk=True)
        assert with_fk <= plain

    def test_workflow_schedule_has_entry_per_block(self):
        analysis = analyze(case(23).build())
        schedules = workflow_schedule(analysis)
        assert set(schedules) == {b.name for b in analysis.blocks}
