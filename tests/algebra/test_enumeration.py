"""Unit tests for join-graph SE enumeration and plan-space generation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.enumeration import JoinEdge, JoinGraph, JoinGraphError
from repro.algebra.expressions import SubExpression
from repro.algebra.plans import internal_ses, leaves


def chain(n):
    names = [f"T{i}" for i in range(n)]
    edges = [JoinEdge(names[i], names[i + 1], f"k{i}") for i in range(n - 1)]
    return JoinGraph(names, edges)


def star(n):
    names = ["F"] + [f"D{i}" for i in range(n - 1)]
    edges = [JoinEdge("F", d, f"k{i}") for i, d in enumerate(names[1:])]
    return JoinGraph(names, edges)


def clique(n):
    names = [f"T{i}" for i in range(n)]
    edges = [
        JoinEdge(a, b, "k") for i, a in enumerate(names) for b in names[i + 1:]
    ]
    return JoinGraph(names, edges)


class TestJoinEdge:
    def test_canonical_endpoint_order(self):
        e = JoinEdge("B", "A", "k")
        assert (e.u, e.v) == ("A", "B")

    def test_self_edge_rejected(self):
        with pytest.raises(JoinGraphError):
            JoinEdge("A", "A", "k")


class TestJoinGraph:
    def test_rejects_duplicate_inputs(self):
        with pytest.raises(JoinGraphError):
            JoinGraph(["A", "A"], [])

    def test_rejects_unknown_edge_endpoints(self):
        with pytest.raises(JoinGraphError):
            JoinGraph(["A"], [JoinEdge("A", "B", "k")])

    def test_connectivity(self):
        g = chain(4)
        assert g.is_connected(frozenset({"T0", "T1"}))
        assert not g.is_connected(frozenset({"T0", "T2"}))
        assert g.is_connected(frozenset({"T0", "T1", "T2"}))
        assert not g.is_connected(frozenset())

    def test_crossing_key(self):
        g = chain(3)
        assert g.crossing_key(frozenset({"T0"}), frozenset({"T1"})) == ("k0",)
        assert g.crossing_key(frozenset({"T0"}), frozenset({"T2"})) == ()

    def test_crossing_key_multi_attr(self):
        g = JoinGraph(
            ["A", "B"], [JoinEdge("A", "B", "x"), JoinEdge("A", "B", "y")]
        )
        assert g.crossing_key(frozenset({"A"}), frozenset({"B"})) == ("x", "y")


class TestEnumerateSes:
    def test_chain_counts(self):
        # a chain of n has n*(n+1)/2 connected intervals
        for n in (2, 3, 4, 5, 6):
            assert len(chain(n).enumerate_ses()) == n * (n + 1) // 2

    def test_star_counts(self):
        # star subsets: singletons (n) + any non-empty dim-set with the hub
        for n in (3, 4, 5):
            expected = n + (2 ** (n - 1) - 1)
            assert len(star(n).enumerate_ses()) == expected

    def test_clique_counts(self):
        # every non-empty subset of a clique is connected
        for n in (2, 3, 4, 5):
            assert len(clique(n).enumerate_ses()) == 2**n - 1

    def test_full_se_always_present(self):
        g = chain(4)
        assert SubExpression(frozenset(g.inputs)) in g.enumerate_ses()

    def test_sorted_smallest_first(self):
        ses = chain(4).enumerate_ses()
        sizes = [len(se) for se in ses]
        assert sizes == sorted(sizes)


class TestSplits:
    def test_base_se_has_no_plans(self):
        g = chain(3)
        assert g.splits_for(SubExpression.of("T0")) == []

    def test_chain_pair_has_single_split(self):
        g = chain(3)
        splits = g.splits_for(SubExpression.of("T0", "T1"))
        assert len(splits) == 1
        assert splits[0].key == ("k0",)

    def test_splits_cover_both_sides_connected(self):
        g = chain(4)
        for se in g.enumerate_ses():
            for split in g.splits_for(se):
                assert g.is_connected(split.left.relations)
                assert g.is_connected(split.right.relations)
                assert split.left.relations | split.right.relations == se.relations
                assert not split.left.relations & split.right.relations

    def test_no_cross_products(self):
        g = chain(4)
        full = SubExpression(frozenset(g.inputs))
        for split in g.splits_for(full):
            assert g.crossing_key(split.left.relations, split.right.relations)

    def test_plan_space_maps_each_se(self):
        g = star(4)
        space = g.plan_space()
        assert set(space) == set(g.enumerate_ses())


class TestTrees:
    def test_count_matches_enumeration(self):
        for g in (chain(4), star(4), clique(4)):
            assert g.count_trees() == len(g.enumerate_trees())

    def test_chain_catalan_counts(self):
        # join trees over a chain of n = binary trees respecting adjacency:
        # the unconstrained-bushy count for chains is the Catalan number C_{n-1}
        def catalan(k):
            return math.comb(2 * k, k) // (k + 1)

        for n in (2, 3, 4, 5):
            assert chain(n).count_trees() == catalan(n - 1)

    def test_trees_produce_full_se(self):
        g = star(4)
        full = SubExpression(frozenset(g.inputs))
        for tree in g.enumerate_trees():
            assert tree.se == full
            assert {leaf.name for leaf in leaves(tree)} == set(g.inputs)

    def test_limit_caps_enumeration(self):
        g = clique(5)
        trees = g.enumerate_trees(limit=7)
        assert len(trees) <= 7 * 7  # limit applies per sub-enumeration

    def test_internal_ses_are_connected(self):
        g = clique(4)
        for tree in g.enumerate_trees():
            for se in internal_ses(tree):
                assert g.is_connected(se.relations)

    def test_disconnected_se_has_no_tree(self):
        g = chain(3)
        with pytest.raises(JoinGraphError):
            g.enumerate_trees(SubExpression.of("T0", "T2"))


@given(st.integers(3, 6), st.integers(0, 1000))
@settings(max_examples=30)
def test_random_connected_graph_invariants(n, seed):
    """SE enumeration over random connected graphs: every SE connected,
    every split crossing-keyed."""
    rng = random.Random(seed)
    names = [f"T{i}" for i in range(n)]
    edges = [
        JoinEdge(names[i], names[rng.randrange(i)], f"a{i}") for i in range(1, n)
    ]
    extra = rng.randrange(3)
    for j in range(extra):
        u, v = rng.sample(names, 2)
        edges.append(JoinEdge(u, v, f"x{j}"))
    g = JoinGraph(names, edges)
    ses = g.enumerate_ses()
    assert SubExpression(frozenset(names)) in ses
    for se in ses:
        assert g.is_connected(se.relations)
        for split in g.splits_for(se):
            assert split.key
