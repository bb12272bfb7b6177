"""Join-graph analysis: SE enumeration and plan-space generation.

Section 3.2.2: *"The next step is to identify all possible SEs for each
optimizable block ... for a join on multiple relations, there are many
different join orders possible and each join order would generate a set of
SEs."*  Following the paper (and any sane optimizer), only *connected*
subsets of the join graph become SEs -- cross products are never planned.

The module provides:

- :class:`JoinGraph` -- inputs + equi-join edges, connectivity tests and
  crossing-key lookup;
- ``enumerate_ses`` -- the set ℰ restricted to one block;
- ``splits_for`` -- the plan set ``P_e`` for each SE (csg/cmp pairs);
- ``enumerate_trees`` -- every join tree (bushy included), used by the
  pay-as-you-go baseline to search coverage schedules;
- ``count_trees`` -- plan-space size without materializing it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.algebra.expressions import SubExpression
from repro.algebra.plans import JoinNode, JoinSplit, Leaf, PlanTree


class JoinGraphError(ValueError):
    """Raised for malformed join graphs or disconnected requests."""


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join edge between two block inputs on ``attr``."""

    u: str
    v: str
    attr: str

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise JoinGraphError(f"self-join edge on {self.u!r}")
        if self.v < self.u:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)


class JoinGraph:
    """The join graph of one optimizable block."""

    def __init__(self, inputs: list[str], edges: list[JoinEdge]):
        if len(set(inputs)) != len(inputs):
            raise JoinGraphError("duplicate block inputs")
        self.inputs = tuple(sorted(inputs))
        self.edges = tuple(edges)
        known = set(self.inputs)
        for edge in edges:
            if edge.u not in known or edge.v not in known:
                raise JoinGraphError(f"edge {edge} references unknown input")
        adjacency: dict[str, set[str]] = {name: set() for name in inputs}
        for edge in edges:
            adjacency[edge.u].add(edge.v)
            adjacency[edge.v].add(edge.u)
        # every connected subset of inputs, grown one neighbour at a time
        # from the single inputs: the block's SEs, and the only sets that
        # splits_for or a caller ever needs tested for connectivity
        connected: set[frozenset[str]] = {frozenset({n}) for n in self.inputs}
        frontier = list(connected)
        while frontier:
            current = frontier.pop()
            reachable: set[str] = set()
            for name in current:
                reachable |= adjacency[name]
            for nxt in reachable - current:
                grown = current | {nxt}
                if grown not in connected:
                    connected.add(grown)
                    frontier.append(grown)
        self._connected = frozenset(connected)

    # ------------------------------------------------------------------
    def is_connected(self, names: frozenset[str]) -> bool:
        return frozenset(names) in self._connected

    def crossing_key(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[str, ...]:
        """Join key between two disjoint input sets: all crossing edge attrs."""
        attrs = {
            edge.attr
            for edge in self.edges
            if (edge.u in left and edge.v in right)
            or (edge.u in right and edge.v in left)
        }
        return tuple(sorted(attrs))

    # ------------------------------------------------------------------
    def enumerate_ses(self) -> list[SubExpression]:
        """All connected subsets of inputs, smallest first (the block's ℰ)."""
        return sorted(SubExpression(s) for s in self._connected)

    def splits_for(self, se: SubExpression) -> list[JoinSplit]:
        """Plan set ``P_e``: all (connected, connected) partitions with a
        crossing join edge.  Empty for base SEs."""
        names = sorted(se.relations)
        if len(names) < 2:
            return []
        pivot = names[0]
        rest = names[1:]
        splits: list[JoinSplit] = []
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                left = frozenset((pivot, *combo))
                right = se.relations - left
                if not right:
                    continue
                if left not in self._connected or right not in self._connected:
                    continue
                key = self.crossing_key(left, right)
                if not key:
                    continue
                splits.append(
                    JoinSplit(SubExpression(left), SubExpression(right), key)
                )
        return sorted(splits, key=lambda s: (s.left, s.right))

    def plan_space(self) -> dict[SubExpression, list[JoinSplit]]:
        """``{(e, P_e)}`` over the whole block (Section 4, Algorithm 1 input)."""
        return {se: self.splits_for(se) for se in self.enumerate_ses()}

    # ------------------------------------------------------------------
    def enumerate_trees(
        self, se: SubExpression | None = None, limit: int | None = None
    ) -> list[PlanTree]:
        """Every join tree (bushy included) producing ``se``.

        With ``limit`` set, enumeration stops once that many trees exist --
        the baseline's schedule search uses this to stay tractable on
        8-way-join blocks.
        """
        if se is None:
            se = SubExpression(frozenset(self.inputs))
        if not self.is_connected(se.relations):
            raise JoinGraphError(f"{se!r} is not connected; it has no plans")
        memo: dict[frozenset[str], list[PlanTree]] = {}

        def build(names: frozenset[str]) -> list[PlanTree]:
            if names in memo:
                return memo[names]
            if len(names) == 1:
                result: list[PlanTree] = [Leaf(next(iter(names)))]
            else:
                result = []
                for split in self.splits_for(SubExpression(names)):
                    for left in build(split.left.relations):
                        for right in build(split.right.relations):
                            result.append(JoinNode(left, right, split.key))
                            if limit is not None and len(result) >= limit:
                                break
                        if limit is not None and len(result) >= limit:
                            break
                    if limit is not None and len(result) >= limit:
                        break
            memo[names] = result
            return result

        return build(se.relations)

    def count_trees(self) -> int:
        """Plan-space size of the whole block without materializing it."""
        memo: dict[frozenset[str], int] = {}

        def count(names: frozenset[str]) -> int:
            if len(names) == 1:
                return 1
            if names in memo:
                return memo[names]
            total = 0
            for split in self.splits_for(SubExpression(names)):
                total += count(split.left.relations) * count(split.right.relations)
            memo[names] = total
            return total

        return count(frozenset(self.inputs))

