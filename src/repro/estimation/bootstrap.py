"""First-run SE-size bootstrapping (Section 5.4).

The CPU cost of observing a statistic -- and the bucket-count bound of a
histogram -- depend on the size of the SE being observed, which is exactly
what the statistics will eventually measure.  *"We break this circular
dependency by using the SE sizes computed from the previous runs.  In the
first run, we use a coarse approximation based on independence
assumptions, since no previous data is available."*

This module is that coarse approximation.  From per-relation
characteristics (cardinality + per-attribute distinct counts -- the
information the paper synthesizes without generating data), it estimates:

- stage SEs: the base cardinality (filters unknown -> conservative 1.0
  selectivity);
- join SEs: the textbook independence formula
  ``|e1 join_a e2| = |e1| |e2| / max(|a_e1|, |a_e2|)``;
- reject links: ``|e1| * max(0, 1 - coverage)`` where coverage is the
  fraction of the key domain the other side populates;
- reject side-joins: reject size times the per-value fanout of the other
  side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import (
    AnySE,
    RejectJoinSE,
    RejectSE,
    SubExpression,
)
from repro.algebra.plans import JoinNode, subtrees
from repro.algebra.schema import Catalog


@dataclass
class InputProfile:
    """Characteristics of one block input: cardinality + distinct counts."""

    cardinality: float
    distinct: dict[str, float] = field(default_factory=dict)

    def dv(self, attr: str) -> float:
        return max(self.distinct.get(attr, 1.0), 1.0)


def profiles_from_characteristics(
    analysis: BlockAnalysis,
    cardinalities: dict[str, float],
    distinct: dict[str, dict[str, float]] | None = None,
) -> dict[str, InputProfile]:
    """Build per-block-input profiles from base-relation characteristics.

    ``cardinalities`` maps *base relation* (or boundary feed) names to row
    counts; ``distinct`` optionally maps them to per-attribute distinct
    counts, defaulting to ``min(domain, cardinality)`` -- the conservative
    guess when only the schema is known.
    """
    catalog = analysis.workflow.catalog
    distinct = distinct or {}
    profiles: dict[str, InputProfile] = {}
    for block in analysis.blocks:
        for name, inp in block.inputs.items():
            card = float(
                cardinalities.get(inp.base_name, cardinalities.get(name, 1.0))
            )
            dvs: dict[str, float] = {}
            base_dv = distinct.get(inp.base_name, {})
            for attr in inp.out_attrs:
                if attr in base_dv:
                    dvs[attr] = float(base_dv[attr])
                else:
                    try:
                        dom = catalog.domain_size(attr)
                    except Exception:
                        dom = card
                    dvs[attr] = min(float(dom), card)
            profiles[name] = InputProfile(card, dvs)
    return profiles


class SizeBootstrapper:
    """Independence-assumption SE sizes for a whole workflow."""

    def __init__(self, analysis: BlockAnalysis, profiles: dict[str, InputProfile]):
        self.analysis = analysis
        self.profiles = profiles
        self.catalog: Catalog = analysis.workflow.catalog

    # ------------------------------------------------------------------
    def estimate(self) -> dict[AnySE, float]:
        sizes: dict[AnySE, float] = {}
        for block in self.analysis.blocks:
            self._block_sizes(block, sizes)
        return sizes

    # ------------------------------------------------------------------
    def _block_sizes(self, block: Block, sizes: dict[AnySE, float]) -> None:
        for name, inp in block.inputs.items():
            profile = self.profiles.get(name)
            card = profile.cardinality if profile else 1.0
            for se in inp.stage_ses():
                sizes[se] = card  # filters unknown: conservative
        for se in block.join_ses():
            if len(se) > 1:
                sizes[se] = self._join_size(block, se)
        full = sizes.get(block.join_se, 1.0)
        for se in block.post_stage_ses():
            sizes[se] = full
        sizes[SubExpression.of(block.output_name)] = full
        self._reject_sizes(block, sizes)

    def _join_size(self, block: Block, se: SubExpression) -> float:
        size = 1.0
        for name in se.relations:
            profile = self.profiles.get(name)
            size *= profile.cardinality if profile else 1.0
        for edge in block.graph.edges:
            if edge.u in se.relations and edge.v in se.relations:
                du = self._dv(edge.u, edge.attr)
                dv = self._dv(edge.v, edge.attr)
                size /= max(du, dv)
        return max(size, 0.0)

    def _dv(self, name: str, attr: str) -> float:
        profile = self.profiles.get(name)
        return profile.dv(attr) if profile else 1.0

    def _reject_sizes(self, block: Block, sizes: dict[AnySE, float]) -> None:
        """Estimate every reject link of the initial plan (union-division
        candidates) plus the side joins over them."""
        for node in subtrees(block.initial_tree):
            if not isinstance(node, JoinNode):
                continue
            key = node.key[0] if len(node.key) == 1 else tuple(node.key)
            for side, other in (
                (node.left, node.right),
                (node.right, node.left),
            ):
                reject = RejectSE(side.se, key, other.se)
                side_size = sizes.get(side.se, 1.0)
                coverage = self._coverage(block, other.se, node.key)
                rej_size = side_size * max(0.0, 1.0 - coverage)
                sizes[reject] = rej_size
                # side joins with every other SE the key connects to
                for se2 in block.join_ses():
                    if se2.relations & side.se.relations:
                        continue
                    ke = block.graph.crossing_key(side.se.relations, se2.relations)
                    if not ke:
                        continue
                    fanout = self._fanout(se2, ke, sizes)
                    rj = RejectJoinSE(
                        reject, ke[0] if len(ke) == 1 else ke, se2
                    )
                    sizes[rj] = rej_size * fanout

    def _coverage(self, block: Block, other, key: tuple[str, ...]) -> float:
        """Fraction of the key domain the ``other`` side populates."""
        coverage = 1.0
        for attr in key:
            try:
                dom = float(self.catalog.domain_size(attr))
            except Exception:
                return 0.5
            dv = 1.0
            for name in other.relations:
                dv = max(dv, self._dv(name, attr))
            coverage *= min(dv / dom, 1.0)
        return coverage

    def _fanout(self, se2, key: tuple[str, ...], sizes: dict[AnySE, float]) -> float:
        size = sizes.get(se2, 1.0)
        dv = 1.0
        for attr in key:
            best = 1.0
            for name in se2.relations:
                best = max(best, self._dv(name, attr))
            dv *= best
        return size / max(dv, 1.0)


def bootstrap_se_sizes(
    analysis: BlockAnalysis,
    cardinalities: dict[str, float],
    distinct: dict[str, dict[str, float]] | None = None,
) -> dict[AnySE, float]:
    """Convenience wrapper: profiles + independence estimation."""
    profiles = profiles_from_characteristics(analysis, cardinalities, distinct)
    return SizeBootstrapper(analysis, profiles).estimate()
