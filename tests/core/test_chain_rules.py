"""Targeted tests for the unary-chain and cross-block rules.

Covers the rule paths the big integration tests exercise only implicitly:
projection pass-through (P1/P2), multi-step chains (filter then transform),
and the group-by rules (G1/G2) across an aggregation boundary -- each
checked both at the CSS level and through the calculator on real data.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.algebra.operators import (
    Aggregate,
    Filter,
    Join,
    Predicate,
    Project,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
)
from repro.algebra.schema import Catalog
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table
from repro.estimation.estimator import CardinalityEstimator

SE = SubExpression.of


def run_exact(workflow, sources):
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_ilp(build_problem(catalog, CostModel(workflow.catalog)))
    taps = TapSet(selection.observed)
    run = BackendExecutor(analysis).run(sources, taps=taps)
    estimator = CardinalityEstimator(catalog, run.observations)
    truth = ground_truth_cardinalities(analysis, sources)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual), se
    return analysis, catalog


class TestProjectChain:
    def _workflow(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 8, "b": 6, "junk": 50})
        cat.add_relation("R", {"b": 6, "w": 9})
        flow = Project(Source(cat, "T"), ("a", "b"))
        out = Join(flow, Source(cat, "R"), "b")
        return Workflow("w", cat, [Target(out, "out")]), cat

    def test_p1_p2_generated(self):
        workflow, _cat = self._workflow()
        catalog = generate_css(analyze(workflow))
        rules = {
            c.rule for bucket in catalog.css.values() for c in bucket
        }
        assert "P1" in rules
        # the projected stage's b-histogram derives from the raw one
        stage = [
            s for s in catalog.required
            if s.se.is_base and s.se.base_name.startswith("T@")
        ][0]
        stage_hist = Statistic.hist(SE(stage.se.base_name), "b")
        p2 = [c for c in catalog.css_for(stage_hist) if c.rule == "P2"]
        assert p2 and p2[0].inputs == (Statistic.hist(SE("T"), "b"),)

    def test_dropped_attr_not_derivable(self):
        workflow, _cat = self._workflow()
        catalog = generate_css(analyze(workflow))
        stage = [
            s for s in catalog.required
            if s.se.is_base and s.se.base_name.startswith("T@")
        ][0]
        junk_hist = Statistic.hist(SE(stage.se.base_name), "junk")
        assert not any(
            c.rule == "P2" for c in catalog.css_for(junk_hist)
        )

    def test_end_to_end_exact(self):
        workflow, _cat = self._workflow()
        sources = {
            "T": Table(
                {
                    "a": [1, 2, 3, 4, 5, 6],
                    "b": [1, 1, 2, 2, 3, 3],
                    "junk": list(range(6)),
                }
            ),
            "R": Table({"b": [1, 2, 2], "w": [7, 8, 9]}),
        }
        run_exact(workflow, sources)


class TestMultiStepChain:
    def test_filter_then_transform_then_join(self):
        cat = Catalog()
        cat.add_relation("T", {"a": 10, "b": 8})
        cat.add_relation("R", {"b": 8})
        chain = Filter(Source(cat, "T"), "a", Predicate("low", lambda v: v <= 5))
        chain = Transform(chain, "a", UdfSpec("bump", lambda v: v + 1))
        out = Join(chain, Source(cat, "R"), "b")
        workflow = Workflow("w", cat, [Target(out, "out")])
        sources = {
            "T": Table({"a": [1, 4, 6, 9, 2], "b": [1, 2, 3, 1, 2]}),
            "R": Table({"b": [1, 2, 2, 8]}),
        }
        analysis, catalog = run_exact(workflow, sources)
        # three stages on T's chain: raw, filtered, transformed
        block = analysis.blocks[0]
        chain_input = [
            inp for inp in block.inputs.values() if inp.base_name == "T"
        ][0]
        assert len(chain_input.stage_ses()) == 3


class TestGroupByRules:
    def _workflow(self):
        cat = Catalog()
        cat.add_relation("T", {"g": 5, "h": 4, "v": 40})
        cat.add_relation("R", {"g": 5, "w": 9})
        agg = Aggregate(
            Source(cat, "T"), ("g", "h"), {"n": ("count", "v")}
        )
        out = Join(agg, Source(cat, "R"), "g")
        return Workflow("w", cat, [Target(out, "out")]), cat

    def test_g1_and_g2_generated(self):
        workflow, _cat = self._workflow()
        catalog = generate_css(analyze(workflow))
        g1 = [
            c for bucket in catalog.css.values() for c in bucket
            if c.rule == "G1"
        ]
        g2 = [
            c for bucket in catalog.css.values() for c in bucket
            if c.rule == "G2"
        ]
        assert g1, "aggregate output cardinality should chain via G1"
        assert g2, "histogram on a group attribute should chain via G2"
        # G2 derives the downstream g-histogram from the upstream (g, h)
        # joint on the block output
        (g2_css,) = [c for c in g2 if c.target.attrs == ("g",)]
        (input_stat,) = g2_css.inputs
        assert input_stat.attrs == ("g", "h")

    def test_end_to_end_exact_through_aggregation(self):
        workflow, _cat = self._workflow()
        sources = {
            "T": Table(
                {
                    "g": [1, 1, 2, 2, 2, 3],
                    "h": [1, 1, 1, 2, 2, 1],
                    "v": [5, 6, 7, 8, 9, 10],
                }
            ),
            "R": Table({"g": [1, 2, 2, 5], "w": [1, 2, 3, 4]}),
        }
        run_exact(workflow, sources)
