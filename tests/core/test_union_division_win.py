"""Reproducing the paper's workflow-3-magnitude union-division win.

Figure 11's headline: for workflow 3, union-division cut the observation
memory from 1,811,197 to 29,922 units (~60x).  The mechanism: a required
join cardinality whose J1 CSS needs a histogram on a *huge-domain* key of a
big relation, while the initial plan first joins that relation to a
tiny-key dimension that almost every row matches.  Union-division then
derives the same cardinality from

- the tiny-key histogram on the (observable) three-way result,
- the tiny-key histogram on the dimension, and
- statistics on a nearly-empty reject link,

none of which is large.  This test constructs exactly that shape and
asserts an order-of-magnitude reduction -- plus end-to-end exactness of the
estimates the cheap plan produces.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.operators import Join, Source, Target, Workflow
from repro.algebra.schema import Catalog
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table
from repro.estimation.bootstrap import bootstrap_se_sizes
from repro.estimation.estimator import CardinalityEstimator

WIDE = 200_000  # the serial-number-like key domain
TINY = 4        # the status-like key domain


def build_workflow() -> Workflow:
    catalog = Catalog()
    catalog.add_relation("Events", {"serial": WIDE, "status": TINY})
    catalog.add_relation("Devices", {"serial": WIDE, "model": 50})
    catalog.add_relation("Statuses", {"status": TINY, "label": TINY})
    events = Source(catalog, "Events")
    devices = Source(catalog, "Devices")
    statuses = Source(catalog, "Statuses")
    # initial plan: the tiny status lookup first, then the wide-key join
    flow = Join(Join(events, statuses, "status"), devices, "serial")
    return Workflow("ud_win", catalog, [Target(flow, "out")])


@pytest.fixture(scope="module")
def selections():
    workflow = build_workflow()
    analysis = analyze(workflow)
    # Events is the big feed with the wide key; Devices is a modest
    # dimension (its serial histogram is size-capped and cheap).  The only
    # expensive statistic is anything serial-shaped on Events -- exactly
    # what union-division lets the optimizer avoid.
    cards = {"Events": 50_000.0, "Devices": 500.0, "Statuses": float(TINY)}
    distinct = {
        "Events": {"serial": 50_000.0, "status": TINY},
        "Devices": {"serial": 500.0, "model": 50},
        "Statuses": {"status": TINY, "label": TINY},
    }
    sizes = bootstrap_se_sizes(analysis, cards, distinct)
    cost_model = CostModel(workflow.catalog, se_sizes=sizes)
    results = {}
    for label, options in (
        ("noud", GeneratorOptions(union_division=False, fk_rules=False)),
        ("ud", GeneratorOptions(fk_rules=False)),
    ):
        catalog = generate_css(analysis, options)
        results[label] = solve_ilp(
            build_problem(catalog, cost_model), time_limit=30
        )
    return workflow, analysis, results


class TestUnionDivisionMagnitude:
    def test_order_of_magnitude_memory_win(self, selections):
        _wf, _analysis, results = selections
        noud = results["noud"].total_cost
        ud = results["ud"].total_cost
        assert ud < noud / 10, (noud, ud)

    def test_without_ud_pays_for_the_wide_key(self, selections):
        """The no-UD optimum is dominated by wide-key histograms."""
        _wf, _analysis, results = selections
        assert results["noud"].total_cost > 10_000

    def test_ud_choice_uses_reject_statistics(self, selections):
        from repro.algebra.expressions import RejectSE

        _wf, _analysis, results = selections
        observed = results["ud"].observed
        assert any(isinstance(s.se, RejectSE) for s in observed)

    def test_estimates_still_exact(self, selections):
        """The cheap UD selection loses no accuracy."""
        import random

        workflow, analysis, results = selections
        rng = random.Random(5)
        n_events, n_devices = 2_000, 300
        # statuses cover the domain, so the reject link is almost empty
        sources = {
            "Events": Table(
                {
                    "serial": [rng.randint(1, WIDE) for _ in range(n_events)],
                    "status": [rng.randint(1, TINY) for _ in range(n_events)],
                }
            ),
            "Devices": Table(
                {
                    "serial": [rng.randint(1, WIDE) for _ in range(n_devices)],
                    "model": [rng.randint(1, 50) for _ in range(n_devices)],
                }
            ),
            "Statuses": Table(
                {"status": list(range(1, TINY + 1)), "label": [1] * TINY}
            ),
        }
        catalog = generate_css(analysis, GeneratorOptions(fk_rules=False))
        taps = TapSet(results["ud"].observed)
        run = BackendExecutor(analysis).run(sources, taps=taps)
        estimator = CardinalityEstimator(catalog, run.observations)
        truth = ground_truth_cardinalities(analysis, sources)
        for se, actual in truth.items():
            assert estimator.cardinality(se) == pytest.approx(actual)
