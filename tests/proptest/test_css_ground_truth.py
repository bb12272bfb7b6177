"""Property: every derived CSS reproduces the SE's ground-truth cardinality.

The paper's Section 4.1 rules are only sound if *each* CSS -- evaluated in
isolation, on exact inputs -- recomputes the statistic it claims to derive.
The end-to-end suites check the fixpoint as a whole; this property pins
every rule application separately: for seeded random workflows, each
non-trivial CSS targeting a cardinality is evaluated through a
single-entry catalog seeded with exact input values, and must reproduce
the brute-force cardinality of its SE.

Seeds derive from ``REPRO_PROPERTY_SEED`` (default 0) so CI runs a fixed,
reproducible sample while local runs can explore other regions.
"""

import os

import pytest

from repro.algebra.blocks import analyze
from repro.core.css import CssCatalog
from repro.core.generator import generate_css
from repro.core.statistics import StatisticsStore
from repro.engine.backend import BackendExecutor
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import TapSet
from repro.estimation.calculator import StatisticsCalculator, compute_statistics
from tests.randomgen import random_workflow

pytestmark = pytest.mark.property

BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))
SEEDS = [BASE_SEED * 1000 + i for i in range(16)]


@pytest.mark.parametrize("seed", SEEDS)
def test_each_css_reproduces_ground_truth_cardinality(seed):
    workflow, tables = random_workflow(seed)
    analysis = analyze(workflow)
    catalog = generate_css(analysis)

    # exact reference values for every derivable statistic: observe all of
    # S_O once, then run the full fixpoint
    taps = TapSet(catalog.observable)
    run = BackendExecutor(analysis).run(tables, taps=taps)
    assert taps.missing() == []
    reference = compute_statistics(catalog, run.observations)
    truth = ground_truth_cardinalities(analysis, tables)

    checked = 0
    for target, bucket in catalog.css.items():
        if not target.is_cardinality or target.se not in truth:
            continue
        for css in bucket:
            if css.is_trivial:
                continue
            if any(s not in reference for s in css.inputs):
                continue  # inputs not derivable from tonight's plan
            # a catalog containing ONLY this CSS: the fixpoint cannot route
            # around a broken rule, the one entry must do the work itself
            mini = CssCatalog(steps=dict(catalog.steps))
            mini.add(css)
            seeded = StatisticsStore()
            for stat in css.inputs:
                seeded.put(stat, reference.get(stat))
            out = StatisticsCalculator(mini, seeded).compute_all()
            assert out.get(target) == pytest.approx(truth[target.se]), (
                seed,
                css,
            )
            checked += 1
    # a workflow with no derivable non-trivial cardinality CSS would make
    # this test vacuous -- the generator never produces one
    assert checked > 0, seed
