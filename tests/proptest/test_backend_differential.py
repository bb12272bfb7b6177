"""Differential fuzz: every backend agrees with the oracle on random workflows.

The suite-wide equivalence test pins the backend contract on the 30
hand-written workflows; this one extends it to *seeded random* workflows,
where operator mixes (reject links under transforms, projected join keys,
aggregations over filtered joins) occur in combinations no suite workflow
exercises.  The row-at-a-time oracle (``tests/oracle.py``) is the
reference; every (backend, shards) variant must produce identical sorted
target tables, identical observation-point sizes, identical reject-link
victims and identical tapped statistics.

Seeds derive from ``REPRO_PROPERTY_SEED`` (default 0), so the CI sample is
fixed and failures replay locally with the same environment variable.
"""

import os

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.workloads.randomgen import random_workflow
from tests.oracle import (
    assert_matches_reference,
    reference_run,
    variant_backend,
)

pytestmark = pytest.mark.property

BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))
SEEDS = [BASE_SEED * 1000 + i for i in range(12)]

#: whole columns, 2,048-row chunks, and the sharded multiprocess backend
#: at 1/2/4 shards (the second element is the shard count; ``vectorized``
#: is a second name for ``columnar``, see test_backend_equivalence.py)
VARIANTS = [
    ("columnar", 1),
    ("streaming", 1),
    ("vectorized", 1),
    ("multiprocess", 1),
    ("multiprocess", 2),
    ("multiprocess", 4),
]


@pytest.fixture(scope="module")
def reference():
    """Per-seed (analysis, selection, tables, oracle run)."""
    cache = {}

    def get(seed):
        if seed not in cache:
            workflow, tables = random_workflow(seed)
            analysis = analyze(workflow)
            catalog = generate_css(analysis)
            selection = solve_greedy(
                build_problem(catalog, CostModel(workflow.catalog))
            )
            ref = reference_run(analysis, tables, stats=selection.observed)
            cache[seed] = (analysis, selection, tables, ref)
        return cache[seed]

    return get


@pytest.mark.parametrize("backend_name,shards", VARIANTS, ids=lambda v: str(v))
@pytest.mark.parametrize("seed", SEEDS)
def test_backend_matches_oracle_on_random_workflow(
    seed, backend_name, shards, reference
):
    analysis, selection, tables, ref = reference(seed)
    backend = variant_backend(backend_name, shards)
    run = BackendExecutor(analysis, backend).run(
        tables, taps=backend.make_taps(selection.observed)
    )
    assert_matches_reference(run, ref, selection.observed)
