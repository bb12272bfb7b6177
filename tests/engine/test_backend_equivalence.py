"""Suite-wide backend equivalence against the row-at-a-time oracle.

The :class:`~repro.engine.backend.ExecutionBackend` contract is that every
backend computes the *same workflow semantics* and surfaces the *same
observation points* (the paper's Section 3.2.5 premise that statistics
identification is engine-independent).  This pins it across all 30 suite
workflows: every profile of the one runtime -- columnar, streaming, and
1/2/4 row shards -- must produce the oracle's targets, SE sizes, reject
tables and observed statistics for the greedy-selected set.

Rows are compared under a canonical (sorted) attribute order: the
streaming backend emits columns in sorted order, the others in plan order.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.workloads import suite
from tests.oracle import (
    assert_matches_reference,
    reference_run,
    variant_backend,
)

#: (backend, n) variants; n is the shard count on ``multiprocess`` rows
#: (``inline`` keeps this suite fork-free, the pool path is pinned by
#: tests/dist).  On the other rows n was the scheduler width, which no
#: longer exists, and ``vectorized`` is a second name for ``columnar``:
#: ``columnar-4``, ``streaming-2`` and the ``vectorized`` rows now repeat
#: their ``-1`` / ``columnar`` row (the latter also proving the name
#: resolves).  They stay only because a PR may retire just a few test
#: ids; fold them into one name-resolves test when that allows.
VARIANTS = [
    ("columnar", 1),
    ("columnar", 4),
    ("vectorized", 1),
    ("vectorized", 4),
    ("streaming", 1),
    ("streaming", 2),
    ("multiprocess", 1),
    ("multiprocess", 2),
    ("multiprocess", 4),
]

SCALE, SEED = 0.06, 23


@pytest.fixture(scope="module")
def reference():
    """Per-workflow (analysis, selection, sources, oracle run), cached."""
    cache = {}

    def get(case):
        if case.number not in cache:
            workflow = case.build()
            analysis = analyze(workflow)
            catalog = generate_css(analysis)
            selection = solve_greedy(
                build_problem(catalog, CostModel(workflow.catalog))
            )
            sources = case.tables(scale=SCALE, seed=SEED)
            ref = reference_run(analysis, sources, stats=selection.observed)
            cache[case.number] = (analysis, selection, sources, ref)
        return cache[case.number]

    return get


@pytest.mark.parametrize(
    "backend_name,shards", VARIANTS, ids=lambda v: str(v)
)
@pytest.mark.parametrize("case", suite(), ids=lambda c: f"wf{c.number:02d}")
def test_backend_matches_oracle(case, backend_name, shards, reference):
    analysis, selection, sources, ref = reference(case)
    backend = variant_backend(backend_name, shards)
    run = BackendExecutor(analysis, backend).run(
        sources, taps=backend.make_taps(selection.observed)
    )
    assert_matches_reference(run, ref, selection.observed)
