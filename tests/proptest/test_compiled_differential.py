"""Differential: dirty extracts through every backend, against the oracle.

The oracle differential on clean data lives in
``tests/engine/test_backend_equivalence.py`` (30 suite workflows) and
``tests/proptest/test_backend_differential.py`` (seeded random
workflows).  This file covers the dirty path: with fault-injected
sources screened by a quality gate (once, before any backend runs), every
profile of the runtime and every shard count must execute the survivors
exactly like the oracle does, and the gate's victims must not depend on
which backend follows it.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.engine.backend import BackendExecutor
from repro.engine.faults import FaultPlan, FaultSpec
from repro.quality import ContractSet, QualityGate
from repro.workloads import case
from tests.oracle import (
    assert_matches_reference,
    reference_run,
    variant_backend,
)

pytestmark = pytest.mark.property

VARIANTS = [
    ("columnar", 1),
    ("streaming", 1),
    ("vectorized", 1),
    ("multiprocess", 1),
    ("multiprocess", 2),
    ("multiprocess", 4),
]

DIRTY = FaultPlan(
    (
        FaultSpec(target="Trade", kind="corrupt-row", fraction=0.02),
        FaultSpec(target="DimAccount", kind="null-burst", rows=3),
        FaultSpec(target="DimSecurity", kind="type-flip", fraction=0.01),
        FaultSpec(
            target="DimDate", kind="column-rename",
            column="month_id", rename_to="month",
        ),
    ),
    seed=1337,
)


def _quality_fingerprint(quarantined, violations, drift):
    return {
        "quarantined": {
            name: list(table.rows()) for name, table in quarantined.items()
        },
        "violations": [(v.source, v.row, v.column, v.code) for v in violations],
        "drift": [(e.source, e.kind, e.column, e.resolution) for e in drift],
    }


@pytest.fixture(scope="module")
def dirty_reference():
    wfcase = case(25)
    analysis = analyze(wfcase.build())
    sources = wfcase.tables(scale=0.05, seed=7)
    gate = QualityGate(contracts=ContractSet.infer(sources))
    survivors = gate.screen_sources(DIRTY.injector().apply_sources(sources))
    expected = _quality_fingerprint(
        gate.quarantined_tables(), gate.all_violations(), gate.drift_events()
    )
    assert expected["quarantined"] and expected["drift"]  # the injection bit
    return wfcase, analysis, expected, reference_run(analysis, survivors)


@pytest.mark.parametrize("backend_name,shards", VARIANTS, ids=lambda v: str(v))
def test_quarantine_victims_and_survivor_run_match_oracle(
    backend_name, shards, dirty_reference
):
    wfcase, analysis, expected, ref = dirty_reference
    sources = wfcase.tables(scale=0.05, seed=7)
    gate = QualityGate(contracts=ContractSet.infer(sources))
    survivors = gate.screen_sources(DIRTY.injector().apply_sources(sources))
    backend = variant_backend(backend_name, shards)
    run = BackendExecutor(analysis, backend).run(survivors)
    assert (
        _quality_fingerprint(
            gate.quarantined_tables(), gate.all_violations(), gate.drift_events()
        )
        == expected
    )
    assert_matches_reference(run, ref)
