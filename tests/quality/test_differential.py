"""Backend-differential quality enforcement.

The quality gate screens sources before any backend sees them, so
enforcement is backend-invariant *by construction*: the same dirty extract
yields the same quarantine decisions, the same surviving rows, and the
same target outputs on every execution backend.
"""

from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.faults import FaultPlan, FaultSpec
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

WORKFLOW = 25
BACKENDS = ("columnar", "streaming", "vectorized")

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


def _run(backend_name):
    from repro.algebra.blocks import analyze

    wfcase = case(WORKFLOW)
    sources = wfcase.tables(scale=0.05, seed=7)
    gate = QualityGate(contracts=ContractSet.infer(sources))
    survivors = gate.screen_sources(DIRTY.injector().apply_sources(sources))
    run = BackendExecutor(analyze(wfcase.build()), get_backend(backend_name)).run(
        survivors
    )
    return gate, run


def _fingerprint(screened):
    gate, run = screened
    return {
        "quarantined": {
            name: list(table.rows())
            for name, table in gate.quarantined_tables().items()
        },
        "violations": [
            (v.source, v.row, v.column, v.code) for v in gate.all_violations()
        ],
        "drift": [
            (e.source, e.kind, e.column, e.resolution)
            for e in gate.drift_events()
        ],
        # canonical attribute order: the streaming backend materializes
        # targets from row dicts, so its column order differs
        "targets": {
            name: sorted(table.rows(sorted(table.attrs)), key=repr)
            for name, table in run.targets.items()
        },
        "se_sizes": {repr(se): size for se, size in run.se_sizes.items()},
    }


class TestDifferentialQuarantine:
    def test_all_backends_agree_on_dirty_data(self):
        runs = {name: _run(name) for name in BACKENDS}
        reference = _fingerprint(runs[BACKENDS[0]])
        assert reference["quarantined"]  # the injection actually bit
        assert reference["drift"]
        for name in BACKENDS[1:]:
            assert _fingerprint(runs[name]) == reference, name

    def test_quarantine_is_actually_enforced(self):
        gate, _ = _run("columnar")
        rows_quarantined = gate.quarantine.total_rows
        assert rows_quarantined > 0
        assert len(gate.all_violations()) >= rows_quarantined
