"""The span tree a traced night writes, frozen as one digest per night.

A digest covers every span's kind, name, ancestor path and attributes --
no timestamps -- one line per span, sorted so that sibling order (which
a dict or set iteration may set) cannot move it.  A change to how the
night is traced that keeps every trace the same tree keeps every digest;
on a mismatch the assertion prints the night's lines.

The nights cover every span and point kind the pipeline, scheduler,
quality gate, checkpoint and sharded backend emit: phase, block,
boundary, compile, operator (with ``estimated_rows`` on a warm night),
quarantine, retry (from a deadline-bounded attempt thread), skipped,
resumed and shard.
"""

import hashlib
import json

import pytest

from repro.catalog.store import StatisticsCatalog
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.scheduler import RetryPolicy
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.recovery import RunCheckpoint
from repro.obs.trace import Tracer
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

WORKFLOW = 25
SEED = 7
FAST = RetryPolicy(max_retries=2, seed=SEED, sleep=lambda s: None)
#: generous deadline: every attempt runs on its own thread, none times out
BOUNDED = RetryPolicy(
    max_retries=2, block_timeout=60.0, seed=SEED, sleep=lambda s: None
)

EXPECTED = {
    "clean": "353867b6427655e6",
    "gated": "125f019e65c8745e",
    "transient": "ed6f90dbbedcb749",
    "permanent": "90b5de82f1001581",
    "resumed": "026315c1ad9187e6",
    "catalog-warm": "342cc2625d62cac1",
    "sharded": "f1af75b58467746f",
}


def tree_lines(root) -> list[str]:
    """One sorted line per span: ancestor path, kind, name, attributes."""
    lines = []

    def visit(span, path):
        lines.append(
            json.dumps([path, span.kind, span.name, span.attrs],
                       sort_keys=True, default=repr)
        )
        for child in span.children:
            visit(child, path + [f"{span.kind}:{span.name}"])

    visit(root, [])
    return sorted(lines)


def digest(root) -> str:
    text = "\n".join(tree_lines(root))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sources():
    return case(WORKFLOW).tables(scale=0.05, seed=SEED)


def _pipeline(**kwargs):
    return StatisticsPipeline(case(WORKFLOW).build(), **kwargs)


def _traced(pipeline, sources, **kwargs):
    tracer = Tracer()
    pipeline.run_once(sources, run_id="night", tracer=tracer, **kwargs)
    return tracer.root


def _faults(*specs):
    return FaultPlan(specs, seed=SEED)


def _assert_frozen(night, root):
    assert digest(root) == EXPECTED[night], "\n".join(tree_lines(root))


def test_clean_night():
    _assert_frozen("clean", _traced(_pipeline(), _sources()))


def test_gated_night_screens_a_renamed_and_corrupted_load():
    sources = _sources()
    gate = QualityGate(ContractSet.infer(sources))
    faults = _faults(
        FaultSpec(target="DimDate", kind="column-rename", column="year_id",
                  rename_to="yr"),
        FaultSpec(target="Trade", kind="corrupt-row", rows=3),
    )
    root = _traced(_pipeline(), sources, quality=gate, faults=faults)
    assert root.first(name="screen").find(kind="quarantine")
    _assert_frozen("gated", root)


def test_transient_fault_retried_on_a_deadline_thread():
    root = _traced(
        _pipeline(), _sources(),
        faults=_faults(FaultSpec(target="B2", kind="transient", times=1)),
        retry=BOUNDED,
    )
    assert root.first(kind="block", name="B2").find(kind="retry")
    _assert_frozen("transient", root)


def test_permanent_fault_skips_dependents():
    root = _traced(
        _pipeline(), _sources(),
        faults=_faults(FaultSpec(target="B2", kind="permanent")),
        retry=FAST,
    )
    assert root.find(kind="skipped")
    _assert_frozen("permanent", root)


def test_resumed_night(tmp_path):
    path = tmp_path / "ckpt.json"
    name = case(WORKFLOW).build().name
    _pipeline().run_once(
        _sources(),
        faults=_faults(FaultSpec(target="B2", kind="permanent")),
        retry=FAST,
        checkpoint=RunCheckpoint.open(path, workflow=name, backend="columnar"),
    )
    root = _traced(
        _pipeline(), _sources(),
        checkpoint=RunCheckpoint.open(path, workflow=name, backend="columnar"),
    )
    assert root.find(kind="resumed")
    _assert_frozen("resumed", root)


def test_catalog_warm_night_carries_estimates():
    pipeline = _pipeline()
    catalog = StatisticsCatalog()
    pipeline.run_once(_sources(), stats_catalog=catalog, run_id="cold")
    root = _traced(pipeline, _sources(), stats_catalog=catalog)
    assert any("estimated_rows" in s.attrs for s in root.walk())
    _assert_frozen("catalog-warm", root)


@pytest.mark.dist
def test_sharded_night():
    pipeline = _pipeline(shards=2)
    try:
        root = _traced(pipeline, _sources())
    finally:
        pipeline.close()
    assert root.find(kind="shard")
    _assert_frozen("sharded", root)
