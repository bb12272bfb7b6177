"""Run checkpoints and degraded-statistics fallback.

Two halves of surviving a bad night:

**Checkpoints.** A nightly observe-and-optimize cycle is long, and a crash
near the end used to forfeit every block already executed.
:class:`RunCheckpoint` persists, after each block completes, the block's
output table, the run's SE sizes and the statistics gathered so far --
atomically, so a killed process never leaves a half-written file.  A
resumed :class:`~repro.engine.backend.BackendExecutor` run restores the
recorded blocks (their outputs feed downstream blocks and boundaries
directly) and re-executes only the unfinished remainder.

**Degradation.** When a block *permanently* fails, its statistics are
partial for the night.  Rather than abandoning optimization wholesale --
the paper's premise is that stale or approximate statistics still beat
none -- :func:`degraded_cardinalities` fills the failed blocks' SE
cardinalities from, in order of trust:

1. the statistics catalog's usable entries (:mod:`repro.catalog`): they
   are drift-checked every night and carry observation timestamps, so
   they rank just below tonight's own observations;
2. ``prior``: what the catalog still remembers but refuses for selection
   -- stale, expired or low-quality entries (the data usually drifts
   slowly between nightly loads).  The catalog is the only cross-night
   memory: an :class:`~repro.framework.session.EtlSession` without one
   keeps a private catalog whose entries all expire by the next night;
3. the textbook independence baseline
   (:mod:`repro.baselines.independence`) computed from whatever inputs
   did load tonight;
4. nothing -- the block is reported unoptimizable and keeps its current
   plan.

The provenance is returned alongside the filled cardinalities, per block
*and* per SE, so :class:`~repro.framework.pipeline.PipelineReport` can
annotate each plan with the confidence of the estimates behind it and
report exactly which source satisfied each gap.
"""

from __future__ import annotations

from pathlib import Path

from repro.algebra.blocks import Block, BlockAnalysis
from repro.algebra.expressions import AnySE
from repro.core.css import CssCatalog
from repro.core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    _load_json,
    atomic_write_json,
    se_from_dict,
    se_to_dict,
    store_from_dict,
    store_to_dict,
    table_from_dict,
    table_to_dict,
)
from repro.core.statistics import StatisticsStore
from repro.engine.backend import WorkflowRun
from repro.engine.table import Table

#: plan-confidence labels, strongest first
CONFIDENCE_OBSERVED = "observed"
CONFIDENCE_CATALOG = "catalog"
CONFIDENCE_PRIOR = "prior"
CONFIDENCE_INDEPENDENCE = "independence"
CONFIDENCE_NONE = "none"

#: the degraded-fallback ladder, strongest first
CONFIDENCE_ORDER = (
    CONFIDENCE_OBSERVED,
    CONFIDENCE_CATALOG,
    CONFIDENCE_PRIOR,
    CONFIDENCE_INDEPENDENCE,
    CONFIDENCE_NONE,
)


def weakest_confidence(labels) -> str:
    """The weakest label in ``labels`` along the fallback ladder."""
    worst = CONFIDENCE_OBSERVED
    for label in labels:
        if CONFIDENCE_ORDER.index(label) > CONFIDENCE_ORDER.index(worst):
            worst = label
    return worst


def demote_confidence(label: str) -> str:
    """One rung weaker along the ladder (``none`` stays ``none``).

    This is how a degraded catalog client surfaces in tonight's plans: the
    numbers still come from the best source available, but a vanished
    statistics server means they could not be cross-checked against the
    fleet's shared state, so the report says one rung less than it
    otherwise would -- honestly weaker, never failing the run.
    """
    index = CONFIDENCE_ORDER.index(label)
    return CONFIDENCE_ORDER[min(index + 1, len(CONFIDENCE_ORDER) - 1)]


class RunCheckpoint:
    """Crash-consistent journal of one workflow run's completed blocks.

    The file is rewritten (atomic rename) after every block completion --
    the journal is cumulative, so the latest file is always a complete
    description of everything finished so far.  Identity fields guard
    against resuming the wrong run: a checkpoint written for another
    workflow or execution backend refuses to load over this one.
    """

    def __init__(self, path: str | Path, workflow: str = "", backend: str = ""):
        self.path = Path(path)
        self.workflow = workflow
        self.backend = backend
        self.blocks: dict[str, dict] = {}  # block name -> record document
        self.se_sizes: dict[AnySE, int] = {}
        self.statistics: StatisticsStore = StatisticsStore()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "RunCheckpoint":
        """Read an existing checkpoint; :class:`PersistenceError` if corrupt."""
        doc = _load_json(path, "checkpoint")
        checkpoint = cls(
            path, workflow=doc.get("workflow", ""), backend=doc.get("backend", "")
        )
        blocks = doc.get("blocks", {})
        if not isinstance(blocks, dict):
            raise PersistenceError("corrupt checkpoint: 'blocks' is not an object")
        for name, record in blocks.items():
            if not isinstance(record, dict) or "table" not in record:
                raise PersistenceError(
                    f"corrupt checkpoint: block record {name!r} has no table"
                )
            checkpoint.blocks[name] = record
        try:
            checkpoint.se_sizes = {
                se_from_dict(se_doc): size
                for se_doc, size in doc.get("se_sizes", [])
            }
        except (TypeError, ValueError, KeyError) as exc:
            raise PersistenceError(f"corrupt checkpoint SE sizes: {exc}") from exc
        checkpoint.statistics = store_from_dict(
            doc.get("statistics", {"format_version": FORMAT_VERSION, "statistics": []})
        )
        return checkpoint

    @classmethod
    def open(
        cls, path: str | Path, workflow: str = "", backend: str = ""
    ) -> "RunCheckpoint":
        """Resume from ``path`` if it exists, else start a fresh journal.

        An existing file recorded for a different workflow or backend is a
        hard error -- restoring another run's tables would corrupt this one.
        """
        path = Path(path)
        if not path.exists():
            return cls(path, workflow=workflow, backend=backend)
        checkpoint = cls.load(path)
        if workflow and checkpoint.workflow and checkpoint.workflow != workflow:
            raise PersistenceError(
                f"checkpoint {path} belongs to workflow "
                f"{checkpoint.workflow!r}, not {workflow!r}"
            )
        if backend and checkpoint.backend and checkpoint.backend != backend:
            raise PersistenceError(
                f"checkpoint {path} was written by backend "
                f"{checkpoint.backend!r}, not {backend!r}; statistics "
                "observed by different backends are interchangeable but "
                "resume must re-use the original backend's run"
            )
        checkpoint.workflow = checkpoint.workflow or workflow
        checkpoint.backend = checkpoint.backend or backend
        return checkpoint

    # ------------------------------------------------------------------
    @property
    def completed(self) -> set[str]:
        return set(self.blocks)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "workflow": self.workflow,
            "backend": self.backend,
            "blocks": self.blocks,
            "se_sizes": [
                [se_to_dict(se), size]
                for se, size in sorted(
                    self.se_sizes.items(), key=lambda kv: repr(kv[0])
                )
            ],
            "statistics": store_to_dict(self.statistics),
        }

    def save(self) -> None:
        atomic_write_json(self.to_dict(), self.path)

    # ------------------------------------------------------------------
    # the two sides of the journal
    # ------------------------------------------------------------------
    def record_block(
        self,
        block: Block,
        output: Table,
        se_sizes: dict[AnySE, int],
        statistics: StatisticsStore,
    ) -> None:
        """Journal one completed block (called under the run lock).

        The journal is cumulative: sizes and statistics *merge* over what
        is already recorded, so a resumed run (whose fresh taps only saw
        tonight's re-executed blocks) never erases restored observations.
        """
        self.blocks[block.name] = {
            "output_name": block.output_name,
            "rows": output.num_rows,
            "table": table_to_dict(output),
        }
        self.se_sizes.update(se_sizes)
        self.statistics.merge(statistics)
        self.save()

    def restore(self, analysis: BlockAnalysis, run: WorkflowRun) -> set[str]:
        """Seed a new run with the journaled blocks; returns their names."""
        known = {b.name: b for b in analysis.blocks}
        restored: set[str] = set()
        for name, record in self.blocks.items():
            block = known.get(name)
            if block is None:
                raise PersistenceError(
                    f"checkpoint {self.path} records unknown block {name!r}; "
                    "was it written for a different workflow?"
                )
            output_name = record.get("output_name", block.output_name)
            run.env[output_name] = table_from_dict(record["table"])
            restored.add(name)
        run.se_sizes.update(self.se_sizes)
        return restored


# ---------------------------------------------------------------------------
# degraded-statistics fallback
# ---------------------------------------------------------------------------


def degraded_cardinalities(
    analysis: BlockAnalysis,
    run: WorkflowRun,
    catalog: CssCatalog,
    estimator,
    hits=None,
) -> tuple[dict[AnySE, float], dict[str, str], dict[str, dict[str, str]]]:
    """Fill in cardinalities the failed run could not observe.

    ``estimator`` is the :class:`~repro.estimation.estimator
    .CardinalityEstimator` built over tonight's (partial) observations.
    ``hits`` is the night's :class:`~repro.catalog.store.CatalogHits`: its
    usable values are the ``catalog`` rung, and with its unusable entries
    decoded beside them they are the ``prior`` rung.  An entry on a
    schema-drifted source was marked stale before the lookup, so it is
    on the ``prior`` rung like any other stale entry.

    Returns ``(cardinalities, confidence, sources)``: ``confidence``
    labels each affected block with the *weakest* source used for it, and
    ``sources`` records, per block and per SE, exactly which rung of the
    ladder satisfied the gap.
    """
    from repro.baselines.independence import IndependenceEstimator, profile_inputs
    from repro.estimation.estimator import CardinalityEstimator, EstimationError

    cards: dict[AnySE, float] = dict(estimator.all_cardinalities())
    confidence: dict[str, str] = {}
    sources: dict[str, dict[str, str]] = {}

    def store_estimator(store: StatisticsStore):
        if not len(store):
            return None
        try:
            return CardinalityEstimator(catalog, store)
        except (EstimationError, KeyError, ValueError):
            return None

    rungs = []
    if hits is not None:
        rungs.append((CONFIDENCE_CATALOG, store_estimator(hits.values)))
        if hits.unusable:
            rungs.append((CONFIDENCE_PRIOR, store_estimator(hits.prior_values())))
    rungs = [(label, rung) for label, rung in rungs if rung is not None]

    independence = None

    def independence_estimator() -> IndependenceEstimator | None:
        nonlocal independence
        if independence is None:
            profiles = profile_inputs(analysis, run.env, strict=False)
            independence = IndependenceEstimator(analysis, profiles)
        return independence

    for block in analysis.blocks:
        needed = [se for se in block.join_ses() if se not in cards]
        if not needed:
            continue
        block_sources: dict[str, str] = {}
        for se in needed:
            value = None
            label = CONFIDENCE_NONE
            for rung_label, rung_estimator in rungs:
                try:
                    value = rung_estimator.cardinality(se)
                    label = rung_label
                    break
                except (EstimationError, KeyError):
                    value = None
            if value is None:
                try:
                    value = independence_estimator().cardinality(se)
                    label = CONFIDENCE_INDEPENDENCE
                except KeyError:
                    value = None
            if value is not None:
                cards[se] = float(value)
            block_sources[repr(se)] = label
        sources[block.name] = block_sources
        confidence[block.name] = weakest_confidence(block_sources.values())
    return cards, confidence, sources


__all__ = [
    "CONFIDENCE_CATALOG",
    "CONFIDENCE_INDEPENDENCE",
    "CONFIDENCE_NONE",
    "CONFIDENCE_OBSERVED",
    "CONFIDENCE_ORDER",
    "CONFIDENCE_PRIOR",
    "RunCheckpoint",
    "degraded_cardinalities",
    "demote_confidence",
    "weakest_confidence",
]
