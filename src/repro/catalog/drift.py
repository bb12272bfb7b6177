"""Drift detection: keep the catalog honest against tonight's run.

The catalog's value rests on a bet — that statistics observed on an
earlier night still describe tonight's data.  Following the adaptive
feedback loop of Adaptive Cardinality Estimation (arXiv:1711.08330), every
completed run closes the loop: the engine records the true size of every
plan point it materializes (``WorkflowRun.se_sizes``), whether or not a
tap was requested there, so each run yields a free ground-truth sample to
compare catalog predictions against.

:func:`reconcile_run` does three things, in order:

1. **refresh** — statistics actually tapped tonight overwrite their
   catalog entries (fresh observation beats any cached value), and the
   prediction error of the *old* entry is folded into its quality score;
2. **drift scan** — the night's one estimated-vs-actual pass
   (:func:`prediction_errors`): for every SE the run materialized, the
   catalog's cardinality prediction is compared with the true size and
   the error blended into the entry's quality; a relative error above
   :data:`DEFAULT_DRIFT_THRESHOLD` marks the SE as drifted.  Its cardinality entry is
   refreshed in place (the true size *is* a valid observation), while the
   histogram/distinct entries riding on the same SE are marked **stale**
   — the run never materialized their buckets, so they must be
   re-observed, and the stale flag is precisely what removes them from
   the next run's zero-cost offer.  The blended quality is the only
   memory of an entry's errors: once it falls below the catalog's
   ``min_quality`` the entry leaves the zero-cost offer too;
3. **admission** — tapped statistics new to the catalog are inserted with
   full provenance.

Only the affected entries are touched: an injected 10× shift on one
source invalidates that source's statistics and the joins it feeds, and
nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.signatures import SignatureError, WorkflowSigner
from repro.catalog.store import CatalogEntry, StatisticsCatalog
from repro.core.statistics import Statistic, StatisticsStore

#: relative cardinality error above which an entry counts as drifted
DEFAULT_DRIFT_THRESHOLD = 0.5


@dataclass
class DriftReport:
    """What one reconciliation pass did to the catalog."""

    added: list[str] = field(default_factory=list)  # entry reprs
    refreshed: list[str] = field(default_factory=list)
    drifted: list[str] = field(default_factory=list)  # SE reprs that moved
    stale_marked: int = 0
    max_rel_error: float = 0.0

    @property
    def touched(self) -> int:
        return len(self.added) + len(self.refreshed)

    def describe(self) -> str:
        parts = [
            f"catalog reconcile: +{len(self.added)} new, "
            f"{len(self.refreshed)} refreshed"
        ]
        if self.drifted:
            parts.append(
                f"{len(self.drifted)} SE(s) drifted "
                f"(worst rel. error {self.max_rel_error:.2f}), "
                f"{self.stale_marked} entries marked stale"
            )
        return "; ".join(parts)


def rel_error(predicted: float, actual: float) -> float:
    """``|actual - predicted| / max(|predicted|, 1)`` -- the one spelling."""
    return abs(float(actual) - float(predicted)) / max(abs(float(predicted)), 1.0)


def prediction_errors(
    signer: WorkflowSigner,
    se_sizes: dict,
    catalog: StatisticsCatalog,
    refreshed=frozenset(),
):
    """The night's one estimated-vs-actual pass.

    Yields ``(se, card_key, err)`` for every materialized SE whose
    cardinality the catalog holds (usable or not) and no tap refreshed
    tonight (``card_key in refreshed``) -- so an entry is only ever
    charged with the error of its own value.
    """
    for se in sorted(se_sizes, key=repr):
        try:
            card_key = signer.statistic_key(Statistic.card(se))
        except SignatureError:
            continue
        if card_key in refreshed:
            continue
        entry = catalog.get(card_key)
        if entry is not None:
            yield se, card_key, rel_error(entry.value(), se_sizes[se])


def reconcile_run(
    catalog: StatisticsCatalog,
    signer: WorkflowSigner,
    observations: StatisticsStore,
    se_sizes: dict,
    tapped,
    *,
    workflow: str = "",
    run_id: str = "",
    backend: str = "",
    now: float | None = None,
) -> DriftReport:
    """Fold one completed run back into the catalog.

    ``observations`` is the run's tap output, ``se_sizes`` the true row
    counts of every materialized plan point, ``tapped`` the statistics
    that were actually instrumented tonight (catalog-covered statistics
    are *not* tapped, which is the whole point — their entries are
    validated through the drift scan instead).
    """
    now = time.time() if now is None else now
    report = DriftReport()
    tapped = set(tapped)
    provenance = dict(
        workflow=workflow, run_id=run_id, backend=backend, observed_at=now
    )

    # 1 + 3: fresh observations refresh or admit entries
    refreshed_keys: set[str] = set()
    for stat in sorted(tapped, key=lambda s: s.sort_key()):
        if stat not in observations:
            continue  # a failed block's tap never fired
        try:
            key = signer.statistic_key(stat)
            se_key = signer.se_key(stat.se)
        except SignatureError:
            continue
        value = observations.get(stat)
        previous = catalog.get(key)
        quality = 1.0
        if previous is not None and not stat.is_histogram:
            err = rel_error(previous.value(), value)
            report.max_rel_error = max(report.max_rel_error, err)
            quality = CatalogEntry.reobserved_quality(err)
        catalog.record(key, se_key, stat, value, quality=quality, **provenance)
        refreshed_keys.add(key)
        (report.refreshed if previous is not None else report.added).append(
            repr(stat)
        )

    # 2: drift scan over every materialized plan point
    for se, card_key, err in prediction_errors(
        signer, se_sizes, catalog, refreshed_keys
    ):
        report.max_rel_error = max(report.max_rel_error, err)
        if err <= DEFAULT_DRIFT_THRESHOLD:
            catalog.adjust_quality(card_key, err)
            continue
        report.drifted.append(repr(se))
        se_key = signer.se_key(se)
        # the true size is itself a valid observation: penalise, then
        # refresh in place carrying the penalised quality forward
        catalog.correct(
            card_key, se_key, Statistic.card(se), se_sizes[se], err, **provenance
        )
        # ...but the buckets of sibling histogram/distinct entries were
        # not materialized tonight — force their re-observation
        siblings = [
            sibling.key
            for sibling in catalog.entries_on_se([se_key])
            if sibling.key != card_key and sibling.key not in refreshed_keys
        ]
        report.stale_marked += catalog.mark_stale(siblings)
    return report


def invalidate_schema_drift(
    catalog: StatisticsCatalog,
    signer: WorkflowSigner,
    analysis,
    sources,
) -> int:
    """Mark stale every entry on an SE touching a schema-drifted source.

    Value drift (the scan above) compares numbers; *schema* drift --
    detected by the quality gate's :func:`repro.quality.drift
    .reconcile_schema` -- means the source's shape changed upstream, so
    every statistic whose sub-expression involves that source describes a
    table that no longer exists.  The pipeline calls this after screening
    and *before* its catalog lookup: the stale entries leave tonight's
    zero-cost offer, so the selection taps them over the reconciled
    schema and :func:`reconcile_run` re-admits them fresh the same night.
    A degraded night still finds them among the lookup's unusable
    entries, on the ``prior`` rung.

    ``sources`` are drifted *base* names (e.g. ``{"customers"}``); they
    are mapped to each block's input and stage relation names, then to the
    block's SE universe and post stages.  Returns the number of entries
    newly marked stale.
    """
    sources = set(sources)
    if not sources:
        return 0
    se_keys: set[str] = set()
    for block in analysis.blocks:
        touched = block.relations_on(sources)
        if not touched:
            continue
        # the block's post stages derive from a join that includes the
        # drifted input, so they are suspect regardless of relation names
        post = set(block.post_stage_ses())
        for se in block.universe():
            if not (se.relations & touched) and se not in post:
                continue
            try:
                se_keys.add(signer.se_key(se))
            except SignatureError:
                continue
    return catalog.mark_stale(
        entry.key for entry in catalog.entries_on_se(se_keys)
    )


__all__ = [
    "DEFAULT_DRIFT_THRESHOLD",
    "DriftReport",
    "invalidate_schema_drift",
    "prediction_errors",
    "reconcile_run",
    "rel_error",
]
