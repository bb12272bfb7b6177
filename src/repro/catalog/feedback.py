"""Adaptive catalog feedback: learn from the estimation-error stream.

:mod:`repro.catalog.drift` reconciles the catalog against what a run
*materialized*; this module closes the other half of the adaptive loop of
Adaptive Cardinality Estimation (arXiv:1711.08330): compare what the
optimizer *believed* (the per-operator ``estimated_rows`` predictions the
trace layer annotates, i.e. prior SE sizes overlaid with tonight's
catalog cardinalities) against what the run observed, and

1. **correct** -- a catalog cardinality entry whose prediction missed by
   more than ``threshold`` is refreshed in place with the observed value,
   with the error folded into its quality score first (the same
   penalize-then-record sequence as the drift scan);
2. **remember** -- per-statistic errors are smoothed across runs (EWMA),
   so a persistently misestimated statistic is distinguishable from a
   one-night blip;
3. **re-rank** -- :func:`~repro.catalog.fleet.plan_fleet` accepts the
   corrector as its ``feedback`` argument: statistics flagged by
   :meth:`FeedbackCorrector.should_reobserve` are withdrawn from the
   zero-cost catalog offer (forcing fresh observation), and each
   workflow's observation list is ordered most-misestimated first.

The corrector is deliberately stateful across nights -- hold one instance
per catalog for the life of a session (or the ``repro serve`` daemon) and
feed it every run via ``StatisticsPipeline.run_once(feedback=...)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.drift import _rel_error
from repro.catalog.signatures import SignatureError, WorkflowSigner
from repro.core.statistics import Statistic

#: relative error above which a prediction counts as a miss
DEFAULT_CORRECTION_THRESHOLD = 0.25

#: EWMA weight of the newest error sample
DEFAULT_SMOOTHING = 0.5

#: consecutive missed runs before a statistic is flagged for re-observation
DEFAULT_REOBSERVE_STREAK = 2


@dataclass
class FeedbackReport:
    """What one run's error stream taught the corrector."""

    observed: int = 0  # (estimate, actual) pairs consumed
    corrected: list[str] = field(default_factory=list)  # SE reprs fixed
    flagged: list[str] = field(default_factory=list)  # keys to re-observe
    mean_rel_error: float = 0.0
    max_rel_error: float = 0.0

    @property
    def corrections(self) -> int:
        return len(self.corrected)

    def describe(self) -> str:
        parts = [
            f"feedback: {self.observed} prediction(s) checked, "
            f"mean rel. error {self.mean_rel_error:.3f}"
        ]
        if self.corrected:
            parts.append(
                f"{len(self.corrected)} catalog entr"
                f"{'y' if len(self.corrected) == 1 else 'ies'} corrected "
                f"(worst {self.max_rel_error:.2f})"
            )
        if self.flagged:
            parts.append(f"{len(self.flagged)} flagged for re-observation")
        return "; ".join(parts)


class FeedbackCorrector:
    """Consumes per-operator estimation errors, corrects the catalog.

    ``catalog`` may be ``None`` for a pure re-ranking corrector (errors
    are remembered and fed to ``plan_fleet``, nothing is written).
    """

    def __init__(
        self,
        catalog=None,
        *,
        threshold: float = DEFAULT_CORRECTION_THRESHOLD,
        smoothing: float = DEFAULT_SMOOTHING,
        reobserve_streak: int = DEFAULT_REOBSERVE_STREAK,
    ):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.catalog = catalog
        self.threshold = float(threshold)
        self.smoothing = float(smoothing)
        self.reobserve_streak = int(reobserve_streak)
        #: statistic key -> smoothed relative error across runs
        self.errors: dict[str, float] = {}
        #: statistic key -> consecutive runs the prediction missed
        self.streaks: dict[str, int] = {}
        self.corrections_total = 0

    # ------------------------------------------------------------------
    def observe_run(
        self,
        signer: WorkflowSigner,
        estimates: dict,
        actuals: dict,
        *,
        workflow: str = "",
        run_id: str = "",
        backend: str = "",
        now: float | None = None,
        metrics=None,
    ) -> FeedbackReport:
        """Fold one run's estimated-vs-actual SE sizes into the corrector.

        ``estimates`` maps SEs to the row counts the optimizer believed
        (prior sizes + catalog cardinalities -- exactly what backs the
        trace layer's ``estimation_rel_error`` stream); ``actuals`` is
        the run's true ``se_sizes``.  Returns a :class:`FeedbackReport`;
        ``metrics`` receives ``feedback_*`` counters/gauges (the
        pipeline-level ``etl_catalog_corrections_total`` counter is
        recorded by :func:`repro.obs.record.record_run_metrics` from the
        report).
        """
        now = time.time() if now is None else now
        report = FeedbackReport()
        errors: list[float] = []
        for se in sorted(set(estimates) & set(actuals), key=repr):
            predicted = float(estimates[se])
            actual = float(actuals[se])
            err = _rel_error(predicted, actual)
            errors.append(err)
            report.max_rel_error = max(report.max_rel_error, err)
            try:
                key = signer.statistic_key(Statistic.card(se))
                se_key = signer.se_key(se)
            except SignatureError:
                continue
            previous = self.errors.get(key)
            self.errors[key] = (
                err
                if previous is None
                else self.smoothing * err + (1.0 - self.smoothing) * previous
            )
            if err <= self.threshold:
                self.streaks[key] = 0
                continue
            self.streaks[key] = self.streaks.get(key, 0) + 1
            if self.catalog is None:
                continue
            if self.catalog.get(key) is None:
                continue
            # the drift scan's correction sequence: penalise, then refresh
            # in place with the observed value
            self.catalog.correct(
                key, se_key, Statistic.card(se), int(actual), err,
                workflow=workflow, run_id=run_id, backend=backend,
                observed_at=now,
            )
            report.corrected.append(repr(se))

        report.observed = len(errors)
        if errors:
            report.mean_rel_error = sum(errors) / len(errors)
        report.flagged = sorted(
            key for key in self.errors if self.should_reobserve(key)
        )
        self.corrections_total += len(report.corrected)

        if metrics is not None:
            labels = {"workflow": workflow} if workflow else {}
            if report.corrected:
                metrics.counter(
                    "feedback_corrections_total",
                    "catalog entries corrected from the error stream",
                ).inc(len(report.corrected), **labels)
            if errors:
                metrics.gauge(
                    "feedback_mean_rel_error",
                    "mean prediction error the corrector saw this run",
                ).set(report.mean_rel_error, **labels)
        return report

    # ------------------------------------------------------------------
    # re-ranking signal (consumed by plan_fleet)
    # ------------------------------------------------------------------
    def should_reobserve(self, key: str) -> bool:
        """Is this statistic misestimated persistently enough to force a
        fresh observation instead of trusting the catalog?"""
        return (
            self.streaks.get(key, 0) >= self.reobserve_streak
            or self.errors.get(key, 0.0) > self.threshold
        )

    def priority(self, key: "str | None") -> float:
        """Re-ranking weight: higher = observe sooner (smoothed error)."""
        if not key:
            return 0.0
        return self.errors.get(key, 0.0)


__all__ = [
    "DEFAULT_CORRECTION_THRESHOLD",
    "DEFAULT_REOBSERVE_STREAK",
    "DEFAULT_SMOOTHING",
    "FeedbackCorrector",
    "FeedbackReport",
]
