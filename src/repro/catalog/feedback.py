"""Adaptive catalog feedback: remember the estimation-error stream.

:mod:`repro.catalog.drift` compares what a night *believed* (catalog
cardinalities, previous-cycle sizes) with what the run materialized, once,
and corrects the catalog; this module is the cross-night memory of the
adaptive loop of Adaptive Cardinality Estimation (arXiv:1711.08330).  The
:class:`FeedbackCorrector` is *fed* that pass's per-statistic errors and

1. **remembers** -- errors are smoothed across runs (EWMA) and
   consecutive misses counted, so a persistently misestimated statistic
   is distinguishable from a one-night blip;
2. **re-ranks** -- :func:`~repro.catalog.fleet.plan_fleet` accepts the
   corrector as its ``feedback`` argument: statistics flagged by
   :meth:`FeedbackCorrector.should_reobserve` are withdrawn from the
   zero-cost catalog offer (forcing fresh observation), and each
   workflow's observation list is ordered most-misestimated first.

It holds no catalog and writes nothing: charging an entry twice for one
miss is exactly the self-reinforcing loop the paper above warns of.  Hold
one instance for the life of a session (or the ``repro serve`` daemon) and
feed it every run via ``StatisticsPipeline.run_once(feedback=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: relative error above which a prediction counts as a miss
DEFAULT_CORRECTION_THRESHOLD = 0.25

#: EWMA weight of the newest error sample
DEFAULT_SMOOTHING = 0.5

#: consecutive missed runs before a statistic is flagged for re-observation
DEFAULT_REOBSERVE_STREAK = 2


@dataclass
class FeedbackReport:
    """What one run's error stream taught the corrector."""

    observed: int = 0  # predictions checked
    flagged: list[str] = field(default_factory=list)  # keys to re-observe
    mean_rel_error: float = 0.0
    max_rel_error: float = 0.0

    def describe(self) -> str:
        text = (
            f"feedback: {self.observed} prediction(s) checked, "
            f"mean rel. error {self.mean_rel_error:.3f} "
            f"(worst {self.max_rel_error:.2f})"
        )
        if self.flagged:
            text += f"; {len(self.flagged)} flagged for re-observation"
        return text


class FeedbackCorrector:
    """Remembers per-statistic estimation errors across nights.

    ``threshold`` decides what counts as a miss (streaks, flags); it never
    decides a catalog write -- that is :func:`~repro.catalog.drift
    .reconcile_run`'s one threshold.
    """

    def __init__(
        self,
        *,
        threshold: float = DEFAULT_CORRECTION_THRESHOLD,
        smoothing: float = DEFAULT_SMOOTHING,
        reobserve_streak: int = DEFAULT_REOBSERVE_STREAK,
    ):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.threshold = float(threshold)
        self.smoothing = float(smoothing)
        self.reobserve_streak = int(reobserve_streak)
        #: statistic key -> smoothed relative error across runs
        self.errors: dict[str, float] = {}
        #: statistic key -> consecutive runs the prediction missed
        self.streaks: dict[str, int] = {}

    # ------------------------------------------------------------------
    def observe_run(self, errors: dict[str, float]) -> FeedbackReport:
        """Fold one run's prediction errors into the memory.

        ``errors`` maps cardinality-statistic keys to tonight's relative
        error, as :func:`~repro.catalog.drift.prediction_errors` measured
        them (:func:`~repro.catalog.drift.reconcile_run` passes them on
        when given a ``corrector``).
        """
        for key, err in errors.items():
            previous = self.errors.get(key)
            self.errors[key] = (
                err
                if previous is None
                else self.smoothing * err + (1.0 - self.smoothing) * previous
            )
            if err > self.threshold:
                self.streaks[key] = self.streaks.get(key, 0) + 1
            else:
                self.streaks[key] = 0

        report = FeedbackReport(observed=len(errors))
        if errors:
            report.mean_rel_error = sum(errors.values()) / len(errors)
            report.max_rel_error = max(errors.values())
        report.flagged = sorted(
            key for key in self.errors if self.should_reobserve(key)
        )
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
