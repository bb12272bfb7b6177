"""Plan instrumentation: taps that observe statistics during a run.

Section 3.2.5: *"Many commercial ETL engines provide a mechanism to plug in
user defined handlers at any point in the flow ... invoked for every tuple
that passes through that point."*  Our equivalent is the :class:`TapSet`:
it is handed the set of statistics the selection step chose, groups them by
observation point (an SE of the plan, or a reject link), and the runtime
calls :meth:`TapSet.observe_columns` with every batch of tuples that passes
such a point.

- cardinality  -> a counter (one integer);
- histogram    -> an exact frequency histogram on the tapped attributes;
- distinct     -> the exact set of distinct values on the tapped attributes.

Reject-link statistics are observable because the engine can always add an
instrumentation-only reject output to a join of the initial plan
(Section 4.1.2); :meth:`TapSet.reject_requests` tells the executor which
ones to produce.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.algebra.expressions import AnySE, RejectJoinSE, RejectSE
from repro.core.histogram import Histogram
from repro.core.statistics import StatKind, Statistic, StatisticsStore


class InstrumentationError(ValueError):
    """Raised when asked to observe something no plan point can provide."""


class TapSet:
    """Per-point statistic accumulators: additive, mergeable, fail-closed.

    - **additive**: :meth:`observe_columns` may feed one point in any
      number of column batches; counts, buckets and distinct values add
      up (the runtime hands over a few thousand rows at a time under the
      streaming profile, whole columns otherwise);
    - **mergeable**: :meth:`merge` folds in another tap set that observed
      *disjoint* rows of the same points (another block of the run, or
      another row shard of the same block) and the result is exact;
    - **fail-closed**: accumulators are provisional until the producing
      stream calls :meth:`mark_streamed`; :meth:`collect` reports only
      streamed points, so a failed block's statistics read as *missing*,
      never as zeros or partial counts.
    """

    def __init__(self, stats: Iterable[Statistic] = ()):
        self._by_se: dict[AnySE, list[Statistic]] = {}
        self._counters: dict[Statistic, int] = {}
        self._hists: dict[Statistic, Counter] = {}
        #: stat -> the exact set of value tuples seen at its point
        self._distinct: dict[Statistic, set] = {}
        self._streamed: set[AnySE] = set()
        for stat in stats:
            self.request(stat)

    def request(self, stat: Statistic) -> None:
        if isinstance(stat.se, RejectJoinSE):
            raise InstrumentationError(
                f"{stat!r} is never observable: the reject side-join is not "
                "executed by any plan"
            )
        self._by_se.setdefault(stat.se, []).append(stat)

    # ------------------------------------------------------------------
    @property
    def requested(self) -> list[Statistic]:
        return [s for bucket in self._by_se.values() for s in bucket]

    def wants(self, se: AnySE) -> bool:
        return se in self._by_se

    def reject_requests(self) -> set[RejectSE]:
        """Reject links the executor must produce (even instrumentation-only)."""
        return {se for se in self._by_se if isinstance(se, RejectSE)}

    def value_attrs(self, se: AnySE) -> tuple[str, ...]:
        """Attributes whose *values* (not just counts) are tapped at ``se``.

        The runtime uses this to materialize only the columns a
        histogram/distinct tap actually reads, instead of whole tables.
        """
        attrs: set[str] = set()
        for stat in self._by_se.get(se, ()):
            if stat.kind is not StatKind.CARDINALITY:
                attrs.update(stat.attrs)
        return tuple(sorted(attrs))

    # ------------------------------------------------------------------
    def observe_columns(
        self,
        se: AnySE,
        num_rows: int,
        columns: dict[str, list] | None = None,
    ) -> None:
        """Accumulate one column batch at ``se``.

        ``columns`` needs to carry (at least) :meth:`value_attrs`; it may
        be ``None`` when only cardinalities are tapped at this point.
        """
        columns = columns or {}
        for stat in self._by_se.get(se, ()):
            if stat.kind is StatKind.CARDINALITY:
                self._counters[stat] = self._counters.get(stat, 0) + num_rows
                continue
            missing = [a for a in stat.attrs if a not in columns]
            if missing:
                raise InstrumentationError(
                    f"cannot observe {stat!r}: attributes {missing} are "
                    f"not live at {se!r} (have {tuple(columns)})"
                )
            rows = zip(*(columns[a] for a in stat.attrs))
            if stat.kind is StatKind.HISTOGRAM:
                self._hists.setdefault(stat, Counter()).update(rows)
            else:
                self._distinct.setdefault(stat, set()).update(rows)

    def mark_streamed(self, se: AnySE) -> None:
        """Record that this observation point's stream ran to completion.

        Accumulators start empty, so :meth:`collect` must distinguish
        "streamed and saw nothing" from "the producing block never ran"
        (a failed block's requested statistics have to read as *missing*,
        not as zeros, or a degraded run would silently optimize from
        wrong cardinalities instead of falling back).
        """
        self._streamed.add(se)

    def collect(self) -> StatisticsStore:
        """The statistics of every streamed point (request order)."""
        store = StatisticsStore()
        for se, bucket in self._by_se.items():
            if se not in self._streamed:
                continue
            for stat in bucket:
                if stat.kind is StatKind.CARDINALITY:
                    store.put(stat, self._counters.get(stat, 0))
                elif stat.kind is StatKind.HISTOGRAM:
                    store.put(
                        stat, Histogram(stat.attrs, self._hists.get(stat, {}))
                    )
                else:
                    store.put(stat, len(self._distinct.get(stat, ())))
        return store

    # ------------------------------------------------------------------
    def merge(self, other: "TapSet") -> None:
        """Fold another tap set's accumulators into this one.

        The operands must have observed **disjoint rows** of the same
        logical points; under that contract the merge is exact:

        - cardinalities add;
        - histogram buckets add (Equation 1's union of disjoint row sets);
        - distinct value sets unite;
        - a point counts as streamed if either side streamed it.
        """
        for se, bucket in other._by_se.items():
            mine = self._by_se.setdefault(se, [])
            for stat in bucket:
                if stat not in mine:
                    mine.append(stat)
        for stat, count in other._counters.items():
            self._counters[stat] = self._counters.get(stat, 0) + count
        for stat, buckets in other._hists.items():
            self._hists.setdefault(stat, Counter()).update(buckets)
        for stat, values in other._distinct.items():
            self._distinct.setdefault(stat, set()).update(values)
        self._streamed |= other._streamed

    def discard_points(self, ses: Iterable[AnySE]) -> None:
        """Drop every observation (and request) at the given points.

        Used to strip points someone else is responsible for (a shared
        feed another block already published, broadcast-replicated shard
        inputs, reject links the parent re-observes from merged tables)
        so the merge that follows stays purely additive.
        """
        drop = set(ses)
        for se in drop:
            for stat in self._by_se.pop(se, ()):
                self._counters.pop(stat, None)
                self._hists.pop(stat, None)
                self._distinct.pop(stat, None)
        self._streamed -= drop

    def missing(self) -> list[Statistic]:
        """Requested statistics whose point never streamed (plan bug, or
        the producing block failed)."""
        return [s for s in self.requested if s.se not in self._streamed]
