"""Evaluating CSSs: turning observed statistics into computed ones.

This module is the semantic half of the rule set (Section 4.1): the
generator records *which* statistics suffice, the calculator knows *how* to
combine them.  Given the observed values from an instrumented run, it runs
the CSS catalog to a fixpoint, computing every statistic whose inputs are
available -- in particular the cardinality of every SE in ℰ, which is what
the cost-based optimizer consumes.

Because the source histograms are exact (one bucket per value), every
computed cardinality is exact too; the tests assert equality against brute
force.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from repro.core.css import CSS, CssCatalog
from repro.core.histogram import Histogram
from repro.core.statistics import Statistic, StatisticsStore


class CalculationError(ValueError):
    """Raised when a CSS evaluation is malformed."""


def join_histograms(
    h1: Histogram, h2: Histogram, key: tuple[str, ...], bs: tuple[str, ...]
) -> Histogram:
    """Generalized J2: histogram of ``bs`` on the join of two relations.

    ``h1`` / ``h2`` are joint histograms carrying the join key plus the
    ``bs`` attributes each side owns; buckets matching on the key multiply.
    """
    key = tuple(sorted(key))
    bs = tuple(sorted(bs))
    k1 = [h1.attrs.index(a) for a in key]
    k2 = [h2.attrs.index(a) for a in key]
    pulls: list[tuple[int, int]] = []  # (source: 1|2, position)
    for attr in bs:
        if attr in h1.attrs:
            pulls.append((1, h1.attrs.index(attr)))
        elif attr in h2.attrs:
            pulls.append((2, h2.attrs.index(attr)))
        else:
            raise CalculationError(f"attribute {attr!r} on neither input")
    # index h2 buckets by key value
    by_key: dict[tuple, list[tuple[tuple, float]]] = {}
    for bucket, freq in h2.counts.items():
        by_key.setdefault(tuple(bucket[i] for i in k2), []).append((bucket, freq))
    out: dict[tuple, float] = {}
    for bucket1, freq1 in h1.counts.items():
        kv = tuple(bucket1[i] for i in k1)
        for bucket2, freq2 in by_key.get(kv, ()):
            value = tuple(
                bucket1[pos] if src == 1 else bucket2[pos] for src, pos in pulls
            )
            out[value] = out.get(value, 0) + freq1 * freq2
    return Histogram(bs, out)


def group_distinct(h: Histogram, bs: tuple[str, ...]) -> Histogram:
    """Rule G2: per-``bs`` count of distinct group-key buckets.

    After ``G(T, a)`` every group contributes one row, so the frequency of a
    ``bs``-value in the output is the number of distinct ``a``-buckets
    projecting to it.
    """
    bs = tuple(sorted(bs))
    positions = [h.attrs.index(a) for a in bs]
    out: dict[tuple, float] = {}
    for bucket in h.counts:
        sub = tuple(bucket[i] for i in positions)
        out[sub] = out.get(sub, 0) + 1
    return Histogram(bs, out)


# the rules whose ``_evaluate`` branch builds a Histogram
_HISTOGRAM_RULES = frozenset({"J2", "J3", "J4", "J5", "S1", "S2", "G2", "I2"})


def _label(
    css: CSS, labels: dict[Statistic, tuple[int, int]]
) -> tuple[int, int]:
    """(histograms built, CSSs evaluated) to derive ``css.target`` by
    ``css``; an input without a label is already held and costs nothing."""
    built, steps = int(css.rule in _HISTOGRAM_RULES), 1
    for stat in set(css.inputs):
        b, n = labels.get(stat, (0, 0))
        built, steps = built + b, steps + n
    return built, steps


class StatisticsCalculator:
    """Fixpoint evaluation of a CSS catalog over observed statistics."""

    def __init__(self, catalog: CssCatalog, observed: StatisticsStore):
        self.catalog = catalog
        self.values = observed.copy()

    # ------------------------------------------------------------------
    def compute_all(self) -> StatisticsStore:
        """Evaluate every computable statistic (bottom-up fixpoint)."""
        return self.compute(None)

    def compute(self, targets: Iterable[Statistic] | None) -> StatisticsStore:
        """Evaluate ``targets`` (``None``: everything computable) and what
        their derivations pass through, nothing else.

        The fixpoint first runs symbolically -- which CSS derives which
        statistic -- so a caller that reads only ``S_C`` does not pay for
        the joint histograms no required cardinality is derived from.  Each
        statistic takes its cheapest derivation (Knuth's generalisation of
        Dijkstra to AND-OR graphs): a CSS is labelled (histograms built,
        CSSs evaluated) summed over it and its inputs' derivations, a value
        already held is (0, 0), and ties go to catalog order.  Histograms
        are exact, so every derivation gives the same value.
        """
        waiting: dict[Statistic, list[int]] = {}
        remaining: list[int] = []
        entries: list[CSS] = [
            css for bucket in self.catalog.css.values() for css in bucket
        ]
        labels: dict[Statistic, tuple[int, int]] = {}
        ready: list[tuple[tuple[int, int], int]] = []
        for idx, css in enumerate(entries):
            missing = [s for s in set(css.inputs) if s not in self.values]
            remaining.append(len(missing))
            if not missing:
                heappush(ready, (_label(css, labels), idx))
            for s in missing:
                waiting.setdefault(s, []).append(idx)
        derived: dict[Statistic, CSS] = {}  # in derivation order
        while ready:
            label, idx = heappop(ready)
            css = entries[idx]
            if css.target in self.values or css.target in derived:
                continue
            derived[css.target] = css
            labels[css.target] = label
            for dependent in waiting.get(css.target, []):
                remaining[dependent] -= 1
                if remaining[dependent] == 0:
                    heappush(
                        ready, (_label(entries[dependent], labels), dependent)
                    )
        wanted = set(derived if targets is None else targets)
        for stat in reversed(derived):  # targets before their inputs
            if stat in wanted:
                wanted.update(derived[stat].inputs)
        for stat, css in derived.items():
            if stat in wanted:
                self.values.put(stat, self._evaluate(css))
        return self.values

    # ------------------------------------------------------------------
    def _evaluate(self, css: CSS):
        rule = css.rule
        values = [self.values.get(s) for s in css.inputs]
        target = css.target
        if rule == "J1":
            h1, h2 = values
            return h1.dot(h2)
        if rule == "J2":
            key = tuple(css.ctx("key"))
            bs = tuple(css.ctx("bs"))
            return join_histograms(values[0], values[1], key, bs)
        if rule == "J3":
            return values[0].multiply(values[1])
        if rule == "J4":
            h_big, h_t3, rej_card = values
            survived = h_big.divide(h_t3).total()
            return survived + rej_card
        if rule == "J5":
            h_big, h_t3, h_rej = values
            bs = tuple(sorted(css.ctx("bs")))
            survived = h_big.divide(h_t3).marginalize(bs)
            return survived.add(h_rej)
        if rule == "S1":
            step = self.catalog.step(css.ctx("step"))
            predicate = step.node.predicate.fn
            return values[0].select(step.attrs[0], predicate).total()
        if rule == "S2":
            step = self.catalog.step(css.ctx("step"))
            predicate = step.node.predicate.fn
            bs = tuple(sorted(css.ctx("bs")))
            return (
                values[0].select(step.attrs[0], predicate).marginalize(bs)
            )
        if rule in ("U1", "P1", "B1", "FK", "G1"):
            return values[0]
        if rule in ("U2", "P2"):
            return values[0]
        if rule == "G2":
            return group_distinct(values[0], tuple(css.ctx("bs")))
        if rule == "D1":
            return values[0].distinct_count()
        if rule == "I1":
            return values[0].total()
        if rule == "I2":
            return values[0].marginalize(target.attrs)
        raise CalculationError(f"unknown rule {rule!r}")


def compute_statistics(
    catalog: CssCatalog, observed: StatisticsStore
) -> StatisticsStore:
    """Convenience wrapper: run the calculator to its fixpoint."""
    return StatisticsCalculator(catalog, observed).compute_all()
