"""Exact frequency histograms and the algebra the CSS rules need.

Section 3.1: *"Currently, we consider only histograms that can accurately
estimate the cardinalities"* -- i.e. one bucket per distinct value.  This
module implements such exact (multi-)attribute frequency distributions,
``H_T^a`` and ``H_T^{a,b}``, together with every operation the rule set of
Section 4 uses:

=====================  ======================================================
operation              paper usage
=====================  ======================================================
``dot``                J1: ``|T_12| = H_{T1}^a . H_{T2}^a``
``multiply``           J3 and Eq. 2: ``<H1 | H2>`` bucket-wise product
``divide``             Eq. 2/3: bucket-wise division (union-division method)
``marginalize``        I2: coarsen ``H^{a,b}`` to ``H^a``
``total``              I1: ``|T| = |H_T^a|`` (sum of bucket values)
``add``                Eq. 1: union of disjoint row sets
``distinct_count``     D1: ``|a_T|``
=====================  ======================================================

Buckets with zero frequency are never stored; histograms are immutable from
the caller's perspective (all operations return new objects).  Rule J2 (the
distribution of carried attributes after a join) is evaluated by
:func:`repro.estimation.calculator.join_histograms`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field


class HistogramError(ValueError):
    """Raised for invalid histogram operations (attribute mismatches etc.)."""


def _as_tuple(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


@dataclass(frozen=True)
class Histogram:
    """Exact frequency distribution over one or more attributes.

    ``attrs`` is the canonical (sorted) attribute tuple; ``counts`` maps a
    value tuple (aligned with ``attrs``) to its frequency.
    """

    attrs: tuple[str, ...]
    counts: Mapping[tuple, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.attrs:
            raise HistogramError("a histogram needs at least one attribute")
        if tuple(sorted(self.attrs)) != tuple(self.attrs):
            raise HistogramError(
                f"attributes must be in canonical sorted order, got {self.attrs}"
            )
        if len(set(self.attrs)) != len(self.attrs):
            raise HistogramError(f"duplicate attributes: {self.attrs}")
        cleaned = {
            _as_tuple(k): v for k, v in dict(self.counts).items() if v != 0
        }
        for key in cleaned:
            if len(key) != len(self.attrs):
                raise HistogramError(
                    f"bucket key {key!r} does not match attributes {self.attrs}"
                )
        object.__setattr__(self, "counts", cleaned)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, attrs: Sequence[str], rows: Iterable[tuple]) -> "Histogram":
        """Build a histogram by scanning value tuples aligned with ``attrs``.

        ``attrs`` may arrive in any order; both attributes and row values are
        permuted into canonical order.
        """
        attrs = tuple(attrs)
        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical = tuple(attrs[i] for i in order)
        counter: Counter = Counter()
        for row in rows:
            row = _as_tuple(row)
            counter[tuple(row[i] for i in order)] += 1
        return cls(canonical, dict(counter))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def total(self) -> float:
        """``|H_T^a|`` -- the sum of bucket values, equals ``|T|`` (rule I1)."""
        return sum(self.counts.values())

    def distinct_count(self) -> int:
        """Number of non-empty buckets: ``|a_T|`` for the stored attributes."""
        return len(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.attrs == other.attrs and dict(self.counts) == dict(other.counts)

    def __hash__(self) -> int:  # frozen dataclass with dict field
        return hash((self.attrs, frozenset(self.counts.items())))

    # ------------------------------------------------------------------
    # rule algebra
    # ------------------------------------------------------------------
    def _require_same_attrs(self, other: "Histogram") -> None:
        if self.attrs != other.attrs:
            raise HistogramError(
                f"attribute mismatch: {self.attrs} vs {other.attrs}"
            )

    def dot(self, other: "Histogram") -> float:
        """Rule J1: join cardinality as a dot product of join-key histograms."""
        self._require_same_attrs(other)
        small, large = sorted((self, other), key=len)
        return sum(
            freq * large.counts.get(key, 0) for key, freq in small.counts.items()
        )

    def multiply(self, other: "Histogram") -> "Histogram":
        """``<H1 | H2>``: bucket-wise product (rule J3, Equation 2).

        ``other`` must be a histogram on a subset of this histogram's
        attributes; its value is broadcast across the remaining attributes.
        """
        return self._broadcast(other, lambda a, b: a * b)

    def divide(self, other: "Histogram") -> "Histogram":
        """Bucket-wise division (Equations 2-3, the union-division method).

        Buckets whose divisor is zero cannot have come from the multiplied
        join, so they are dropped (they contribute no joined rows).
        """
        return self._broadcast(
            other, lambda a, b: a / b if b else 0.0
        )

    def _broadcast(self, other: "Histogram", op) -> "Histogram":
        if not set(other.attrs) <= set(self.attrs):
            raise HistogramError(
                f"{other.attrs} is not a subset of {self.attrs}; cannot broadcast"
            )
        positions = [self.attrs.index(a) for a in other.attrs]
        out: dict[tuple, float] = {}
        for key, freq in self.counts.items():
            sub = tuple(key[i] for i in positions)
            value = op(freq, other.counts.get(sub, 0))
            if value:
                out[key] = value
        return Histogram(self.attrs, out)

    def marginalize(self, attrs: Sequence[str]) -> "Histogram":
        """Rule I2: coarsen to a histogram on a subset of attributes."""
        attrs = tuple(sorted(attrs))
        if not set(attrs) <= set(self.attrs):
            raise HistogramError(
                f"{attrs} is not a subset of {self.attrs}; cannot marginalize"
            )
        if attrs == self.attrs:
            return self
        positions = [self.attrs.index(a) for a in attrs]
        out: dict[tuple, float] = {}
        for key, freq in self.counts.items():
            sub = tuple(key[i] for i in positions)
            out[sub] = out.get(sub, 0) + freq
        return Histogram(attrs, out)

    def add(self, other: "Histogram") -> "Histogram":
        """Union of disjoint row sets (Equation 1): bucket-wise sum."""
        self._require_same_attrs(other)
        out = dict(self.counts)
        for key, freq in other.counts.items():
            out[key] = out.get(key, 0) + freq
        return Histogram(self.attrs, out)

    def select(self, attr: str, predicate) -> "Histogram":
        """Rule S1/S2 support: keep buckets whose ``attr`` value passes."""
        if attr not in self.attrs:
            raise HistogramError(f"{attr!r} not in {self.attrs}")
        pos = self.attrs.index(attr)
        kept = {k: v for k, v in self.counts.items() if predicate(k[pos])}
        return Histogram(self.attrs, kept)
