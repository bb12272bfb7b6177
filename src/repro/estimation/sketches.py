"""Mergeable distinct-count sketches (HyperLogLog with exact fallback).

The engine's distinct taps ride on one seam -- the four-method
``add`` / ``update`` / ``merge`` / ``result`` accumulator protocol of
:class:`~repro.engine.instrumentation.DistinctAccumulator`.  Each
:class:`~repro.engine.instrumentation.TapSet` carries the
:class:`SketchSpec` its distinct accumulators follow; this module
supplies the sketch implementation of that protocol:

- :class:`HllSketch` -- a dense-register HyperLogLog [Flajolet et al.]
  over a deterministic 64-bit hash.  Small cardinalities are tracked as
  an exact value set and *densified* into registers only once the set
  outgrows ``exact_threshold``; because the final register array is the
  pointwise maximum of every value's (index, rank) contribution, the
  sketch state is a pure function of the value *set* -- shard merges in
  any order reproduce the unsharded sketch register for register, which
  is exactly the guarantee the multiprocess backend's tap merge needs.
- :class:`SketchSpec` -- the distinct-accumulator configuration a tap
  set is built with: ``mode="exact"`` keeps the historical exact set
  union, ``mode="hll"`` builds sketches instead.  The pipeline passes its
  spec to ``make_taps``; every tap set derived from that one (a block
  attempt's buffer, a shard worker's taps) copies it, and the
  multiprocess backend ships it to its forked workers in each task
  payload.

Hashing uses ``blake2b(repr(value))`` rather than Python's builtin
``hash`` because the builtin is salted per process: forked shard workers
and the parent must agree on every value's register.

Serialization follows :mod:`repro.core.persistence`: a versioned JSON
document (``to_doc`` / ``from_doc``) with base64 registers, so sketches
survive checkpoints and catalog round-trips.
"""

from __future__ import annotations

import base64
import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Iterable

from repro.core.persistence import FORMAT_VERSION, PersistenceError

MIN_PRECISION = 4
MAX_PRECISION = 18
#: 2^14 registers: ~0.81% typical relative error, 16 KiB dense state
DEFAULT_PRECISION = 14

_HASH_BITS = 64


class SketchError(ValueError):
    """Raised for invalid sketch configuration or corrupt documents."""


def hash64(value) -> int:
    """Deterministic 64-bit hash, stable across processes and runs.

    ``repr`` of the tuples the taps accumulate (python scalars) is
    deterministic, and blake2b is unsalted -- a forked worker and its
    parent map every value to the same register/rank pair.
    """
    digest = hashlib.blake2b(
        repr(value).encode("utf-8", "backslashreplace"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _alpha(m: int) -> float:
    """The standard HLL bias-correction constant for ``m`` registers."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _default_threshold(precision: int) -> int:
    # keep small cardinalities exact: the set stays cheaper than the
    # register array until well past this point anyway
    return max(64, (1 << precision) // 64)


@dataclass(frozen=True)
class SketchSpec:
    """Distinct-accumulator configuration of one tap set.

    ``mode`` selects the accumulator a
    :class:`~repro.engine.instrumentation.TapSet` builds per distinct
    statistic: ``"exact"`` (set union, the historical behavior) or
    ``"hll"``.
    ``precision`` is the HLL ``p`` (``2^p`` one-byte registers);
    ``exact_threshold`` is the set size at which a sketch densifies
    (``None`` picks a precision-scaled default).
    """

    mode: str = "exact"
    precision: int = DEFAULT_PRECISION
    exact_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "hll"):
            raise SketchError(
                f"unknown distinct-sketch mode {self.mode!r} "
                "(expected 'exact' or 'hll')"
            )
        if not MIN_PRECISION <= int(self.precision) <= MAX_PRECISION:
            raise SketchError(
                f"sketch precision must be in "
                f"[{MIN_PRECISION}, {MAX_PRECISION}], got {self.precision}"
            )
        if self.exact_threshold is not None and self.exact_threshold < 0:
            raise SketchError(
                f"exact_threshold must be >= 0, got {self.exact_threshold}"
            )

    @property
    def registers(self) -> int:
        return 1 << self.precision


class HllSketch:
    """Mergeable HyperLogLog distinct counter (the sketch accumulator).

    Implements the four-method :class:`~repro.engine.instrumentation
    .DistinctAccumulator` protocol.  State is either an exact value set
    (small cardinalities) or a dense ``2^p``-byte register array; both
    are pure functions of the set of values ever added, so merging
    shards in any order is register-exact.
    """

    __slots__ = ("precision", "exact_threshold", "_values", "_registers")

    def __init__(
        self,
        values: Iterable = (),
        *,
        precision: int = DEFAULT_PRECISION,
        exact_threshold: int | None = None,
    ):
        if not MIN_PRECISION <= int(precision) <= MAX_PRECISION:
            raise SketchError(
                f"sketch precision must be in "
                f"[{MIN_PRECISION}, {MAX_PRECISION}], got {precision}"
            )
        self.precision = int(precision)
        self.exact_threshold = (
            _default_threshold(self.precision)
            if exact_threshold is None
            else int(exact_threshold)
        )
        self._values: set | None = set()
        self._registers: bytearray | None = None
        self.update(values)

    # -- accumulator protocol -------------------------------------------
    def add(self, value) -> None:
        if self._values is not None:
            self._values.add(value)
            if len(self._values) > self.exact_threshold:
                self._densify()
        else:
            self._observe_hash(hash64(value))

    def update(self, values: Iterable) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "HllSketch") -> None:
        """Fold another shard's sketch into this one (register max).

        Mixing implementations or precisions would silently corrupt the
        count, so both raise
        :class:`~repro.engine.instrumentation.InstrumentationError`.
        """
        if not isinstance(other, HllSketch):
            raise self._merge_error(
                f"cannot merge a {type(other).__name__} into an HllSketch: "
                "mixed distinct-accumulator implementations (was one tap "
                "set built with a different sketch spec?)"
            )
        if other.precision != self.precision:
            raise self._merge_error(
                f"cannot merge HllSketch(p={other.precision}) into "
                f"HllSketch(p={self.precision}): register arrays are "
                "incompatible across precisions"
            )
        if other._values is not None:
            if self._values is not None:
                self._values |= other._values
                if len(self._values) > self.exact_threshold:
                    self._densify()
            else:
                for value in other._values:
                    self._observe_hash(hash64(value))
            return
        if self._values is not None:
            self._densify()
        mine, theirs = self._registers, other._registers
        for idx, rank in enumerate(theirs):
            if rank > mine[idx]:
                mine[idx] = rank

    def result(self) -> int:
        """The distinct-count estimate (exact while in set mode)."""
        if self._values is not None:
            return len(self._values)
        m = 1 << self.precision
        total = 0.0
        zeros = 0
        for rank in self._registers:
            total += 2.0 ** -rank
            if rank == 0:
                zeros += 1
        raw = _alpha(m) * m * m / total
        if raw <= 2.5 * m and zeros:
            # linear-counting small-range correction
            return int(round(m * math.log(m / zeros)))
        return int(round(raw))

    # -- internals -------------------------------------------------------
    @staticmethod
    def _merge_error(message: str):
        from repro.engine.instrumentation import InstrumentationError

        return InstrumentationError(message)

    def _observe_hash(self, h: int) -> None:
        tail_bits = _HASH_BITS - self.precision
        idx = h >> tail_bits
        tail = h & ((1 << tail_bits) - 1)
        rank = tail_bits - tail.bit_length() + 1
        if rank > self._registers[idx]:
            self._registers[idx] = rank

    def _densify(self) -> None:
        """Convert the exact set into dense registers.

        The conversion hashes the whole retained *set*, so the resulting
        registers do not depend on insertion order -- the property the
        merge-law suite pins at register level.
        """
        values, self._values = self._values, None
        self._registers = bytearray(1 << self.precision)
        for value in values:
            self._observe_hash(hash64(value))

    # -- introspection ---------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """Still within the exact-set small-cardinality fallback?"""
        return self._values is not None

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the accumulator state."""
        if self._values is not None:
            return sys.getsizeof(self._values) + sum(
                sys.getsizeof(value) for value in self._values
            )
        return len(self._registers)

    def __len__(self) -> int:
        return self.result()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HllSketch):
            return NotImplemented
        if self.precision != other.precision:
            return False
        if (self._values is None) != (other._values is None):
            return False
        if self._values is not None:
            return self._values == other._values
        return self._registers == other._registers

    def __repr__(self) -> str:
        state = (
            f"exact:{len(self._values)}"
            if self._values is not None
            else "dense"
        )
        return (
            f"HllSketch(p={self.precision}, {state}, "
            f"estimate={self.result()})"
        )

    # -- versioned JSON round-trip --------------------------------------
    def to_doc(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "hll_sketch",
            "precision": self.precision,
            "exact_threshold": self.exact_threshold,
        }
        if self._values is not None:
            doc["mode"] = "exact"
            doc["values"] = sorted(
                (list(value) for value in self._values), key=repr
            )
        else:
            doc["mode"] = "dense"
            doc["registers"] = base64.b64encode(
                bytes(self._registers)
            ).decode("ascii")
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "HllSketch":
        if not isinstance(doc, dict) or doc.get("kind") != "hll_sketch":
            raise PersistenceError(f"not an hll_sketch document: {doc!r}")
        version = doc.get("format_version")
        if not isinstance(version, int) or version > FORMAT_VERSION:
            raise PersistenceError(
                f"hll_sketch format_version {version!r} is newer than "
                f"supported ({FORMAT_VERSION})"
            )
        try:
            sketch = cls(
                precision=int(doc["precision"]),
                exact_threshold=int(doc["exact_threshold"]),
            )
            mode = doc["mode"]
            if mode == "exact":
                values = {tuple(value) for value in doc["values"]}
                if len(values) > sketch.exact_threshold:
                    raise PersistenceError(
                        "hll_sketch exact payload exceeds its own threshold"
                    )
                sketch._values = values
            elif mode == "dense":
                registers = bytearray(
                    base64.b64decode(doc["registers"].encode("ascii"))
                )
                if len(registers) != 1 << sketch.precision:
                    raise PersistenceError(
                        f"hll_sketch register payload has "
                        f"{len(registers)} registers, expected "
                        f"{1 << sketch.precision}"
                    )
                sketch._values = None
                sketch._registers = registers
            else:
                raise PersistenceError(
                    f"unknown hll_sketch mode {mode!r}"
                )
        except PersistenceError:
            raise
        except (KeyError, TypeError, ValueError, SketchError) as exc:
            raise PersistenceError(
                f"corrupt hll_sketch document: {exc}"
            ) from exc
        return sketch


def make_sketch(spec: SketchSpec, values: Iterable = ()) -> HllSketch:
    """Build an :class:`HllSketch` following ``spec``."""
    return HllSketch(
        values,
        precision=spec.precision,
        exact_threshold=spec.exact_threshold,
    )


__all__ = [
    "DEFAULT_PRECISION",
    "MAX_PRECISION",
    "MIN_PRECISION",
    "HllSketch",
    "SketchError",
    "SketchSpec",
    "hash64",
    "make_sketch",
]
