"""Merge-law property suite for the HyperLogLog distinct sketch.

The multiprocess backend's correctness rests on the accumulator algebra:
folding per-shard sketches together in *any* order must reproduce the
unsharded sketch exactly (register for register), which in turn requires
the merge to be commutative, associative and idempotent.  This suite
pins those laws on seeded random value sets and random shard cuts, plus
the estimate-accuracy bound the precision implies and the versioned JSON
round-trip the checkpoints rely on.

Seeds derive from ``REPRO_PROPERTY_SEED`` (default 0), so the CI sample
is fixed and failures replay locally with the same environment variable.
"""

import math
import os
import random

import pytest

from repro.algebra.expressions import SubExpression
from repro.core.statistics import Statistic
from repro.engine.instrumentation import (
    DistinctAccumulator,
    InstrumentationError,
    TapSet,
)
from repro.estimation.sketches import (
    DEFAULT_PRECISION,
    HllSketch,
    SketchError,
    SketchSpec,
    hash64,
)

pytestmark = pytest.mark.property

BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))
SEEDS = [BASE_SEED * 1000 + i for i in range(8)]

#: a low threshold so most random sets exercise the dense-register path,
#: and a threshold-free variant that stays in the exact-set fallback
SMALL = dict(precision=10, exact_threshold=8)


def _values(rng: random.Random, n: int) -> list[tuple]:
    """Random accumulator values: tuples, as the taps produce."""
    return [
        (rng.randrange(n * 4), rng.choice("abcdef"))
        for _ in range(n)
    ]


def _shards(rng: random.Random, values: list, k: int) -> list[list]:
    cuts = sorted(rng.randrange(len(values) + 1) for _ in range(k - 1))
    bounds = [0, *cuts, len(values)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("seed", SEEDS)
class TestMergeLaws:
    def test_commutative(self, seed):
        rng = random.Random(seed)
        a_vals = _values(rng, rng.randrange(1, 200))
        b_vals = _values(rng, rng.randrange(1, 200))

        ab = HllSketch(a_vals, **SMALL)
        ab.merge(HllSketch(b_vals, **SMALL))
        ba = HllSketch(b_vals, **SMALL)
        ba.merge(HllSketch(a_vals, **SMALL))

        assert ab == ba
        assert ab.result() == ba.result()

    def test_associative(self, seed):
        rng = random.Random(seed * 31 + 1)
        parts = [_values(rng, rng.randrange(1, 150)) for _ in range(3)]

        left = HllSketch(parts[0], **SMALL)
        left.merge(HllSketch(parts[1], **SMALL))
        left.merge(HllSketch(parts[2], **SMALL))

        bc = HllSketch(parts[1], **SMALL)
        bc.merge(HllSketch(parts[2], **SMALL))
        right = HllSketch(parts[0], **SMALL)
        right.merge(bc)

        assert left == right

    def test_idempotent(self, seed):
        rng = random.Random(seed * 17 + 3)
        vals = _values(rng, rng.randrange(1, 200))
        sketch = HllSketch(vals, **SMALL)
        twin = HllSketch(vals, **SMALL)
        before = HllSketch(vals, **SMALL)

        sketch.merge(twin)

        assert sketch == before
        assert sketch.result() == before.result()

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_any_order_shard_merge_is_register_exact(self, seed, k):
        rng = random.Random(seed * 13 + k)
        vals = _values(rng, rng.randrange(k, 400))
        whole = HllSketch(vals, **SMALL)

        shards = [
            HllSketch(piece, **SMALL)
            for piece in _shards(rng, vals, k)
        ]
        rng.shuffle(shards)
        merged, *rest = shards
        for shard in rest:
            merged.merge(shard)

        # equality compares the exact set or the raw register array, so
        # this is the register-level guarantee, not just estimate-level
        assert merged == whole
        assert merged.result() == whole.result()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision", [10, 12, 14])
def test_estimate_within_precision_error_bound(seed, precision):
    rng = random.Random(seed * 7 + precision)
    truth = rng.randrange(2_000, 20_000)
    sketch = HllSketch(
        ((i, seed) for i in range(truth)),
        precision=precision,
        exact_threshold=0,
    )

    assert not sketch.is_exact
    # 1.04/sqrt(m) is the *typical* (one sigma) error; 4 sigma bounds the
    # seeded sample with plenty of slack while still scaling with p
    bound = 4 * 1.04 / math.sqrt(1 << precision)
    assert abs(sketch.result() - truth) / truth <= bound


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_exact_fallback_is_exact(seed):
    rng = random.Random(seed)
    vals = _values(rng, rng.randrange(1, 64))
    sketch = HllSketch(vals, precision=DEFAULT_PRECISION)

    assert sketch.is_exact
    assert sketch.result() == len(set(vals))


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_json_round_trip_both_modes(seed):
    rng = random.Random(seed * 3 + 2)
    for n in (5, 200):  # exact-set payload, then a densified one
        vals = _values(rng, n)
        sketch = HllSketch(vals, **SMALL)
        back = HllSketch.from_doc(sketch.to_doc())
        assert back == sketch
        assert back.result() == sketch.result()
        assert back.is_exact == sketch.is_exact


def test_hash64_is_deterministic():
    # the cross-process contract: no per-process salt anywhere
    assert hash64((1, "x")) == hash64((1, "x"))
    assert hash64((1, "x")) != hash64((1, "y"))


class TestMixedImplementationMerge:
    def test_exact_into_sketch_raises(self):
        sketch = HllSketch([(1,)], **SMALL)
        with pytest.raises(InstrumentationError):
            sketch.merge(DistinctAccumulator([(1,)]))

    def test_sketch_into_exact_raises(self):
        exact = DistinctAccumulator([(1,)])
        with pytest.raises(InstrumentationError):
            exact.merge(HllSketch([(1,)], **SMALL))

    def test_mismatched_precisions_raise(self):
        a = HllSketch([(1,)], precision=10)
        b = HllSketch([(2,)], precision=12)
        with pytest.raises(InstrumentationError):
            a.merge(b)


class TestFactorySeam:
    STAT = Statistic.distinct(SubExpression.of("T"), "a")

    def _accumulator(self, sketch=None):
        """The accumulator a tap set built with ``sketch`` counts with."""
        taps = TapSet([self.STAT], sketch=sketch)
        taps.observe_columns(self.STAT.se, 2, {"a": [1, 2]})
        return taps._distinct[self.STAT]

    def test_default_spec_builds_exact_accumulators(self):
        for sketch in (None, SketchSpec()):
            acc = self._accumulator(sketch)
            assert isinstance(acc, DistinctAccumulator)
            assert acc.result() == 2

    def test_hll_spec_builds_sketches(self):
        acc = self._accumulator(SketchSpec(mode="hll", precision=10))
        assert isinstance(acc, HllSketch)
        assert acc.precision == 10
        assert acc.result() == 2

    def test_invalid_spec_rejected(self):
        with pytest.raises(SketchError):
            SketchSpec(mode="bloom")
        with pytest.raises(SketchError):
            SketchSpec(mode="hll", precision=2)
