"""Synthetic data generation: Zipfian tables for the benchmark suite.

Section 7: *"The data characteristics of the input relations like table
cardinalities, unique values of an attribute ... are synthetically
generated ... from Zipfian distribution with a high skew."*

Value columns are sampled from a Zipf(s) distribution over the attribute's
domain, with the rank-to-value mapping shuffled per (seed, relation, attr)
so the skew does not always hit the same ids.  Everything is seeded and
deterministic.

The per-cell stream is a contract: a column is exactly what one
``random.Random(f"{seed}/{relation}/{attr}")`` yields when each cell is a
``rng.random()`` followed by a ``bisect_left`` over the cumulative Zipf
weights.  ``ZipfSampler.sample_many`` draws a whole column at once by
taking that Mersenne Twister stream in one ``getrandbits`` call and doing
the arithmetic in numpy; it returns the same list and leaves the rng in
the same state as the per-draw loop, so every table is bit-for-bit the one
the loop would build.  The Zipf weights and their running sum stay in
Python, because numpy's ``pow`` may round the last bit differently.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from repro.engine.table import Table

#: CPython's ``random()``: 27 + 26 bits of two 32-bit words over 2**53
_TWO_POW_26 = 67108864.0
_TWO_POW_53 = 9007199254740992.0


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute: its domain size and Zipf skew.

    ``serial=True`` makes the column a shuffled enumeration of the domain
    (a primary key): with cardinality == domain every value appears exactly
    once, which is what makes foreign-key joins true lookups.
    """

    domain: int
    skew: float = 1.1
    serial: bool = False

    def __post_init__(self):
        if self.domain < 1:
            raise ValueError(f"domain must be >= 1, got {self.domain}")
        if not math.isfinite(self.skew):
            raise ValueError(f"skew must be finite, got {self.skew}")


@dataclass
class TableSpec:
    """Recipe for one synthetic relation."""

    name: str
    cardinality: int
    columns: dict[str, ColumnSpec] = field(default_factory=dict)

    def __post_init__(self):
        if self.cardinality < 0:
            raise ValueError(
                f"cardinality must be >= 0, got {self.cardinality}"
            )

    def column(
        self, attr: str, domain: int, skew: float = 1.1, serial: bool = False
    ) -> "TableSpec":
        self.columns[attr] = ColumnSpec(domain, skew, serial)
        return self


class ZipfSampler:
    """Samples ranks 1..domain with P(k) proportional to 1/k^s."""

    def __init__(self, domain: int, skew: float, rng: random.Random):
        if domain <= 0:
            raise ValueError("domain must be positive")
        self.domain = domain
        weights = [1.0 / (k**skew) for k in range(1, domain + 1)]
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1]
        self._rng = rng
        # shuffle the rank -> value mapping so skew lands on random ids
        self._values = list(range(1, domain + 1))
        rng.shuffle(self._values)

    def sample(self) -> int:
        u = self._rng.random() * self._total
        rank = bisect_left(self._cum, u)
        return self._values[min(rank, self.domain - 1)]

    def sample_many(self, n: int) -> list[int]:
        """``n`` draws, exactly ``[self.sample() for _ in range(n)]``.

        The draws are one vectorised pass.  ``getrandbits(64 * n)``
        consumes the same ``2n`` Mersenne Twister words as ``n`` calls to
        ``random()``, least significant word first, and so leaves the rng
        in the state the loop would leave it.  Each pair of words becomes
        CPython's 53-bit double, and ``searchsorted`` finds the rank as
        ``bisect_left`` would.  Cells reference the sampler's own value
        ints, so a column holds at most ``domain`` distinct objects.  The
        rng must be a plain ``random.Random``: the words are read with
        ``getrandbits``, so a subclass that overrides ``random()`` would
        not see its override here.
        """
        import numpy as np  # here: a process that draws nothing skips it

        bits = self._rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        words = np.frombuffer(bits, dtype="<u4")
        u = (words[0::2] >> 5) * _TWO_POW_26 + (words[1::2] >> 6)
        u /= _TWO_POW_53
        u *= self._total
        ranks = np.searchsorted(np.asarray(self._cum), u, side="left")
        np.minimum(ranks, self.domain - 1, out=ranks)
        # an object array holds references to the sampler's own ints, so
        # indexing it and ``tolist`` allocate no int per cell
        return np.array(self._values, dtype=object)[ranks].tolist()


def generate_table(spec: TableSpec, seed: int = 0) -> Table:
    """Materialize one relation from its spec (deterministic per seed)."""
    columns: dict[str, list] = {}
    for attr, col in spec.columns.items():
        # string seeds hash deterministically across processes (unlike
        # tuple hashes, which PYTHONHASHSEED randomizes)
        rng = random.Random(f"{seed}/{spec.name}/{attr}")
        if col.serial:
            values = list(range(1, col.domain + 1))
            rng.shuffle(values)
            # cycle if the table is larger than the key domain
            reps, rest = divmod(spec.cardinality, col.domain)
            columns[attr] = values * reps + values[:rest]
        else:
            sampler = ZipfSampler(col.domain, col.skew, rng)
            columns[attr] = sampler.sample_many(spec.cardinality)
    # the column lists are freshly built here: adopt them without a copy
    return Table.wrap(columns)


def generate_tables(
    specs: dict[str, TableSpec] | list[TableSpec], seed: int = 0
) -> dict[str, Table]:
    """Materialize a set of relations, keyed by name."""
    if isinstance(specs, dict):
        specs = list(specs.values())
    return {spec.name: generate_table(spec, seed) for spec in specs}


def zipf_sizes(
    n: int,
    max_size: int,
    min_size: int,
    skew: float,
    rng: random.Random,
) -> list[int]:
    """Rank-size Zipfian cardinalities in [min_size, max_size].

    Used to draw the per-relation cardinalities of the benchmark suite so
    their summary statistics resemble the paper's data-characteristics
    table (strong right skew: mean well above median, min << max).
    """
    if n <= 0:
        return []
    raw = [max_size / (k**skew) for k in range(1, n + 1)]
    sizes = [max(min_size, int(round(v))) for v in raw]
    rng.shuffle(sizes)
    return sizes
