"""Candidate statistics sets (CSS) and the catalog Algorithm 1 produces.

Section 3.1: *"A set of statistics that is sufficient for computing a
statistic of a SE is defined as a sufficient statistics set ... minimally
sufficient set ... candidate statistics set (CSS)."*

A :class:`CSS` records the target statistic, the input statistics, the rule
that relates them (so the estimator knows *how* to combine the inputs), and
any rule context (join key, anchored step, group-by attributes).  The
special rule ``TRIVIAL`` marks direct observation of the statistic itself.

The :class:`CssCatalog` is the output of Algorithm 1 for a whole workflow:
every generated statistic, the CSSs for each, which statistics are
observable in the initial plan (``S_O``), and which must be computable
(``S_C`` -- the cardinality of every SE in ℰ).  A target's CSSs keep the
order they were added in (``build_problem``'s entry order, so the ILP's
column order); duplicates are found in a set of the held CSSs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.blocks import Step
from repro.algebra.expressions import CachedHash
from repro.core.statistics import Statistic

TRIVIAL = "TRIVIAL"


@dataclass(frozen=True, eq=False)
class CSS(CachedHash):
    """One candidate statistics set for ``target``.

    ``inputs`` order is meaningful: each rule defines the roles of its
    inputs (see :mod:`repro.estimation.calculator`).
    """

    target: Statistic
    inputs: tuple[Statistic, ...]
    rule: str
    context: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        self._freeze(self.target, self.inputs, self.rule, self.context)

    def ctx(self, key: str):
        for k, v in self.context:
            if k == key:
                return v
        return None

    @property
    def is_trivial(self) -> bool:
        return self.rule == TRIVIAL

    def __repr__(self) -> str:
        inputs = ", ".join(repr(s) for s in self.inputs)
        return f"CSS[{self.rule}] {self.target!r} <- {{{inputs}}}"


@dataclass
class CssCatalog:
    """All CSSs generated for a workflow, plus the S / S_O / S_C sets."""

    css: dict[Statistic, list[CSS]] = field(default_factory=dict)
    observable: set[Statistic] = field(default_factory=set)
    required: set[Statistic] = field(default_factory=set)
    steps: dict[int, Step] = field(default_factory=dict)
    block_of: dict[Statistic, str] = field(default_factory=dict)
    #: every CSS in the buckets, for the duplicate check in :meth:`add`
    members: set[CSS] = field(default_factory=set, init=False, repr=False)

    # ------------------------------------------------------------------
    def add(self, css: CSS) -> bool:
        """Register a CSS; returns False if an identical one already exists."""
        if css in self.members:
            return False
        self.members.add(css)
        self.css.setdefault(css.target, []).append(css)
        return True

    def css_for(self, stat: Statistic) -> list[CSS]:
        return self.css.get(stat, [])

    @property
    def all_statistics(self) -> set[Statistic]:
        """The set S: every statistic appearing anywhere in the catalog."""
        stats: set[Statistic] = set(self.css)
        for bucket in self.css.values():
            for css in bucket:
                stats.update(css.inputs)
        stats.update(self.required)
        stats.update(self.observable)
        return stats

    def is_observable(self, stat: Statistic) -> bool:
        return stat in self.observable

    def mark_observable(self, stat: Statistic) -> None:
        self.observable.add(stat)

    def require(self, stat: Statistic) -> None:
        self.required.add(stat)

    def register_step(self, step: Step) -> None:
        self.steps[step.node_id] = step

    def step(self, node_id: int) -> Step:
        return self.steps[node_id]

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Summary counters for the Figure 9 complexity report."""
        n_css = sum(len(v) for v in self.css.values())
        n_trivial = sum(
            1 for v in self.css.values() for c in v if c.is_trivial
        )
        return {
            "statistics": len(self.all_statistics),
            "required": len(self.required),
            "observable": len(self.observable),
            "css": n_css,
            "nontrivial_css": n_css - n_trivial,
        }

    def describe(self) -> str:
        lines = []
        targets = sorted(self.css, key=lambda s: s.sort_key())
        for stat in targets:
            flags = []
            if stat in self.observable:
                flags.append("obs")
            if stat in self.required:
                flags.append("req")
            lines.append(f"{stat!r} [{','.join(flags)}]")
            for css in self.css_for(stat):
                lines.append(f"    {css!r}")
        return "\n".join(lines)
