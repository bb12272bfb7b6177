"""The statistic-selection problem (Section 5.1).

Given the CSS catalog, build the extended hitting-set instance: find
``S'_O`` (a subset of the observable statistics) of minimal cost such that
every statistic in ``S_C`` is *computable* -- directly observed or covered
through a chain of CSSs whose member statistics are themselves computable.

The module also provides the soundness check the LP formulation needs:
because rules such as union-division reference statistics on *larger* SEs,
the CSS graph can contain cycles, and a naive assignment could declare two
statistics computable purely in terms of each other.  ``closure`` computes
the true bottom-up fixpoint; both solvers verify against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.costs import CostModel
from repro.core.css import CSS, CssCatalog
from repro.core.statistics import Statistic


@dataclass(frozen=True)
class CssEntry:
    """A flattened CSS: indexes into the problem's statistic list."""

    target: int
    inputs: tuple[int, ...]
    css: CSS


@dataclass
class SelectionProblem:
    """An instance of the optimal-statistics-identification problem."""

    stats: list[Statistic]
    observable: frozenset[int]
    required: frozenset[int]
    entries: list[CssEntry]
    costs: list[float]
    index: dict[Statistic, int] = field(default_factory=dict)
    by_target: dict[int, list[int]] = field(default_factory=dict)
    #: per entry, its inputs without repeats
    members: list[tuple[int, ...]] = field(init=False, repr=False)
    #: statistic -> the entries it is an input of, ascending
    feeds: dict[int, list[int]] = field(init=False, repr=False)
    #: per entry, how many of its inputs a derivation still awaits at start
    unmet: list[int] = field(init=False, repr=False)
    #: (target, entry) of each entry without inputs: derived from nothing
    seeds: list[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.stats)}
        if not self.by_target:
            for j, entry in enumerate(self.entries):
                self.by_target.setdefault(entry.target, []).append(j)
        self.members = [tuple(set(entry.inputs)) for entry in self.entries]
        self.feeds = {}
        for j, members in enumerate(self.members):
            for k in members:
                self.feeds.setdefault(k, []).append(j)
        self.unmet = [len(members) for members in self.members]
        self.seeds = [(e.target, j) for j, e in enumerate(self.entries) if not e.inputs]

    @property
    def n(self) -> int:
        return len(self.stats)

    def stat(self, i: int) -> Statistic:
        return self.stats[i]

    def derivation(self, observed: Iterable[int]) -> dict[int, int | None]:
        """One bottom-up derivation from ``observed``, taken in the given
        order: every computable statistic, in derivation order, mapped to
        the CSS entry that first derived it (``None``: taken as observed).
        A member already derived when its turn comes stays derived, so
        walking back through these entries never cycles."""
        via: dict[int, int | None] = {}
        seeds = self.seeds + [(i, None) for i in observed if i in self.observable]
        self.derive(via, self.unmet[:], seeds)
        return via

    def derive(self, via: dict[int, int | None], remaining: list[int], seeds) -> None:
        """Grow ``via`` in place from ``seeds`` (statistic, how), keeping
        ``remaining`` (per entry, its inputs not in ``via``) up to date."""
        for seed, how in seeds:
            if seed in via:
                continue
            via[seed] = how
            frontier = [seed]
            while frontier:
                for j in self.feeds.get(frontier.pop(), ()):
                    remaining[j] -= 1
                    target = self.entries[j].target
                    if remaining[j] == 0 and target not in via:
                        via[target] = j
                        frontier.append(target)

    def restricted_to(self, alive: set[int]) -> tuple[SelectionProblem, list[int]]:
        """The same problem on the statistics in ``alive`` (which holds all
        of ``S_C``) only, order preserved: statistics in index order, the
        entries whose target and inputs all survive in their original order,
        observability and costs untouched.  Also returns the index here of
        each of its statistics."""
        keep = sorted(alive)
        new = {old: i for i, old in enumerate(keep)}
        entries = [
            CssEntry(new[e.target], tuple(new[k] for k in e.inputs), e.css)
            for e, members in zip(self.entries, self.members)
            if e.target in alive and alive.issuperset(members)
        ]
        sub = SelectionProblem(
            stats=[self.stats[i] for i in keep],
            observable=frozenset(new[i] for i in self.observable & alive),
            required=frozenset(new[i] for i in self.required),
            entries=entries,
            costs=[self.costs[i] for i in keep],
        )
        return sub, keep

    def closure(self, observed: set[int]) -> set[int]:
        """True computability fixpoint from a set of observed statistics."""
        return set(self.derivation(observed))

    def is_sufficient(self, observed: set[int]) -> bool:
        return set(self.required) <= self.closure(observed)

    def total_cost(self, observed: set[int]) -> float:
        return sum(self.costs[i] for i in observed)


@dataclass
class SelectionResult:
    """Outcome of a selection solve."""

    problem: SelectionProblem
    observed_indexes: set[int]
    method: str
    iterations: int = 1

    @property
    def observed(self) -> list[Statistic]:
        return sorted(
            (self.problem.stat(i) for i in self.observed_indexes),
            key=lambda s: s.sort_key(),
        )

    @property
    def total_cost(self) -> float:
        return self.problem.total_cost(self.observed_indexes)

    @property
    def is_valid(self) -> bool:
        return self.problem.is_sufficient(self.observed_indexes)

    def describe(self) -> str:
        lines = [
            f"Selection [{self.method}] cost={self.total_cost:g} "
            f"({len(self.observed_indexes)} statistics observed)"
        ]
        for stat in self.observed:
            cost = self.problem.costs[self.problem.index[stat]]
            lines.append(f"  {stat!r}  cost={cost:g}")
        return "\n".join(lines)


def build_problem(
    catalog: CssCatalog,
    cost_model: CostModel,
    free_statistics: set[Statistic] | None = None,
) -> SelectionProblem:
    """Assemble the selection instance from the CSS catalog.

    ``free_statistics`` are statistics already available from source systems
    (Section 6.2): they join ``S_O`` with zero cost, so the solver always
    exploits them.
    """
    free = free_statistics or set()
    stats = sorted(catalog.all_statistics | free, key=lambda s: s.sort_key())
    index = {s: i for i, s in enumerate(stats)}
    observable = frozenset(
        i
        for i, s in enumerate(stats)
        if catalog.is_observable(s) or s in free
    )
    required = frozenset(index[s] for s in catalog.required)
    entries: list[CssEntry] = []
    for target, bucket in catalog.css.items():
        for css in bucket:
            entries.append(
                CssEntry(
                    target=index[target],
                    inputs=tuple(index[s] for s in css.inputs),
                    css=css,
                )
            )
    costs = [
        0.0
        if stats[i] in free
        else cost_model.cost(stats[i], observable=i in observable)
        for i in range(len(stats))
    ]
    problem = SelectionProblem(
        stats=stats,
        observable=observable,
        required=required,
        entries=entries,
        costs=costs,
        index=index,
    )
    _check_feasible(problem)
    return problem


def _check_feasible(problem: SelectionProblem) -> None:
    """Every required statistic must be reachable when everything observable
    is observed; otherwise the flow was analyzed incorrectly."""
    everything = set(problem.observable)
    missing = set(problem.required) - problem.closure(everything)
    if missing:
        names = ", ".join(repr(problem.stat(i)) for i in sorted(missing))
        raise ValueError(
            f"selection infeasible: no observable coverage for {names}"
        )
