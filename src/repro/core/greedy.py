"""The greedy heuristic of Section 5.3.

In each round, pick the cheapest way of making one still-uncovered
statistic from ``S_C`` computable.  The cost of a CSS accounts for
amortization: statistics that are already computable cost nothing, shared
inputs are charged once (plans are *sets* of observations), and the cost of
a not-yet-observable input is the recursively cheapest cost of acquiring it
through its own CSSs.  After each commitment "the costs of the remaining
CSSs are reduced based on the statistics picked in this step".

Acquisition costs are computed with a label-correcting pass over the AND-OR
CSS graph (cost of a statistic = min(observe it, min over its CSSs of the
summed input costs)).  Labels only ever decrease and updates are strict, so
the final choice graph is acyclic even on the cyclic CSS graphs
union-division produces -- no exponential cycle-guard recursion.  The
additive sum double-counts inputs shared *within* one derivation, which is
fine for a heuristic: the actual commitment deduplicates via set union.

Labels, choices and the closure (with each entry's count of inputs not yet
computable) are carried across rounds: a commitment grows the closure from
its new observations, drops what became computable to 0 and re-sweeps only
the entries those feed.  Every carried label is the cost of a real
derivation, labels only decrease, and a fixpoint above the optimum would
have, at the lowest node of an optimal derivation tree where it is above,
an entry summing to less than its label; so the labels are a fresh pass's.
A fresh pass keeps an observation unless an entry is strictly cheaper, but
among entries of equal sum it may keep another than the carried one, and
the walk decides what gets observed: a round whose walk meets such a tie
labels afresh and walks again (the tie rule).
"""

from __future__ import annotations

from collections.abc import Collection

from repro.core.costs import INFINITE
from repro.core.selection import SelectionProblem, SelectionResult

_OBSERVE = -1  # choice marker: observe the statistic directly


def _label_costs(
    problem: SelectionProblem, computable: Collection[int]
) -> tuple[list[float], dict[int, int]]:
    """Cheapest acquisition cost per statistic (``INFINITE``: none), plus
    the supporting choice.

    ``choice[i]`` is ``_OBSERVE`` or the index of the CSS entry whose
    covered inputs realize the cost.  Only strict improvements update the
    labels, so following choices never cycles.
    """
    best = [INFINITE] * problem.n
    choice: dict[int, int] = {}
    for i in computable:
        best[i] = 0.0
    for i in problem.observable:
        if i not in computable and problem.costs[i] < INFINITE:
            best[i] = problem.costs[i]
            choice[i] = _OBSERVE
    _relax(problem, best, choice, [i for i, c in enumerate(best) if c < INFINITE])
    return best, choice


def _relax(
    problem: SelectionProblem, best: list[float], choice: dict[int, int], lowered
) -> None:
    """Restore the fixpoint after the labels of ``lowered`` fell."""
    # sweeps over the entries in index order until nothing improves, as
    # Bellman-Ford would, but summing an entry only after one of its inputs
    # got a label or a cheaper one -- no other sum can have changed
    entries, members_of, feeds = problem.entries, problem.members, problem.feeds
    stale = bytearray(len(entries))
    for i in lowered:
        for fed in feeds.get(i, ()):
            stale[fed] = 1
    j = stale.find(1)
    while j >= 0:
        stale[j] = 0
        target = entries[j].target
        members = members_of[j]
        if target not in members:
            total = 0.0
            for k in members:
                total += best[k]
            if total < best[target] - 1e-12:
                best[target] = total
                choice[target] = j
                for fed in feeds.get(target, ()):
                    stale[fed] = 1
        j = stale.find(1, j + 1)
        if j < 0:
            j = stale.find(1)  # the next sweep


def _tied(problem: SelectionProblem, stat: int, best, choice) -> bool:
    """Whether an entry other than ``stat``'s choice sums to its label."""
    picked = choice[stat]
    return picked != _OBSERVE and any(
        j != picked
        and stat not in problem.members[j]
        and sum(best[k] for k in problem.members[j]) <= best[stat] + 1e-12
        for j in problem.by_target[stat]
    )


def _collect_plan(
    problem: SelectionProblem,
    stat: int,
    computable: Collection[int],
    choice: dict[int, int],
    out: set[int],
    visited: set[int],
) -> None:
    """Walk the (acyclic) choice graph, gathering observations to make."""
    if stat in computable or stat in visited:
        return
    visited.add(stat)
    picked = choice.get(stat)
    if picked is None:
        raise ValueError(f"no acquisition path for statistic index {stat}")
    if picked == _OBSERVE:
        out.add(stat)
        return
    for k in problem.members[picked]:
        _collect_plan(problem, k, computable, choice, out, visited)


def solve_greedy(problem: SelectionProblem) -> SelectionResult:
    """Round-based greedy selection (Section 5.3)."""
    observed: set[int] = set()
    computable: dict[int, int | None] = {}
    unmet = problem.unmet[:]
    problem.derive(computable, unmet, problem.seeds)
    best, choice = _label_costs(problem, computable)
    lowered: list[int] | None = None  # newly computable since the labels
    rounds = 0
    while uncovered := [i for i in sorted(problem.required) if i not in computable]:
        rounds += 1
        if lowered is not None:
            for i in lowered:
                best[i] = 0.0
            _relax(problem, best, choice, lowered)
        candidates = [
            (best[stat], stat) for stat in uncovered if best[stat] < INFINITE
        ]
        if not candidates:
            raise ValueError(
                "greedy selection stuck: some required statistic has no "
                "observable coverage"
            )
        _cost, stat = min(candidates)
        plan: set[int] = set()
        walked: set[int] = set()
        _collect_plan(problem, stat, computable, choice, plan, walked)
        if lowered is not None and any(_tied(problem, i, best, choice) for i in walked):
            best, choice = _label_costs(problem, computable)
            plan = set()
            _collect_plan(problem, stat, computable, choice, plan, set())
        observed.update(plan)
        size = len(computable)
        problem.derive(computable, unmet, [(i, None) for i in plan])
        lowered = list(computable)[size:]
        if not lowered:  # pragma: no cover - safety net
            raise RuntimeError("greedy round made no progress")
    return SelectionResult(
        problem=problem,
        observed_indexes=observed,
        method="greedy",
        iterations=max(rounds, 1),
    )
