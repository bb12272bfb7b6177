"""The greedy heuristic of Section 5.3.

In each round, pick the cheapest way of making one still-uncovered
statistic from ``S_C`` computable.  The cost of a CSS accounts for
amortization: statistics that are already computable cost nothing, shared
inputs are charged once (plans are *sets* of observations), and the cost of
a not-yet-observable input is the recursively cheapest cost of acquiring it
through its own CSSs.  After each commitment the computability closure is
refreshed so subsequent rounds see the reduced residual costs -- "the costs
of the remaining CSSs are reduced based on the statistics picked in this
step".

Acquisition costs are computed with a label-correcting pass over the AND-OR
CSS graph (cost of a statistic = min(observe it, min over its CSSs of the
summed input costs)).  Labels only ever decrease and updates are strict, so
the final choice graph is acyclic even on the cyclic CSS graphs
union-division produces -- no exponential cycle-guard recursion.  The
additive sum double-counts inputs shared *within* one derivation, which is
fine for a heuristic: the actual commitment deduplicates via set union.
"""

from __future__ import annotations

from repro.core.costs import INFINITE
from repro.core.selection import SelectionProblem, SelectionResult

_OBSERVE = -1  # choice marker: observe the statistic directly


def _label_costs(
    problem: SelectionProblem, computable: set[int]
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

    # sweeps over the entries in index order until nothing improves, as
    # Bellman-Ford would, but summing an entry only after one of its inputs
    # got a label or a cheaper one -- no other sum can have changed
    entries, members_of, feeds = problem.entries, problem.members, problem.feeds
    stale = bytearray(len(entries))
    for i, cost in enumerate(best):
        if cost < INFINITE:
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
    return best, choice


def _collect_plan(
    problem: SelectionProblem,
    stat: int,
    computable: set[int],
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
    computable = problem.closure(observed)
    rounds = 0
    while True:
        uncovered = sorted(set(problem.required) - computable)
        if not uncovered:
            break
        rounds += 1
        best, choice = _label_costs(problem, computable)
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
        _collect_plan(problem, stat, computable, choice, plan, set())
        observed.update(plan)
        new_computable = problem.closure(observed)
        if new_computable == computable:  # pragma: no cover - safety net
            raise RuntimeError("greedy round made no progress")
        computable = new_computable
    return SelectionResult(
        problem=problem,
        observed_indexes=observed,
        method="greedy",
        iterations=max(rounds, 1),
    )
