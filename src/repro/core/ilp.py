"""The 0-1 integer linear program of Section 5.2.

Variables (exactly as in the paper):

- ``x_i`` -- statistic ``s_i`` is directly observed (only for ``s_i`` in
  ``S_O``);
- ``y_i`` -- statistic ``s_i`` is computable;
- ``z_ij`` -- the j-th CSS of ``s_i`` is covered.

Constraints:

- coverage:      ``sum_{k in CSS_ij} y_k >= z_ij * |CSS_ij|``
- trivial-only:  ``y_i = x_i``  (observable, no non-trivial CSS)
- observable:    ``y_i >= x_i``
- only-if:       ``y_i <= x_i + sum_j z_ij``  (non-observable: drop x_i)
- if:            ``y_i >= z_ij``
- required:      ``y_i = 1`` for ``s_i`` in ``S_C``

Objective: ``min sum c_i x_i``.

The paper's formulation admits one unsound corner the text does not
discuss: the CSS graph can be cyclic -- union-division (J4/J5) derives a
statistic from statistics on a *larger* SE, whose own CSSs (J1-J3) refer
back to the smaller one -- and a cyclic group of ``y`` variables could then
justify each other with no observed ground truth.  We close the hole with
the standard acyclic-derivation device: a continuous *level* variable per
statistic, with ``L_target >= L_input + 1`` whenever a CSS is selected
(big-M relaxed when it is not).  Any feasible assignment is then a genuine
bottom-up derivation; we still verify the incumbent against the closure as
a belt-and-braces check.

Level constraints are only needed where cycles can actually form: within
the strongly-connected components of the CSS dependency graph.  Everything
else is acyclic by construction, so the SCC restriction keeps the MILP
small (it typically removes >95% of the level rows).

Solver: ``scipy.optimize.milp`` (HiGHS), after two reductions that apply
when no cost is negative.  Presolve: when the zero-cost statistics (Section
6.2 source statistics, catalog hits) already derive ``S_C``, cost 0 is the
optimum outright and HiGHS is not started.  Bound: the Section 5.3 greedy
selection costs ``U``, so no selection as cheap observes a statistic dearer
than ``U``; whatever cannot be derived from observations of cost <= ``U``
leaves the problem, with every CSS naming it (wf21: 774 statistics / 5,036
CSSs -> 310 / 959), and HiGHS gets the order-preserving rest plus one
cutoff row, ``sum c_i x_i <= U``.  The greedy selection satisfies it, so
it removes no optimum, and it cuts every branch dearer than greedy from
the search (wf21: HiGHS 170 ms -> 27 ms).

The gap rule is two-sided.  A model the bound shrank is solved with
``mip_rel_gap = 0``: there ``method == "ilp"`` means proven optimal, and it
has to, because a shrunken model can stop one unit short inside the default
gap (wf26: 181,627 for 181,626).  A model the bound left whole reaches
HiGHS exactly as it always did, at the default gap (1e-4), so there
``method == "ilp"`` means optimal *to within 0.01 %*: wf27 gets 549001603
although 549000002 is valid (EXPERIMENTS.md), and ``nightbench/golden.json``
pins the former.  Once that check reads ``cost <= golden`` (ROADMAP item
0(e)) the default-gap side goes and every model is solved exactly.
"""

from __future__ import annotations

from repro.core.costs import INFINITE
from repro.core.greedy import solve_greedy
from repro.core.selection import SelectionProblem, SelectionResult


def _strongly_connected(problem: SelectionProblem) -> dict[int, int]:
    """Tarjan SCC ids over the CSS dependency graph (target -> inputs).

    Only statistics inside a multi-node SCC (or with a self-loop) can take
    part in a cyclic self-support; everything else needs no level row.
    """
    adj: dict[int, list[int]] = {}
    for entry, members in zip(problem.entries, problem.members):
        adj.setdefault(entry.target, []).extend(
            k for k in members if k != entry.target
        )
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    scc_of: dict[int, int] = {}
    counter = [0]
    scc_counter = [0]

    for root in list(adj):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = adj.get(node, [])
            for ci in range(child_idx, len(children)):
                child = children[ci]
                if child not in index:
                    work.append((node, ci + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if recurse:
                continue
            if low[node] == index[node]:
                scc_id = scc_counter[0]
                scc_counter[0] += 1
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = scc_id
                    if member == node:
                        break
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return scc_of


def _highs(
    problem: SelectionProblem,
    time_limit: float | None,
    exact: bool,
    cutoff: float | None = None,
) -> tuple[set[int] | None, bool]:
    """Assemble the Section 5.2 program and run HiGHS on it.

    Returns the statistics the incumbent observes (``None``: HiGHS has no
    incumbent) and whether it stopped at its gap rather than at the time
    limit.  ``exact`` closes the gap completely instead of stopping at
    HiGHS's default 1e-4; ``cutoff`` bounds the objective from above by
    one more row.
    """
    # imported here, their only user: a presolved or greedy night never
    # pays scipy's import
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = problem.n
    m = len(problem.entries)
    scc_of = _strongly_connected(problem)
    scc_sizes: dict[int, int] = {}
    for scc_id in scc_of.values():
        scc_sizes[scc_id] = scc_sizes.get(scc_id, 0) + 1
    cyclic = {
        i for i, scc_id in scc_of.items() if scc_sizes[scc_id] > 1
    }
    # variable layout: x_0.., y_0.., z_0.., L_0.. (levels, continuous)
    x0, y0, z0, l0 = 0, n, 2 * n, 2 * n + m
    nvars = 2 * n + m + n
    big_m = float(max(scc_sizes.values(), default=1) + 1)

    cost = np.zeros(nvars)
    lb = np.zeros(nvars)
    ub = np.ones(nvars)
    ub[l0:] = big_m  # level variables range over [0, M]
    integrality = np.ones(nvars)
    integrality[l0:] = 0.0

    for i in range(n):
        if i in problem.observable and problem.costs[i] < INFINITE:
            cost[x0 + i] = problem.costs[i]
        else:
            ub[x0 + i] = 0.0  # cannot observe
    for i in problem.required:
        lb[y0 + i] = 1.0

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    c_lo: list[float] = []
    c_hi: list[float] = []

    def add(terms: list[tuple[int, float]], lo: float, hi: float) -> None:
        row = len(c_lo)
        for col, val in terms:
            rows.append(row)
            cols.append(col)
            vals.append(val)
        c_lo.append(lo)
        c_hi.append(hi)

    nontrivial = {e.target for e in problem.entries}

    for j, entry in enumerate(problem.entries):
        members = sorted(problem.members[j])
        if entry.target in members:
            ub[z0 + j] = 0.0  # a self-referential CSS can never support
            continue
        # coverage: sum y_k - |CSS| * z_j >= 0
        add(
            [(y0 + k, 1.0) for k in members] + [(z0 + j, -float(len(members)))],
            0.0,
            np.inf,
        )
        # if: y_target >= z_j
        add([(y0 + entry.target, 1.0), (z0 + j, -1.0)], 0.0, np.inf)
        # acyclicity: L_target >= L_k + 1 - M(1 - z_j), but only inside a
        # strongly-connected component, where a cycle could actually form
        if entry.target in cyclic:
            target_scc = scc_of[entry.target]
            for k in members:
                if k == entry.target or scc_of.get(k) != target_scc:
                    continue
                add(
                    [
                        (l0 + entry.target, 1.0),
                        (l0 + k, -1.0),
                        (z0 + j, -big_m),
                    ],
                    1.0 - big_m,
                    np.inf,
                )

    for i in range(n):
        css_vars = problem.by_target.get(i, [])
        if i in problem.observable and i not in nontrivial:
            # trivial-only: y_i = x_i
            add([(y0 + i, 1.0), (x0 + i, -1.0)], 0.0, 0.0)
            continue
        if i in problem.observable:
            add([(y0 + i, 1.0), (x0 + i, -1.0)], 0.0, np.inf)  # y_i >= x_i
        # only-if: y_i <= x_i + sum z_ij
        terms = [(y0 + i, 1.0)]
        if i in problem.observable:
            terms.append((x0 + i, -1.0))
        terms.extend((z0 + j, -1.0) for j in css_vars)
        add(terms, -np.inf, 0.0)

    if cutoff is not None:
        terms = [(x0 + i, c) for i, c in enumerate(cost[x0:y0]) if c]
        add(terms, -np.inf, cutoff)

    a = csr_matrix((vals, (rows, cols)), shape=(len(c_lo), nvars))
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if exact:
        options["mip_rel_gap"] = 0.0
    res = milp(
        c=cost,
        constraints=[LinearConstraint(a, np.array(c_lo), np.array(c_hi))],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )
    if res.x is None:
        return None, False
    observed = {
        i for i in range(n) if i in problem.observable and res.x[x0 + i] > 0.5
    }
    return observed, bool(res.success)


def _free_selection(problem: SelectionProblem) -> set[int] | None:
    """The zero-cost observations ``S_C`` rests on, when those suffice."""
    free = [i for i in problem.observable if problem.costs[i] == 0]
    if not free:
        return None
    # widest histograms first: the I/D rules derive narrower statistics
    # from them, so those are not also taken as observed
    free.sort(key=lambda i: (-len(problem.stats[i].attrs), i))
    via = problem.derivation(free)
    if not via.keys() >= problem.required:
        return None
    # only what this derivation of S_C rests on (``via`` holds inputs
    # before targets): unneeded source statistics stay untapped
    used = set(problem.required)
    for i in reversed(via):
        if i in used and via[i] is not None:
            used.update(problem.entries[via[i]].inputs)
    return {i for i in used if via[i] is None}


def solve_ilp(
    problem: SelectionProblem, time_limit: float | None = None
) -> SelectionResult:
    """Solve the selection problem: proven optimal where the greedy bound
    shrank it, to HiGHS's default relative gap (1e-4) where it did not.

    ``time_limit`` (seconds) caps the HiGHS run; on timeout the best
    incumbent is used if it verifies, otherwise the greedy heuristic takes
    over -- exactly the fallback Section 5.3 motivates ("The LP formulation
    could take a long time to solve").
    """
    greedy = None
    model, kept = problem, range(problem.n)
    if all(cost >= 0 for cost in problem.costs):
        free = _free_selection(problem)
        if free is not None:
            return SelectionResult(problem, free, method="ilp")
        # no selection as cheap as greedy's observes anything dearer than
        # greedy's whole cost, nor derives anything from such a statistic
        greedy = solve_greedy(problem)
        bound = greedy.total_cost
        alive = problem.closure(
            {i for i in problem.observable if problem.costs[i] <= bound}
        )
        if len(alive) < problem.n:
            model, kept = problem.restricted_to(alive)

    cutoff = greedy.total_cost if model is not problem else None
    observed, proved = _highs(model, time_limit, cutoff is not None, cutoff)
    if observed is not None:
        observed = {kept[i] for i in observed}
    if observed is None or not problem.is_sufficient(observed):
        # the second should be impossible given the level constraints
        fallback = greedy if greedy is not None else solve_greedy(problem)
        fallback.method = (
            "greedy(ilp-no-incumbent)" if observed is None
            else "greedy(ilp-unsound)"
        )
        return fallback
    method = "ilp" if proved else "ilp(time-limit)"
    return SelectionResult(
        problem=problem, observed_indexes=observed, method=method, iterations=1
    )
