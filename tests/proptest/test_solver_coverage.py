"""Property: both solvers always cover all SE cardinalities.

Section 5 frames statistics selection as a weighted hitting-set problem;
the ILP solves it exactly and the greedy approximates it.  Whatever the
workflow, both must return *valid* selections (the closure of the observed
set derives the cardinality of every SE in S_C) and the approximation can
never beat the optimum: ``greedy cost >= ILP cost``.

Hypothesis drives the seed space (derandomized, so CI is reproducible);
the workflow generator turns each seed into a random join graph.
"""

import dataclasses
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from tests.randomgen import random_workflow

pytestmark = pytest.mark.property


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_greedy_and_ilp_cover_all_cardinalities(seed):
    workflow, _ = random_workflow(seed)
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    problem = build_problem(catalog, CostModel(workflow.catalog))

    ilp = solve_ilp(problem)
    greedy = solve_greedy(problem)

    # validity: the observed closure derives every required cardinality
    for result in (ilp, greedy):
        assert result.is_valid, (seed, result.method)

    # optimality ordering: the approximation never beats the exact solve
    assert greedy.total_cost >= ilp.total_cost - 1e-9, seed


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    share=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
)
def test_zero_cost_presolve_agrees_with_highs(seed, share):
    """With some statistics at zero cost, presolve-then-HiGHS pays what
    HiGHS alone pays.  The reference never presolves: its free statistics
    cost a negligible epsilon instead of nothing."""
    workflow, _ = random_workflow(seed)
    catalog = generate_css(analyze(workflow))
    observable = sorted(catalog.observable, key=lambda s: s.sort_key())
    free = set(random.Random(seed).sample(
        observable, max(1, round(share * len(observable)))))
    problem = build_problem(
        catalog, CostModel(workflow.catalog), free_statistics=free
    )
    zero = {i for i in problem.observable if problem.costs[i] == 0}
    assert zero == {problem.index[s] for s in free}

    result = solve_ilp(problem)
    assert result.method == "ilp" and result.is_valid, seed
    if problem.is_sufficient(zero):
        assert result.total_cost == 0, seed
        assert result.observed_indexes <= zero, seed

    reference = solve_ilp(dataclasses.replace(
        problem, costs=[cost or 1e-9 for cost in problem.costs]))
    assert reference.method == "ilp"
    paid = problem.total_cost(reference.observed_indexes)
    # two HiGHS runs may stop at different ends of the 1e-4 relative gap
    assert result.total_cost == pytest.approx(paid, rel=2e-4, abs=1e-6), seed


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    share=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_greedy_bound_prune_costs_the_proven_optimum(seed, share):
    """Solving what the greedy bound leaves costs exactly what the whole
    model costs when HiGHS closes its gap, and the selection is sufficient
    on the problem the caller passed, not only on the pruned one."""
    from repro.core.ilp import _highs

    workflow, _ = random_workflow(seed)
    catalog = generate_css(analyze(workflow))
    observable = sorted(catalog.observable, key=lambda s: s.sort_key())
    free = set(random.Random(seed).sample(
        observable, round(share * len(observable))))
    problem = build_problem(
        catalog, CostModel(workflow.catalog), free_statistics=free
    )

    result = solve_ilp(problem)
    assert result.method == "ilp" and result.problem is problem, seed
    assert problem.is_sufficient(result.observed_indexes), seed
    assert result.observed_indexes <= problem.observable, seed

    whole, proved = _highs(problem, None, exact=True)
    assert proved, seed
    bound = solve_greedy(problem).total_cost
    alive = problem.closure(
        {i for i in problem.observable if problem.costs[i] <= bound})
    # a model the bound left whole is solved at the default gap, as ever
    tolerance = 1e-9 if len(alive) < problem.n else 2e-4
    assert result.total_cost == pytest.approx(
        problem.total_cost(whole), rel=tolerance, abs=1e-6), seed
