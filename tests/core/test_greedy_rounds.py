"""The §5.3 greedy selects what a from-scratch greedy selects.

``solve_greedy`` carries its cost labels, their choices and the
computability closure from one round to the next.  :func:`scratch_greedy`
is the greedy as it was before that: every round it relabels every
statistic from nothing and recomputes the closure of everything observed.
Both must observe the same statistics in the same number of rounds on

- the 30 suite workflows, cold and with a seeded share of their
  observable statistics free (Section 6.2);
- the Figure 10 harness (no FK rules, bootstrap sizes) with and without
  union-division;
- random workflows with free shares (``-m property``);
- a hand-built problem whose later round walks through a tie that the
  carried choices and a fresh labelling resolve differently.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.core.costs import INFINITE, CostModel
from repro.core.css import CSS
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import CssEntry, SelectionProblem, build_problem
from repro.core.statistics import Statistic
from repro.estimation.bootstrap import bootstrap_se_sizes
from repro.experiments import SuiteContext
from tests.core.test_suite_selections import DIGESTS, suite_catalog
from tests.randomgen import random_workflow

NUMBERS = sorted(DIGESTS)


def scratch_greedy(problem: SelectionProblem) -> tuple[set[int], int]:
    """The observed statistics and rounds of a greedy that relabels from
    scratch each round: Bellman-Ford sweeps in entry order, a label moving
    only on a strict improvement, then the cheapest uncovered required
    statistic's choices walked down to observations."""
    observed: set[int] = set()
    computable = problem.closure(observed)
    rounds = 0
    while not problem.required <= computable:
        rounds += 1
        best = [0.0 if i in computable else INFINITE for i in range(problem.n)]
        choice: dict[int, int | None] = {}
        for i in problem.observable - computable:
            if problem.costs[i] < INFINITE:
                best[i], choice[i] = problem.costs[i], None
        improved = True
        while improved:
            improved = False
            for j, entry in enumerate(problem.entries):
                members = problem.members[j]
                if entry.target in members:
                    continue
                total = sum(best[k] for k in members)
                if total < best[entry.target] - 1e-12:
                    best[entry.target], choice[entry.target] = total, j
                    improved = True
        uncovered = sorted(problem.required - computable)
        _cost, stat = min((best[s], s) for s in uncovered if best[s] < INFINITE)
        stack, seen = [stat], set()
        while stack:
            i = stack.pop()
            if i in computable or i in seen:
                continue
            seen.add(i)
            if choice[i] is None:
                observed.add(i)
            else:
                stack.extend(problem.members[choice[i]])
        computable = problem.closure(observed)
    return observed, max(rounds, 1)


def assert_same_rounds(problem: SelectionProblem) -> None:
    result = solve_greedy(problem)
    assert (result.observed_indexes, result.iterations) == scratch_greedy(problem)


def with_free_share(catalog, cost_model, share: float, seed: int):
    """The problem with a seeded ``share`` of its observable statistics
    already available at zero cost."""
    observable = sorted(catalog.observable, key=lambda s: s.sort_key())
    free = set(random.Random(seed).sample(
        observable, round(share * len(observable))))
    return build_problem(catalog, cost_model, free_statistics=free)


@pytest.mark.parametrize("number", NUMBERS, ids=lambda n: f"wf{n}")
def test_suite_cold(number):
    assert_same_rounds(build_problem(*suite_catalog(number)))


@pytest.mark.parametrize("share", [0.2, 0.5])
@pytest.mark.parametrize("number", NUMBERS, ids=lambda n: f"wf{n}")
def test_suite_with_free_statistics(number, share):
    catalog, cost_model = suite_catalog(number)
    assert_same_rounds(with_free_share(catalog, cost_model, share, number))


@functools.cache
def _fig10() -> list:
    """Per suite workflow, Figure 10's analysis and bootstrap cost model."""
    rows = []
    for case, workflow, analysis in SuiteContext.build():
        cards, dv = case.characteristics(scale=1.0)
        sizes = bootstrap_se_sizes(analysis, cards, dv)
        rows.append((analysis, CostModel(workflow.catalog, se_sizes=sizes)))
    return rows


@pytest.mark.parametrize("union_division", [True, False], ids=["ud", "noud"])
@pytest.mark.parametrize("number", NUMBERS, ids=lambda n: f"wf{n}")
def test_figure10_harness(number, union_division):
    analysis, cost_model = _fig10()[number - 1]
    options = GeneratorOptions(union_division=union_division, fk_rules=False)
    assert_same_rounds(build_problem(generate_css(analysis, options), cost_model))


def test_a_tie_on_the_walk_is_resolved_as_a_fresh_labelling_resolves_it():
    """Round 1 observes ``a`` (cost 1) for ``R1``.  That makes entry 0
    (``x`` from ``a`` and ``c``) and entry 1 (``x`` from ``b``) tie for
    ``x`` at 2, but the carried choice of ``x`` is still entry 1, taken in
    round 1 when entry 0 cost 3.  A fresh labelling reaches entry 0 first
    and keeps it, so round 2 observes ``c`` for ``R2`` where the carried
    choice would observe ``b``."""
    names = ["a", "b", "c", "x", "R1", "R2"]
    stats = [Statistic.card(SubExpression.of(name)) for name in names]
    a, b, c, x, r1, r2 = range(len(names))

    def entry(target, *inputs):
        return CssEntry(target, inputs, CSS(
            stats[target], tuple(stats[i] for i in inputs), "T"))

    problem = SelectionProblem(
        stats=stats,
        observable=frozenset({a, b, c}),
        required=frozenset({r1, r2}),
        entries=[entry(x, a, c), entry(x, b), entry(r1, a), entry(r2, x)],
        costs=[1.0, 2.0, 2.0, INFINITE, INFINITE, INFINITE],
    )
    observed, rounds = scratch_greedy(problem)
    assert (observed, rounds) == ({a, c}, 2)
    result = solve_greedy(problem)
    assert (result.observed_indexes, result.iterations) == (observed, rounds)


@pytest.mark.property
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    share=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_random_workflows_with_free_statistics(seed, share):
    workflow, _ = random_workflow(seed)
    catalog = generate_css(analyze(workflow))
    assert_same_rounds(
        with_free_share(catalog, CostModel(workflow.catalog), share, seed))
