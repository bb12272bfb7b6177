"""Memory-constrained statistics collection (Section 6.1).

When the optimal statistics set does not fit the observation-memory budget,
the framework schedules *multiple* executions with re-ordered plans: each
run observes what fits (trivial counters plus whatever cheap histograms the
budget allows), and plan re-ordering makes previously unobservable
sub-expressions observable.  More memory => fewer executions -- the
space/time trade-off of Section 8.2.

Run:  python examples/memory_constrained.py
"""

from repro import (
    CardinalityEstimator,
    CostModel,
    BackendExecutor,
    GeneratorOptions,
    StatisticsStore,
    TapSet,
    analyze,
    build_problem,
    generate_css,
    plan_constrained,
    solve_ilp,
)
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.workloads import case


def main() -> None:
    wfcase = case(13)  # 5-way star join around Holding
    workflow = wfcase.build()
    analysis = analyze(workflow)
    # FK metadata would collapse the bill to a handful of counters (see the
    # metadata ablation bench); disable it so the budget actually bites
    catalog = generate_css(analysis, GeneratorOptions(fk_rules=False))
    cost_model = CostModel(workflow.catalog)
    sources = wfcase.tables(scale=0.3, seed=21)

    optimal = solve_ilp(build_problem(catalog, cost_model))
    print(f"unconstrained optimum: {optimal.total_cost:g} memory units, "
          f"1 execution\n")

    print(f"{'budget':>10} {'executions':>11} {'peak memory':>12}")
    budgets = [max(optimal.total_cost * f, 12) for f in (1.2, 0.5, 0.2, 0.02)]
    schedules = {}
    for budget in budgets:
        schedule = plan_constrained(
            analysis, catalog, cost_model, budget=budget
        )
        schedules[budget] = schedule
        print(
            f"{budget:>10.0f} {schedule.executions:>11} "
            f"{schedule.peak_memory:>12.0f}"
        )

    # actually execute the tightest schedule and prove sufficiency
    tight = schedules[budgets[-1]]
    print(f"\nexecuting the {tight.executions}-run schedule "
          f"(budget {budgets[-1]:.0f}):")
    merged = StatisticsStore()
    for i, step in enumerate(tight.steps, start=1):
        taps = TapSet(step.observe)
        run = BackendExecutor(analysis).run(sources, trees=step.trees, taps=taps)
        merged.merge(run.observations)
        print(f"  run {i}: observed {len(step.observe)} statistics "
              f"({step.memory:.0f} units)")

    estimator = CardinalityEstimator(catalog, merged)
    truth = ground_truth_cardinalities(analysis, sources)
    errors = sum(
        1
        for se, actual in truth.items()
        if abs(estimator.cardinality(se) - actual) > 1e-9
    )
    print(f"\nall {len(truth)} sub-expression cardinalities recovered, "
          f"{errors} mismatches")


if __name__ == "__main__":
    main()
