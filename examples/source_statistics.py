"""Integrating existing source statistics (Section 6.2).

When some sources are relational DBMSs, their catalogs already hold
statistics.  Adding them to the observable set at zero cost lets the
selection framework skip paying for them: the observation bill drops and
the instrumentation gets lighter, while estimates stay exact.

Run:  python examples/source_statistics.py
"""

from repro import (
    CardinalityEstimator,
    CostModel,
    BackendExecutor,
    GeneratorOptions,
    StatisticsPipeline,
    TapSet,
    analyze,
    build_problem,
    generate_css,
    solve_ilp,
)
from repro.core.external import harvest_source_statistics
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.workloads import case


def main() -> None:
    wfcase = case(14)  # 5-way: trades with type, account, customer, date
    workflow = wfcase.build()
    analysis = analyze(workflow)
    # disable FK shortcuts so the statistics bill is visible
    catalog = generate_css(analysis, GeneratorOptions(fk_rules=False))
    cost_model = CostModel(workflow.catalog)
    sources = wfcase.tables(scale=0.3, seed=8)

    # scenario: the dimension tables live in a DBMS whose catalog we can
    # read; the Trade feed is a flat file with no statistics at all
    dbms_relations = ["DimAccount", "DimCustomer", "DimDate", "TradeType"]
    free, values = harvest_source_statistics(sources, relations=dbms_relations)

    plain = solve_ilp(build_problem(catalog, cost_model))
    with_free = solve_ilp(
        build_problem(catalog, cost_model, free_statistics=free)
    )
    print(f"observation cost without source statistics: {plain.total_cost:g}")
    print(f"observation cost with DBMS catalogs free:   {with_free.total_cost:g}")

    to_instrument = [s for s in with_free.observed if s not in free]
    print(f"\nstatistics still needing instrumentation "
          f"({len(to_instrument)} of {len(with_free.observed)}):")
    for stat in to_instrument:
        print(f"  {stat!r}")

    taps = TapSet(to_instrument)
    run = BackendExecutor(analysis).run(sources, taps=taps)
    merged = run.observations
    merged.merge(values)
    estimator = CardinalityEstimator(catalog, merged)
    truth = ground_truth_cardinalities(analysis, sources)
    exact = all(
        abs(estimator.cardinality(se) - actual) < 1e-9
        for se, actual in truth.items()
    )
    print(f"\nestimates exact over all {len(truth)} sub-expressions: {exact}")

    # the pipeline takes the same zero-cost set (with its default rules)
    pipeline = StatisticsPipeline(workflow, free_statistics=free)
    print(f"pipeline selection with DBMS catalogs free: "
          f"{pipeline.select_statistics().total_cost:g}")


if __name__ == "__main__":
    main()
