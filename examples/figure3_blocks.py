"""Optimizable blocks and reject links: the paper's Figure 3 walkthrough.

A workflow with every boundary pattern from Section 3.2.1:

- a join whose reject link is materialized for diagnostics (boundary B1);
- a UDF deriving a new attribute from a multi-relation join, later used as
  a join key (boundary B2);
- an intermediate result staged to a table (``Materialize``, boundary
  B3): the join after it is a block of its own (B4).

The example prints the decomposition, the statistics identified per block,
and the union-division opportunities the reject links open up.

Run:  python examples/figure3_blocks.py
"""

from repro import (
    Catalog,
    CostModel,
    Join,
    Materialize,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
    analyze,
    build_problem,
    generate_css,
    solve_ilp,
)


def build_workflow() -> Workflow:
    catalog = Catalog()
    catalog.add_relation("T1", {"a": 40, "x": 25})
    catalog.add_relation("T2", {"a": 40, "y": 30})
    catalog.add_relation("T3", {"x": 25, "b": 35})
    catalog.add_relation("T4", {"c": 50})
    catalog.add_relation("T5", {"c": 50, "d": 20})

    t1, t2, t3 = Source(catalog, "T1"), Source(catalog, "T2"), Source(catalog, "T3")
    t4, t5 = Source(catalog, "T4"), Source(catalog, "T5")

    # B1: the reject link of T1 against T2 is materialized for diagnostics
    j12 = Join(t1, t2, "a", reject_left=True)
    j123 = Join(j12, t3, "x")
    # B2: a UDF combining attributes of (T1 |x| T2) and T3 derives c ...
    derived = Transform(
        j123, ("a", "b"), UdfSpec("make_key", lambda vs: (vs[0] * 7 + vs[1]) % 50 + 1),
        output_attr="c",
    )
    # ... and c is the join key with T4, sealing everything before it
    j4 = Join(derived, t4, "c")
    # B3: the (derived |x| T4) result is staged to a table before T5 joins
    j45 = Join(Materialize(j4, "staged"), t5, "c")
    return Workflow("figure3", catalog, [Target(j45, "warehouse")])


def main() -> None:
    workflow = build_workflow()
    analysis = analyze(workflow)
    print("== optimizable blocks (Section 3.2.1) ==")
    print(analysis.describe())

    catalog = generate_css(analysis)
    print("\n== identification summary ==")
    for key, value in catalog.counts().items():
        print(f"  {key}: {value}")

    ud_rules = [
        css
        for bucket in catalog.css.values()
        for css in bucket
        if css.rule in ("J4", "J5")
    ]
    print(f"\n== union-division CSSs enabled by the plan's joins "
          f"({len(ud_rules)}) ==")
    for css in ud_rules[:6]:
        print(f"  {css!r}")
    if len(ud_rules) > 6:
        print(f"  ... and {len(ud_rules) - 6} more")

    result = solve_ilp(build_problem(catalog, CostModel(workflow.catalog)))
    print("\n== chosen observations ==")
    print(result.describe())


if __name__ == "__main__":
    main()
