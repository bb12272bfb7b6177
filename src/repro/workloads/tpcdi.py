"""The 30-workflow benchmark suite, motivated by the TPC-DI draft.

Section 7: *"The set of workflows used for the experiments were a
representative set of 30 workflows, motivated from a draft version of
TPC-DI ... the ETLs range from simple linear ETLs having only one
execution plan to complex ETLs having 8-way joins and many
transformations."*

The suite is built over a brokerage/data-integration schema (customers,
accounts, brokers, securities, companies, trades, holdings, market
history...) and spans the same complexity range:

- workflows 1-6: linear single-plan flows (some with blocking UDFs);
- 7-10: two/three-way joins, one with a materialized reject link;
- 11-16: star joins of 3-5 inputs with filters and FK lookups;
- 17-20: flows with aggregation boundaries and cross-block joins;
- 21: the flagship 8-way join with multiple transformations (the paper's
  workflow 21, lower bound 41 executions for pay-as-you-go);
- 22-26: block-boundary patterns: UDF-derived join keys (Figure 3),
  materialized rejects, shared intermediates, multi-target flows;
- 27-29: 5-7-way joins with cyclic join graphs;
- 30: a 6-way join block (the paper's workflow 30, lower bound 14).

Everything is deterministic: ``suite()`` rebuilds the same workflows and
``case.tables(scale, seed)`` the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algebra.operators import (
    Aggregate,
    AggregateUDF,
    Filter,
    Join,
    Predicate,
    Project,
    Source,
    Target,
    Transform,
    UdfSpec,
    Workflow,
)
from repro.algebra.schema import Catalog
from repro.engine.table import Table
from repro.workloads.datagen import TableSpec, generate_tables

# ---------------------------------------------------------------------------
# the shared schema
# ---------------------------------------------------------------------------

#: relation -> ({attribute: domain size}, unit cardinality, {serial attrs})
RELATIONS: dict[str, tuple[dict[str, int], int, set[str]]] = {
    "DimDate": ({"date_id": 365, "month_id": 12, "year_id": 5}, 365, {"date_id"}),
    "StatusType": ({"status_id": 6, "status_code": 6}, 6, {"status_id"}),
    "TradeType": ({"type_id": 8, "type_code": 8}, 8, {"type_id"}),
    "TaxRate": ({"tax_id": 50, "rate_bucket": 20}, 50, {"tax_id"}),
    "DimBroker": ({"broker_id": 120, "branch_id": 40}, 120, {"broker_id"}),
    "DimCompany": ({"company_id": 300, "industry_id": 25}, 300, {"company_id"}),
    "DimSecurity": (
        {"security_id": 600, "company_id": 300, "exchange_id": 8},
        600,
        {"security_id"},
    ),
    "DimCustomer": (
        {"customer_id": 1000, "tier": 10, "tax_id": 50, "region_id": 30},
        1000,
        {"customer_id"},
    ),
    "DimAccount": (
        {"account_id": 1500, "customer_id": 1000, "broker_id": 120, "status_id": 6},
        1500,
        {"account_id"},
    ),
    "Trade": (
        {
            "trade_id": 5000,
            "account_id": 1500,
            "security_id": 600,
            "date_id": 365,
            "type_id": 8,
            "qty_bucket": 100,
        },
        5000,
        {"trade_id"},
    ),
    "CashTxn": (
        {"txn_id": 4000, "account_id": 1500, "date_id": 365, "amount_bucket": 50},
        4000,
        {"txn_id"},
    ),
    "Holding": (
        {
            "holding_id": 4500,
            "account_id": 1500,
            "security_id": 600,
            "date_id": 365,
            "qty_bucket": 100,
        },
        4500,
        {"holding_id"},
    ),
    "Watch": (
        {"watch_id": 2500, "customer_id": 1000, "security_id": 600, "date_id": 365},
        2500,
        {"watch_id"},
    ),
    "MarketHist": (
        {"mh_id": 6000, "security_id": 600, "date_id": 365, "price_bucket": 80},
        6000,
        {"mh_id"},
    ),
    "Prospect": ({"prospect_id": 800, "region_id": 30, "tier": 10}, 800, {"prospect_id"}),
    "HRRecord": ({"employee_id": 200, "broker_id": 120, "branch_id": 40}, 200, {"employee_id"}),
    "FinStatement": (
        {"fin_id": 900, "company_id": 300, "date_id": 365, "revenue_bucket": 60},
        900,
        {"fin_id"},
    ),
}

#: facts scale with the scale factor; dimensions keep their key coverage
SCALED_RELATIONS = {
    "Trade",
    "CashTxn",
    "Holding",
    "Watch",
    "MarketHist",
    "FinStatement",
    "Prospect",
    "HRRecord",
}

FOREIGN_KEYS: list[tuple[str, str, str]] = [
    ("Trade", "DimAccount", "account_id"),
    ("Trade", "DimSecurity", "security_id"),
    ("Trade", "DimDate", "date_id"),
    ("Trade", "TradeType", "type_id"),
    ("DimAccount", "DimCustomer", "customer_id"),
    ("DimAccount", "DimBroker", "broker_id"),
    ("DimAccount", "StatusType", "status_id"),
    ("DimSecurity", "DimCompany", "company_id"),
    ("DimCustomer", "TaxRate", "tax_id"),
    ("CashTxn", "DimAccount", "account_id"),
    ("CashTxn", "DimDate", "date_id"),
    ("Holding", "DimAccount", "account_id"),
    ("Holding", "DimSecurity", "security_id"),
    ("Holding", "DimDate", "date_id"),
    ("Watch", "DimCustomer", "customer_id"),
    ("Watch", "DimSecurity", "security_id"),
    ("Watch", "DimDate", "date_id"),
    ("MarketHist", "DimSecurity", "security_id"),
    ("MarketHist", "DimDate", "date_id"),
    ("FinStatement", "DimCompany", "company_id"),
    ("HRRecord", "DimBroker", "broker_id"),
]

# derived attributes minted by UDFs in some workflows
DERIVED_ATTRS: dict[str, int] = {
    "position_key": 1500,
    "segment_id": 30,
    "risk_bucket": 20,
    "fiscal_id": 60,
}


def build_catalog(relations: list[str]) -> Catalog:
    """A catalog covering the given relations plus derived attributes."""
    catalog = Catalog()
    for name in relations:
        attrs, _card, _serial = RELATIONS[name]
        catalog.add_relation(name, attrs)
    for attr, domain in DERIVED_ATTRS.items():
        catalog.add_attribute(attr, domain)
    for child, parent, attr in FOREIGN_KEYS:
        if child in catalog.relations and parent in catalog.relations:
            catalog.add_foreign_key(child, parent, attr)
    return catalog


# ---------------------------------------------------------------------------
# predicates and UDFs shared across the suite (deterministic semantics)
# ---------------------------------------------------------------------------

P_RECENT = Predicate("recent", lambda v: v > 180)
P_ACTIVE = Predicate("active", lambda v: v <= 3)
P_TOP_TIER = Predicate("top_tier", lambda v: v <= 4)
P_BIG_QTY = Predicate("big_qty", lambda v: v > 40)
P_EVEN = Predicate("even", lambda v: v % 2 == 0)
P_LOW_RATE = Predicate("low_rate", lambda v: v <= 12)
P_MAJOR = Predicate("major", lambda v: v <= 15)
P_FIRST_HALF = Predicate("first_half", lambda v: v <= 182)

U_NORMALIZE = UdfSpec("normalize", lambda v: ((v * 7) % 97) + 1)
U_SEGMENT = UdfSpec("segment", lambda v: (v % 30) + 1)
U_RISK = UdfSpec("risk", lambda vs: ((vs[0] + vs[1]) % 20) + 1)
U_POSITION = UdfSpec("position", lambda vs: ((vs[0] * 31 + vs[1]) % 1500) + 1)
U_FISCAL = UdfSpec("fiscal", lambda v: ((v - 1) // 7) + 1)


def _dedupe_rows(rows: list[dict]) -> list[dict]:
    """Blocking dedupe UDF: keeps the first row per full-tuple value."""
    seen: set[tuple] = set()
    out = []
    for row in rows:
        key = tuple(sorted(row.items()))
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# case plumbing
# ---------------------------------------------------------------------------


@dataclass
class WorkflowCase:
    """One member of the suite: a buildable workflow plus its data recipe."""

    number: int
    name: str
    description: str
    relations: list[str]
    builder: Callable[[Catalog, dict[str, Source]], list[Target]]

    def build(self) -> Workflow:
        catalog = build_catalog(self.relations)
        sources = {name: Source(catalog, name) for name in self.relations}
        targets = self.builder(catalog, sources)
        return Workflow(f"wf{self.number:02d}_{self.name}", catalog, targets)

    def table_specs(self, scale: float = 1.0) -> dict[str, TableSpec]:
        specs: dict[str, TableSpec] = {}
        for name in self.relations:
            attrs, unit_card, serial = RELATIONS[name]
            card = unit_card
            if name in SCALED_RELATIONS:
                card = max(int(unit_card * scale), 8)
            spec = TableSpec(name, card)
            for attr, domain in attrs.items():
                spec.column(attr, domain, skew=1.1, serial=attr in serial)
            specs[name] = spec
        return specs

    def tables(self, scale: float = 1.0, seed: int = 0) -> dict[str, Table]:
        return generate_tables(self.table_specs(scale), seed=seed)

    def characteristics(
        self, scale: float
    ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """(cardinalities, per-attribute distinct counts) without data.

        This is the paper's experimental mode -- "note that we don't need
        the actual data": enough to drive the cost model and the selection
        experiments at any scale.
        """
        cards: dict[str, float] = {}
        distinct: dict[str, dict[str, float]] = {}
        for name in self.relations:
            attrs, unit_card, _serial = RELATIONS[name]
            card = float(unit_card)
            if name in SCALED_RELATIONS:
                card = max(unit_card * scale, 8.0)
            cards[name] = card
            distinct[name] = {a: min(float(d), card) for a, d in attrs.items()}
        return cards, distinct


_CASES: list[WorkflowCase] = []


def _case(number: int, name: str, description: str, relations: list[str]):
    def decorate(fn):
        _CASES.append(WorkflowCase(number, name, description, relations, fn))
        return fn

    return decorate


# ---------------------------------------------------------------------------
# workflows 1-6: linear flows
# ---------------------------------------------------------------------------


@_case(1, "load_dimdate", "linear: filter + fiscal transform", ["DimDate"])
def _wf1(catalog, s):
    flow = Filter(s["DimDate"], "date_id", P_FIRST_HALF)
    flow = Transform(flow, "month_id", U_FISCAL, output_attr="fiscal_id")
    return [Target(flow, "dim_date")]


@_case(2, "load_status", "linear: projection only", ["StatusType"])
def _wf2(catalog, s):
    return [Target(Project(s["StatusType"], ("status_id",)), "status")]


@_case(3, "load_taxrate", "linear: filter + normalize", ["TaxRate"])
def _wf3(catalog, s):
    flow = Filter(s["TaxRate"], "rate_bucket", P_LOW_RATE)
    flow = Transform(flow, "rate_bucket", U_NORMALIZE)
    return [Target(flow, "tax_rate")]


@_case(4, "load_prospect", "linear: segment derivation + tier filter", ["Prospect"])
def _wf4(catalog, s):
    flow = Transform(s["Prospect"], "region_id", U_SEGMENT, output_attr="segment_id")
    flow = Filter(flow, "tier", P_TOP_TIER)
    return [Target(flow, "prospect")]


@_case(5, "load_hr", "linear with a blocking dedupe UDF", ["HRRecord"])
def _wf5(catalog, s):
    flow = Filter(s["HRRecord"], "branch_id", P_EVEN)
    flow = AggregateUDF(flow, "dedupe", _dedupe_rows)
    return [Target(flow, "hr")]


@_case(6, "load_finstatement", "linear: recent statements, normalized", ["FinStatement"])
def _wf6(catalog, s):
    flow = Filter(s["FinStatement"], "date_id", P_RECENT)
    flow = Transform(flow, "revenue_bucket", U_NORMALIZE)
    flow = Project(flow, ("fin_id", "company_id", "date_id", "revenue_bucket"))
    return [Target(flow, "fin")]


# ---------------------------------------------------------------------------
# workflows 7-10: small joins
# ---------------------------------------------------------------------------


@_case(7, "customer_accounts", "pinned 2-way join with materialized reject",
       ["DimCustomer", "DimAccount"])
def _wf7(catalog, s):
    join = Join(s["DimAccount"], s["DimCustomer"], "customer_id", reject_left=True)
    return [Target(join, "customer_accounts")]


@_case(8, "security_company", "2-way join + industry filter", ["DimSecurity", "DimCompany"])
def _wf8(catalog, s):
    comp = Filter(s["DimCompany"], "industry_id", P_MAJOR)
    return [Target(Join(s["DimSecurity"], comp, "company_id"), "sec_comp")]


@_case(9, "broker_accounts", "3-way: accounts x brokers x status",
       ["DimAccount", "DimBroker", "StatusType"])
def _wf9(catalog, s):
    j = Join(s["DimAccount"], s["DimBroker"], "broker_id")
    j = Join(j, s["StatusType"], "status_id")
    return [Target(j, "broker_accounts")]


@_case(10, "watch_enrich", "3-way: watches x securities x customers",
       ["Watch", "DimSecurity", "DimCustomer"])
def _wf10(catalog, s):
    j = Join(s["Watch"], s["DimSecurity"], "security_id")
    j = Join(j, Filter(s["DimCustomer"], "tier", P_TOP_TIER), "customer_id")
    return [Target(j, "watch_enrich")]


# ---------------------------------------------------------------------------
# workflows 11-16: star joins
# ---------------------------------------------------------------------------


@_case(11, "trade_star4", "4-way star around Trade",
       ["Trade", "DimAccount", "DimSecurity", "DimDate"])
def _wf11(catalog, s):
    j = Join(s["Trade"], s["DimAccount"], "account_id")
    j = Join(j, s["DimSecurity"], "security_id")
    j = Join(j, Filter(s["DimDate"], "date_id", P_RECENT), "date_id")
    return [Target(j, "trade_star")]


@_case(12, "cash_chain", "3-way chain: cash -> accounts -> customers",
       ["CashTxn", "DimAccount", "DimCustomer"])
def _wf12(catalog, s):
    j = Join(s["CashTxn"], s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    return [Target(j, "cash_chain")]


@_case(13, "holding_star5", "5-way star with qty filter",
       ["Holding", "DimAccount", "DimSecurity", "DimDate", "StatusType"])
def _wf13(catalog, s):
    j = Join(Filter(s["Holding"], "qty_bucket", P_BIG_QTY), s["DimAccount"], "account_id")
    j = Join(j, s["DimSecurity"], "security_id")
    j = Join(j, s["DimDate"], "date_id")
    j = Join(j, s["StatusType"], "status_id")
    return [Target(j, "holding_star")]


@_case(14, "trade_typed5", "5-way: trades with type, account, customer, date",
       ["Trade", "TradeType", "DimAccount", "DimCustomer", "DimDate"])
def _wf14(catalog, s):
    j = Join(s["Trade"], s["TradeType"], "type_id")
    j = Join(j, s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    j = Join(j, s["DimDate"], "date_id")
    return [Target(j, "trade_typed")]


@_case(15, "market_company", "4-way: market history to companies",
       ["MarketHist", "DimSecurity", "DimCompany", "DimDate"])
def _wf15(catalog, s):
    j = Join(s["MarketHist"], s["DimSecurity"], "security_id")
    j = Join(j, s["DimCompany"], "company_id")
    j = Join(j, Filter(s["DimDate"], "date_id", P_FIRST_HALF), "date_id")
    return [Target(j, "market_company")]


@_case(16, "customer_tax_region", "4-way with wide join domains",
       ["DimCustomer", "TaxRate", "Prospect", "DimAccount"])
def _wf16(catalog, s):
    j = Join(s["DimCustomer"], s["TaxRate"], "tax_id")
    j = Join(j, s["Prospect"], "region_id")
    j = Join(j, s["DimAccount"], "customer_id")
    return [Target(j, "customer_tax")]


# ---------------------------------------------------------------------------
# workflows 17-20: aggregation boundaries and cross-block flows
# ---------------------------------------------------------------------------


@_case(17, "trade_agg_report", "4-way join, then aggregate, then lookup",
       ["Trade", "DimAccount", "DimDate", "DimCustomer", "TaxRate"])
def _wf17(catalog, s):
    j = Join(s["Trade"], s["DimAccount"], "account_id")
    j = Join(j, s["DimDate"], "date_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    agg = Aggregate(j, ("customer_id", "tax_id"), {"n_trades": ("count", "trade_id")})
    out = Join(agg, s["TaxRate"], "tax_id")
    return [Target(out, "trade_agg")]


@_case(18, "watch_segments", "join, aggregate by region, join prospects",
       ["Watch", "DimCustomer", "Prospect"])
def _wf18(catalog, s):
    j = Join(s["Watch"], s["DimCustomer"], "customer_id")
    agg = Aggregate(j, ("region_id",), {"n_watches": ("count", "watch_id")})
    out = Join(agg, s["Prospect"], "region_id")
    return [Target(out, "watch_segments")]


@_case(19, "holdings_chain6", "6-way chain/star mix",
       ["Holding", "DimAccount", "DimCustomer", "TaxRate", "DimSecurity", "DimCompany"])
def _wf19(catalog, s):
    j = Join(s["Holding"], s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    j = Join(j, s["TaxRate"], "tax_id")
    j = Join(j, s["DimSecurity"], "security_id")
    j = Join(j, s["DimCompany"], "company_id")
    return [Target(j, "holdings_chain")]


@_case(20, "fin_cyclic", "4-way cyclic: statements, companies, securities, market",
       ["FinStatement", "DimCompany", "DimSecurity", "MarketHist"])
def _wf20(catalog, s):
    j = Join(s["FinStatement"], s["DimCompany"], "company_id")
    j = Join(j, s["DimSecurity"], "company_id")
    j = Join(j, s["MarketHist"], "security_id")
    return [Target(j, "fin_cyclic")]


# ---------------------------------------------------------------------------
# workflow 21: the flagship 8-way join
# ---------------------------------------------------------------------------


@_case(21, "grand_trade_report", "8-way join with multiple transformations",
       ["Trade", "TradeType", "DimAccount", "DimCustomer", "DimBroker",
        "DimSecurity", "DimCompany", "DimDate"])
def _wf21(catalog, s):
    trades = Transform(s["Trade"], "qty_bucket", U_NORMALIZE)
    j = Join(trades, s["TradeType"], "type_id")
    j = Join(j, s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    j = Join(j, s["DimBroker"], "broker_id")
    j = Join(j, s["DimSecurity"], "security_id")
    j = Join(j, s["DimCompany"], "company_id")
    j = Join(j, s["DimDate"], "date_id")
    j = Transform(j, "tier", U_SEGMENT, output_attr="segment_id")
    return [Target(j, "grand_trade_report")]


# ---------------------------------------------------------------------------
# workflows 22-26: block-boundary patterns
# ---------------------------------------------------------------------------


@_case(22, "trade_position", "UDF-derived join key seals a block (Figure 3)",
       ["Trade", "DimAccount", "Holding"])
def _wf22(catalog, s):
    j = Join(s["Trade"], s["DimAccount"], "account_id")
    keyed = Transform(j, ("account_id", "security_id"), U_POSITION,
                      output_attr="position_key")
    holdings = Transform(s["Holding"], ("account_id", "security_id"), U_POSITION,
                         output_attr="position_key")
    out = Join(keyed, holdings, "position_key")
    return [Target(out, "trade_position")]


@_case(23, "account_quarantine", "materialized reject feeding a 3-way block",
       ["DimAccount", "DimCustomer", "DimBroker", "StatusType"])
def _wf23(catalog, s):
    pinned = Join(s["DimAccount"], s["DimCustomer"], "customer_id",
                  reject_left=True)
    j = Join(pinned, s["DimBroker"], "broker_id")
    j = Join(j, s["StatusType"], "status_id")
    return [Target(j, "account_quarantine")]


@_case(24, "customer_segmentation", "transform + blocking UDF + downstream join",
       ["DimCustomer", "Prospect", "DimAccount"])
def _wf24(catalog, s):
    enriched = Join(s["DimCustomer"], s["Prospect"], "region_id")
    shrunk = AggregateUDF(enriched, "dedupe", _dedupe_rows)
    out = Join(shrunk, s["DimAccount"], "customer_id")
    return [Target(out, "customer_segmentation")]


@_case(25, "multi_target", "shared intermediate feeding two targets",
       ["Trade", "DimAccount", "DimDate", "DimSecurity"])
def _wf25(catalog, s):
    base = Join(s["Trade"], s["DimAccount"], "account_id")
    left = Join(base, s["DimDate"], "date_id")
    right = Join(base, s["DimSecurity"], "security_id")
    return [Target(left, "trades_by_date"), Target(right, "trades_by_security")]


@_case(26, "broker_performance", "5-way join then aggregation",
       ["HRRecord", "DimBroker", "DimAccount", "Trade", "DimDate"])
def _wf26(catalog, s):
    j = Join(s["HRRecord"], s["DimBroker"], "broker_id")
    j = Join(j, s["DimAccount"], "broker_id")
    j = Join(j, s["Trade"], "account_id")
    j = Join(j, s["DimDate"], "date_id")
    agg = Aggregate(j, ("broker_id",), {"n_trades": ("count", "trade_id")})
    return [Target(agg, "broker_performance")]


# ---------------------------------------------------------------------------
# workflows 27-30: larger joins
# ---------------------------------------------------------------------------


@_case(27, "security_activity", "5-way cyclic around securities",
       ["Watch", "Trade", "DimSecurity", "DimCustomer", "DimAccount"])
def _wf27(catalog, s):
    j = Join(s["Watch"], s["DimSecurity"], "security_id")
    j = Join(j, s["Trade"], "security_id")
    j = Join(j, s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    return [Target(j, "security_activity")]


@_case(28, "cash_customer6", "6-way with filters on several inputs",
       ["CashTxn", "DimAccount", "DimCustomer", "TaxRate", "DimBroker", "DimDate"])
def _wf28(catalog, s):
    j = Join(Filter(s["CashTxn"], "amount_bucket", P_EVEN), s["DimAccount"], "account_id")
    j = Join(j, Filter(s["DimCustomer"], "tier", P_TOP_TIER), "customer_id")
    j = Join(j, s["TaxRate"], "tax_id")
    j = Join(j, s["DimBroker"], "broker_id")
    j = Join(j, s["DimDate"], "date_id")
    return [Target(j, "cash_customer")]


@_case(29, "trade_lifecycle7", "7-way join",
       ["Trade", "TradeType", "DimAccount", "DimCustomer", "DimSecurity",
        "DimCompany", "DimDate"])
def _wf29(catalog, s):
    j = Join(s["Trade"], s["TradeType"], "type_id")
    j = Join(j, s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    j = Join(j, s["DimSecurity"], "security_id")
    j = Join(j, s["DimCompany"], "company_id")
    j = Join(j, s["DimDate"], "date_id")
    return [Target(j, "trade_lifecycle")]


@_case(30, "portfolio_rollup6", "6-way join block then aggregate",
       ["Holding", "DimAccount", "DimCustomer", "DimSecurity", "DimCompany", "DimDate"])
def _wf30(catalog, s):
    j = Join(s["Holding"], s["DimAccount"], "account_id")
    j = Join(j, s["DimCustomer"], "customer_id")
    j = Join(j, s["DimSecurity"], "security_id")
    j = Join(j, s["DimCompany"], "company_id")
    j = Join(j, s["DimDate"], "date_id")
    agg = Aggregate(j, ("customer_id", "company_id"),
                    {"total_qty": ("sum", "qty_bucket")})
    return [Target(agg, "portfolio_rollup")]


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def suite() -> list[WorkflowCase]:
    """The 30 workflow cases, ordered by number."""
    return sorted(_CASES, key=lambda c: c.number)


def case(number: int) -> WorkflowCase:
    """Look up one suite member by its workflow number (1-30)."""
    for c in _CASES:
        if c.number == number:
            return c
    raise KeyError(f"no workflow case {number}")
