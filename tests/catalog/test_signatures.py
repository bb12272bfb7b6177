"""Canonical statistic signatures: stable, unique, cross-workflow.

The whole catalog rests on the signature contract:

- deterministic: the same analysis always yields the same keys;
- plan-invariant: re-deriving the signer over a *different* plan of the
  same workflow maps each statistic to the same key (signatures describe
  what is computed, not how the DAG labels its nodes);
- unique: distinct statistics of one workflow never collide;
- shared: the same source statistic reached from two different workflows
  hashes to one key, while genuinely different statistics never do.
"""

import pytest

from repro.algebra.blocks import analyze, with_plans
from repro.catalog.signatures import (
    KEY_LENGTH,
    SignatureError,
    WorkflowSigner,
)
from repro.core.generator import generate_css
from repro.core.statistics import Statistic
from repro.estimation.optimizer import PlanOptimizer
from repro.workloads import case


def signer_for(number: int):
    analysis = analyze(case(number).build())
    return analysis, WorkflowSigner(analysis)


@pytest.mark.parametrize("number", [1, 7, 9, 11, 21, 30])
def test_keys_unique_and_deterministic(number):
    analysis, signer = signer_for(number)
    stats = generate_css(analysis).all_statistics
    keys = {}
    for stat in stats:
        key = signer.statistic_key(stat)
        assert len(key) == KEY_LENGTH
        assert key not in keys, (
            f"collision: {stat!r} and {keys[key]!r} share {key}"
        )
        keys[key] = stat
    # a fresh signer over a fresh analysis reproduces every key
    analysis2, signer2 = signer_for(number)
    stats2 = sorted(
        generate_css(analysis2).all_statistics, key=lambda s: s.sort_key()
    )
    for stat, original in zip(
        stats2, sorted(stats, key=lambda s: s.sort_key())
    ):
        assert signer2.statistic_key(stat) == signer.statistic_key(original)


def test_source_statistics_shared_across_workflows():
    # wf11 and wf12 both read TPC-DI sources; their shared relations must
    # land on identical keys while workflow-specific ones stay disjoint
    analysis_a, signer_a = signer_for(11)
    analysis_b, signer_b = signer_for(12)
    keys_a = {
        signer_a.statistic_key(s): s
        for s in generate_css(analysis_a).all_statistics
    }
    keys_b = {
        signer_b.statistic_key(s): s
        for s in generate_css(analysis_b).all_statistics
    }
    shared = set(keys_a) & set(keys_b)
    assert shared, "workflows reading the same sources must share keys"
    for key in shared:
        # a shared key always describes the same kind of statistic
        assert keys_a[key].kind == keys_b[key].kind
        assert keys_a[key].attrs == keys_b[key].attrs


def test_plan_change_preserves_keys():
    # re-plan every block: signatures must not move with the join order
    wfcase = case(11)
    analysis = analyze(wfcase.build())
    signer = WorkflowSigner(analysis)
    baseline = {
        signer.statistic_key(s): s.sort_key()
        for s in generate_css(analysis).all_statistics
    }

    run_cards = {}
    # cheap fake cardinalities are enough to force a different join order
    for block in analysis.blocks:
        for se in block.join_ses():
            run_cards[se] = float(len(se.relations) * 7 + len(repr(se)))
    optimizer = PlanOptimizer(analysis, run_cards)
    plans = {
        name: plan.tree for name, plan in optimizer.optimize().items()
    }
    replanned = with_plans(analysis, plans)
    signer2 = WorkflowSigner(replanned)
    rekeyed = {
        signer2.statistic_key(s): s.sort_key()
        for s in generate_css(replanned).all_statistics
    }
    shared = set(baseline) & set(rekeyed)
    # the SE space itself is plan-dependent at the margins, but the keys
    # that appear in both derivations must describe the same statistics
    assert shared
    for key in shared:
        assert baseline[key] == rekeyed[key]


def test_distinct_statistics_get_distinct_keys():
    analysis, signer = signer_for(7)
    block = analysis.blocks[0]
    se = next(iter(block.join_ses()))
    card = signer.statistic_key(Statistic.card(se))
    attr = sorted(analysis.workflow.catalog.relations)[0]
    # kind is part of the signature: |SE| vs H[SE] vs D[SE] never collide
    keys = {card}
    for stat in generate_css(analysis).all_statistics:
        keys.add(signer.statistic_key(stat))
    assert len(keys) >= 2


def test_se_key_groups_statistics_of_one_se():
    analysis, signer = signer_for(11)
    stats = generate_css(analysis).all_statistics
    by_se = {}
    for stat in stats:
        by_se.setdefault(signer.se_key(stat.se), set()).add(repr(stat.se))
    for se_key, reprs in by_se.items():
        assert len(reprs) == 1, f"se_key {se_key} covers {reprs}"


def test_foreign_statistic_raises_signature_error():
    _, signer = signer_for(7)
    analysis_b, _ = signer_for(12)
    foreign = sorted(
        generate_css(analysis_b).all_statistics, key=lambda s: s.sort_key()
    )
    with pytest.raises(SignatureError):
        for stat in foreign:
            signer.statistic_key(stat)


@pytest.mark.parametrize("number", range(1, 31))
def test_memoised_signer_signs_like_a_fresh_one(number):
    """``se_signature`` is derived once per SE; the keys must be those of
    a signer that has never signed anything, for every SE flavour."""
    analysis, signer = signer_for(number)
    stats = sorted(
        generate_css(analysis).all_statistics, key=lambda s: s.sort_key()
    )
    keys = signer.statistic_keys(stats)
    assert set(keys) == set(stats)  # every suite statistic signs
    for stat in stats:
        fresh = WorkflowSigner(analysis)
        assert fresh.statistic_key(stat) == keys[stat], repr(stat)
        assert WorkflowSigner(analysis).se_key(stat.se) == signer.se_key(
            stat.se
        ), repr(stat.se)


def test_suite_signing_covers_reject_flavours():
    from repro.algebra.expressions import RejectJoinSE, RejectSE

    flavours = set()
    for number in range(1, 31):
        analysis = analyze(case(number).build())
        flavours.update(
            type(stat.se) for stat in generate_css(analysis).all_statistics
        )
    assert {RejectSE, RejectJoinSE} <= flavours


def test_unresolvable_se_raises_every_time():
    from repro.algebra.expressions import SubExpression

    _, signer = signer_for(7)
    foreign = SubExpression.of("NoSuchRelation")
    stat = Statistic.card(foreign)
    for _ in range(2):  # an error is never remembered as a signature
        with pytest.raises(SignatureError):
            signer.se_signature(foreign)
        with pytest.raises(SignatureError):
            signer.se_key(foreign)
        assert signer.statistic_keys([stat]) == {}
