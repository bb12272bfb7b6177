"""Tests for data generation and the 30-workflow suite."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.blocks import analyze
from repro.workloads import case, suite
from repro.workloads.characteristics import (
    paper_reference,
    summarize,
    synthetic_population,
)
from repro.workloads.datagen import (
    ColumnSpec,
    TableSpec,
    ZipfSampler,
    generate_table,
    generate_tables,
    zipf_sizes,
)


class TestZipfSampler:
    def test_values_within_domain(self):
        rng = random.Random(1)
        sampler = ZipfSampler(50, 1.2, rng)
        values = sampler.sample_many(500)
        assert all(1 <= v <= 50 for v in values)

    def test_high_skew_concentrates_mass(self):
        rng = random.Random(2)
        sampler = ZipfSampler(100, 1.5, rng)
        values = sampler.sample_many(2000)
        from collections import Counter

        top = Counter(values).most_common(1)[0][1]
        assert top > 2000 / 100 * 5  # way above uniform expectation

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, random.Random(1))

    # -- drop-in property: the vectorised ``sample_many`` is the loop ------
    @staticmethod
    def _twins(domain, skew, seed):
        a, b = random.Random(seed), random.Random(seed)
        return a, ZipfSampler(domain, skew, a), b, ZipfSampler(domain, skew, b)

    @settings(max_examples=60, deadline=None)
    @given(
        domain=st.integers(1, 50_000),
        skew=st.floats(0.0, 20.0),
        n=st.integers(0, 5_000),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_sample_many_is_the_per_draw_loop(self, domain, skew, n, seed):
        rng, vectorised, twin_rng, looped = self._twins(domain, skew, seed)
        column = vectorised.sample_many(n)
        assert column == [looped.sample() for _ in range(n)]
        # the rng is left where the loop leaves it
        assert rng.random() == twin_rng.random()
        # cells share the sampler's value ints (peak RSS depends on it)
        assert len({id(v) for v in column}) <= domain

    def test_sample_many_keeps_the_gauss_state(self):
        rng, vectorised, twin_rng, looped = self._twins(1000, 1.1, 3)
        rng.gauss(0.0, 1.0), twin_rng.gauss(0.0, 1.0)  # sets gauss_next
        assert vectorised.sample_many(700) == [
            looped.sample() for _ in range(700)
        ]
        assert rng.getstate() == twin_rng.getstate()


class TestGenerateTable:
    def test_deterministic_per_seed(self):
        spec = TableSpec("T", 100).column("a", 20).column("b", 10)
        t1 = generate_table(spec, seed=5)
        t2 = generate_table(spec, seed=5)
        assert t1.columns == t2.columns
        t3 = generate_table(spec, seed=6)
        assert t1.columns != t3.columns

    def test_serial_column_covers_domain(self):
        spec = TableSpec("T", 30).column("pk", 30, serial=True)
        t = generate_table(spec, seed=1)
        assert sorted(t.column("pk")) == list(range(1, 31))

    def test_serial_cycles_when_larger(self):
        spec = TableSpec("T", 10).column("pk", 4, serial=True)
        t = generate_table(spec, seed=1)
        assert set(t.column("pk")) == {1, 2, 3, 4}

    @pytest.mark.parametrize("cardinality", [0, 3, 4, 10, 22])
    def test_serial_repeats_the_shuffled_domain_in_order(self, cardinality):
        spec = TableSpec("T", cardinality).column("pk", 4, serial=True)
        values = [1, 2, 3, 4]
        random.Random("1/T/pk").shuffle(values)
        expected = [values[i % 4] for i in range(cardinality)]
        assert generate_table(spec, seed=1).column("pk") == expected

    def test_serial_zero_domain_is_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            TableSpec("T", 5).column("pk", 0, serial=True)

    @pytest.mark.parametrize("skew", [math.nan, math.inf, -math.inf])
    def test_non_finite_skew_is_rejected(self, skew):
        with pytest.raises(ValueError, match="skew"):
            ColumnSpec(10, skew)

    def test_negative_cardinality_is_rejected(self):
        with pytest.raises(ValueError, match="cardinality"):
            TableSpec("T", -1)

    def test_empty_table_is_allowed(self):
        table = generate_table(TableSpec("T", 0).column("a", 5), seed=1)
        assert table.columns == {"a": []}

    def test_generate_tables_accepts_dict_and_list(self):
        spec = TableSpec("T", 5).column("a", 3)
        by_dict = generate_tables({"T": spec}, seed=1)
        by_list = generate_tables([spec], seed=1)
        assert by_dict["T"].columns == by_list["T"].columns


class TestCharacteristics:
    def test_summarize_matches_hand_computation(self):
        rows = summarize([10, 20, 30], [1, 2, 9])
        by_stat = {r.stat: r for r in rows}
        assert by_stat["Max"].card == 30
        assert by_stat["Min"].uv == 1
        assert by_stat["Mean"].card == 20
        assert by_stat["Median"].uv == 2

    def test_synthetic_population_shape(self):
        """The qualitative shape of the paper's data table: strong right
        skew (mean >> median), UV <= Card, ranges within the paper's."""
        cards, uvs = synthetic_population()
        rows = {r.stat: r for r in summarize(cards, uvs)}
        assert rows["Mean"].card > rows["Median"].card
        assert rows["Mean"].uv > rows["Median"].uv
        assert rows["Min"].card >= 3342
        assert rows["Max"].card <= 417874
        assert all(uv <= card for card, uv in zip(cards, uvs))

    def test_paper_reference_is_stable(self):
        rows = {r.stat: r for r in paper_reference()}
        assert rows["Max"].card == 417874
        assert rows["Median"].uv == 6529

    def test_zipf_sizes_bounds(self):
        sizes = zipf_sizes(30, 1000, 10, 1.0, random.Random(3))
        assert len(sizes) == 30
        assert all(10 <= s <= 1000 for s in sizes)
        assert zipf_sizes(0, 10, 1, 1.0, random.Random(1)) == []


class TestSuite:
    def test_thirty_workflows(self):
        cases = suite()
        assert len(cases) == 30
        assert [c.number for c in cases] == list(range(1, 31))

    def test_case_lookup(self):
        assert case(21).name == "grand_trade_report"
        with pytest.raises(KeyError):
            case(99)

    def test_every_workflow_builds_and_analyzes(self):
        for c in suite():
            analysis = analyze(c.build())
            assert analysis.blocks
            for block in analysis.blocks:
                assert block.universe()

    def test_complexity_spread(self):
        """The suite spans the paper's range: linear single-plan flows up
        to an 8-way join."""
        arities = {}
        for c in suite():
            analysis = analyze(c.build())
            arities[c.number] = max(b.n_way for b in analysis.blocks)
        assert arities[21] == 8  # the flagship
        assert max(b for b in arities.values()) == 8
        assert sum(1 for a in arities.values() if a == 1) >= 5  # linear flows

    def test_tables_match_specs(self):
        c = case(11)
        tables = c.tables(scale=0.1, seed=0)
        specs = c.table_specs(scale=0.1)
        for name, spec in specs.items():
            assert tables[name].num_rows == spec.cardinality
            assert set(tables[name].attrs) == set(spec.columns)

    def test_characteristics_scale_facts_only(self):
        c = case(11)
        cards1, _ = c.characteristics(scale=1.0)
        cards2, dv2 = c.characteristics(scale=2.0)
        assert cards2["Trade"] == 2 * cards1["Trade"]
        assert cards2["DimAccount"] == cards1["DimAccount"]
        assert all(
            dv <= cards2[rel] for rel, attrs in dv2.items() for dv in attrs.values()
        )

    def test_workflows_execute_on_generated_data(self):
        """Smoke: a spread of workflows runs end to end on its own data."""
        from repro.engine.backend import BackendExecutor

        for number in (2, 7, 16, 24, 30):
            c = case(number)
            analysis = analyze(c.build())
            run = BackendExecutor(analysis).run(c.tables(scale=0.1, seed=4))
            assert run.targets


class TestDataIntegrity:
    def test_serial_dimensions_guarantee_fk_coverage(self):
        """Serial key columns cover their domain, so FK joins really are
        lookups on generated data (every fact row matches exactly once)."""
        from repro.engine.physical import hash_join
        from repro.workloads.tpcdi import FOREIGN_KEYS, RELATIONS

        c = case(11)
        tables = c.tables(scale=0.2, seed=5)
        for child, parent, attr in FOREIGN_KEYS:
            if child not in tables or parent not in tables:
                continue
            parent_attrs, parent_card, serial = RELATIONS[parent]
            if attr not in serial:
                continue
            out, rej, _ = hash_join(
                tables[child], tables[parent], (attr,), want_reject_left=True
            )
            assert rej.num_rows == 0, (child, parent, attr)
            assert out.num_rows == tables[child].num_rows

    def test_string_and_mixed_histograms(self):
        """Histograms work over arbitrary hashable values, not just ints."""
        from repro.core.histogram import Histogram
        from repro.engine.table import Table

        t = Table({"s": ["a", "a", "b"], "n": [1, 2, 2]})
        h = t.histogram(("s",))
        assert h.counts.get(("a",), 0) == 2
        joint = t.histogram(("n", "s"))
        assert joint.counts.get((2, "b"), 0) == 1
        assert joint.marginalize(("s",)) == Histogram(
            ("s",), {("a",): 2, ("b",): 1}
        )
        other = Table({"s": ["b", "c"]}).histogram(("s",))
        assert h.dot(other) == 1
