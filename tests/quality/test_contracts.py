"""Unit tests for source contracts and row-level validation."""

import pytest

from repro.engine.table import Table
from repro.quality import (
    ColumnContract,
    ContractSet,
    QualityError,
    SourceContract,
    validate_rows,
)


def _table():
    return Table.wrap(
        {
            "id": [1, 2, 3, 4],
            "name": ["a", "b", "c", "d"],
            "score": [1.5, 2.0, None, "oops"],
        }
    )


class TestColumnContract:
    def test_rejects_unknown_type(self):
        with pytest.raises(QualityError):
            ColumnContract(name="x", type="decimal")

    def test_rejects_unknown_domain_clause(self):
        with pytest.raises(QualityError):
            ColumnContract(name="x", domain="between:1:2")

    def test_bool_is_not_int(self):
        check = ColumnContract(name="x", type="int").checker()
        assert check(3)
        assert not check(True)

    def test_float_accepts_int(self):
        check = ColumnContract(name="x", type="float").checker()
        assert check(3) and check(3.5)
        assert not check("3.5")

    def test_nullability(self):
        assert not ColumnContract(name="x", nullable=False).checker()(None)
        assert ColumnContract(name="x", nullable=True).checker()(None)

    @pytest.mark.parametrize(
        "domain,value,ok",
        [
            ("min:0", 1, True),
            ("min:0", -1, False),
            ("min:0,max:10", 11, False),
            ("in:red|green", "green", True),
            ("in:red|green", "blue", False),
            ("nonempty", "", False),
            ("nonempty", "x", True),
        ],
    )
    def test_domain_dsl(self, domain, value, ok):
        assert ColumnContract(name="x", domain=domain).checker()(value) is ok

    def test_classify_orders_null_type_domain(self):
        contract = ColumnContract(
            name="x", type="int", nullable=False, domain="min:0"
        )
        assert contract.classify(None)[0] == "null"
        assert contract.classify("s")[0] == "type"
        assert contract.classify(-1)[0] == "domain"

    def test_roundtrip(self):
        contract = ColumnContract(
            name="x", type="int", nullable=False, domain="min:0"
        )
        assert ColumnContract.from_dict(contract.to_dict()) == contract

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QualityError):
            ColumnContract.from_dict({"name": "x", "typ": "int"})

    def test_infer_unanimous_type(self):
        assert ColumnContract.infer("x", [1, 2, 3]).type == "int"
        assert ColumnContract.infer("x", ["a", "b"]).type == "str"

    def test_infer_mixed_numeric_is_float(self):
        assert ColumnContract.infer("x", [1, 2.5]).type == "float"

    def test_infer_mixed_other_is_any(self):
        assert ColumnContract.infer("x", [1, "a"]).type == "any"

    def test_infer_nullability(self):
        assert ColumnContract.infer("x", [1, None]).nullable
        assert not ColumnContract.infer("x", [1, 2]).nullable


class TestContractSet:
    def test_infer_and_roundtrip(self, tmp_path):
        contracts = ContractSet.infer({"t": _table()})
        path = tmp_path / "contracts.json"
        contracts.save(path)
        loaded = ContractSet.from_file(path)
        assert sorted(loaded.contracts) == ["t"]
        assert loaded.get("t") == contracts.get("t")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(QualityError):
            SourceContract(
                source="t",
                columns=(
                    ColumnContract(name="x"),
                    ColumnContract(name="x"),
                ),
            )

    def test_describe_mentions_columns(self):
        text = ContractSet.infer({"t": _table()}).describe()
        assert "t:" in text and "id:int" in text


class TestValidateRows:
    def test_clean_table_returned_unchanged(self):
        table = Table.wrap({"id": [1, 2], "name": ["a", "b"]})
        contract = SourceContract.infer("t", table)
        clean, dead, violations = validate_rows(table, contract)
        assert clean is table  # zero-copy on the healthy path
        assert dead.num_rows == 0 and not violations

    def test_invalid_rows_are_split_out(self):
        table = _table()
        contract = SourceContract(
            source="t",
            columns=(
                ColumnContract(name="id", type="int", nullable=False),
                ColumnContract(name="name", type="str", nullable=False),
                ColumnContract(name="score", type="float", nullable=False),
            ),
        )
        clean, dead, violations = validate_rows(table, contract)
        assert clean.num_rows == 2 and dead.num_rows == 2
        assert clean.column("id") == [1, 2]
        assert dead.column("id") == [3, 4]
        assert [(v.row, v.column, v.code) for v in violations] == [
            (2, "score", "null"),
            (3, "score", "type"),
        ]

    def test_one_row_quarantined_once_with_all_violations(self):
        table = Table.wrap({"a": [None, 1], "b": [None, 2]})
        contract = SourceContract(
            source="t",
            columns=(
                ColumnContract(name="a", nullable=False),
                ColumnContract(name="b", nullable=False),
            ),
        )
        clean, dead, violations = validate_rows(table, contract)
        assert dead.num_rows == 1
        assert len(violations) == 2
