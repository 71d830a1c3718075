"""Unit tests for truth tables."""

import pytest

from repro.logic.expr import Var, vars_
from repro.logic.parser import parse_expression
from repro.logic.truthtable import TruthTable, minterm_column, tables_on_common_names
from repro.simulate import PatternSet


def table(text, names=None):
    return TruthTable.from_expr(parse_expression(text), names)


class TestConstruction:
    def test_from_expr_and2(self):
        t = table("a*b")
        assert t.bits == 0b1000  # only minterm 3 (a=1,b=1)

    def test_from_expr_or2(self):
        assert table("a+b").bits == 0b1110

    def test_row_order_matches_paper(self):
        t = table("a", names=("a", "b"))
        # a is the MSB: minterms 2,3 have a=1
        assert [v for _, v in t.rows()] == [0, 0, 1, 1]

    def test_explicit_names_superset(self):
        t = table("a", names=("a", "b"))
        assert t.names == ("a", "b")
        assert t.value({"a": 1, "b": 0}) == 1

    def test_missing_name_raises(self):
        with pytest.raises(ValueError):
            table("a*b", names=("a",))

    def test_duplicate_names_raise(self):
        with pytest.raises(ValueError):
            TruthTable(("a", "a"), 0)

    def test_from_function(self):
        t = TruthTable.from_function(("a", "b"), lambda v: v["a"] ^ v["b"])
        assert t == table("a*!b+!a*b")

    def test_constant(self):
        assert TruthTable.constant(("a", "b"), 1).ones_count() == 4
        assert TruthTable.constant(("a", "b"), 0).ones_count() == 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            TruthTable(tuple(f"v{i}" for i in range(30)), 0)


def looped_column(n, position):
    """The minterm column built block by block (the old tabulation loop)."""
    shift = n - 1 - position
    block = 1 << shift
    pattern = 0
    for index in range(0, 1 << n, block):
        if (index >> shift) & 1:
            pattern |= ((1 << block) - 1) << index
    return pattern


class TestMintermColumns:
    @pytest.mark.parametrize("n", range(17))
    def test_closed_form_matches_loop(self, n):
        names = tuple(f"x{position}" for position in range(n))
        columns = [looped_column(n, position) for position in range(n)]
        assert [minterm_column(n, position) for position in range(n)] == columns
        assert [
            TruthTable.from_expr(Var(name), names).bits for name in names
        ] == columns
        exhaustive = PatternSet.exhaustive(names)
        assert exhaustive.count == 1 << n
        assert [exhaustive.env[name] for name in names] == columns
        if n:
            sop = parse_expression(" * ".join(names[:3]) + " + " + names[-1])
            assert TruthTable.from_expr(sop, names).bits == (
                (columns[0] & columns[min(1, n - 1)] & columns[min(2, n - 1)])
                | columns[-1]
            )


class TestQueries:
    def test_value(self):
        t = table("a*b")
        assert t.value({"a": 1, "b": 1}) == 1
        assert t.value({"a": 0, "b": 1}) == 0

    def test_value_at(self):
        t = table("a*b")
        assert t.value_at(3) == 1
        with pytest.raises(IndexError):
            t.value_at(4)

    def test_minterms(self):
        assert list(table("a+b").minterms()) == [1, 2, 3]

    def test_constant_value(self):
        assert table("a+!a").constant_value() == 1
        assert table("a*!a").constant_value() == 0
        assert table("a").constant_value() is None

    def test_support_drops_fake_dependence(self):
        t = table("a*b+a*!b", names=("a", "b"))
        assert t.support() == ("a",)

    def test_depends_on(self):
        t = table("a*b")
        assert t.depends_on("a")
        assert not table("a", names=("a", "b")).depends_on("b")


class TestAlgebra:
    def test_xor_is_difference_function(self):
        good = table("a*b")
        faulty = table("a", names=("a", "b"))
        difference = good ^ faulty
        # differ exactly when a=1, b=0
        assert list(difference.minterms()) == [2]

    def test_incompatible_names_raise(self):
        with pytest.raises(ValueError):
            table("a") & table("b")

    def test_invert(self):
        assert (~table("a*b")).bits == 0b0111

    def test_expand_reorder(self):
        t = table("a*b")
        expanded = t.expand(("b", "a"))
        assert expanded.value({"a": 1, "b": 1}) == 1
        assert expanded.value({"a": 1, "b": 0}) == 0

    def test_expand_superset(self):
        t = table("a")
        wide = t.expand(("a", "b", "c"))
        assert wide.value({"a": 1, "b": 0, "c": 1}) == 1

    def test_cofactor(self):
        t = table("a*b+c")
        c1 = t.cofactor("c", 1)
        assert c1.constant_value() == 1

    def test_tables_on_common_names(self):
        t1, t2 = tables_on_common_names([table("a"), table("b")])
        assert t1.names == t2.names == ("a", "b")


class TestProbability:
    def test_uniform(self):
        assert table("a*b").probability(0.5) == pytest.approx(0.25)

    def test_weighted(self):
        assert table("a*b").probability({"a": 0.9, "b": 0.9}) == pytest.approx(0.81)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            table("a").probability({"a": 1.5})

    def test_formats(self):
        text = table("a*b").format_table()
        assert "a b | f" in text
        assert text.count("\n") == 5
