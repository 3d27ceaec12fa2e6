"""Query language parser."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuerySyntaxError
from repro.query import parse_query
from repro.query.ast import (
    Aggregate,
    And,
    Compare,
    Const,
    InClass,
    Not,
    NotInClass,
    Or,
    Path,
    Query,
    Var,
    When,
)
from repro.query.parser import parse_expr
from repro.typesys import EnumSymbol
from tests.reference_query import query_trees


class TestQueries:
    def test_minimal(self):
        q = parse_query("for p in Patient select p")
        assert (q.var, q.source_class) == ("p", "Patient")
        assert q.where is None
        assert q.select == (Var("p"),)

    def test_where_and_multi_select(self):
        q = parse_query(
            "for p in Patient where p.age > 30 select p.name, p.age")
        assert isinstance(q.where, Compare)
        assert len(q.select) == 2

    def test_str_round_trip(self):
        text = "for p in Patient where p.age > 30 select p.name"
        q = parse_query(text)
        assert parse_query(str(q)) == q


class TestExpressions:
    def test_path_chain(self):
        e = parse_expr("p.treatedAt.location.city")
        assert e == Path(Path(Path(Var("p"), "treatedAt"), "location"),
                         "city")
        assert e.key() == "p.treatedAt.location.city"

    def test_membership(self):
        assert parse_expr("p in Alcoholic") == InClass(Var("p"),
                                                       "Alcoholic")
        assert parse_expr("p not in Alcoholic") == NotInClass(
            Var("p"), "Alcoholic")

    def test_membership_of_path(self):
        e = parse_expr("p.treatedAt in Hospital")
        assert e == InClass(Path(Var("p"), "treatedAt"), "Hospital")

    def test_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            e = parse_expr(f"p.age {op} 30")
            assert isinstance(e, Compare) and e.op == op

    def test_literals(self):
        assert parse_expr("42") == Const(42)
        assert parse_expr('"abc"') == Const("abc")
        assert parse_expr("'Dove") == Const(EnumSymbol("Dove"))
        assert parse_expr("true") == Const(True)

    def test_boolean_precedence(self):
        e = parse_expr("a in X and b in Y or c in Z")
        assert isinstance(e, Or)
        assert isinstance(e.left, And)

    def test_not(self):
        e = parse_expr("not p in Alcoholic")
        assert e == Not(InClass(Var("p"), "Alcoholic"))

    def test_parentheses(self):
        e = parse_expr("a in X and (b in Y or c in Z)")
        assert isinstance(e, And)
        assert isinstance(e.right, Or)

    def test_when_expression(self):
        e = parse_expr(
            "when p in Alcoholic then p.treatedBy else p.name end")
        assert isinstance(e, When)
        assert e.condition == InClass(Var("p"), "Alcoholic")

    def test_nested_when(self):
        e = parse_expr(
            "when a in X then when b in Y then 1 else 2 end else 3 end")
        assert isinstance(e.then, When)

    def test_comment_allowed(self):
        q = parse_query(
            "for p in Patient -- everyone\nselect p.name")
        assert q.select == (Path(Var("p"), "name"),)

    def test_non_path_expressions_have_no_key(self):
        assert parse_expr("p.age > 30").key() is None
        assert parse_expr("42").key() is None


class TestErrors:
    @pytest.mark.parametrize("text", [
        "for in Patient select p",
        "for p Patient select p",
        "for p in select p",
        "for p in Patient",
        "for p in Patient select",
        "for p in Patient select p extra",
        "for p in Patient select p.",
        "for p in Patient where p. select p",
        "for p in Patient select when p in A then 1 else 2",  # no end
        "for p in Patient select (p.name",
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("for p in Patient select p.name @ 3")


# --------------------------------------------------------------------------
# str() is the wire form: the shard router re-sends ``str(query)`` to
# every worker, so any query the grammar can express must print back to
# text that parses to the same tree.
# --------------------------------------------------------------------------

#: What the lexer can spell: unsigned integers, strings without a quote
#: or newline (there is no escape syntax), booleans, enum symbols.
_consts = st.one_of(
    st.integers(0, 10 ** 9),
    st.booleans(),
    st.text(alphabet=sorted(set(string.printable) - set('"\n\r\x0b\x0c')),
            max_size=8),
    st.sampled_from(("Low_BP", "NJ", "a#1")).map(EnumSymbol),
)
_query_trees = query_trees(
    names=("p", "x", "True", "q_1", "counter"),
    classes=("Patient", "Alcoholic", "Hospital$1"),
    attributes=("age", "name", "treatedBy", "location"),
    consts=_consts)


@settings(max_examples=300, deadline=None)
@given(_query_trees)
def test_every_query_survives_str(query):
    text = str(query)
    assert parse_query(text) == query, text
    # ``Const(True) == Const(1)`` in Python; the text tells them apart.
    assert str(parse_query(text)) == text


@pytest.mark.parametrize("text", [
    'for p in Patient where p.name = "p77" select p.name',
    "for p in Patient where p.insured = true select false",
    "for p in Patient where (p.age < 40) = true select p.name",
    "for p in Patient where (p in Alcoholic) != (p.age > 3) select p",
    "for p in Patient where p.bloodPressure = 'Low_BP select count, min p.age",
])
def test_literals_print_in_lexer_syntax(text):
    assert str(parse_query(text)) == text
