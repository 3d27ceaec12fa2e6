"""Query language parser."""

import re
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

    @pytest.mark.parametrize("text, value", [
        ("-1", -1), ("1.5", 1.5), ("-0.25", -0.25), ("2e-07", 2e-07),
        ("1e+16", 1e16), ("5.0", 5.0),
    ])
    def test_real_and_negative_literals(self, text, value):
        # `Real` is a schema primitive; its constants are query literals.
        const = parse_expr(text)
        assert const == Const(value) and type(const.value) is type(value)
        assert parse_expr(f"p.w > {text}") == Compare(
            ">", Path(Var("p"), "w"), Const(value))
        assert parse_expr(f"{text} <= p.w") == Compare(
            "<=", Const(value), Path(Var("p"), "w"))

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

    @pytest.mark.parametrize("text, line, column", [
        # A stray character on line 1.
        ("for p in Patient select p.name @ 3", 1, 32),
        # A stray character on line 3, after a comment.
        ("for p in Patient -- all of them\nwhere p.age > 3\n"
         "select @ p.name", 3, 8),
        # An unclosed `(`: at the end of the text, and before it.
        ("for p in Patient\nselect (", 2, 9),
        ("for p in Patient select (p.name", 1, 32),
        # A trailing `p.`.
        ("for p in Patient select p.", 1, 27),
        # An unterminated string: its opening quote lexes as nothing.
        ('for p in Patient\nwhere p.name = "abc\nselect p', 2, 16),
    ])
    def test_error_positions(self, text, line, column):
        with pytest.raises(QuerySyntaxError) as info:
            parse_query(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value).endswith(f"(line {line}, column {column})")


# --------------------------------------------------------------------------
# str() is the wire form: the shard router re-sends ``str(query)`` to
# every worker, so any query the grammar can express must print back to
# text that parses to the same tree.
# --------------------------------------------------------------------------

#: What the lexer can spell: integers, finite reals, strings without a
#: quote or newline (there is no escape syntax), booleans, enum symbols.
_consts = st.one_of(
    st.integers(-10 ** 9, 10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False),
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


# --------------------------------------------------------------------------
# Blanks, newlines and comments between tokens change nothing but the
# positions a syntax error reports: its line and column are those of
# the offset where the text stopped lexing or parsing.
# --------------------------------------------------------------------------

#: The tokens ``str(query)`` spells, in the lexer's order of preference.
_TOKEN = re.compile(r"""
    "[^"\n]*" | '[A-Za-z_][A-Za-z0-9_#$]* | -?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?
  | [A-Za-z_][A-Za-z0-9_#$]* | <= | >= | != | [=<>().,]""", re.VERBOSE)

#: What may stand between two tokens; a comment runs to its newline.
_filler = st.lists(st.one_of(
    st.sampled_from((" ", "  ", "\t", "\n", "\n\n", "\r\n")),
    st.text(alphabet=sorted(set(string.printable) - set("\n\r\x0b\x0c")),
            max_size=6).map(lambda body: f"--{body}\n"),
), max_size=3).map("".join)


def _pieces(text: str):
    """``text`` as (piece, is_token) pairs that concatenate to it."""
    pieces, end = [], 0
    for m in _TOKEN.finditer(text):
        assert text[end:m.start()].strip() == "", text
        pieces += [(text[end:m.start()], False), (m.group(), True)]
        end = m.end()
    assert text[end:] == "", text
    return pieces


def _position(text: str, offset: int):
    """The (line, column) of ``offset``, both counted from 1."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def check_blanks_and_a_stray_character(query, data):
    spread, clear = [], set()
    # Offsets where a stray `@` ends lexing there: not inside a token
    # other than a name, nor inside a comment.
    for piece, is_token in _pieces(str(query)) + [("", False)]:
        at = sum(map(len, spread))
        clear.add(at)
        if not is_token:
            piece += data.draw(_filler)
            inside = [m.span() for m in re.finditer(r"--[^\n]*", piece)]
            clear.update(at + i for i in range(len(piece) + 1)
                         if not any(a < i <= b for a, b in inside))
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_#$]*", piece):
            clear.update(range(at, at + len(piece)))
        spread.append(piece)
    text = "".join(spread)
    assert parse_query(text) == query, text
    offset = data.draw(st.sampled_from(sorted(clear)))
    stray = text[:offset] + "@" + text[offset:]
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(stray)
    assert "unexpected character '@'" in str(info.value), repr(stray)
    assert (info.value.line, info.value.column) == _position(
        stray, offset), repr(stray)


@settings(max_examples=150, deadline=None)
@given(_query_trees, st.data())
def test_blanks_and_comments_between_tokens(query, data):
    check_blanks_and_a_stray_character(query, data)


@pytest.mark.slow
@settings(max_examples=2_000, deadline=None)
@given(_query_trees, st.data())
def test_blanks_and_comments_between_tokens_at_length(query, data):
    check_blanks_and_a_stray_character(query, data)


@pytest.mark.parametrize("text", [
    'for p in Patient where p.name = "p77" select p.name',
    "for p in Patient where p.insured = true select false",
    "for p in Patient where (p.age < 40) = true select p.name",
    "for p in Patient where (p in Alcoholic) != (p.age > 3) select p",
    "for p in Patient where p.bloodPressure = 'Low_BP select count, min p.age",
])
def test_literals_print_in_lexer_syntax(text):
    assert str(parse_query(text)) == text
