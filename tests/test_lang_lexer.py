"""CDL tokenizer."""

import pytest

from repro.errors import CDLSyntaxError
from repro.lang import parse, tokenize
from repro.lang.lexer import position


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestBasics:
    def test_keywords(self):
        assert kinds("class with end excuses on None") == [
            "class", "with", "end", "excuses", "on", "None"]

    def test_identifiers_with_special_chars(self):
        assert texts("room# Hospital$1 Cancer_Patient") == [
            "room#", "Hospital$1", "Cancer_Patient"]

    def test_symbols(self):
        tokens = tokenize("{'AL, 'WV}")
        assert [t.kind for t in tokens[:-1]] == [
            "{", "symbol", ",", "symbol", "}"]
        assert tokens[1].text == "'AL"

    def test_int_range_tokens(self):
        assert kinds("1..120") == ["int", "..", "int"]

    def test_ellipsis(self):
        assert kinds("...") == ["..."]

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == "string"
        assert tokens[0].text == '"hello world"'

    def test_comment_skipped(self):
        assert kinds("class -- this is a comment\nwith") == [
            "class", "with"]


class TestIsAForms:
    @pytest.mark.parametrize("form", ["is-a", "is a", "is_a", "isa"])
    def test_all_forms(self, form):
        assert kinds(f"Employee {form} Person")[1] == "isa"

    def test_is_alone_is_error(self):
        # `is` alone is an identifier, as in a query, so the class head
        # fails where `with` was due.
        with pytest.raises(CDLSyntaxError) as info:
            parse("class Employee is Person with")
        assert (info.value.line, info.value.column) == (1, 16)

    def test_island_is_identifier(self):
        # `isa` followed by more letters must not lex as IS_A.
        assert kinds("isaac") == ["ident"]


class TestPositions:
    def test_line_and_column_tracked(self):
        text = "class A\n  with"
        with_tok = tokenize(text)[2]
        assert position(text, with_tok.offset) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(CDLSyntaxError) as info:
            tokenize("class ?")
        assert info.value.line == 1
        assert info.value.column == 7


class TestErrors:
    def test_bare_quote(self):
        with pytest.raises(CDLSyntaxError):
            tokenize("' ")

    def test_unterminated_string(self):
        with pytest.raises(CDLSyntaxError):
            tokenize('"abc')

    def test_single_dot(self):
        with pytest.raises(CDLSyntaxError):
            tokenize("a . b")
