"""Parser for the textual query language.

Grammar::

    query    := 'for' IDENT 'in' IDENT ('where' expr)? 'select' expr (',' expr)*
    expr     := or
    or       := and ('or' and)*
    and      := unary ('and' unary)*
    unary    := 'not' unary | relation
    relation := postfix ( ('in' | 'not' 'in') IDENT
                        | OP postfix )?
    postfix  := primary ('.' IDENT)*
    primary  := NUMBER | STRING | SYMBOL | 'true' | 'false'
              | IDENT | '(' expr ')'
              | 'when' expr 'then' expr 'else' expr 'end'

``OP`` is one of ``= != < <= > >=``.  A ``NUMBER`` is spelled as ``str``
spells a finite number: ``-1``, or a ``Real`` (``1.5``, ``2e-07``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    Aggregate,
    And,
    Compare,
    Const,
    Expr,
    InClass,
    Not,
    NotInClass,
    Or,
    Path,
    Query,
    Var,
    When,
)
from repro.typesys.values import EnumSymbol

#: Aggregate function names (context-sensitive: only at select items, so
#: they stay usable as ordinary identifiers elsewhere).
_AGGREGATES = ("count", "min", "max", "avg", "total")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
  | (?P<symbol>'[A-Za-z_][A-Za-z0-9_#$]*)
  | (?P<string>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_#$]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[().,])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"for", "in", "where", "select", "when", "then", "else", "end",
             "and", "or", "not", "true", "false"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Tok]:
    tokens: List[_Tok] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line,
                pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "comment"):
            line += value.count("\n")
            if "\n" in value:
                line_start = m.start() + value.rindex("\n") + 1
            pos = m.end()
            continue
        column = m.start() - line_start + 1
        if kind == "ident" and value in _KEYWORDS:
            tokens.append(_Tok(value, value, line, column))
        else:
            tokens.append(_Tok(kind, value, line, column))
        pos = m.end()
    tokens.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return tokens


class _QueryParser:
    def __init__(self, tokens: List[_Tok]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Tok:
        return self._tokens[self._pos]

    def _advance(self) -> _Tok:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _accept(self, kind: str) -> Optional[_Tok]:
        if self._peek().kind == kind:
            return self._advance()
        return None

    def _expect(self, kind: str, what: str) -> _Tok:
        tok = self._peek()
        if tok.kind != kind:
            raise QuerySyntaxError(
                f"expected {what}, found {tok.text!r}", tok.line, tok.column)
        return self._advance()

    # Grammar ------------------------------------------------------------

    def parse_query(self) -> Query:
        self._expect("for", "'for'")
        var = self._expect("ident", "variable name").text
        self._expect("in", "'in'")
        source = self._expect("ident", "class name").text
        where = None
        if self._accept("where"):
            where = self.parse_expr()
        self._expect("select", "'select'")
        select = [self._parse_select_item()]
        while self._peek().kind == "punct" and self._peek().text == ",":
            self._advance()
            select.append(self._parse_select_item())
        self._expect("eof", "end of query")
        return Query(var, source, where, tuple(select))

    def _parse_select_item(self) -> Expr:
        tok = self._peek()
        if tok.kind == "ident" and tok.text in _AGGREGATES:
            following = self._tokens[self._pos + 1]
            # `count` may stand bare; a following `.` means the name was
            # an ordinary variable after all (e.g. `count.x`).
            if following.kind == "punct" and following.text == ".":
                return self.parse_expr()
            self._advance()
            if tok.text == "count" and (
                    following.kind == "eof"
                    or (following.kind == "punct"
                        and following.text == ",")):
                return Aggregate("count", None)
            operand = self.parse_expr()
            return Aggregate(tok.text, operand)
        return self.parse_expr()

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("or"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_unary()
        while self._accept("and"):
            left = And(left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self._accept("not"):
            return Not(self._parse_unary())
        return self._parse_relation()

    def _parse_relation(self) -> Expr:
        left = self._parse_postfix()
        tok = self._peek()
        if tok.kind == "in":
            self._advance()
            name = self._expect("ident", "class name").text
            return InClass(left, name)
        if tok.kind == "not":
            # `x not in C`
            self._advance()
            self._expect("in", "'in' after 'not'")
            name = self._expect("ident", "class name").text
            return NotInClass(left, name)
        if tok.kind == "op":
            op = self._advance().text
            right = self._parse_postfix()
            return Compare(op, left, right)
        return left

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.text == ".":
                self._advance()
                attr = self._expect("ident", "attribute name").text
                expr = Path(expr, attr)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "number":
            self._advance()
            real = any(c in tok.text for c in ".eE")
            return Const(float(tok.text) if real else int(tok.text))
        if tok.kind == "string":
            self._advance()
            return Const(tok.text[1:-1])
        if tok.kind == "symbol":
            self._advance()
            return Const(EnumSymbol(tok.text[1:]))
        if tok.kind == "true":
            self._advance()
            return Const(True)
        if tok.kind == "false":
            self._advance()
            return Const(False)
        if tok.kind == "when":
            self._advance()
            condition = self.parse_expr()
            self._expect("then", "'then'")
            then = self.parse_expr()
            self._expect("else", "'else'")
            otherwise = self.parse_expr()
            self._expect("end", "'end'")
            return When(condition, then, otherwise)
        if tok.kind == "ident":
            self._advance()
            return Var(tok.text)
        if tok.kind == "punct" and tok.text == "(":
            self._advance()
            expr = self.parse_expr()
            closing = self._expect("punct", "')'")
            if closing.text != ")":
                raise QuerySyntaxError("expected ')'", closing.line,
                                       closing.column)
            return expr
        raise QuerySyntaxError(
            f"expected an expression, found {tok.text!r}",
            tok.line, tok.column)


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`~repro.query.ast.Query`."""
    return _QueryParser(_tokenize(text)).parse_query()


def parse_expr(text: str) -> Expr:
    """Parse a standalone expression (used by tests)."""
    parser = _QueryParser(_tokenize(text))
    expr = parser.parse_expr()
    parser._expect("eof", "end of expression")
    return expr
