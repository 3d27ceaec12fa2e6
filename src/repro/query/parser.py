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
from typing import List, NamedTuple, Optional

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

#: One match per token: the blanks and comments before it, then the
#: token itself, the end of the text, or a character nothing lexes.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?:
      (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
    | (?P<symbol>'[A-Za-z_][A-Za-z0-9_#$]*)
    | (?P<string>"[^"\n]*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_#$]*)
    | (?P<op><=|>=|!=|=|<|>)
    | (?P<punct>[().,])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: Tokens that are their own kind: keywords and punctuation.
_SPELLED = {"for", "in", "where", "select", "when", "then", "else", "end",
            "and", "or", "not", "true", "false", "(", ")", ".", ","}


class _Tok(NamedTuple):
    kind: str
    text: str
    offset: int


def _syntax_error(text: str, offset: int, message: str) -> QuerySyntaxError:
    """``message`` at ``offset`` of ``text``, by line and column."""
    return QuerySyntaxError(message, text.count("\n", 0, offset) + 1,
                            offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> List[_Tok]:
    tokens: List[_Tok] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        value, offset = m[group], m.start(group)
        if group == "bad":
            raise _syntax_error(text, offset,
                                f"unexpected character {value!r}")
        tokens.append(_Tok(value if value in _SPELLED else group, value,
                           offset))
        if group == "eof":
            break
    return tokens


class _QueryParser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
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

    def _error(self, tok: _Tok, message: str) -> QuerySyntaxError:
        return _syntax_error(self._text, tok.offset, message)

    def _expect(self, kind: str, what: str) -> _Tok:
        tok = self._peek()
        if tok.kind != kind:
            raise self._error(tok, f"expected {what}, found {tok.text!r}")
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
        while self._accept(","):
            select.append(self._parse_select_item())
        self._expect("eof", "end of query")
        return Query(var, source, where, tuple(select))

    def _parse_select_item(self) -> Expr:
        tok = self._peek()
        if tok.kind == "ident" and tok.text in _AGGREGATES:
            following = self._tokens[self._pos + 1].kind
            # `count` may stand bare; a following `.` means the name was
            # an ordinary variable after all (e.g. `count.x`).
            if following == ".":
                return self.parse_expr()
            self._advance()
            if tok.text == "count" and following in ("eof", ","):
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
        if self._accept("in"):
            return InClass(left, self._expect("ident", "class name").text)
        if self._accept("not"):     # `x not in C`
            self._expect("in", "'in' after 'not'")
            return NotInClass(left, self._expect("ident", "class name").text)
        if self._peek().kind == "op":
            op = self._advance().text
            return Compare(op, left, self._parse_postfix())
        return left

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self._accept("."):
            expr = Path(expr, self._expect("ident", "attribute name").text)
        return expr

    def _parse_primary(self) -> Expr:
        tok = self._advance()
        if tok.kind == "number":
            real = any(c in tok.text for c in ".eE")
            return Const(float(tok.text) if real else int(tok.text))
        if tok.kind == "string":
            return Const(tok.text[1:-1])
        if tok.kind == "symbol":
            return Const(EnumSymbol(tok.text[1:]))
        if tok.kind in ("true", "false"):
            return Const(tok.kind == "true")
        if tok.kind == "when":
            condition = self.parse_expr()
            self._expect("then", "'then'")
            then = self.parse_expr()
            self._expect("else", "'else'")
            otherwise = self.parse_expr()
            self._expect("end", "'end'")
            return When(condition, then, otherwise)
        if tok.kind == "ident":
            return Var(tok.text)
        if tok.kind == "(":
            expr = self.parse_expr()
            self._expect(")", "')'")
            return expr
        raise self._error(tok, f"expected an expression, found {tok.text!r}")


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`~repro.query.ast.Query`."""
    return _QueryParser(text).parse_query()


def parse_expr(text: str) -> Expr:
    """Parse a standalone expression (used by tests)."""
    parser = _QueryParser(text)
    expr = parser.parse_expr()
    parser._expect("eof", "end of expression")
    return expr
