"""Parser for the textual query language.

Grammar::

    query    := 'for' IDENT 'in' NAME ('where' expr)? 'select' expr (',' expr)*
    expr     := or
    or       := and ('or' and)*
    and      := unary ('and' unary)*
    unary    := 'not' unary | relation
    relation := postfix ( ('in' | 'not' 'in') NAME
                        | OP postfix )?
    postfix  := primary ('.' NAME)*
    primary  := NUMBER | STRING | SYMBOL | 'true' | 'false'
              | IDENT | '(' expr ')'
              | 'when' expr 'then' expr 'else' expr 'end'

``OP`` is one of ``= != < <= > >=``.  A class or attribute ``NAME`` is
an ``IDENT`` or a keyword (CDL lets a schema use ``select`` as a name).
A ``NUMBER`` is spelled as ``str`` spells a finite number: ``-1``, or a
``Real`` (``1.5``, ``2e-07``).  Identifiers, symbols, strings, blanks
and ``--`` comments are spelled as in CDL (:mod:`repro.lang.lexer`), so
a query can name whatever a schema declares.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError
from repro.lang.lexer import (
    IDENT, INT, STRING, SYMBOL, TokenStream, master)
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

_KEYWORDS = frozenset({"for", "in", "where", "select", "when", "then",
                       "else", "end", "and", "or", "not", "true", "false"})


class _QueryParser(TokenStream):
    pattern = master(
        rf"(?P<number>{INT}(?:\.\d+)?(?:[eE][-+]?\d+)?)",
        rf"(?P<symbol>{SYMBOL})",
        rf"(?P<string>{STRING})",
        rf"(?P<ident>{IDENT})",
        r"(?P<op><=|>=|!=|=|<|>)",
        r"(?P<punct>[().,])",
    )
    spelled = _KEYWORDS | {"(", ")", ".", ","}
    error_class = QuerySyntaxError

    def name(self, what: str) -> str:
        """A ``NAME``: what follows ``in`` or ``.`` is a name even when
        it is a keyword."""
        token = self.peek()
        if token.kind != "ident" and token.kind not in _KEYWORDS:
            raise self.error(token, f"expected {what}, found {token.text!r}")
        return self.advance().text

    # Grammar ------------------------------------------------------------

    def parse_query(self) -> Query:
        self.expect("for", "'for'")
        var = self.expect("ident", "variable name").text
        self.expect("in", "'in'")
        source = self.name("class name")
        where = None
        if self.accept("where"):
            where = self.parse_expr()
        self.expect("select", "'select'")
        select = [self._parse_select_item()]
        while self.accept(","):
            select.append(self._parse_select_item())
        self.expect("eof", "end of query")
        return Query(var, source, where, tuple(select))

    def _parse_select_item(self) -> Expr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _AGGREGATES:
            following = self.tokens[self.pos + 1].kind
            # `count` may stand bare; a following `.` means the name was
            # an ordinary variable after all (e.g. `count.x`).
            if following == ".":
                return self.parse_expr()
            self.advance()
            if tok.text == "count" and following in ("eof", ","):
                return Aggregate("count", None)
            operand = self.parse_expr()
            return Aggregate(tok.text, operand)
        return self.parse_expr()

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept("or"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_unary()
        while self.accept("and"):
            left = And(left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self.accept("not"):
            return Not(self._parse_unary())
        return self._parse_relation()

    def _parse_relation(self) -> Expr:
        left = self._parse_postfix()
        if self.accept("in"):
            return InClass(left, self.name("class name"))
        if self.accept("not"):     # `x not in C`
            self.expect("in", "'in' after 'not'")
            return NotInClass(left, self.name("class name"))
        if self.peek().kind == "op":
            op = self.advance().text
            return Compare(op, left, self._parse_postfix())
        return left

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self.accept("."):
            expr = Path(expr, self.name("attribute name"))
        return expr

    def _parse_primary(self) -> Expr:
        tok = self.advance()
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
            self.expect("then", "'then'")
            then = self.parse_expr()
            self.expect("else", "'else'")
            otherwise = self.parse_expr()
            self.expect("end", "'end'")
            return When(condition, then, otherwise)
        if tok.kind == "ident":
            return Var(tok.text)
        if tok.kind == "(":
            expr = self.parse_expr()
            self.expect(")", "')'")
            return expr
        raise self.error(tok, f"expected an expression, found {tok.text!r}")


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`~repro.query.ast.Query`."""
    return _QueryParser(text).parse_query()


def parse_expr(text: str) -> Expr:
    """Parse a standalone expression (used by tests)."""
    parser = _QueryParser(text)
    expr = parser.parse_expr()
    parser.expect("eof", "end of expression")
    return expr
