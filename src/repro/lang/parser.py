"""Recursive-descent parser for CDL."""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import CDLSyntaxError
from repro.lang.ast import (
    AttrDecl,
    ClassDecl,
    EnumTypeExpr,
    ExcuseDecl,
    NamedTypeExpr,
    NoneTypeExpr,
    Program,
    RangeTypeExpr,
    RecordTypeExpr,
    RefinedTypeExpr,
    TypeExpr,
)
from repro.lang.lexer import (
    IDENT, INT, STRING, SYMBOL, Token, TokenStream, master)


class _Parser(TokenStream):
    # `is-a`, `is a`, `is_a` and `isa` are one keyword; `isaac` is a name.
    pattern = master(
        r"(?P<isa>is[-_ ]?a(?![\w#$]))",
        rf"(?P<int>{INT})",
        rf"(?P<symbol>{SYMBOL})",
        rf"(?P<string>{STRING})",
        rf"(?P<ident>{IDENT})",
        r"(?P<punct>\.\.\.?|[{}\[\]:;,])",
    )
    spelled = frozenset({"class", "with", "end", "excuses", "on", "None",
                         "..", "...", "{", "}", "[", "]", ":", ";", ","})
    error_class = CDLSyntaxError

    # Grammar ------------------------------------------------------------

    def parse_program(self) -> Program:
        classes: List[ClassDecl] = []
        while not self.accept("eof"):
            classes.append(self.parse_class())
        return Program(tuple(classes))

    def parse_class(self) -> ClassDecl:
        self.expect("class", "'class'")
        name = self.expect("ident", "class name").text
        parents: List[str] = []
        if self.accept("isa"):
            parents.append(self.expect("ident", "parent class").text)
            while self.accept(","):
                parents.append(self.expect("ident", "parent class").text)
        self.expect("with", "'with'")
        attrs = self._parse_attr_list(stop_kinds=("class", "end", "eof"))
        self.accept("end")
        return ClassDecl(name, tuple(parents), tuple(attrs))

    def _parse_attr_list(self, stop_kinds: Tuple[str, ...]) -> List[AttrDecl]:
        attrs: List[AttrDecl] = []
        while True:
            token = self.peek()
            if token.kind in stop_kinds:
                break
            attrs.append(self.parse_attr())
            if not self.accept(";"):
                # Semicolons separate attributes; the last one may omit it
                # only right before a stop token.
                token = self.peek()
                if token.kind not in stop_kinds:
                    raise self.error(
                        token, "expected ';' between attributes, found "
                        f"{token.text!r}")
        return attrs

    def parse_attr(self) -> AttrDecl:
        name = self.expect("ident", "attribute name").text
        self.expect(":", "':'")
        type_expr = self.parse_type()
        excuses: List[ExcuseDecl] = []
        while self.accept("excuses"):
            attr = self.expect("ident", "excused attribute").text
            self.expect("on", "'on'")
            target = self.expect("ident", "excused class").text
            excuses.append(ExcuseDecl(attr, target))
        return AttrDecl(name, type_expr, tuple(excuses))

    def parse_type(self) -> TypeExpr:
        token = self.peek()
        if token.kind == "None":
            self.advance()
            return NoneTypeExpr()
        if token.kind == "int":
            lo = int(self.advance().text)
            self.expect("..", "'..'")
            hi = int(self.expect("int", "range upper bound").text)
            return RangeTypeExpr(lo, hi)
        if token.kind == "{":
            return self._parse_enum()
        if token.kind == "[":
            return RecordTypeExpr(tuple(self._parse_bracket_body()))
        if token.kind == "ident":
            name = self.advance().text
            if self.peek().kind == "[":
                return RefinedTypeExpr(
                    name, tuple(self._parse_bracket_body()))
            return NamedTypeExpr(name)
        raise self.error(token, f"expected a type, found {token.text!r}")

    def _parse_enum(self) -> EnumTypeExpr:
        self.expect("{", "'{'")
        symbols: List[str] = []
        elided = False
        while True:
            if self.accept("..."):
                elided = True
            else:
                symbols.append(self.expect("symbol", "a 'Symbol").text[1:])
            if not self.accept(","):
                break
        self.expect("}", "'}'")
        if not symbols:
            raise self.error(self.peek(),
                             "enumeration needs at least one symbol")
        return EnumTypeExpr(tuple(symbols), elided)

    def _parse_bracket_body(self) -> List[AttrDecl]:
        self.expect("[", "'['")
        attrs = self._parse_attr_list(stop_kinds=("]",))
        self.expect("]", "']'")
        return attrs


def tokenize(text: str) -> List[Token]:
    """The CDL tokens of ``text``, the last one of kind ``eof``."""
    return _Parser(text).tokens


def spells(kind: str, text: str) -> bool:
    """Whether CDL reads ``text`` back as exactly one ``kind`` token: an
    ``ident`` that is no keyword, or a ``'symbol``."""
    m = _Parser.pattern.match(text)
    return (m.lastgroup == kind and m.span(kind) == (0, len(text))
            and text not in _Parser.spelled)


def parse(text: str) -> Program:
    """Parse CDL source text into a :class:`Program` AST."""
    return _Parser(text).parse_program()
