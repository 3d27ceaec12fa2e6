"""One lexer for CDL and the query language.

Both languages name the same classes, attributes and ``'symbols``, so
they share one spelling of each atom, and whatever a schema can declare
a query can name.  A language builds its master pattern with
:func:`master` from these atoms plus its own keywords and punctuation;
one ``finditer`` match per token then yields ``(kind, text, offset)``.
A token's ``text`` is what was written (quotes included); its kind is
the text itself for a keyword or punctuation, else the name of the
group that matched.  Line and column are computed from the offset only
when an error is raised.
"""

from __future__ import annotations

import re
from typing import AbstractSet, List, NamedTuple, Optional, Tuple

#: Blanks and ``--`` line comments, skipped before every token.
BLANKS = r"(?:\s+|--[^\n]*)*"
#: A letter or ``_``, then letters, digits, ``_``, ``#`` (the paper's
#: ``room#``) or ``$`` (generated virtual class names such as
#: ``Hospital$1``).  Letters and digits are Unicode.
IDENT = r"[^\W\d][\w#$]*"
#: ``'`` and then identifier characters; digits may lead (``'1st``).
SYMBOL = r"'[\w#$]+"
STRING = r'"[^"\n]*"'
INT = r"-?\d+"


def master(*alternatives: str) -> "re.Pattern[str]":
    """A language's pattern: blanks, then one of ``alternatives`` (named
    groups, tried in order), the end of the text, or a character that
    nothing lexes."""
    return re.compile(
        BLANKS + "(?:" + "|".join(alternatives)
        + r"|(?P<eof>\Z)|(?P<bad>.))", re.DOTALL)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


def position(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


class TokenStream:
    """A recursive-descent parser's view of its text, one token at a time.

    A subclass names its language: ``pattern`` (from :func:`master`),
    ``spelled`` (the keywords and punctuation that are their own kind)
    and ``error_class`` (called with message, line and column).
    """

    pattern: "re.Pattern[str]"
    spelled: AbstractSet[str]
    error_class: type

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        spelled = self.spelled
        tokens: List[Token] = []
        for m in self.pattern.finditer(text):
            group = m.lastgroup
            value, offset = m[group], m.start(group)
            token = Token(value if value in spelled else group, value,
                          offset)
            if group == "bad":
                raise self.error(token, f"unexpected character {value!r}")
            tokens.append(token)
            if group == "eof":
                break
        self.tokens = tokens

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, kind: str) -> Optional[Token]:
        if self.tokens[self.pos].kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise self.error(token, f"expected {what}, found {token.text!r}")
        return self.advance()

    def error(self, token: Token, message: str) -> Exception:
        return self.error_class(message, *position(self.text, token.offset))
