"""Query abstract syntax.

Expressions have a canonical *path key* (``key()``) used by the flow
analysis to attach membership facts to sub-expressions: the guard
``p not in Tubercular_Patient`` records a negative fact for key ``"p"``,
and the access ``p.treatedAt.location`` has key
``"p.treatedAt.location"``.  Only variables and attribute paths have keys;
other expressions return ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


class Expr:
    """Base of all query expressions."""

    def key(self) -> Optional[str]:
        """Canonical path key, or None for non-path expressions."""
        return None


@dataclass(frozen=True)
class Var(Expr):
    """A query variable, bound by the ``for`` clause."""

    name: str

    def key(self) -> Optional[str]:
        return self.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Path(Expr):
    """Attribute access: ``base.attribute``."""

    base: Expr
    attribute: str

    def key(self) -> Optional[str]:
        base_key = self.base.key()
        if base_key is None:
            return None
        return f"{base_key}.{self.attribute}"

    def __str__(self) -> str:
        return f"{_operand(self.base)}.{self.attribute}"


@dataclass(frozen=True)
class Const(Expr):
    """A literal: integer, real, string, boolean, or enumeration symbol."""

    value: object

    def __str__(self) -> str:
        # The lexer's own syntax, so ``parse_query(str(q)) == q``.
        value = self.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return f'"{value}"'
        return str(value)   # numbers and 'Symbol


@dataclass(frozen=True)
class InClass(Expr):
    """Class-membership test: ``expr in ClassName``."""

    expr: Expr
    class_name: str

    def __str__(self) -> str:
        return f"{_operand(self.expr)} in {self.class_name}"


@dataclass(frozen=True)
class NotInClass(Expr):
    """Negated membership: ``expr not in ClassName``."""

    expr: Expr
    class_name: str

    def __str__(self) -> str:
        return f"{_operand(self.expr)} not in {self.class_name}"


@dataclass(frozen=True)
class Compare(Expr):
    """A comparison; ``op`` is one of ``= != < <= > >=``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{_operand(self.left)} {self.op} {_operand(self.right)}"


def _operand(expr: Expr) -> str:
    """``expr`` as the operand of a relation or an attribute access: the
    grammar takes a postfix there, so a relation needs its parentheses
    back (``(p.age < 40) = true``)."""
    if isinstance(expr, (Compare, InClass, NotInClass)):
        return f"({expr})"
    return str(expr)


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Top-level ``and`` conjuncts, in evaluation (left-to-right) order."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class When(Expr):
    """The paper's guarded expression::

        when x in Alcoholic then ... else ... end
    """

    condition: Expr
    then: Expr
    otherwise: Expr

    def __str__(self) -> str:
        return (f"when {self.condition} then {self.then} "
                f"else {self.otherwise} end")


@dataclass(frozen=True)
class Aggregate(Expr):
    """A fold over the qualifying rows, only legal as a select item:
    ``count`` (bare), or ``count/min/max/avg/total <expr>``.

    Section 2c motivates extents by the ability "to perform operations
    like counting entities"; the value-less ``count`` is exactly that.
    Value aggregates skip rows whose operand is INAPPLICABLE.
    """

    function: str  # count | min | max | avg | total
    operand: Optional[Expr] = None

    def __str__(self) -> str:
        if self.operand is None:
            return self.function
        return f"{self.function} {self.operand}"


@dataclass(frozen=True)
class Query:
    """``for <var> in <source_class> [where <cond>] select <exprs>``."""

    var: str
    source_class: str
    where: Optional[Expr]
    select: Tuple[Expr, ...]

    def __str__(self) -> str:
        text = f"for {self.var} in {self.source_class}"
        if self.where is not None:
            text += f" where {self.where}"
        text += " select " + ", ".join(str(e) for e in self.select)
        return text
