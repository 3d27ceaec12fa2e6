"""Abstract syntax of CDL programs.

The AST mirrors the surface syntax; the loader translates it into schema
objects (types, class definitions, embeddings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


class TypeExpr:
    """Base of type expressions as written."""


@dataclass(frozen=True)
class NamedTypeExpr(TypeExpr):
    """A primitive or class name: ``String``, ``Physician``."""

    name: str


@dataclass(frozen=True)
class NoneTypeExpr(TypeExpr):
    """The ``None`` range (inapplicable attribute)."""


@dataclass(frozen=True)
class RangeTypeExpr(TypeExpr):
    """An integer subrange ``lo..hi``."""

    lo: int
    hi: int


@dataclass(frozen=True)
class EnumTypeExpr(TypeExpr):
    """An enumeration ``{'A, 'B}``; a written ``...`` is recorded so the
    printer can note elision but carries no semantics."""

    symbols: Tuple[str, ...]
    elided: bool = False


@dataclass(frozen=True)
class RecordTypeExpr(TypeExpr):
    """An anonymous record type ``[f: T; g: U]``."""

    attrs: Tuple["AttrDecl", ...]


@dataclass(frozen=True)
class RefinedTypeExpr(TypeExpr):
    """An in-line refinement ``Base [f: T; ...]`` -- a virtual class."""

    base: str
    attrs: Tuple["AttrDecl", ...]


@dataclass(frozen=True)
class ExcuseDecl:
    """``excuses attribute on class_name``."""

    attribute: str
    class_name: str


@dataclass(frozen=True)
class AttrDecl:
    """``name : type [excuses ...]*``."""

    name: str
    type: TypeExpr
    excuses: Tuple[ExcuseDecl, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ClassDecl:
    """``class Name is-a P1, P2 with attrs end``."""

    name: str
    parents: Tuple[str, ...]
    attrs: Tuple[AttrDecl, ...]


@dataclass(frozen=True)
class Program:
    classes: Tuple[ClassDecl, ...]
