"""CDL -- the Class Definition Language (the paper's surface notation).

The textual front end reproduces the paper's examples verbatim (modulo
1988 typography)::

    class Person with
      name: String;
      age: 1..120;
      home: Address;

    class Employee is-a Person with
      age: 16..65;
      supervisor: Employee;

    class Alcoholic is-a Patient with
      treatedBy: Psychologist excuses treatedBy on Patient;

    class Tubercular_Patient is-a Patient with
      treatedAt: Hospital
        [accreditation: None excuses accreditation on Hospital;
         location: Address
           [state: None excuses state on Address;
            country: {'Switzerland}]];

Supported constructs: ``is-a`` / ``is a`` / ``isa`` with multiple parents;
integer subranges ``lo..hi``; enumerations ``{'A, 'B}`` (an ``...``
ellipsis inside an enumeration is accepted and ignored, as in the paper's
``{'AL,...,'WV}``); anonymous record types ``[f: T; ...]``; in-line class
refinements ``Base [f: T; ...]`` (realized as virtual classes,
Section 5.6); ``excuses p on C`` clauses; ``None`` ranges; ``--`` line
comments; an optional ``end`` terminator per class.

Public surface: :func:`parse` (text -> AST), :func:`load_schema`
(text -> validated :class:`~repro.schema.schema.Schema`), and
:func:`print_schema` (schema -> CDL text, virtual classes re-inlined at
their embedding sites so ``load_schema(print_schema(s))`` round-trips).
"""

from repro.lang.ast import (
    AttrDecl,
    ClassDecl,
    EnumTypeExpr,
    NamedTypeExpr,
    NoneTypeExpr,
    Program,
    RangeTypeExpr,
    RecordTypeExpr,
    RefinedTypeExpr,
)
from repro.lang.lexer import Token
from repro.lang.parser import parse, tokenize
from repro.lang.loader import load_schema
from repro.lang.printer import print_class, print_schema

__all__ = [
    "AttrDecl",
    "ClassDecl",
    "EnumTypeExpr",
    "NamedTypeExpr",
    "NoneTypeExpr",
    "Program",
    "RangeTypeExpr",
    "RecordTypeExpr",
    "RefinedTypeExpr",
    "Token",
    "load_schema",
    "parse",
    "print_class",
    "print_schema",
    "tokenize",
]
