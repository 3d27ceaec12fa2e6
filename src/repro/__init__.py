"""repro -- class hierarchies with contradictions.

A production-quality reproduction of Alexander Borgida, *Modeling Class
Hierarchies with Contradictions*, SIGMOD 1988: class hierarchies whose
subclasses may explicitly **excuse** the superclass constraints they
contradict, with semantics, conditional types, a query type checker that
eliminates run-time safety tests, an object store with implicit virtual
extents, horizontally-partitioned storage, and the four alternative
mechanisms of Section 4.2 as measurable baselines.

Quick start::

    from repro import load_schema, ObjectStore, analyze

    schema = load_schema('''
        class Person with treatedBy: Physician; ...
        class Alcoholic is-a Patient with
          treatedBy: Psychologist excuses treatedBy on Patient;
    ''')
    store = ObjectStore(schema)
    report = analyze("for p in Patient select p.treatedBy", schema)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment index.
"""

from repro.errors import (
    AmbiguousInheritanceError,
    CDLSyntaxError,
    ConformanceError,
    QueryTypeError,
    ReproError,
    SchemaError,
    UnexcusedContradictionError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro.lang import load_schema, parse, print_schema
from repro.objects import ObjectStore
from repro.query import analyze, compile_query, execute, parse_query
from repro.schema import (
    AttributeDef,
    ClassDef,
    ExcuseRef,
    Schema,
    SchemaBuilder,
    SchemaValidator,
    embed,
)
from repro.semantics import ConformanceChecker, ExcuseSemantics
from repro.typesys import (
    ANY_ENTITY,
    BOOLEAN,
    INAPPLICABLE,
    INTEGER,
    NONE,
    REAL,
    STRING,
    ClassType,
    ConditionalType,
    EnumSymbol,
    EnumerationType,
    IntRangeType,
    RecordType,
    is_subtype,
    join,
    meet,
)

__version__ = "1.0.0"

__all__ = [
    "ANY_ENTITY",
    "AmbiguousInheritanceError",
    "AttributeDef",
    "BOOLEAN",
    "CDLSyntaxError",
    "ClassDef",
    "ClassType",
    "ConditionalType",
    "ConformanceChecker",
    "ConformanceError",
    "EnumSymbol",
    "EnumerationType",
    "ExcuseRef",
    "ExcuseSemantics",
    "INAPPLICABLE",
    "INTEGER",
    "IntRangeType",
    "NONE",
    "ObjectStore",
    "QueryTypeError",
    "REAL",
    "RecordType",
    "ReproError",
    "STRING",
    "Schema",
    "SchemaBuilder",
    "SchemaError",
    "SchemaValidator",
    "UnexcusedContradictionError",
    "UnknownAttributeError",
    "UnknownClassError",
    "analyze",
    "compile_query",
    "embed",
    "execute",
    "is_subtype",
    "join",
    "load_schema",
    "meet",
    "parse",
    "parse_query",
    "print_schema",
    "__version__",
]
