"""Fluent schema construction.

The builder is the programmatic front end (the CDL parser is the textual
one).  It coerces Pythonic shorthands into type expressions, realizes
embedded refinements into virtual classes, and defers validation until
``build()`` so mutually-excusing classes (Quaker/Republican) can reference
each other.

Example::

    b = SchemaBuilder()
    b.cls("Person").attr("name", STRING).attr("age", (1, 120))
    b.cls("Employee", isa="Person").attr("age", (16, 65)) \\
        .attr("supervisor", "Employee")
    schema = b.build()

Shorthands accepted anywhere a range is expected:

* a ``Type`` instance -- used as is;
* a ``str`` -- a primitive name (``"String"``) or a class name;
* a ``(lo, hi)`` tuple of ints -- an integer subrange;
* a ``set``/``frozenset`` of strings -- an enumeration;
* a ``dict`` of field name to range -- an anonymous record type;
* an :class:`~repro.schema.virtual.Embedding` -- an in-line class
  refinement, realized as a virtual class.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SchemaError, UnknownClassError
from repro.lang.parser import spells
from repro.schema.attribute import AttributeDef, ExcuseRef
from repro.schema.classdef import ClassDef
from repro.schema.schema import Schema
from repro.schema.validation import Diagnostic, SchemaValidator
from repro.schema.virtual import Embedding, VirtualClassFactory
from repro.typesys.core import (
    PRIMITIVES,
    ClassType,
    EnumerationType,
    IntRangeType,
    RecordType,
    Type,
)


def as_type(value, known_classes: Iterable[str] = ()) -> Type:
    """Coerce a builder shorthand into a :class:`Type` (see module doc)."""
    if isinstance(value, Type):
        return value
    if isinstance(value, str):
        if value in PRIMITIVES:
            return PRIMITIVES[value]
        return ClassType(value)
    if isinstance(value, tuple) and len(value) == 2 and all(
            isinstance(v, int) for v in value):
        return IntRangeType(value[0], value[1])
    if isinstance(value, (set, frozenset)):
        return EnumerationType(value)
    if isinstance(value, dict):
        return RecordType({k: as_type(v, known_classes)
                           for k, v in value.items()})
    raise SchemaError(f"cannot interpret {value!r} as a type")


def require_cdl_names(cdef: ClassDef) -> None:
    """Raise :class:`SchemaError` on the first class, attribute or
    enumeration-symbol name of ``cdef`` that ``print_schema`` would write
    as CDL that does not read back."""
    def need(kind: str, text: str, what: str) -> None:
        if not spells(kind, text):
            raise SchemaError(f"{what} cannot be written in CDL")

    need("ident", cdef.name, f"class {cdef.name!r}")
    stack = [(cdef.name, a.name, a.range) for a in cdef.attributes]
    while stack:
        owner, name, range_ = stack.pop()
        need("ident", name, f"attribute {name!r} of {owner!r}")
        if isinstance(range_, EnumerationType):
            for symbol in range_.symbols:
                need("symbol", f"'{symbol}",
                     f"symbol {symbol!r} of {owner}.{name}")
        elif isinstance(range_, RecordType):
            stack.extend((f"{owner}.{name}", field, ftype)
                         for field, ftype in range_.fields)


class ClassBuilder:
    """Accumulates one class definition; returned by ``SchemaBuilder.cls``."""

    def __init__(self, owner: "SchemaBuilder", name: str,
                 parents: Tuple[str, ...], virtual: bool = False,
                 doc: str = "") -> None:
        self._owner = owner
        self.name = name
        self.parents = parents
        self.doc = doc
        self._attrs: List[Tuple[str, object, Tuple[ExcuseRef, ...], str]] = []
        self._class_properties: Dict[str, object] = {}

    def attr(self, name: str, range_, excuses: Sequence = (),
             doc: str = "") -> "ClassBuilder":
        """Declare an attribute.

        ``excuses`` is an iterable of excuse targets; each may be a class
        name (the excused attribute defaults to ``name``), a
        ``(class, attribute)`` pair, or an :class:`ExcuseRef`.
        """
        refs: List[ExcuseRef] = []
        for target in excuses:
            if isinstance(target, ExcuseRef):
                refs.append(target)
            elif isinstance(target, str):
                refs.append(ExcuseRef(target, name))
            else:
                cls_name, attr_name = target
                refs.append(ExcuseRef(cls_name, attr_name))
        self._attrs.append((name, range_, tuple(refs), doc))
        return self

    def class_property(self, name: str, value) -> "ClassBuilder":
        """A property of the class itself (Section 2e), not of instances."""
        self._class_properties[name] = value
        return self

    def done(self) -> "SchemaBuilder":
        return self._owner


class SchemaBuilder:
    """Collects class builders and produces a validated :class:`Schema`."""

    def __init__(self) -> None:
        self._builders: List[ClassBuilder] = []
        self._names: set = set()

    def cls(self, name: str, isa: Union[str, Sequence[str], None] = None,
            doc: str = "") -> ClassBuilder:
        """Start a class definition; parents given via ``isa``."""
        if name in self._names:
            raise SchemaError(f"class {name!r} declared twice in builder")
        self._names.add(name)
        if isa is None:
            parents: Tuple[str, ...] = ()
        elif isinstance(isa, str):
            parents = (isa,)
        else:
            parents = tuple(isa)
        builder = ClassBuilder(self, name, parents, doc=doc)
        self._builders.append(builder)
        return builder

    def build(self, validate: bool = True,
              collect: Optional[List[Diagnostic]] = None) -> Schema:
        """Materialize the schema.

        Classes are added in dependency (parents-first) order, embeddings
        are realized into virtual classes, a name CDL cannot write back
        raises, and -- unless ``validate`` is False -- the full validator
        runs; errors raise, warnings are appended to ``collect`` when
        given.
        """
        schema = Schema()
        factory = VirtualClassFactory(schema)
        for builder in self._ordered():
            attrs: List[AttributeDef] = []
            for name, range_, refs, doc in builder._attrs:
                if isinstance(range_, Embedding):
                    range_type: Type = factory.realize(
                        builder.name, name, range_)
                else:
                    range_type = as_type(range_)
                attrs.append(AttributeDef(name, range_type, refs, doc))
            schema.add_class(ClassDef(
                builder.name, builder.parents, tuple(attrs),
                class_properties=tuple(
                    sorted(builder._class_properties.items())),
                doc=builder.doc))
        for cdef in schema.classes():
            require_cdl_names(cdef)
        if validate:
            validator = SchemaValidator(schema)
            diagnostics = validator.validate()
            errors = [d for d in diagnostics if d.is_error]
            if collect is not None:
                collect.extend(diagnostics)
            if errors:
                raise SchemaError(
                    "schema validation failed:\n  "
                    + "\n  ".join(str(d) for d in errors))
        return schema

    def _ordered(self) -> List[ClassBuilder]:
        """Topological order by parent dependency (declaration order among
        independent classes is preserved)."""
        by_name = {b.name: b for b in self._builders}
        placed: set = set()
        out: List[ClassBuilder] = []

        def place(builder: ClassBuilder, stack: Tuple[str, ...]) -> None:
            if builder.name in placed:
                return
            if builder.name in stack:
                raise SchemaError(
                    "IS-A cycle through " + " -> ".join(
                        stack + (builder.name,)))
            for parent in builder.parents:
                parent_builder = by_name.get(parent)
                if parent_builder is None:
                    raise UnknownClassError(parent)
                place(parent_builder, stack + (builder.name,))
            placed.add(builder.name)
            out.append(builder)

        for builder in self._builders:
            place(builder, ())
        return out
