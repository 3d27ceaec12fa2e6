"""Shared scenario description and mechanism interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchemaError
from repro.schema.builder import SchemaBuilder
from repro.schema.schema import Schema
from repro.typesys.core import STRING


@dataclass(frozen=True)
class ExceptionScenario:
    """A canonical over-generalization situation (Section 4.1).

    The running example: ``Patient.treatedBy: Physician``; the subclass
    ``Alcoholic`` needs ``treatedBy: Psychologist`` (a contradiction);
    the sibling subclasses (Cardiac, Cancer, ...) are unexceptional.

    ``extra_exceptional_attributes`` generalizes to the k-attribute
    blow-up of Section 4.2.2: each entry is another attribute of the
    superclass that the exceptional subclass contradicts, given as
    ``(attribute, normal_range_class, exceptional_range_class)``.
    """

    root: str = "Person"
    superclass: str = "Patient"
    attribute: str = "treatedBy"
    normal_range: str = "Physician"
    exceptional_range: str = "Psychologist"
    exceptional_subclass: str = "Alcoholic"
    sibling_subclasses: Tuple[str, ...] = (
        "Cardiac_Patient", "Cancer_Patient", "Maternity_Patient")
    extra_exceptional_attributes: Tuple[Tuple[str, str, str], ...] = ()

    def all_contradictions(self) -> Tuple[Tuple[str, str, str], ...]:
        """All (attribute, normal range, exceptional range) triples."""
        return ((self.attribute, self.normal_range,
                 self.exceptional_range),) + \
            self.extra_exceptional_attributes

    def range_classes(self) -> Tuple[str, ...]:
        out: List[str] = []
        for _, normal, exceptional in self.all_contradictions():
            for name in (normal, exceptional):
                if name not in out:
                    out.append(name)
        return tuple(out)


@dataclass
class MechanismResult:
    """What one mechanism produced for a scenario."""

    mechanism: str
    schema: Schema
    #: Class standing in for the exceptional subclass in this encoding.
    exceptional_class: str
    #: Class standing in for the original superclass.
    superclass: str
    #: Classes invented purely for the encoding (anchors, generalized
    #: duplicates, factored range classes beyond the natural ones).
    invented_classes: Tuple[str, ...] = ()
    #: Sibling classes whose definitions had to restate an attribute.
    rewritten_definitions: int = 0
    #: Whether the original superclass definition had to change.
    superclass_modified: bool = False
    #: Whether finding the constraint on (class, attr) may require
    #: searching *descendants* (the veracity failure of cancellable
    #: inheritance).
    needs_descendant_search: bool = False
    #: Whether the mechanism has a well-defined formal semantics
    #: (Section 4.2.4 notes "considerable difficulties" for defaults).
    has_clear_semantics: bool = True
    notes: Dict[str, str] = field(default_factory=dict)


class InheritanceMechanism:
    """Strategy interface."""

    #: Display name.
    name = "abstract"
    #: Paper section introducing it.
    paper_section = ""

    def build(self, scenario: ExceptionScenario) -> MechanismResult:
        """Encode the scenario the way this mechanism requires."""
        raise NotImplementedError

    def build_with_error(self, scenario: ExceptionScenario
                         ) -> Tuple[Optional[Schema], bool]:
        """Encode the scenario *plus one accidental contradiction* (a
        sibling redefines the attribute to the exceptional range with no
        intent marker).  Returns ``(schema_or_None, detected)`` --
        ``detected`` is True when the mechanism's tooling flags the
        mistake (the paper's verifiability): building its encoding
        (``self._builder(scenario, error_sibling)``) raises.
        """
        if not scenario.sibling_subclasses:
            return None, False
        builder = self._builder(
            scenario, error_sibling=scenario.sibling_subclasses[0])
        try:
            return builder.build(), False
        except SchemaError:
            return None, True

    # Common scaffolding ---------------------------------------------------

    def _base_builder(self, scenario: ExceptionScenario) -> SchemaBuilder:
        """Root and range classes shared by all encodings."""
        builder = SchemaBuilder()
        builder.cls(scenario.root).attr("name", STRING)
        for range_class in scenario.range_classes():
            builder.cls(range_class, isa=scenario.root)
        return builder
