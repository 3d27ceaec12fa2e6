"""The paper's mechanism (Section 5), wrapped as a strategy for fair
comparison against the Section 4.2 alternatives."""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import (
    ExceptionScenario,
    InheritanceMechanism,
    MechanismResult,
)
from repro.schema.builder import SchemaBuilder


class ExcuseMechanism(InheritanceMechanism):
    name = "excuses"
    paper_section = "5"

    def _builder(self, scenario: ExceptionScenario,
                 error_sibling: Optional[str] = None) -> SchemaBuilder:
        builder = self._base_builder(scenario)
        contradictions = scenario.all_contradictions()
        superclass = builder.cls(scenario.superclass, isa=scenario.root)
        for attribute, normal, _exceptional in contradictions:
            superclass.attr(attribute, normal)
        exceptional_cls = builder.cls(scenario.exceptional_subclass,
                                      isa=scenario.superclass)
        for attribute, _normal, exceptional in contradictions:
            exceptional_cls.attr(attribute, exceptional,
                                 excuses=[scenario.superclass])
        for sibling in scenario.sibling_subclasses:
            sibling_cls = builder.cls(sibling, isa=scenario.superclass)
            if error_sibling == sibling:
                # The accidental contradiction carries no excuse clause --
                # exactly what the validator exists to catch.
                sibling_cls.attr(contradictions[0][0], contradictions[0][2])
        return builder

    def build(self, scenario: ExceptionScenario) -> MechanismResult:
        schema = self._builder(scenario).build()
        return MechanismResult(
            mechanism=self.name,
            schema=schema,
            exceptional_class=scenario.exceptional_subclass,
            superclass=scenario.superclass,
            invented_classes=(),
            rewritten_definitions=0,
            superclass_modified=False,
            notes={"excuses": str(len(scenario.all_contradictions()))},
        )
