"""Section 4.2.3: dissociating classes and types.

Class definitions may be *derived* from others by "dropping" and
"adding" attribute definitions (as in Cardelli-style record calculi):
``Alcoholic`` is obtained from ``Patient`` textually but is **not** a
subclass.  The paper's two objections, both made executable here:

* "polymorphism is defeated ... procedures applicable to Patients cannot
  be applied to Alcoholics" -- ``is_subtype(Alcoholic, Patient)`` is
  False on the built schema;
* "the extent of such a derived class is not a subset of the original
  class; thus quantifying over all Patients will not include Alcoholics".
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import (
    ExceptionScenario,
    InheritanceMechanism,
    MechanismResult,
)
from repro.schema.builder import SchemaBuilder


class DissociationMechanism(InheritanceMechanism):
    name = "dissociation"
    paper_section = "4.2.3"

    def _builder(self, scenario: ExceptionScenario,
                 error_sibling: Optional[str] = None) -> SchemaBuilder:
        builder = self._base_builder(scenario)
        contradictions = scenario.all_contradictions()

        superclass = builder.cls(scenario.superclass, isa=scenario.root)
        for attribute, normal, _exceptional in contradictions:
            superclass.attr(attribute, normal)

        # The derived class: textually obtained from the superclass by
        # drop/add, but *standing alone* in the hierarchy (only under the
        # root).  The compiled schema therefore repeats the kept
        # attributes -- here just the contradicted ones, swapped.
        derived = builder.cls(scenario.exceptional_subclass,
                              isa=scenario.root)
        for attribute, _normal, exceptional in contradictions:
            derived.attr(attribute, exceptional)

        for sibling in scenario.sibling_subclasses:
            sibling_cls = builder.cls(sibling, isa=scenario.superclass)
            if error_sibling == sibling:
                sibling_cls.attr(contradictions[0][0],
                                 contradictions[0][2])
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
            notes={"derived": scenario.exceptional_subclass +
                   " is not IS-A " + scenario.superclass},
        )
