"""Section 4.2.1: strict inheritance with reconciliation.

"Generalize the portion of superclass description which is being
contradicted": ``Patient0`` is treated by ``Health_Professional``, with
``Physician`` and ``Psychologist`` as its subclasses.  The cost: "most
other kinds of patients would however be treated only by physicians, so
one would have to laboriously specialize the treatedBy attribute for
Cardiac, Cancer, etc. patients" -- negating the factoring-out advantage
of inheritance.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import (
    ExceptionScenario,
    InheritanceMechanism,
    MechanismResult,
)
from repro.schema.builder import SchemaBuilder
from repro.typesys.core import STRING


class ReconciliationMechanism(InheritanceMechanism):
    name = "reconciliation"
    paper_section = "4.2.1"

    def _generalized_name(self, scenario: ExceptionScenario,
                          attribute: str) -> str:
        return f"General_{attribute}_Range"

    def _builder(self, scenario: ExceptionScenario,
                 error_sibling: Optional[str] = None) -> SchemaBuilder:
        builder = SchemaBuilder()
        builder.cls(scenario.root).attr("name", STRING)
        # One invented generalization per contradicted attribute; the
        # natural range classes become its subclasses.
        generals: List[str] = []
        for attribute, normal, exceptional in scenario.all_contradictions():
            general = self._generalized_name(scenario, attribute)
            generals.append(general)
            builder.cls(general, isa=scenario.root)
            builder.cls(normal, isa=general)
            builder.cls(exceptional, isa=general)

        superclass = builder.cls(scenario.superclass, isa=scenario.root)
        for (attribute, _n, _e), general in zip(
                scenario.all_contradictions(), generals):
            superclass.attr(attribute, general)  # the reconciled range

        exceptional_cls = builder.cls(scenario.exceptional_subclass,
                                      isa=scenario.superclass)
        for attribute, _normal, exceptional in scenario.all_contradictions():
            exceptional_cls.attr(attribute, exceptional)

        for sibling in scenario.sibling_subclasses:
            sibling_cls = builder.cls(sibling, isa=scenario.superclass)
            for attribute, normal, exceptional in \
                    scenario.all_contradictions():
                if error_sibling == sibling:
                    # The injected mistake: the sibling accidentally uses
                    # the exceptional range.  Under reconciliation this is
                    # *legal* (Psychologist <= Health_Professional), so
                    # the tooling cannot flag it -- reconciliation trades
                    # verifiability of the superclass constraint away.
                    sibling_cls.attr(attribute, exceptional)
                else:
                    sibling_cls.attr(attribute, normal)
        return builder

    def build(self, scenario: ExceptionScenario) -> MechanismResult:
        builder = self._builder(scenario)
        schema = builder.build()
        contradictions = scenario.all_contradictions()
        invented = tuple(
            self._generalized_name(scenario, a)
            for a, _n, _e in contradictions)
        return MechanismResult(
            mechanism=self.name,
            schema=schema,
            exceptional_class=scenario.exceptional_subclass,
            superclass=scenario.superclass,
            invented_classes=invented,
            rewritten_definitions=(
                len(scenario.sibling_subclasses) * len(contradictions)),
            superclass_modified=True,
            notes={"generalized_ranges": ", ".join(invented)},
        )
