"""Section 4.2.2: strict inheritance with intermediate (anchor) classes.

"To recapture the advantages of inheritance, one could introduce
intermediate classes whose only role is to act as anchors for
inheritance": ``Patient_Treated_By_Physician`` under the generalized
``Patient0``.  The combinatorial defect: with k contradicted attributes
one needs an anchor for every nonempty subset of re-restricted
attributes -- 2^k - 1 classes of "dubious utility" -- and every new
subclass forces a choice among them.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.baselines.common import (
    ExceptionScenario,
    InheritanceMechanism,
    MechanismResult,
)
from repro.schema.builder import SchemaBuilder
from repro.typesys.core import STRING


def _anchor_name(superclass: str, attributes: Sequence[str]) -> str:
    return superclass + "".join(f"_With_{a}_Normal" for a in attributes)


class IntermediateClassMechanism(InheritanceMechanism):
    name = "intermediate-classes"
    paper_section = "4.2.2"

    def _builder(self, scenario: ExceptionScenario,
                 error_sibling: Optional[str] = None) -> SchemaBuilder:
        builder = SchemaBuilder()
        builder.cls(scenario.root).attr("name", STRING)
        contradictions = scenario.all_contradictions()

        generals: List[str] = []
        for attribute, normal, exceptional in contradictions:
            general = f"General_{attribute}_Range"
            generals.append(general)
            builder.cls(general, isa=scenario.root)
            builder.cls(normal, isa=general)
            builder.cls(exceptional, isa=general)

        # The generalized superclass (the paper's Patient0).
        superclass = builder.cls(scenario.superclass, isa=scenario.root)
        for (attribute, _n, _e), general in zip(contradictions, generals):
            superclass.attr(attribute, general)

        # One anchor per nonempty subset of attributes restored to their
        # normal ranges.  The all-attributes anchor is what unexceptional
        # subclasses derive from.
        attributes = [a for a, _n, _e in contradictions]
        normal_by_attr = {a: n for a, n, _e in contradictions}
        full_anchor = _anchor_name(scenario.superclass, attributes)
        for size in range(1, len(attributes) + 1):
            for subset in itertools.combinations(attributes, size):
                anchor = builder.cls(
                    _anchor_name(scenario.superclass, subset),
                    isa=scenario.superclass)
                for a in subset:
                    anchor.attr(a, normal_by_attr[a])

        exceptional_cls = builder.cls(scenario.exceptional_subclass,
                                      isa=scenario.superclass)
        for attribute, _normal, exceptional in contradictions:
            exceptional_cls.attr(attribute, exceptional)

        for sibling in scenario.sibling_subclasses:
            sibling_cls = builder.cls(sibling, isa=full_anchor)
            if error_sibling == sibling:
                # Accidental contradiction of the anchor's constraint.
                sibling_cls.attr(attributes[0],
                                 contradictions[0][2])
        return builder

    def build(self, scenario: ExceptionScenario) -> MechanismResult:
        schema = self._builder(scenario).build()
        contradictions = scenario.all_contradictions()
        attributes = [a for a, _n, _e in contradictions]
        anchors = [
            _anchor_name(scenario.superclass, subset)
            for size in range(1, len(attributes) + 1)
            for subset in itertools.combinations(attributes, size)
        ]
        generals = [f"General_{a}_Range" for a in attributes]
        return MechanismResult(
            mechanism=self.name,
            schema=schema,
            exceptional_class=scenario.exceptional_subclass,
            superclass=scenario.superclass,
            invented_classes=tuple(generals + anchors),
            rewritten_definitions=0,
            superclass_modified=True,
            notes={"anchors": str(len(anchors))},
        )
