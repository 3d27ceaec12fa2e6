"""Schema-size accounting as contradicted attributes multiply (Section
4.2.2's combinatorial argument, measured -- benchmark E2).

For k = 1..K contradicted attributes on one superclass, build the schema
each mechanism requires and count: total classes, invented classes, and
attribute declarations.  The paper's prediction: intermediate classes grow
as 2^k, reconciliation re-specializes every sibling (linear in siblings x
k), excuses add nothing but the excuse clauses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.baselines.common import ExceptionScenario, InheritanceMechanism


@dataclass(frozen=True)
class VerbosityRow:
    """One (mechanism, k) measurement."""

    mechanism: str
    k: int
    total_classes: int
    invented_classes: int
    attribute_declarations: int


def scenario_with_k_attributes(k: int,
                               siblings: int = 3) -> ExceptionScenario:
    """The running scenario extended to k contradicted attributes."""
    if k < 1:
        raise ValueError("k must be at least 1")
    extra = tuple(
        (f"aspect{i}", f"Normal_Range_{i}", f"Exceptional_Range_{i}")
        for i in range(2, k + 1)
    )
    return ExceptionScenario(
        sibling_subclasses=tuple(f"Sibling_{j}" for j in range(siblings)),
        extra_exceptional_attributes=extra,
    )


def count_declarations(schema) -> int:
    return sum(len(c.attributes) for c in schema.classes())


def verbosity_sweep(mechanisms: Iterable[InheritanceMechanism],
                    ks: Sequence[int] = (1, 2, 3, 4, 5, 6),
                    siblings: int = 3) -> List[VerbosityRow]:
    """Measure every mechanism at every k."""
    rows: List[VerbosityRow] = []
    for k in ks:
        scenario = scenario_with_k_attributes(k, siblings)
        for mechanism in mechanisms:
            result = mechanism.build(scenario)
            rows.append(VerbosityRow(
                mechanism=mechanism.name,
                k=k,
                total_classes=len(result.schema),
                invented_classes=len(result.invented_classes),
                attribute_declarations=count_declarations(result.schema),
            ))
    return rows
