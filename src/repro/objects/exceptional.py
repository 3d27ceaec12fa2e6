"""Per-individual run-time exception handling (Borgida 1985, reference [4]).

The paper's introduction recalls its earlier mechanism: classes may contain
*exceptional individuals* that violate stated constraints, handled by
run-time exception records, "and, for efficiency, relied on the rarity of
exceptional occurrences".  Section 4.1 then argues that when *entire
collections* are exceptional (temporary employees, penguins), "the cost of
the mechanism suggested in [4] may seem too high" -- which is what the
``excuses`` construct addresses at the schema level.

This module implements the reference-[4] mechanism faithfully enough to
measure that claim (benchmark E10):

* an :class:`ExceptionRecord` marks one ``(object, class, attribute)``
  triple as excused at the *instance* level, with a reason;
* the registry wraps a :class:`~repro.semantics.checker.ConformanceChecker`
  so a violation is waived iff a matching record exists;
* bookkeeping cost is real: every exceptional individual needs its own
  record (memory), and every violated constraint costs a registry lookup
  (time) -- this is the per-object overhead the paper contrasts with one
  schema-level excuse per exceptional *class*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.objects.instance import Instance
from repro.schema.schema import Schema
from repro.semantics.checker import ConformanceChecker, Violation


@dataclass(frozen=True)
class ExceptionRecord:
    """One instance-level excuse: this object may violate (class, attr)."""

    surrogate: object
    class_name: str
    attribute: str
    reason: str = ""

    def key(self) -> Tuple[object, str, str]:
        return (self.surrogate, self.class_name, self.attribute)


class ExceptionalIndividualRegistry:
    """Marks individuals as exceptional and checks around the marks."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._checker = ConformanceChecker(schema)
        self._records: Dict[Tuple[object, str, str], ExceptionRecord] = {}

    # ------------------------------------------------------------------

    def mark(self, obj: Instance, class_name: str, attribute: str,
             reason: str = "") -> ExceptionRecord:
        """Record that ``obj`` is excused from ``(class_name, attribute)``."""
        record = ExceptionRecord(obj.surrogate, class_name, attribute,
                                 reason)
        self._records[record.key()] = record
        return record

    def unmark(self, obj: Instance, class_name: str,
               attribute: str) -> None:
        self._records.pop((obj.surrogate, class_name, attribute), None)

    def is_marked(self, obj: Instance, class_name: str,
                  attribute: str) -> bool:
        return (obj.surrogate, class_name, attribute) in self._records

    def record_count(self) -> int:
        """Bookkeeping footprint: one record per exceptional triple."""
        return len(self._records)

    def records_for(self, obj: Instance) -> List[ExceptionRecord]:
        return [r for r in self._records.values()
                if r.surrogate == obj.surrogate]

    # ------------------------------------------------------------------

    def check(self, obj: Instance) -> List[Violation]:
        """Violations not waived by an exception record."""
        remaining: List[Violation] = []
        for violation in self._checker.check(obj):
            if violation.kind == "constraint" and self.is_marked(
                    obj, violation.class_name, violation.attribute):
                continue
            remaining.append(violation)
        return remaining

    def conforms(self, obj: Instance) -> bool:
        return not self.check(obj)

    def mark_population(self, objects: Iterable[Instance], class_name: str,
                        attribute: str, reason: str = "") -> int:
        """Mark every object in a collection -- the cost the paper warns
        about when an entire subclass is exceptional.  Returns the number
        of records created."""
        created = 0
        for obj in objects:
            self.mark(obj, class_name, attribute, reason)
            created += 1
        return created
