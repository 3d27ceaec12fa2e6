"""In-memory entity instances.

An :class:`Instance` implements the *entity protocol* the type system's
value semantics relies on (``memberships`` + ``get_value``): class
membership is recorded as the frozenset of classes the object was
explicitly added to (direct memberships), interned by the owning store
so every object of one signature shares it; the IS-A closure is applied
by whoever interprets them against a schema, so membership checks stay
correct as reasoning contexts vary.

Instances are created and mutated through the
:class:`~repro.objects.store.ObjectStore`; direct mutation bypasses
conformance checking and extent maintenance and is reserved for the
store's internals and for tests that need to manufacture violations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.typesys.values import INAPPLICABLE


class EntityRow:
    """The entity protocol over one ``(surrogate, memberships, values)``
    row, shared by live instances and snapshot views."""

    __slots__ = ("surrogate", "_memberships", "_values")

    @property
    def memberships(self) -> FrozenSet[str]:
        """Direct class memberships (not IS-A closed)."""
        return self._memberships

    def get_value(self, name: str):
        """The attribute's value, or INAPPLICABLE when unset."""
        return self._values.get(name, INAPPLICABLE)

    def value_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._values))

    def __getitem__(self, name: str):
        return self.get_value(name)

    def values_snapshot(self) -> Dict[str, object]:
        return dict(self._values)

    def __repr__(self) -> str:
        classes = ",".join(sorted(self._memberships)) or "<none>"
        return f"<{type(self).__name__} {self.surrogate} : {classes}>"


class Instance(EntityRow):
    """One entity: a surrogate, direct class memberships, and values."""

    __slots__ = ("_cow_stamp",)

    def __init__(self, surrogate, memberships: Iterable[str] = (),
                 values: Dict[str, object] = None) -> None:
        self.surrogate = surrogate
        self._memberships: FrozenSet[str] = frozenset(memberships)
        self._values: Dict[str, object] = dict(values or {})
        # Copy-on-write stamp: the store's snapshot stamp as of the last
        # time the value dict was privatized (-1 = never shared).
        self._cow_stamp: int = -1

    def _set_value(self, name: str, value) -> None:
        """Store-internal: write one value in place."""
        if value is INAPPLICABLE:
            self._values.pop(name, None)
        else:
            self._values[name] = value
