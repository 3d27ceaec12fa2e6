"""Surrogates: system-assigned internal identifiers (paper Section 5.5).

"Entities are assigned internal identifiers (surrogates) by the system and
these do not normally vary structurally from class to class" -- which is
why entity-valued attributes never force horizontal partitioning
(:mod:`repro.objects.profiles`).
"""

from __future__ import annotations

from typing import NamedTuple


class Surrogate(NamedTuple):
    """An opaque, totally-ordered entity identifier.

    A one-field named tuple rather than a frozen dataclass: surrogates
    key every hot dict in the store (objects, extents, postings, the
    dirty ledger), and the tuple's C-level ``__hash__``/``__eq__`` keep
    those lookups off the Python call stack.  Immutability, ordering and
    the ``Surrogate(id=n)`` repr are unchanged.
    """

    id: int

    def __str__(self) -> str:
        return f"@{self.id}"


class SurrogateAllocator:
    """Monotonically allocates fresh surrogates."""

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def allocate(self) -> Surrogate:
        surrogate = Surrogate(self._next)
        self._next += 1
        return surrogate

    @property
    def high_water_mark(self) -> int:
        return self._next
