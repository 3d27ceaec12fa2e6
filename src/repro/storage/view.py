"""Querying stored records directly: a store-like view over the engine.

The query interpreter only needs three things from its data source --
``schema``, ``extent(class_name)``, and ``is_member(value, class)`` --
and entities that expose ``memberships``/``get_value``.  An
:class:`EngineView` provides them straight off the partitioned record
files, so compiled queries run against cold storage without rebuilding an
object store:

    view = EngineView(engine)
    rows, stats = execute(compiled, view)

Entities come back as lazy :class:`StoredEntity` proxies: attribute reads
decode the row on first touch (cached), and surrogate-valued fields
resolve to further proxies on access.  Writes are not supported -- the
view is read-only by design.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import NoSuchObjectError, UnknownClassError
from repro.objects.surrogate import Surrogate
from repro.storage.engine import StorageEngine
from repro.typesys.values import INAPPLICABLE, is_entity


class StoredEntity:
    """A lazy, read-only proxy for one stored object."""

    __slots__ = ("surrogate", "_view", "_values")

    def __init__(self, surrogate: Surrogate, view: "EngineView") -> None:
        self.surrogate = surrogate
        self._view = view
        self._values: Optional[Dict[str, object]] = None

    @property
    def memberships(self) -> Tuple[str, ...]:
        return self._view.engine.memberships_of(self.surrogate)

    def _load(self) -> Dict[str, object]:
        if self._values is None:
            self._values = self._view.engine.fetch(self.surrogate)
        return self._values

    def get_value(self, name: str):
        value = self._load().get(name, INAPPLICABLE)
        if isinstance(value, Surrogate):
            return self._view.entity(value)
        return value

    def get(self, name: str, default=INAPPLICABLE):
        # A row's ``values`` in the generated query loop: the proxy.
        return self.get_value(name)

    def value_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._load()))

    def __eq__(self, other) -> bool:
        if isinstance(other, StoredEntity):
            return self.surrogate == other.surrogate
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.surrogate)

    def __repr__(self) -> str:
        return f"<StoredEntity {self.surrogate}>"


class EngineView:
    """Read-only, query-compatible facade over a storage engine."""

    def __init__(self, engine: StorageEngine) -> None:
        self.engine = engine
        self.schema = engine.schema
        self._proxies: Dict[Surrogate, StoredEntity] = {}

    def entity(self, surrogate: Surrogate) -> StoredEntity:
        """The (cached) proxy for one surrogate."""
        proxy = self._proxies.get(surrogate)
        if proxy is None:
            if surrogate not in self.engine._directory:
                raise NoSuchObjectError(str(surrogate))
            proxy = StoredEntity(surrogate, self)
            self._proxies[surrogate] = proxy
        return proxy

    get = entity    # the name the store read surface uses

    def extent(self, class_name: str) -> Tuple[StoredEntity, ...]:
        """All stored instances of ``class_name`` (partition-pruned)."""
        if not self.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        out = []
        for key, info in sorted(self.engine._partitions.items()):
            if not any(self.schema.is_subclass(m, class_name)
                       for m in key):
                continue
            for rowid, _row in info.file.scan():
                surrogate = self.engine._reverse.get((key, rowid))
                if surrogate is not None:
                    out.append(self.entity(surrogate))
        out.sort(key=lambda e: e.surrogate)
        return tuple(out)

    def scan_rows(self, class_name: str) -> list:
        return [(e.surrogate, e.memberships, e)
                for e in self.extent(class_name)]

    def count(self, class_name: str) -> int:
        return len(self.extent(class_name))

    def is_member(self, value, class_name: str) -> bool:
        return is_entity(value) and any(
            self.schema.is_subclass(m, class_name)
            for m in value.memberships)
