"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library failures without catching unrelated Python errors.
The sub-hierarchies mirror the subsystems: schema definition, the class
definition language (CDL), run-time object conformance, query analysis, and
storage.

This module is also the name table of :func:`repro.codec.encode_error`:
an error crosses the shard pipe and the socket as its own class, message
and fields -- a rejection keeps its :class:`Violation`; any other
exception (a bug) arrives as a :class:`StorageError` naming its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.typesys.values import value_repr


class ReproError(Exception):
    """Base class of all errors raised by the library."""

    # Kept only for benchmarks/e2e/shapes.py until its next change.
    remote_type = property(lambda self: type(self).__name__)


@dataclass(frozen=True)
class Violation:
    """One failed constraint on one entity: what the paper's
    verifiability asks a rejection to name (Sections 5-6)."""

    #: constraint, inapplicable-attribute, missing-value, shared-virtual
    kind: str
    class_name: str
    attribute: str
    value: object
    rule: str = ""

    def __str__(self) -> str:
        if self.kind == "inapplicable-attribute":
            return (f"attribute {self.attribute!r} is not applicable "
                    f"(no membership class declares it); value "
                    f"{value_repr(self.value)}")
        if self.kind == "missing-value":
            return (f"attribute {self.attribute!r} required by "
                    f"{self.class_name!r} has no value")
        if self.kind == "shared-virtual":
            return (f"{value_repr(self.value)} belongs to virtual class "
                    f"{self.class_name!r} ({self.rule}) and may only be "
                    "referenced through that attribute "
                    "(strict_virtual_extents)")
        return (f"value {value_repr(self.value)} violates "
                f"({self.class_name!r}, {self.attribute!r}); rule: "
                f"{self.rule}")


@dataclass(frozen=True)
class Diagnostic:
    """One schema validation finding (:mod:`repro.schema.validation`):
    what a rejected schema change names, as a violation does a write."""

    severity: str  # "error" | "warning"
    code: str
    class_name: str
    attribute: str
    message: str
    contradicted: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        site = f"{self.class_name}.{self.attribute}"
        return f"{self.severity}[{self.code}] {site}: {self.message}"


class SchemaError(ReproError):
    """A class or attribute definition is ill-formed."""


class UnknownClassError(SchemaError):
    """A class name was referenced but never defined."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown class: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute was referenced on a class that does not declare it."""

    def __init__(self, class_name: str, attribute: str) -> None:
        super().__init__(f"class {class_name!r} has no attribute {attribute!r}")
        self.class_name = class_name
        self.attribute = attribute


class DuplicateClassError(SchemaError):
    """A class name was defined twice in one schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"class {name!r} is already defined")
        self.name = name


class CyclicHierarchyError(SchemaError):
    """The IS-A graph contains a cycle."""


class UnexcusedContradictionError(SchemaError):
    """A subclass redefined an attribute non-monotonically without an excuse.

    This is the error the paper's *verifiability* desideratum requires the
    compiler to report: a redefinition of an attribute which is not a
    specialization is an error without an accompanying excuse (Section 6).
    """

    def __init__(self, class_name: str, attribute: str, contradicted: str,
                 detail: str = "") -> None:
        message = (
            f"attribute {attribute!r} on class {class_name!r} contradicts its "
            f"definition on {contradicted!r} without an excuse"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.class_name = class_name
        self.attribute = attribute
        self.contradicted = contradicted


class SchemaEvolutionError(SchemaError):
    """A live schema change was rejected and rolled back.

    Raised by the online evolution pipeline when applying a replacement
    definition to a populated store would leave the schema with unexcused
    contradictions, or when the change is requested in a context where it
    cannot be applied atomically (e.g. inside an open transaction).
    """

    def __init__(self, class_name: str, detail: str = "",
                 diagnostics: tuple = ()) -> None:
        message = f"schema change for class {class_name!r} rejected"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.class_name = class_name
        self.diagnostics = tuple(diagnostics)


class CDLError(ReproError):
    """Base class of class-definition-language front-end errors."""


class CDLSyntaxError(CDLError):
    """The CDL source text could not be parsed."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ObjectError(ReproError):
    """Base class of run-time object-level errors."""


class NoSuchObjectError(ObjectError):
    """A surrogate does not identify a live object."""


class ConformanceError(ObjectError):
    """An object violates a class constraint not waived by any excuse.

    Raised when the paper's semantic rule fails for some constraint
    ``(C, p)``: the value is neither in the declared range nor covered by
    membership in an excusing class whose excusing range admits it.
    ``violation`` is the failed check; ``sid`` the object's surrogate id.
    """

    def __init__(self, sid: int, violation: Violation) -> None:
        super().__init__(
            f"object @{sid} violates constraint on "
            f"({violation.class_name!r}, {violation.attribute!r}): "
            f"{violation}")
        self.sid = sid
        self.violation = violation

    class_name = property(lambda self: self.violation.class_name)
    attribute = property(lambda self: self.violation.attribute)


class TransactionError(ObjectError):
    """Commit-time validation of a transaction found violations; the
    scope rolled back.  ``records`` holds every ``(sid, Violation)``."""

    def __init__(self, records: Tuple[Tuple[int, Violation], ...]) -> None:
        super().__init__("; ".join(str(v) for _sid, v in records[:5]))
        self.records = tuple(records)


class QueryError(ReproError):
    """Base class of query front-end and analysis errors."""


class QuerySyntaxError(QueryError):
    """The query text could not be parsed."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class QueryTypeError(QueryError):
    """A query expression is ill-typed (a definite error, not a warning)."""


class QueryRuntimeError(QueryError):
    """An unguarded (or ``on_unsafe='raise'``) access failed at run time."""


class StorageError(ReproError):
    """Base class of storage-engine errors."""


class AmbiguousInheritanceError(ReproError):
    """Default (closest-ancestor) inheritance could not pick a unique winner.

    Only raised by the *default inheritance* baseline of Section 4.2.4;
    the paper's excuse mechanism never raises it because its semantics does
    not consult the topology of the hierarchy.
    """

    def __init__(self, class_name: str, attribute: str,
                 candidates: tuple) -> None:
        super().__init__(
            f"default inheritance of {attribute!r} for {class_name!r} is "
            f"ambiguous between definitions on {', '.join(map(repr, candidates))}"
        )
        self.class_name = class_name
        self.attribute = attribute
        self.candidates = candidates


class ShardingError(StorageError):
    """A sharded-store routing or protocol invariant was violated.

    Raised by the router: e.g. a create whose entity references are
    pinned to two different shards, or a write that would anchor a
    replicated reference entity into a virtual class on a non-owner
    shard (SEMANTICS.md section 14 spells out the supported envelope).
    """


class ShardCrashedError(ShardingError):
    """A shard worker process died while a command was outstanding."""

    def __init__(self, shard_id: int, detail: str = "") -> None:
        message = f"shard worker {shard_id} is not responding"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.shard_id = shard_id


class NetError(StorageError):
    """Base class of networked-service errors (framing, transport,
    replication).  Derived from :class:`StorageError` because the wire
    format *is* the WAL's record framing: a frame that cannot be decoded
    is the same class of failure as a torn log record."""


class ProtocolError(NetError):
    """The byte stream violated the framed protocol.  The connection
    that produced it is poisoned (framing has lost sync) and is closed
    after a best-effort error frame; the server itself stays up."""


class FrameTooLargeError(ProtocolError):
    """A frame header announced a payload above the negotiated limit."""

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"frame of {length} bytes exceeds the {limit}-byte limit")
        self.length = length
        self.limit = limit


class FrameCorruptError(ProtocolError):
    """A frame's payload failed its CRC32 check."""


class FrameTruncatedError(ProtocolError):
    """The stream ended (or the peer disconnected) mid-frame."""


class PayloadDecodeError(ProtocolError):
    """A CRC-valid frame did not hold a canonical-JSON object."""


class RequestTimeoutError(NetError):
    """A client request exceeded its deadline (the request may or may
    not have executed -- only reads are safe to retry blindly)."""


class ConnectionLostError(NetError):
    """The transport dropped while a request was outstanding."""


class NotPrimaryError(NetError):
    """A mutation was sent to a replica; writes go to the primary."""


class ReplicaLagError(NetError):
    """A read carried an epoch token ahead of the endpoint's replay
    position (read-your-writes would be violated by serving it).

    ``token`` travels as the caller sent it -- a plain WAL seq or a
    vector token (``repro.net.tokens``); ``applied_seq`` is the
    endpoint's scalar position gauge at refusal time."""

    def __init__(self, token, applied_seq: int) -> None:
        super().__init__(
            f"replica has applied seq {applied_seq}, behind read "
            f"token {token}")
        self.token = token
        self.applied_seq = applied_seq


class StoreBusyError(NetError):
    """A schema change was refused because an in-flight bulk load,
    checkpoint, or catch-up dump holds the store off the event loop.

    Those jobs run on the service's executor so other connections stay
    live; a concurrent ``alter`` could interleave its schema swap with
    a paged dump or a half-applied batch, so the service fences it with
    this typed error instead -- retry once the job drains."""


class ReplicationError(NetError):
    """A replica's replay diverged from the shipped WAL (sequence
    mismatch, bootstrap failure, or a record that failed to replay)."""


# Kept only for benchmarks/e2e/shapes.py until its next change.
RemoteOpError = ShardWorkerError = ReproError
