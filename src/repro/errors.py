"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library failures without catching unrelated Python errors.
The sub-hierarchies mirror the subsystems: schema definition, the class
definition language (CDL), run-time object conformance, query analysis, and
storage.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of all errors raised by the library."""


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
    """

    def __init__(self, surrogate: object, class_name: str, attribute: str,
                 detail: str = "") -> None:
        message = (
            f"object {surrogate} violates constraint on "
            f"({class_name!r}, {attribute!r})"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.surrogate = surrogate
        self.class_name = class_name
        self.attribute = attribute


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


class RemoteOpError(NetError):
    """The server reported a failure executing a request.

    Mirrors :class:`ShardWorkerError`: the original exception was raised
    server-side and its class name travels back as ``remote_type``."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


class ShardWorkerError(ShardingError):
    """A shard worker reported a failure executing a routed command.

    The original exception was raised in the worker process; its class
    name travels back over the wire as ``remote_type`` so callers can
    distinguish e.g. a remote ``ConformanceError`` from a protocol
    fault without the router having to reconstruct arbitrary exception
    constructors.
    """

    def __init__(self, remote_type: str, message: str,
                 shard_id: Optional[int] = None) -> None:
        where = f" (shard {shard_id})" if shard_id is not None else ""
        super().__init__(f"{remote_type}{where}: {message}")
        self.remote_type = remote_type
        self.shard_id = shard_id
