"""Observability for the conformance engine and the query layer.

The incremental engine's value proposition is *work avoided*: constraints
not re-derived, objects not re-walked.  :class:`EngineStats` makes that
visible -- the checker and the store increment its counters on the hot
path, ``ObjectStore.stats()`` snapshots them, and the ``repro stats`` CLI
subcommand renders the snapshot for a standard workload.

:class:`QueryStats` plays the same role for the read path: the planner
and the store's index manager count plans cached and re-used, index
lookups served, rows pruned without being visited, and the incremental
maintenance work the write path spends keeping the indexes current.

Counters are plain attributes (an increment is one ``LOAD_ATTR`` +
``INPLACE_ADD``; cheap enough for the eager-write path the engine is
optimizing), owned by the store or service whose work ticks them.
Timing is opt-in: with ``EngineStats(timing=True)`` (``repro stats
--timing``) each attribute write adds its wall time to ``write.eager``
or ``write.unchecked``, which ``stats()`` reports as ``time.<event>``.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

#: Every counter the engine maintains, in reporting order.
COUNTER_FIELDS: Tuple[str, ...] = (
    # checker-side
    "full_checks",          # whole-object check() calls
    "attribute_checks",     # single-attribute check calls
    "delta_checks",         # membership-delta (gain/loss) checks
    "constraints_checked",  # individual (class, attribute) rules evaluated
    "constraints_skipped",  # rules provably unaffected, skipped by the engine
    "violations_found",
    "profile_hits",         # signature-profile cache hits
    "profile_misses",       # profiles built (cache misses / invalidations)
    # store-side
    "writes",
    "classifies",
    "declassifies",
    "removals",
    "rollbacks",            # eager rejections rolled back
    # bulk-ingestion side
    "bulk_loads",           # bulk batches committed
    "bulk_objects",         # objects merged through the bulk fast path
    "bulk_fallbacks",       # staged objects routed to the per-object path
    "profiles_compiled",    # signature checks generated (profile misses)
    "compiled_rows_elided", # always-satisfied rows dropped at compile time
    # durability side (WAL + checkpoints + recovery)
    "wal_records",          # logical records appended to the WAL
    "wal_commits",          # commit batches written out (group commit)
    "wal_syncs",            # fsyncs issued by the WAL
    "wal_bytes",            # framed bytes appended
    "checkpoints",          # atomic checkpoints taken
    "recoveries",           # recoveries performed into this store
    "wal_replayed",         # records replayed through the checked paths
    "wal_truncated_bytes",  # torn-tail bytes truncated during recovery
    # MVCC side (snapshot reads)
    "snapshots_built",      # fresh StoreSnapshot captures
    "snapshot_reuses",      # snapshot() calls served by the cached epoch
    # online schema evolution
    "schema_changes",             # schema epochs minted on a live store
    "schema_profiles_invalidated",  # signature profiles dropped by a change
    "schema_profiles_retained",   # signature profiles kept across a change
    "schema_objects_rechecked",   # objects delta-rechecked after a change
    "schema_objects_skipped",     # objects skipped (profile outside region)
    "schema_migrations_lazy",     # objects deferred to lazy re-validation
    "schema_index_rebuilds",      # secondary indexes rebuilt by a change
)


class _Counters:
    """Bare integer counters, named by the subclass's ``FIELDS`` (which
    are also its ``__slots__``), in reporting order."""

    __slots__ = ()
    FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def capture(self) -> Dict[str, object]:
        """Counter state, restorable via :meth:`restore` (a rollback)."""
        return _Counters.snapshot(self)

    def restore(self, state: Dict[str, object]) -> None:
        for name in self.FIELDS:
            setattr(self, name, state[name])

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"{type(self).__name__}({inner})"


class EngineStats(_Counters):
    """Counters and timings shared by a checker/store pair."""

    __slots__ = COUNTER_FIELDS + ("timing", "timings")
    FIELDS = COUNTER_FIELDS

    def __init__(self, timing: bool = False) -> None:
        #: Whether callers bracket work with :meth:`clock`/:meth:`record`.
        self.timing = timing
        self.timings: Dict[str, float] = {}
        super().__init__()

    @staticmethod
    def clock() -> float:
        return time.perf_counter()

    def record(self, event: str, seconds: float) -> None:
        self.timings[event] = self.timings.get(event, 0.0) + seconds

    def snapshot(self) -> Dict[str, object]:
        """All counters (and accumulated timings, when enabled)."""
        out: Dict[str, object] = super().snapshot()
        for event, seconds in sorted(self.timings.items()):
            out[f"time.{event}"] = round(seconds, 6)
        return out

    def reset(self) -> None:
        super().reset()
        self.timings.clear()

    def capture(self) -> Dict[str, object]:
        return dict(super().capture(), __timings__=dict(self.timings))

    def restore(self, state: Dict[str, object]) -> None:
        super().restore(state)
        self.timings.clear()
        self.timings.update(state["__timings__"])  # type: ignore[arg-type]


#: Every query-layer counter, in reporting order.
QUERY_COUNTER_FIELDS: Tuple[str, ...] = (
    "plans_cached",     # plans built and stored in a plan cache
    "plan_hits",        # cache lookups answered without recompiling
    "plan_misses",      # cache lookups that had to plan from scratch
    "plan_evictions",   # plans pushed out of a full LRU cache
    "index_scans",      # executions that ran through the index path
    "full_scans",       # executions that fell back to the full scan
    "index_lookups",    # posting-list / extent-set probes served
    "rows_pruned",      # rows never visited thanks to index pruning
    "index_updates",    # incremental posting maintenance operations
    "compiled_execs",   # executions served by a generated plan function
    "sources_compiled", # generated sources that missed the code memo
)


class QueryStats(_Counters):
    """Counters shared by a store's index manager and the planner."""

    __slots__ = FIELDS = QUERY_COUNTER_FIELDS


#: Every router-side sharding counter, in reporting order.
SHARD_COUNTER_FIELDS: Tuple[str, ...] = (
    "commands_sent",       # commands dispatched to shard workers
    "broadcasts",          # commands replicated to every shard
    "objects_routed",      # objects placed on exactly one shard
    "bulk_rows_routed",    # rows routed through the bulk fast path
    "queries_routed",      # scatter-gather queries executed
    "shards_dispatched",   # per-query shard dispatches, summed
    "shards_pruned",       # shards a query never touched (pre-pass)
    "deduction_prunes",    # profile exclusions proven by deduction
    "map_refreshes",       # shard-map fetches (a stale map that prunes)
    "rows_merged",         # per-shard result rows merged by the router
    "schema_replications", # schema/evolution commands replicated
    "position_refreshes",  # explicit per-shard position (ping) sweeps
    "txn_rollbacks",       # sharded transactions rolled back
)


#: Every server-side networked-service counter, in reporting order.
NET_COUNTER_FIELDS: Tuple[str, ...] = (
    "connections_opened",   # client connections accepted
    "connections_closed",   # connections torn down (either side)
    "requests_served",      # request frames answered (ok or op error)
    "reads_served",         # read/query requests among them
    "writes_served",        # mutation requests among them
    "op_errors",            # requests that raised (error shipped back)
    "protocol_errors",      # framing violations (connection poisoned)
    "frames_in",            # frames decoded off the wire
    "frames_out",           # frames written to the wire
    "bytes_in",             # framed bytes received
    "bytes_out",            # framed bytes sent
    "ship_batches",         # WAL-tail batches shipped to replicas
    "ship_records",         # WAL records shipped, summed over batches
    "dumps_served",         # full catch-up dumps served
    "token_waits",          # read-your-writes waits honored
    "token_wait_timeouts",  # waits that timed out (ReplicaLagError)
    "writes_routed",        # mutations routed through a sharded backend
    "shards_scattered",     # per-query shard dispatches over the wire
    "shards_pruned",        # shards a served query never touched
    "alter_fences",         # alters refused while a bulk/dump ran
)


class NetStats(_Counters):
    """Counters maintained by one :class:`~repro.net.server.StoreService`.

    The fuzz suite's liveness claim -- malformed input poisons only its
    own connection -- is read off ``protocol_errors`` vs
    ``requests_served``; replica lag reads ``ship_batches`` /
    ``ship_records`` against the replica's applied counters.
    """

    __slots__ = FIELDS = NET_COUNTER_FIELDS


#: Every replica-side replication counter, in reporting order.
REPLICATION_COUNTER_FIELDS: Tuple[str, ...] = (
    "bootstraps",          # full catch-up dumps installed
    "sync_rounds",         # fetch round-trips issued
    "batches_applied",     # ship batches with at least one fresh record
    "records_applied",     # WAL records replayed through checked paths
    "records_deduped",     # duplicate records skipped (seq <= applied)
    "gaps_detected",       # batches rejected for a sequence gap
    "stale_restarts",      # re-bootstraps after primary WAL rotation
    "sync_failures",       # sync passes that raised (transient or fatal)
    "applied_seq",         # gauge: last WAL seq replayed
    "primary_seq",         # gauge: primary's last seq, as last seen
)


class ReplicationStats(_Counters):
    """Counters maintained by one :class:`~repro.net.replication.Replica`.

    ``applied_seq`` / ``primary_seq`` are gauges, not counters: their
    difference is the replica's replay lag in records.
    """

    __slots__ = FIELDS = REPLICATION_COUNTER_FIELDS

    @property
    def lag(self) -> int:
        """Records known committed on the primary but not yet replayed."""
        return max(0, self.primary_seq - self.applied_seq)

    def snapshot(self) -> Dict[str, int]:
        return dict(super().snapshot(), lag=self.lag)


class ShardStats(_Counters):
    """Counters maintained by a :class:`~repro.sharding.ShardedStore`
    router.

    The scatter-gather claim the e2e ``sharded`` gate asserts --
    selective class-restricted queries dispatch to strictly fewer than
    N shards -- is read off
    ``shards_dispatched`` / ``shards_pruned``; ``deduction_prunes``
    separates exclusions the contrapositive rule proved from plain
    signature-profile mismatches.
    """

    __slots__ = FIELDS = SHARD_COUNTER_FIELDS
