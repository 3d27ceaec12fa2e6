"""Replica convergence under Hypothesis: replay equals re-execution.

The replication contract (SEMANTICS.md section 15): a replica that has
replayed the primary's WAL through seq ``S`` is **digest-identical** to
the primary as of seq ``S`` -- same objects, same memberships and
values, same virtual-class reference counts, same dirty ledger, same
schema epoch.  Hypothesis drives random traces over the full mutation
vocabulary -- rejected writes, committed and aborted transactions,
deferred bulk batches, and online ``alter_class`` -- against a durable
primary, with one or two replicas shipping through
:class:`~repro.net.replication.LocalShipSource` (the same batch shapes
the socket path round-trips), and asserts convergence:

1. after any trace, every replica's digest equals the primary's at
   equal seq (in-memory and durable replicas alike);
2. convergence is insensitive to *when* syncs happen: replicas pulled
   at random interleave points land on the same final digest;
3. a durable replica killed mid-stream and reconstructed from its own
   directory crash-recovers to a committed prefix, then catches up to
   the identical digest;
4. a primary checkpoint that rotates the WAL past a replica's position
   forces a re-bootstrap (counted) that still converges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConformanceError
from repro.lang import print_schema
from repro.net.replication import LocalShipSource, Replica
from repro.objects.transactions import transaction
from repro.scenarios import build_hospital_schema
from repro.schema.classdef import ClassDef
from repro.storage.recovery import open_store
from repro.typesys import EnumSymbol

from tests.faultfs import MemFS, store_digest

SCHEMA = build_hospital_schema()
DIR = "/primary"
RDIR = "/replica"


def full_digest(store):
    """store_digest extended with the schema text: replication must
    reproduce the schema epoch too (online alters ship as records)."""
    return (print_schema(store.schema), store_digest(store))


# ----------------------------------------------------------------------
# Trace vocabulary (object slots are indexes modulo the population, so
# every drawn trace is applicable; rejected ops must leave no trace).
# ----------------------------------------------------------------------

_op = st.one_of(
    st.tuples(st.just("ward"), st.integers(0, 39)),
    st.tuples(st.just("patient"), st.integers(0, 119)),
    st.tuples(st.just("set_age"), st.integers(0, 7),
              st.sampled_from([25, 60, 119, 200])),      # 200 rejected
    st.tuples(st.just("set_bp"), st.integers(0, 7),
              st.sampled_from(["Normal_BP", "High_BP", "Low_BP"])),
    st.tuples(st.just("unset"), st.integers(0, 7),
              st.sampled_from(["age", "bloodPressure"])),
    st.tuples(st.just("classify"), st.integers(0, 7),
              st.sampled_from(["Alcoholic", "Ambulatory_Patient"])),
    st.tuples(st.just("declassify"), st.integers(0, 7),
              st.sampled_from(["Alcoholic", "Ambulatory_Patient"])),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("txn"), st.integers(0, 7), st.integers(21, 90),
              st.booleans()),                            # abort flag
    st.tuples(st.just("bulk"), st.integers(1, 4), st.booleans()),
    st.tuples(st.just("validate"), st.sampled_from(["all", "dirty"])),
    st.tuples(st.just("alter"), st.integers(0, 2)),
)

_ops = st.lists(_op, min_size=4, max_size=14)


class _Abort(Exception):
    pass


def _pick(pool, index):
    return pool[index % len(pool)] if pool else None


def _alter_def(variant: int) -> ClassDef:
    """Online schema changes safe at any trace point: brand-new Patient
    subclasses (idempotent to re-apply on a later draw)."""
    name = ["Convalescent", "Outpatient", "Quarantined"][variant % 3]
    return ClassDef(name, ("Patient",), ())


def _apply(store, ctx, op):
    kind = op[0]
    try:
        if kind == "ward":
            ctx["wards"].append(store.create(
                "Ward", floor=1 + op[1] % 40, name=f"W{op[1]}"))
        elif kind == "patient":
            ctx["patients"].append(store.create(
                "Patient", name=f"P{op[1]}", age=20 + op[1] % 90))
        elif kind == "set_age":
            target = _pick(ctx["patients"], op[1])
            if target is not None:
                store.set_value(target, "age", op[2])
        elif kind == "set_bp":
            target = _pick(ctx["patients"], op[1])
            if target is not None:
                store.set_value(target, "bloodPressure",
                                EnumSymbol(op[2]))
        elif kind == "unset":
            target = _pick(ctx["patients"], op[1])
            if target is not None:
                store.unset_value(target, op[2])
        elif kind == "classify":
            target = _pick(ctx["patients"], op[1])
            if target is not None:
                store.classify(target, op[2])
        elif kind == "declassify":
            target = _pick(ctx["patients"], op[1])
            if target is not None:
                store.declassify(target, op[2])
        elif kind == "remove":
            target = _pick(ctx["patients"], op[1])
            if target is not None:
                ctx["patients"].remove(target)
                store.remove(target)
        elif kind == "txn":
            target = _pick(ctx["patients"], op[1])
            try:
                with transaction(store):
                    ward = store.create("Ward", floor=2, name="T")
                    ctx["wards"].append(ward)
                    if target is not None:
                        store.set_value(target, "age", op[2])
                    if op[3]:
                        raise _Abort()
            except _Abort:
                ctx["wards"].pop()
        elif kind == "bulk":
            mode = "deferred" if op[2] else "eager"
            with store.bulk_session(check=mode) as session:
                for i in range(op[1]):
                    session.add("Ward", floor=3 + i, name=f"B{i}")
        elif kind == "validate":
            if op[1] == "all":
                store.validate_all()
            else:
                store.validate_dirty()
        elif kind == "alter":
            store.alter_class(_alter_def(op[1]))
    except ConformanceError:
        pass


def _run(store, ops):
    ctx = {"wards": [], "patients": []}
    for op in ops:
        _apply(store, ctx, op)


def _primary(fs, sync="always"):
    return open_store(DIR, SCHEMA, durability="wal", fs=fs, sync=sync)


def _assert_converged(primary, replica):
    assert replica.applied_seq == primary._journal.wal.last_seq
    assert replica.lag == 0
    assert full_digest(replica.store) == full_digest(primary)


# ----------------------------------------------------------------------
# Property 1: replay equals re-execution (1 and 2 replicas, in-memory
# and durable).
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(ops=_ops, durable=st.booleans(),
       n_replicas=st.integers(1, 2))
def test_replicas_converge_to_primary_digest(ops, durable, n_replicas):
    fs = MemFS()
    primary = _primary(fs)
    source = LocalShipSource(primary)
    replicas = []
    for i in range(n_replicas):
        if durable:
            replicas.append(Replica(source, directory=f"{RDIR}{i}",
                                    fs=MemFS(), sync="always"))
        else:
            replicas.append(Replica(source))
    _run(primary, ops)
    for replica in replicas:
        replica.sync()
        _assert_converged(primary, replica)
    # Replicas agree with each other bit-for-bit too.
    digests = {full_digest(r.store) for r in replicas}
    assert len(digests) == 1
    for replica in replicas:
        replica.close()
    primary.close()


# ----------------------------------------------------------------------
# Property 2: sync timing is irrelevant to the fixpoint.
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(ops=_ops, data=st.data())
def test_interleaved_syncs_converge(ops, data):
    fs = MemFS()
    primary = _primary(fs)
    replica = Replica(LocalShipSource(primary))
    sync_after = data.draw(
        st.sets(st.integers(0, max(0, len(ops) - 1)), max_size=5),
        label="sync points")
    ctx = {"wards": [], "patients": []}
    for index, op in enumerate(ops):
        _apply(primary, ctx, op)
        if index in sync_after:
            replica.sync()
            # Mid-trace invariant: a synced replica is at the
            # primary's seq with an identical digest.
            _assert_converged(primary, replica)
    replica.sync()
    _assert_converged(primary, replica)
    replica.close()
    primary.close()


# ----------------------------------------------------------------------
# Property 3: a killed durable replica crash-recovers and catches up.
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(ops=_ops, data=st.data())
def test_killed_replica_catches_up_identically(ops, data):
    cut = data.draw(st.integers(0, len(ops)), label="kill point")
    fs = MemFS()
    rfs = MemFS()
    primary = _primary(fs)
    source = LocalShipSource(primary)
    replica = Replica(source, directory=RDIR, fs=rfs, sync="always")

    ctx = {"wards": [], "patients": []}
    for op in ops[:cut]:
        _apply(primary, ctx, op)
    replica.sync()
    seq_at_kill = replica.applied_seq
    # "Kill": drop the object without closing; the durable directory
    # (rfs) is all that survives -- exactly a process crash.
    del replica

    for op in ops[cut:]:
        _apply(primary, ctx, op)

    revived = Replica(source, directory=RDIR, fs=rfs, sync="always")
    # Crash recovery resumed from the replica's own WAL -- a committed
    # prefix at least as far as the pre-kill sync -- not from a dump.
    assert revived.stats.bootstraps == 0
    assert revived.applied_seq >= seq_at_kill
    revived.sync()
    _assert_converged(primary, revived)
    revived.close()
    primary.close()


# ----------------------------------------------------------------------
# Property 4: checkpoint rotation forces a converging re-bootstrap.
# ----------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(ops=_ops)
def test_checkpoint_rotation_rebootstraps(ops):
    fs = MemFS()
    primary = _primary(fs)
    replica = Replica(LocalShipSource(primary))
    _run(primary, ops)
    mutated = primary._journal.wal.last_seq > replica.applied_seq
    # Rotate the WAL: the replica's position now predates the live
    # segment, so its next fetch reports stale.
    primary.checkpoint()
    primary.create("Ward", floor=9, name="after-rotation")
    replica.sync()
    if mutated:
        assert replica.stats.stale_restarts >= 1
    _assert_converged(primary, replica)
    replica.close()
    primary.close()


# ----------------------------------------------------------------------
# Deterministic smoke: the documented contract end to end.
# ----------------------------------------------------------------------

def test_read_your_writes_token_contract():
    from repro.errors import ReplicaLagError
    fs = MemFS()
    primary = _primary(fs)
    replica = Replica(LocalShipSource(primary))
    primary.create("Patient", name="ann", age=30)
    token = primary._journal.wal.last_seq
    with pytest.raises(ReplicaLagError):
        replica.read_view(token)
    replica.sync()
    snapshot, applied = replica.read_view(token)
    assert applied == token
    assert snapshot.count("Patient") == 1
    replica.close()
    primary.close()


def test_index_ddl_ships_and_its_token_is_honoured():
    """``index`` is a write row: it is acked with a token, so it must
    reach the replicas -- one bootstrapped before the DDL converges on
    the physical design, and a read presenting the ack's token is only
    served by a replica that has the index."""
    from repro.errors import ReplicaLagError
    from repro.net.backends import ConcurrentBackend, ReplicaBackend
    fs = MemFS()
    primary = ConcurrentBackend(_primary(fs))
    replica = Replica(LocalShipSource(primary.store))
    backend = ReplicaBackend(replica)
    primary.store.create("Patient", name="ann", age=30)
    token = primary.op_index({"op": "index", "attr": "age"})["token"]
    read = {"op": "count", "cls": "Patient", "token": token}
    with pytest.raises(ReplicaLagError):
        backend.op_count(read)
    replica.sync()
    assert backend.op_count(read) == {"count": 1}
    assert replica.store.indexes.attributes() == ("age",)
    assert full_digest(replica.store) == full_digest(primary.store)
    primary.op_index({"op": "index", "attr": "age", "action": "drop"})
    replica.sync()
    assert replica.store.indexes.attributes() == ()
    replica.close()
    primary.close()


def test_replay_serializes_with_snapshot_reads():
    """Replay must hold the replica store's write lock.

    A served replica replays shipped records on a background thread
    while the service thread captures MVCC snapshots for reads; both
    sides serialize on ``store._write_lock``, or snapshot capture can
    iterate dicts mid-mutation ('dictionary changed size during
    iteration') and observe half-applied txn records.  Readers hammer
    ``read_view`` while the main thread ships and replays; any
    exception on either side is a failure.
    """
    import threading
    fs = MemFS()
    primary = _primary(fs, sync="group")
    replica = Replica(LocalShipSource(primary))
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                snapshot, _ = replica.read_view()
                # Walk derived structure a torn capture would break.
                snapshot.count("Patient")
                snapshot.count("Ward")
        except Exception as exc:        # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        ctx = {"wards": [], "patients": []}
        for i in range(80):
            _apply(primary, ctx, ("patient", i))
            _apply(primary, ctx, ("txn", i, 25 + i % 60, False))
            replica.sync()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert errors == []
    _assert_converged(primary, replica)
    replica.close()
    primary.close()


def test_duplicate_and_gap_batches_are_safe():
    from repro.net.replication import ShipBatch
    fs = MemFS()
    primary = _primary(fs)
    source = LocalShipSource(primary)
    replica = Replica(source)
    for i in range(5):
        primary.create("Ward", floor=1 + i, name=f"W{i}")
    batch = source.fetch(0)
    assert replica.apply_batch(batch) == 5
    # Re-delivering the same batch is a no-op (dedup by seq).
    assert replica.apply_batch(batch) == 0
    assert replica.stats.records_deduped == 5
    digest = full_digest(replica.store)
    # A gapped batch applies nothing and is counted.
    primary.create("Ward", floor=9, name="W9")
    primary.create("Ward", floor=9, name="W10")
    gapped = source.fetch(replica.applied_seq + 1)
    assert replica.apply_batch(gapped) == 0
    assert replica.stats.gaps_detected == 1
    assert full_digest(replica.store) == digest
    # The normal pull heals it.
    replica.sync()
    _assert_converged(primary, replica)
    replica.close()
    primary.close()
