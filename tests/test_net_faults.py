"""Replication under transport and process faults.

Two fault planes, both deterministic and Hypothesis-driven:

* **Transport** -- :class:`tests.faultfs.FaultyTransport` drops,
  duplicates, and reorders ship batches on a drawn schedule.  The
  replica must never apply out of order (gapped batches apply nothing),
  never double-apply (dedup by seq), and still converge to the
  primary's digest once deliveries resume.
* **Process** -- a durable replica's own filesystem is a
  :class:`tests.faultfs.FaultFS` armed to die at the Nth mutating
  operation, killing the replica mid-replay.  Recovery from the
  post-crash disk (all three policies) must land on a committed
  *prefix* of the primary's history -- the digest at some exact seq,
  never a hybrid -- and catching up from there must converge
  identically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import print_schema
from repro.net.replication import LocalShipSource, Replica
from repro.scenarios import build_hospital_schema
from repro.storage.recovery import open_store

from tests.faultfs import (
    FaultFS,
    FaultyTransport,
    MemFS,
    SimulatedCrash,
    store_digest,
)

SCHEMA = build_hospital_schema()
DIR = "/primary"
RDIR = "/replica"


def full_digest(store):
    return (print_schema(store.schema), store_digest(store))


def _primary(fs):
    return open_store(DIR, SCHEMA, durability="wal", fs=fs,
                      sync="always")


def _populate(primary, n):
    """n mutations; returns {seq: digest} -- the committed-prefix
    oracle a crashed replica must land inside, one entry per WAL
    record (the unit shipping replays at)."""
    oracle = {primary._wal.last_seq: full_digest(primary)}

    def note():
        oracle[primary._wal.last_seq] = full_digest(primary)

    for i in range(n):
        if i % 3 == 2:
            patient = primary.create("Patient", name=f"P{i}",
                                     age=20 + i)
            note()
            primary.set_value(patient, "age", 21 + i % 90)
        else:
            primary.create("Ward", floor=1 + i % 40, name=f"W{i}")
        note()
    return oracle


def _sync_until_converged(primary, replica, max_rounds=60,
                          batch_records=512):
    target = primary._wal.last_seq
    for _ in range(max_rounds):
        replica.sync(max_rounds=1, batch_records=batch_records)
        if replica.applied_seq >= target:
            return
    raise AssertionError(
        f"replica stuck at seq {replica.applied_seq}, "
        f"primary at {target}")


# ----------------------------------------------------------------------
# Transport faults
# ----------------------------------------------------------------------

_directive = st.sampled_from(["ok", "drop", "dup", "skip"])


class TestFaultyTransport:
    @given(schedule=st.lists(_directive, max_size=12),
           n_ops=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_replica_converges_through_misdelivery(self, schedule,
                                                   n_ops):
        fs = MemFS()
        primary = _primary(fs)
        transport = FaultyTransport(LocalShipSource(primary),
                                    schedule=schedule)
        replica = Replica(transport)
        _populate(primary, n_ops)
        _sync_until_converged(primary, replica)
        assert full_digest(replica.store) == full_digest(primary)
        replica.close()
        primary.close()

    @given(schedule=st.lists(_directive, min_size=4, max_size=12),
           n_ops=st.integers(2, 10), batch=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_small_batches_maximize_fault_surface(self, schedule,
                                                  n_ops, batch):
        """Tiny batch sizes force many fetches through the faulty
        schedule; applied records still count up exactly once each."""
        fs = MemFS()
        primary = _primary(fs)
        transport = FaultyTransport(LocalShipSource(primary),
                                    schedule=schedule)
        replica = Replica(transport)
        _populate(primary, n_ops)
        target = primary._wal.last_seq
        for _ in range(80):
            replica.sync(max_rounds=1, batch_records=batch)
            if replica.applied_seq >= target:
                break
        assert replica.applied_seq == target
        assert replica.stats.records_applied == target
        assert full_digest(replica.store) == full_digest(primary)
        replica.close()
        primary.close()

    def test_duplicate_batches_count_as_deduped(self):
        fs = MemFS()
        primary = _primary(fs)
        transport = FaultyTransport(
            LocalShipSource(primary),
            schedule=["ok", "dup", "dup", "ok"])
        replica = Replica(transport)
        _populate(primary, 6)
        # Small batches force several fetches through the schedule, so
        # the "dup" slots re-deliver already-applied records.
        _sync_until_converged(primary, replica, batch_records=2)
        assert replica.stats.records_deduped > 0
        assert full_digest(replica.store) == full_digest(primary)
        replica.close()
        primary.close()

    def test_skipped_batches_detect_gaps(self):
        fs = MemFS()
        primary = _primary(fs)
        transport = FaultyTransport(
            LocalShipSource(primary),
            schedule=["skip", "skip", "ok"])
        replica = Replica(transport)
        _populate(primary, 6)
        _sync_until_converged(primary, replica)
        assert replica.stats.gaps_detected > 0
        assert full_digest(replica.store) == full_digest(primary)
        replica.close()
        primary.close()


# ----------------------------------------------------------------------
# Replica process crashes mid-replay
# ----------------------------------------------------------------------

class TestReplicaCrash:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_crash_mid_replay_recovers_committed_prefix(self, data):
        n_ops = data.draw(st.integers(3, 10), label="ops")
        fs = MemFS()
        primary = _primary(fs)
        source = LocalShipSource(primary)

        # Bootstrap the durable replica on an unarmed FaultFS, then arm
        # it so the crash lands inside tail replay journaling.
        rfs = FaultFS()
        rfs.armed = False
        replica = Replica(source, directory=RDIR, fs=rfs, sync="always")
        oracle = _populate(primary, n_ops)

        rfs.armed = True
        rfs.ops = 0
        probe_crash = data.draw(st.integers(1, 4 * n_ops),
                                label="crash op")
        policy = data.draw(
            st.sampled_from(["synced", "flushed", "torn"]),
            label="policy")
        rfs.crash_at = probe_crash
        rfs.tear_writes = policy == "torn"
        try:
            replica.sync()
            crashed = False
        except SimulatedCrash:
            crashed = True

        # Recover a fresh replica from the post-crash disk.
        revived_fs = MemFS(rfs.crash_state(policy))
        revived = Replica(source, directory=RDIR, fs=revived_fs,
                          sync="always")
        assert revived.stats.bootstraps == 0     # recovery, not dump
        # Committed-prefix: the recovered position is an exact seq of
        # the primary's history with the matching digest.
        assert revived.applied_seq in oracle
        assert full_digest(revived.store) == oracle[revived.applied_seq]
        if not crashed:
            assert revived.applied_seq == primary._wal.last_seq

        # ... and catching up from the prefix converges identically.
        revived.sync()
        assert revived.applied_seq == primary._wal.last_seq
        assert full_digest(revived.store) == full_digest(primary)
        revived.close()
        primary.close()

    def test_crash_during_bootstrap_restarts_cleanly(self):
        fs = MemFS()
        primary = _primary(fs)
        _populate(primary, 8)
        source = LocalShipSource(primary)

        rfs = FaultFS(crash_at=3)
        with pytest.raises(SimulatedCrash):
            Replica(source, directory=RDIR, fs=rfs, sync="always")

        # A fresh attempt on the post-crash disk either recovers the
        # partial directory or re-bootstraps; both must converge.
        revived_fs = MemFS(rfs.crash_state("flushed"))
        revived = Replica(source, directory=RDIR, fs=revived_fs,
                          sync="always")
        revived.sync()
        assert full_digest(revived.store) == full_digest(primary)
        revived.close()
        primary.close()
