"""Crash recovery: checkpoint + WAL replay, and the crash-point sweep.

The sweep is the tentpole test: a scripted workload (every mutation kind
the store supports, transactions, a bulk batch, a mid-stream checkpoint)
is run on a fault-injecting filesystem that kills the process at the Nth
mutating filesystem operation, for **every** N, under three post-crash
policies (fsynced-only, flushed, torn write-back).  Every recovery must
be conformant and prefix-consistent: the recovered digest equals the
digest after some completed workload step -- whole transactions and
whole bulk batches, never a hybrid.
"""

import json

import pytest

from repro.errors import ConformanceError, StorageError
from repro.objects.store import CheckMode, ObjectStore
from repro.objects.transactions import transaction
from repro.storage.fsio import atomic_write_bytes
from repro.storage.recovery import open_store, read_manifest
from repro.typesys.values import EnumSymbol, INAPPLICABLE

from tests.faultfs import FaultFS, MemFS, SimulatedCrash, store_digest

DIR = "/store"


@pytest.fixture()
def fs():
    return MemFS()


@pytest.fixture()
def store(fs, hospital_schema):
    return open_store(DIR, hospital_schema, durability="wal", fs=fs,
                      sync="always")


def _reopen(fs, **kwargs):
    return open_store(DIR, fs=fs, **kwargs)


class TestOpenFresh:
    def test_requires_schema(self, fs):
        with pytest.raises(StorageError, match="requires a schema"):
            open_store(DIR, fs=fs)

    def test_initializes_directory(self, store, fs):
        names = fs.listdir(DIR)
        assert "MANIFEST" in names
        assert "schema.cdl" in names
        assert "checkpoint-1.ckpt" in names
        assert "wal-1.log" in names

    def test_unknown_durability_rejected(self, fs, hospital_schema):
        with pytest.raises(StorageError, match="durability"):
            open_store(DIR, hospital_schema, durability="prayer", fs=fs)

    def test_durability_none_has_no_wal(self, fs, hospital_schema):
        s = open_store(DIR, hospital_schema, durability="none", fs=fs)
        assert s._journal is None
        assert "wal" not in read_manifest(fs, DIR)


class TestRoundTrip:
    def test_all_mutation_kinds_survive_reopen(self, store, fs):
        ward = store.create("Ward", floor=3, name="W1")
        doc = store.create("Physician", name="Dr", age=40,
                           specialty=EnumSymbol("General"))
        pat = store.create("Patient", name="ann", age=30, treatedBy=doc,
                           ward=ward,
                           bloodPressure=EnumSymbol("Normal_BP"))
        store.classify(pat, "Renal_Failure_Patient", check="none")
        store.declassify(pat, "Renal_Failure_Patient", check="none")
        store.set_value(pat, "age", 44)
        store.unset_value(pat, "age", check="none")
        gone = store.create("Ward", floor=9, name="Wx")
        store.remove(gone)
        store.validate_all()
        digest = store_digest(store)
        nxt = store._allocator._next
        store.close()

        again = _reopen(fs)
        assert store_digest(again) == digest
        assert again._allocator._next == nxt
        assert again.last_recovery.conformant
        assert again.last_recovery.replayed > 0

    def test_schema_loaded_from_directory(self, store, fs):
        store.create("Ward", floor=1, name="W")
        store.close()
        again = _reopen(fs)     # no schema argument
        assert again.schema.has_class("Tubercular_Patient")

    def test_rejected_mutation_never_reaches_the_log(self, store, fs):
        ward = store.create("Ward", floor=1, name="W")
        with pytest.raises(ConformanceError):
            store.set_value(ward, "floor", 99)      # out of 1..40
        with pytest.raises(ConformanceError):
            store.create("Ward", floor=77, name="bad")
        digest = store_digest(store)
        store.close()
        assert store_digest(_reopen(fs)) == digest

    def test_aborted_transaction_invisible_after_recovery(self, store,
                                                          fs):
        ward = store.create("Ward", floor=1, name="W")
        try:
            with transaction(store):
                store.set_value(ward, "floor", 2)
                store.create("Ward", floor=3, name="W2")
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        digest = store_digest(store)
        store.close()
        again = _reopen(fs)
        assert store_digest(again) == digest
        assert len(again) == 1

    def test_committed_transaction_is_one_atomic_batch(self, store, fs):
        ward = store.create("Ward", floor=1, name="W")
        with transaction(store):
            store.set_value(ward, "floor", 2)
            store.set_value(ward, "name", "renamed")
        digest = store_digest(store)
        store.close()
        assert store_digest(_reopen(fs)) == digest

    def test_virtual_class_state_reconstructed(self, store, fs,
                                               hospital_schema):
        doc = store.create("Physician", name="Dr", age=40,
                           specialty=EnumSymbol("General"))
        ward = store.create("Ward", floor=1, name="W")
        sa = store.create("Address", check="none", street="Bergweg",
                          city="Zurich")
        store.set_value(sa, "country", EnumSymbol("Switzerland"),
                        check="none")
        sh = store.create("Hospital", check="none", location=sa)
        tb = store.create("Tubercular_Patient", name="tb", age=33,
                          treatedBy=doc, ward=ward,
                          bloodPressure=EnumSymbol("Normal_BP"))
        store.set_value(tb, "treatedAt", sh)
        digest = store_digest(store)
        store.close()
        again = _reopen(fs)
        assert store_digest(again) == digest
        hosp = again.get(sh.surrogate)
        assert any(name.startswith("Hospital$")
                   for name in hosp.memberships)

    def test_bulk_batch_survives_as_one_record(self, store, fs):
        with store.bulk_session(check="eager") as session:
            w = session.add("Ward", floor=2, name="W2")
            session.add("Ward", floor=3, name="W3")
            session.add("Patient", name="p", age=20, ward=w,
                        bloodPressure=EnumSymbol("High_BP"))
            # An explicit INAPPLICABLE write must survive the round trip
            # as a logged unset, not a stored value.
            session.add("Ward", floor=4, name=INAPPLICABLE)
        digest = store_digest(store)
        store.close()
        assert store_digest(_reopen(fs)) == digest

    def test_indexes_recreated_on_recovery(self, store, fs):
        store.create("Ward", floor=5, name="W")
        store.create_index("floor")
        store.checkpoint()
        store.create("Ward", floor=5, name="X")
        store.close()
        again = _reopen(fs)
        assert "floor" in again.indexes.attributes()
        index = again.indexes.get("floor")
        assert len(index.lookup(5)) == 2


    def test_index_ddl_is_journaled(self, store, fs):
        """An acknowledged ``index`` is durable without a checkpoint,
        and a drop is too: the manifest's list is only the base the
        log's records apply over."""
        store.create("Ward", floor=5, name="W")
        store.create_index("floor")
        store.close()
        again = _reopen(fs)
        assert again.indexes.attributes() == ("floor",)
        assert len(again.indexes.get("floor").lookup(5)) == 1
        again.create_index("name")
        again.checkpoint()              # manifest: floor, name
        again.drop_index("floor")
        again.close()
        assert _reopen(fs).indexes.attributes() == ("name",)

    def test_index_ddl_in_a_transaction_commits_or_not_with_it(
            self, store, fs):
        with pytest.raises(RuntimeError):
            with transaction(store):
                store.create_index("floor")
                raise RuntimeError("abort")
        with transaction(store):
            store.create("Ward", floor=5, name="W")
            store.create_index("name")
        store.close()
        assert _reopen(fs).indexes.attributes() == ("name",)

    def test_batch_staged_before_a_create_replays(self, store, fs):
        """The batch's surrogates sit *below* the create's, and its
        record comes after: replay pins the allocator to exactly the
        logged sid (a max() pin made this directory unrecoverable) and
        never lets it fall back under ids already handed out."""
        session = store.bulk_session()
        session.add("Ward", floor=1, name="a")
        session.add("Ward", floor=2, name="b")
        late = store.create("Ward", floor=3, name="c")
        session.commit()
        assert late.surrogate.id == 3
        digest = store_digest(store)
        store.close()
        again = _reopen(fs)
        assert store_digest(again) == digest
        assert again.create("Ward", floor=4, name="d").surrogate.id == 4


class TestCheckpoint:
    def test_folds_wal_and_rotates(self, store, fs):
        store.create("Ward", floor=1, name="W")
        manifest = store.checkpoint()
        assert manifest["generation"] == 2
        assert manifest["checkpoint"]["objects"] == 1
        # Old generation files are garbage-collected.
        names = fs.listdir(DIR)
        assert "checkpoint-1.ckpt" not in names
        assert "wal-1.log" not in names
        store.create("Ward", floor=2, name="X")
        store.close()
        again = _reopen(fs)
        assert again.last_recovery.checkpoint_objects == 1
        assert again.last_recovery.replayed == 1
        assert len(again) == 2

    def test_rejected_inside_transaction(self, store):
        with pytest.raises(StorageError, match="transaction"):
            with transaction(store):
                store.checkpoint()

    @pytest.mark.parametrize("engine", ["incremental", "full"])
    def test_manifest_with_retired_engine_key_still_opens(
            self, store, fs, engine):
        """Directories written while the store had an ``engine=``
        selector carry it in the manifest; either value opens on the one
        checker and recovers the same state."""
        doc = store.create("Physician", name="Dr", age=40,
                           specialty=EnumSymbol("General"))
        store.create("Patient", name="ann", age=30, treatedBy=doc)
        store.checkpoint()
        store.create("Ward", floor=2, name="X")      # WAL tail
        expected = store_digest(store)
        store.close()
        manifest = read_manifest(fs, DIR)
        assert "engine" not in manifest["store"]
        manifest["store"]["engine"] = engine
        atomic_write_bytes(fs, DIR + "/MANIFEST",
                           json.dumps(manifest).encode("utf-8"))
        again = _reopen(fs)
        assert store_digest(again) == expected
        assert again.last_recovery.conformant

    def test_durability_none_checkpoint_only_persistence(
            self, fs, hospital_schema):
        s = open_store(DIR, hospital_schema, durability="none", fs=fs)
        s.create("Ward", floor=1, name="W")
        s.checkpoint()
        s.create("Ward", floor=2, name="X")     # never persisted
        s.close()
        again = _reopen(fs)
        assert len(again) == 1
        assert again.durability == "none"

    def test_corrupt_checkpoint_fails_loudly(self, store, fs):
        store.create("Ward", floor=1, name="W")
        store.checkpoint()
        store.close()
        fs.bit_flip(DIR + "/checkpoint-2.ckpt", 30)
        with pytest.raises(StorageError, match="corrupt|checksum"):
            _reopen(fs)

    def test_missing_checkpoint_fails_loudly(self, store, fs):
        store.close()
        fs.files.pop(DIR + "/checkpoint-1.ckpt")
        with pytest.raises(StorageError, match="missing"):
            _reopen(fs)


class TestTornTail:
    def test_torn_tail_truncated_and_store_continues(self, store, fs):
        store.create("Ward", floor=1, name="W")
        store.create("Ward", floor=2, name="X")
        store.close()
        path = DIR + "/wal-1.log"
        whole = fs.read_bytes(path)
        fs.files[path].cached = whole[:-7]
        fs.files[path].durable = whole[:-7]
        again = _reopen(fs)
        assert len(again) == 1
        report = again.last_recovery
        assert report.wal_stopped == "torn-tail"
        assert report.truncated_bytes > 0
        # The torn bytes are gone; appending works and a further
        # recovery sees a clean chain.
        again.create("Ward", floor=3, name="Y")
        again.close()
        final = _reopen(fs)
        assert len(final) == 2
        assert final.last_recovery.wal_stopped == "clean-end"

    def test_missing_wal_segment_recovers_checkpoint_only(self, store,
                                                          fs):
        store.create("Ward", floor=1, name="W")
        store.checkpoint()
        store.create("Ward", floor=2, name="X")
        store.close()
        fs.files.pop(DIR + "/wal-2.log")
        again = _reopen(fs)
        assert len(again) == 1
        assert again.last_recovery.wal_stopped == "missing"
        # The store is writable again (a fresh segment was created).
        again.create("Ward", floor=3, name="Y")
        again.close()
        assert len(_reopen(fs)) == 2


class TestRecoveryCounters:
    def test_obs_counters_tick(self, store, fs):
        store.create("Ward", floor=1, name="W")
        store.checkpoint()
        store.create("Ward", floor=2, name="X")
        store.close()
        again = _reopen(fs)
        stats = again.checker.stats
        assert stats.recoveries == 1
        assert stats.wal_replayed == 1
        assert stats.checkpoints == 0   # counts checkpoints *taken*
        again.checkpoint()
        assert again.checker.stats.checkpoints == 1


# ----------------------------------------------------------------------
# The crash-point sweep
# ----------------------------------------------------------------------

def _workload_steps():
    """Atomic workload steps; each leaves the store in a committed
    state whose digest recovery may legitimately land on."""

    def s_ward(store, ctx):
        ctx["ward"] = store.create("Ward", floor=3, name="W1")

    def s_doc(store, ctx):
        ctx["doc"] = store.create(
            "Physician", name="Dr", age=40,
            specialty=EnumSymbol("General"))

    def s_patient(store, ctx):
        ctx["pat"] = store.create(
            "Patient", name="ann", age=30, treatedBy=ctx["doc"],
            ward=ctx["ward"], bloodPressure=EnumSymbol("Normal_BP"))

    def s_rejected(store, ctx):
        with pytest.raises(ConformanceError):
            store.set_value(ctx["ward"], "floor", 99)

    def s_txn_abort(store, ctx):
        try:
            with transaction(store):
                store.set_value(ctx["pat"], "age", 31)
                store.create("Ward", floor=4, name="doomed")
                raise RuntimeError("abort")
        except RuntimeError:
            pass

    def s_txn_commit(store, ctx):
        with transaction(store):
            store.set_value(ctx["pat"], "age", 44)
            store.classify(ctx["pat"], "Renal_Failure_Patient",
                           check="none")
            store.set_value(ctx["pat"], "bloodPressure",
                            EnumSymbol("High_BP"))

    def s_declassify(store, ctx):
        store.declassify(ctx["pat"], "Renal_Failure_Patient",
                         check="none")

    def s_unset(store, ctx):
        store.unset_value(ctx["pat"], "bloodPressure", check="none")

    def s_swiss(store, ctx):
        with transaction(store):
            sa = store.create("Address", check="none", street="Bergweg",
                              city="Zurich")
            store.set_value(sa, "country", EnumSymbol("Switzerland"),
                            check="none")
            ctx["swiss"] = store.create("Hospital", check="none",
                                        location=sa)

    def s_tubercular(store, ctx):
        with transaction(store):
            tb = store.create(
                "Tubercular_Patient", name="tb", age=33,
                treatedBy=ctx["doc"], ward=ctx["ward"],
                bloodPressure=EnumSymbol("Normal_BP"))
            store.set_value(tb, "treatedAt", ctx["swiss"])

    def s_bulk(store, ctx):
        with store.bulk_session(check="eager") as session:
            w = session.add("Ward", floor=7, name="W7")
            for i in range(3):
                session.add("Patient", name=f"bulk{i}", age=20 + i,
                            ward=w, treatedBy=ctx["doc"],
                            bloodPressure=EnumSymbol("Normal_BP"))

    def s_checkpoint(store, ctx):
        store.checkpoint()

    def s_remove(store, ctx):
        doomed = store.create("Ward", floor=8, name="W8")
        ctx["doomed"] = doomed

    def s_remove2(store, ctx):
        store.remove(ctx["doomed"])

    def s_validate(store, ctx):
        store.validate_all()

    def s_more_wards(store, ctx):
        store.create("Ward", floor=9, name="W9")

    def s_set_back(store, ctx):
        store.set_value(ctx["pat"], "bloodPressure",
                        EnumSymbol("Normal_BP"))

    def make_create(i):
        def step(store, ctx):
            ctx.setdefault("extra", []).append(
                store.create("Ward", floor=1 + i % 40, name=f"E{i}"))
        return step

    def make_churn(i):
        def step(store, ctx):
            store.set_value(ctx["pat"], "age", 20 + i % 60)
        return step

    def make_remove(i):
        def step(store, ctx):
            store.remove(ctx["extra"][i])
        return step

    steps = [
        s_ward, s_doc, s_patient, s_rejected, s_txn_abort, s_txn_commit,
        s_declassify, s_unset, s_swiss, s_tubercular, s_bulk,
        s_checkpoint, s_remove, s_remove2, s_validate, s_more_wards,
        s_set_back,
    ]
    # Padding phase: single-op steps that push the sweep well past the
    # 200-crash-point floor while keeping every digest distinct.
    for i in range(34):
        steps.append(make_create(i))
        steps.append(make_churn(i))
    steps.append(make_remove(0))
    steps.append(make_remove(1))
    steps.extend([s_checkpoint, s_validate])
    return steps


def _violation_set(store):
    """Non-mutating fingerprint of the store's current violations (the
    workload intentionally passes through nonconformant committed
    states -- e.g. a Swiss address before its tubercular patient anchors
    it -- and recovery must reproduce them faithfully)."""
    return frozenset(
        (obj.surrogate.id, str(v))
        for obj in store._objects.values()
        for v in store.checker.check(obj))


def _run_workload(fs, schema, sync="always"):
    """Run the scripted workload; returns the prefix-consistency oracle:
    every committed digest, mapped to the violation set the live store
    had at that state.  Raises SimulatedCrash mid-way when ``fs`` is
    armed to crash."""
    store = open_store(DIR, schema, durability="wal", fs=fs, sync=sync)
    oracle = {store_digest(store): _violation_set(store)}
    ctx = {}
    for step in _workload_steps():
        step(store, ctx)
        oracle.setdefault(store_digest(store), _violation_set(store))
    store.close()
    return oracle


def _recover_after_crash(crashed_fs, policy):
    """Materialize the post-crash disk and recover from it; returns the
    recovered store, or None if the crash predates the store's very
    first manifest commit."""
    state = crashed_fs.crash_state(policy)
    fs = MemFS(state)
    if DIR + "/MANIFEST" not in state:
        return None, fs
    return open_store(DIR, fs=fs), fs


class TestCrashPointSweep:
    POLICIES = ("synced", "flushed", "torn")

    def _probe(self, schema):
        fs = FaultFS()
        oracle = _run_workload(fs, schema)
        return fs.ops, oracle

    def test_workload_has_enough_crash_points(self, hospital_schema):
        total, oracle = self._probe(hospital_schema)
        assert total >= 200, (
            f"workload exposes only {total} fs operations; the sweep "
            "needs at least 200 distinct crash points")
        assert len(oracle) > 10

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_crash_point_recovers_a_committed_prefix(
            self, hospital_schema, policy):
        total, oracle = self._probe(hospital_schema)
        tear = policy == "torn"
        crashes = 0
        for point in range(1, total + 1):
            fs = FaultFS(crash_at=point, tear_writes=tear)
            try:
                _run_workload(fs, hospital_schema)
            except SimulatedCrash:
                crashes += 1
            else:
                pytest.fail(f"crash point {point} never fired")
            recovered, _ = _recover_after_crash(fs, policy)
            if recovered is None:
                continue
            digest = store_digest(recovered)
            assert digest in oracle, (
                f"crash at op {point} ({policy}): recovered state is "
                "not any committed prefix of the workload")
            report = recovered.last_recovery
            found = frozenset((obj.surrogate.id, str(v))
                              for obj, v in report.violations)
            assert found == oracle[digest], (
                f"crash at op {point} ({policy}): recovery reports "
                f"{sorted(found)} but this committed state had "
                f"{sorted(oracle[digest])}")
            recovered.close()
        assert crashes == total

    def test_recovered_store_accepts_further_work(self, hospital_schema):
        total, _ = self._probe(hospital_schema)
        # A handful of representative points, continuing the store's
        # life after recovery and recovering once more.
        for point in range(5, total, max(total // 7, 1)):
            fs = FaultFS(crash_at=point)
            with pytest.raises(SimulatedCrash):
                _run_workload(fs, hospital_schema)
            recovered, mem = _recover_after_crash(fs, "synced")
            if recovered is None:
                continue
            before = len(recovered)
            recovered.create("Ward", floor=1, name="post-crash")
            recovered.close()
            final = open_store(DIR, fs=mem)
            assert len(final) == before + 1
            assert final.last_recovery.conformant
            final.close()
