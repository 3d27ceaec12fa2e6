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

import inspect
import json
import textwrap
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import codec
from repro.columnar import CHUNK_BITS, SurrogateSet
from repro import load_schema
from repro.errors import ConformanceError, ReplicationError, StorageError
from repro.net.replication import install_dump
from repro.objects.store import CheckMode, ObjectStore
from repro.objects.surrogate import Surrogate
from repro.objects.transactions import transaction
from repro.scenarios import populate_hospital
from repro.storage import recovery
from repro.storage.fsio import atomic_write_bytes
from repro.storage.recovery import (
    install_image, open_store, read_manifest, store_image)
from repro.typesys.values import EnumSymbol, INAPPLICABLE

from tests.faultfs import FaultFS, MemFS, SimulatedCrash, store_digest

DIR = "/store"

#: An attribute with no range: any int passes conformance.
_ITEM_CDL = "class Item with\n  weight: Integer;\nend\n"


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
        assert "schema-1.cdl" in names
        assert "checkpoint-1.ckpt" in names
        assert "wal-1.log" in names

    def test_unknown_durability_rejected(self, fs, hospital_schema):
        with pytest.raises(StorageError, match="durability"):
            open_store(DIR, hospital_schema, durability="prayer", fs=fs)

    def test_durability_none_has_no_wal(self, fs, hospital_schema):
        s = open_store(DIR, hospital_schema, durability="none", fs=fs)
        assert s._wal is None
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

    @pytest.mark.parametrize("refused", [
        "create", "set", "bulk-eager", "bulk-deferred", "txn"])
    def test_an_unencodable_record_takes_no_seq(self, fs, refused):
        # A value JSON refuses (an int over the str-conversion limit):
        # the command is refused before it applies, so what a reader
        # sees is what a reopen rebuilds, and the log stays a clean
        # chain under every later acknowledged write.
        store = open_store(DIR, load_schema(_ITEM_CDL), durability="wal",
                           fs=fs, sync="always")
        item = store.create("Item", weight=1)
        position, epoch = store.position(), store._epoch
        huge = 10 ** 5000
        with pytest.raises(StorageError, match="cannot be encoded"):
            if refused == "create":
                store.create("Item", weight=huge)
            elif refused == "set":
                store.set_value(item, "weight", huge)
            elif refused == "txn":
                with transaction(store):
                    store.create("Item", weight=2)
                    store.set_value(item, "weight", huge)
            else:
                store.bulk_load([("Item", {"weight": huge})],
                                check=refused.split("-")[1])
        assert store.position() == position
        if refused != "txn":        # a rolled-back scope bumps it once
            assert store._epoch == epoch
        assert (len(store), item.get_value("weight")) == (1, 1)
        reopened = _reopen(fs)
        assert store_digest(reopened) == store_digest(store)
        reopened.close()
        acked = [store.create("Item", weight=w).surrogate for w in (3, 4)]
        store.close()
        again = _reopen(fs)
        assert again.last_recovery.wal_stopped == "clean-end"
        assert again.get(item.surrogate).get_value("weight") == 1
        assert all(again.get(sid).get_value("weight") == w
                   for sid, w in zip(acked, (3, 4)))

    def test_a_transaction_whose_commit_raises_is_rolled_back(self, fs):
        # The live store, not just the reopened one: a scope whose WAL
        # group fails to encode leaves no write, no seq taken, and the
        # typed refusal unmasked.
        store = open_store(DIR, load_schema(_ITEM_CDL), durability="wal",
                           fs=fs, sync="always")
        item = store.create("Item", weight=1)
        position = store.position()
        before = store.snapshot()
        with pytest.raises(StorageError):
            with transaction(store):
                store.create("Item", weight=2)
                store.set_value(item, "weight", 10 ** 5000)
        assert store.count("Item") == 1
        assert item.get_value("weight") == 1
        assert store.snapshot().count("Item") == 1
        assert store.snapshot().epoch > before.epoch
        assert store.position() == position
        with transaction(store):
            store.create("Item", weight=3)
        assert store.position() == position + 1
        assert store.count("Item") == 2

    @pytest.mark.parametrize("sync, op", [("always", "sync"),
                                          ("group", "write")])
    def test_a_transaction_whose_log_write_fails_stays(self, sync, op):
        # An I/O error after the record took its seq: the bytes are in
        # the file or still buffered, so a reopen brings the scope back.
        # The live store must agree and keep it too.
        class FailOnce(MemFS):
            failing = None

            def _count(self, name):
                if name == self.failing:
                    self.failing = None
                    raise OSError(f"injected {name} failure")

        fs = FailOnce()
        store = open_store(DIR, load_schema(_ITEM_CDL), durability="wal",
                           fs=fs, sync=sync, sync_every=1)
        item = store.create("Item", weight=1)
        fs.failing = op
        with pytest.raises(OSError, match="injected"):
            with transaction(store):
                store.create("Item", weight=2)
                store.set_value(item, "weight", 5)
        assert store.count("Item") == 2
        assert store.snapshot().count("Item") == 2
        digest = store_digest(store)
        store.close()
        assert store_digest(_reopen(fs)) == digest

    def test_a_create_failing_past_conformance_leaves_no_object(
            self, hospital_schema):
        # Rendering the violation of an over-long int raises ValueError,
        # not ConformanceError; the half-built object must still go.  In
        # memory: a WAL store refuses the record before the apply.
        store = ObjectStore(hospital_schema)
        before = len(store)
        with pytest.raises(ValueError):
            store.create("Person", age=10 ** 5000)
        assert len(store) == before
        assert not store.extent("Person")

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

    def test_after_close_the_position_never_moves_back(self, store, fs):
        """A checkpoint of a closed store starts its segment where the
        closed log ended: the position only grows, and a reopen reports
        what the store last reported."""
        store.create("Ward", floor=1, name="W")
        store.create("Ward", floor=2, name="X")
        store.close()
        assert store.position() == 2
        store.checkpoint()
        assert store.position() == 2
        assert _reopen(fs).position() == 2
        store.create("Ward", floor=3, name="Y")
        assert store.position() == 3
        store.close()
        again = _reopen(fs)
        assert again.position() == 3
        assert len(again) == 3

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

    def test_report_names_its_phases(self, store, fs):
        store.create("Ward", floor=1, name="W")
        store.checkpoint()
        store.create("Ward", floor=2, name="X")
        store.close()
        started = time.perf_counter()
        report = _reopen(fs).last_recovery
        whole = time.perf_counter() - started
        phases = (report.install_s, report.replay_s, report.validate_s)
        assert all(phase >= 0 for phase in phases)
        assert sum(phases) <= whole
        assert "install" in report.describe()

    def test_report_names_the_checkpoint_file_it_read(self, store, fs):
        for floor in range(3):
            store.create("Ward", floor=floor + 1, name="W")
        store.create("Person", name="P", age=30)
        entry = store.checkpoint()["checkpoint"]
        store.close()
        report = _reopen(fs).last_recovery
        assert (report.checkpoint_bytes, report.checkpoint_batches) == (
            entry["length"], entry["batches"]) == (entry["length"], 2)
        assert f"({entry['length']} bytes, 2 batch(es))" in report.describe()

    def test_a_checkpoint_keeps_the_sync_batch(self, fs, hospital_schema):
        store = open_store(DIR, hospital_schema, fs=fs, sync_every=5)
        assert store._wal.sync_every == 5
        store.checkpoint()
        assert store._wal.sync_every == 5


# ----------------------------------------------------------------------
# The image installer: one pass, batches and sids in any order
# ----------------------------------------------------------------------

def _image(store, indexes=("age",)):
    header, batches = store_image(store)
    return dict(header, indexes=list(indexes)), [
        [classes, sids, cols] for classes, sids, cols in batches]


def _installed(schema, header, batches, install=install_image):
    fresh = ObjectStore(schema)
    install(fresh, header, batches)
    return fresh


def _shape(store):
    """Objects, virtual refs and dirty ledger (the digest), plus every
    extent and every posting as ids."""
    postings = {
        attribute: ({repr(key): bucket.ids()
                     for key, bucket in index._buckets.items()},
                    index.inapplicable.ids(), index.residue.ids())
        for attribute in store.indexes.attributes()
        for index in [store.indexes.get(attribute)]}
    extents = {name: members.ids()
               for name, members in store._extents.items() if members}
    return store_digest(store), extents, postings


def _rows(batch, order):
    """The rows of ``batch`` at positions ``order``, as a batch."""
    classes, sids, cols = batch
    return [classes, [sids[i] for i in order],
            {name: [column[i] for i in order]
             for name, column in cols.items()}]


def _reversed(batches):
    """Batches in reverse order, each with its sids reversed: every
    reference is forward."""
    return [_rows(batch, range(len(batch[1]))[::-1])
            for batch in batches[::-1]]


def _without(batches, sid):
    return [_rows(batch, [i for i, s in enumerate(batch[1]) if s != sid])
            for batch in batches]


def _repeating(batches):
    """``batches`` plus a batch of one that repeats the last sid."""
    classes, sids, _cols = batches[-1]
    return sids[-1], batches + [[classes, [sids[-1]], {}]]


def _check_reverse_install(source, install=install_image):
    """Reversed batches with reversed sids install the store the
    in-order batches do, which is the source's state."""
    header, batches = _image(source)
    forward = _installed(source.schema, header, batches, install)
    backward = _installed(source.schema, header, _reversed(batches),
                          install)
    assert _shape(backward) == _shape(forward)
    assert store_digest(forward) == store_digest(source)
    return backward


def _checkpoint_refuses(tmp_path, source, batches, match):
    """A checkpoint whose frames are ``batches`` does not reopen."""
    directory = str(tmp_path / "ckpt")
    durable = ObjectStore.open(directory, source.schema, durability="none")
    header, _batches = store_image(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "store_image",
                      lambda _store: (header, iter(batches)))
        durable.checkpoint()
    durable.close()
    with pytest.raises(StorageError, match=match):
        ObjectStore.open(directory)


class TestImageInstall:
    def test_batches_group_one_signature_in_sid_order(
            self, hospital_population):
        source = hospital_population.store
        _header, batches = _image(source)
        firsts = [sids[0] for _classes, sids, _cols in batches]
        assert firsts == sorted(firsts)
        for classes, sids, cols in batches:
            assert sids == sorted(sids)
            assert len(sids) <= recovery.IMAGE_BATCH
            assert {tuple(sorted(source.get(Surrogate(sid)).memberships))
                    for sid in sids} == {tuple(classes)}
            assert all(len(column) == len(sids) for column in cols.values())
        assert sorted(sid for _c, sids, _v in batches for sid in sids) == [
            obj.surrogate.id for obj in source.instances()]

    def test_a_signature_over_the_cap_spans_batches(self):
        store = ObjectStore(load_schema(_ITEM_CDL))
        for weight in range(recovery.IMAGE_BATCH + 5):
            store.create("Item", weight=weight)
        _header, batches = _image(store, indexes=())
        assert [len(sids) for _c, sids, _v in batches] == [
            recovery.IMAGE_BATCH, 5]

    def test_reverse_sid_order_installs_the_same_store(
            self, hospital_population):
        installed = _check_reverse_install(hospital_population.store)
        digest = store_digest(installed)
        assert digest[1], "the population anchors a virtual class"
        assert installed.indexes.get("age").lookup(
            hospital_population.patients[0].get_value("age"))

    def test_a_dangling_reference_is_refused(self, hospital_population,
                                             tmp_path):
        # Sid 1 is an address the first hospital's location names.
        header, batches = _image(hospital_population.store)
        schema = hospital_population.store.schema
        missing = _without(batches, 1)
        for order in (missing, _reversed(missing)):
            with pytest.raises(StorageError,
                               match=r"references unknown object @1$"):
                _installed(schema, header, order)
        with pytest.raises(ReplicationError, match="unknown object @1$"):
            install_dump(ObjectStore(schema), dict(header, batches=missing))
        _checkpoint_refuses(tmp_path, hospital_population.store, missing,
                            "unknown object @1$")

    def test_a_repeated_sid_is_refused(self, hospital_population,
                                       tmp_path):
        # Across two batches: in the installer and in a checkpoint.
        header, batches = _image(hospital_population.store)
        sid, repeating = _repeating(batches)
        with pytest.raises(StorageError, match=f"repeats object @{sid}$"):
            _installed(hospital_population.store.schema, header, repeating)
        _checkpoint_refuses(tmp_path, hospital_population.store, repeating,
                            f"repeats object @{sid}$")

    def test_a_catch_up_dump_that_repeats_a_sid_is_refused(
            self, hospital_population):
        header, batches = _image(hospital_population.store)
        sid, repeating = _repeating(batches)
        with pytest.raises(ReplicationError, match=f"repeats object @{sid}"):
            install_dump(ObjectStore(hospital_population.store.schema),
                         dict(header, batches=repeating))

    def test_a_stored_none_is_not_an_unset_cell(self, tmp_path):
        # check="none" stores anything, None included; the image must
        # tell it from an attribute the object does not set.
        store = ObjectStore(load_schema(_ITEM_CDL))
        store.create("Item", weight=None, check="none")
        store.create("Item")
        _header, [[_classes, _sids, cols]] = _image(store, indexes=())
        assert cols == {"weight": [codec.NONE, None]}
        directory = str(tmp_path / "none")
        durable = ObjectStore.open(directory, store.schema,
                                   durability="none")
        install_image(durable, *store_image(store))
        durable.checkpoint()
        durable.close()
        again = ObjectStore.open(directory)
        assert store_digest(again) == store_digest(store)
        assert [obj.value_names() for obj in again.instances()] == [
            ("weight",), ()]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_order_and_split_installs_the_same_store(
            self, hospital_population, data):
        source = hospital_population.store
        header, batches = _image(source)
        pieces = []
        for batch in batches:
            order = data.draw(st.permutations(range(len(batch[1]))))
            cuts = sorted(data.draw(st.sets(
                st.integers(1, max(1, len(order) - 1)), max_size=3)))
            bounds = [0, *cuts, len(order)]
            pieces += [_rows(batch, order[lo:hi])
                       for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        shuffled = data.draw(st.permutations(pieces))
        installed = _installed(source.schema, header, shuffled)
        assert _shape(installed) == _shape(
            _installed(source.schema, header, batches))
        assert store_digest(installed) == store_digest(source)

    @staticmethod
    def _mutant(old, new):
        source = textwrap.dedent(inspect.getsource(recovery.install_image))
        assert source.count(old) == 1
        namespace = dict(vars(recovery))
        exec(source.replace(old, new), namespace)
        return namespace["install_image"]

    def test_mutant_forward_shell_keeps_empty_memberships_is_killed(
            self, hospital_population):
        mutant = self._mutant("obj._memberships = members", "pass")
        with pytest.raises(AssertionError):
            _check_reverse_install(hospital_population.store, mutant)

    def test_mutant_storing_a_null_cell_as_a_value_is_killed(
            self, hospital_schema):
        population = populate_hospital(hospital_schema, n_patients=20,
                                       seed=3)
        for patient in population.patients[::3]:
            population.store.unset_value(patient, "age", check="none")
        _header, batches = _image(population.store)
        assert any(None in column for _classes, _sids, cols in batches
                   for column in cols.values()), "some cell is unset"
        _check_reverse_install(population.store)
        mutant = self._mutant("decode_column(column, resolve, UNSET)",
                              "decode_column(column, resolve)")
        with pytest.raises(AssertionError):
            _check_reverse_install(population.store, mutant)

    def test_install_does_no_per_member_bitset_work(self, hospital_schema):
        """Every extent and posting is built from a list of sids: a
        5,000-object install never adds or probes one member."""
        source = populate_hospital(hospital_schema, n_patients=4_970,
                                   seed=5).store
        assert len(source) >= 5_000
        header, batches = _image(source)

        def refuse(*_args):
            raise AssertionError("per-member bitset work")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SurrogateSet, "add", refuse)
            patch.setattr(SurrogateSet, "__contains__", refuse)
            installed = _installed(source.schema, header, batches)
        assert store_digest(installed) == store_digest(source)


@pytest.mark.slow
def test_image_install_over_three_bitset_chunks(hospital_schema):
    """Reversed batches and sids over more than three bitset chunks,
    with a populated virtual class and an index, against the live
    store."""
    source = populate_hospital(hospital_schema, n_patients=12_300,
                               seed=31).store
    assert source._allocator._next > 3 * CHUNK_BITS
    source.create_index("age")
    header, batches = _image(source)
    assert max(len(sids) for _c, sids, _v in batches) == recovery.IMAGE_BATCH
    installed = _installed(source.schema, header, _reversed(batches))
    assert _shape(installed) == _shape(source)
    assert store_digest(installed)[1], "a virtual class is populated"


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
