"""Sharded-store fast suite: wire codec, routing, masking, pruning,
scatter-gather equivalence -- all in-process (``processes=False``), so
tier-1 covers the subsystem without paying process start-up.  The
multi-process, Hypothesis-equivalence, and crash-recovery suites live
in ``test_sharded_properties.py`` under the ``sharded`` marker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.columnar import SurrogateSet
from repro import codec
from repro.errors import (
    ConformanceError,
    NoSuchObjectError,
    ShardingError,
    StorageError,
    UnknownClassError,
)
from repro.objects import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.query.parser import parse_query
from repro.query.planner import execute_planned
from repro.scenarios import build_hospital_schema
from repro.sharding import wire
from repro.sharding.pruning import extract_facts, profile_refuted
from repro.sharding.router import ShardedStore
from repro.storage.shards import shard_directory
from repro.typesys import EnumSymbol

from tests.faultfs import store_digest

SCHEMA = build_hospital_schema()


def _norm(value):
    return value.surrogate.id if hasattr(value, "surrogate") else value


def _rows(rows):
    return sorted(tuple(_norm(v) for v in row) for row in rows)


def _twin_world(sharded: ShardedStore, single: ObjectStore):
    """The same little hospital on both stores (broadcast reference
    entities on the sharded side)."""
    for store in (single, sharded):
        kw = {"broadcast": True} if isinstance(store, ShardedStore) else {}
        hosp = store.create("Hospital",
                            accreditation=EnumSymbol("Federal"), **kw)
        doc = store.create("Physician", name="doc", age=40,
                           specialty=EnumSymbol("General"), **kw)
        patients = []
        for i in range(24):
            patients.append(store.create(
                "Patient", name=f"p{i}", age=20 + i, treatedAt=hosp,
                treatedBy=doc, bloodPressure=EnumSymbol("Low_BP")))
        for i in range(5):
            store.classify(patients[i], "Hemorrhaging_Patient")
        store.set_value(patients[3], "age", 55)
        store.unset_value(patients[7], "age")


@pytest.fixture()
def twin():
    single = ObjectStore(SCHEMA)
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    _twin_world(sharded, single)
    return single, sharded


# --------------------------------------------------------------------------
# Wire codec
# --------------------------------------------------------------------------

def test_chunk_codec_roundtrips():
    members = SurrogateSet(Surrogate(i) for i in (0, 1, 63, 64, 4095,
                                                  4096, 99999))
    encoded = wire.encode_chunks(members)
    assert encoded["count"] == len(members)
    decoded = wire.decode_chunks(encoded)
    assert decoded == members
    assert list(decoded.ids()) == list(members.ids())


def test_chunk_codec_survives_json_framing():
    members = SurrogateSet(Surrogate(i) for i in range(0, 10000, 7))
    text = wire.encode_command({"op": "extent",
                                "extent": wire.encode_chunks(members)})
    decoded = wire.decode_command(text)
    assert wire.decode_chunks(decoded["extent"]) == members


# --------------------------------------------------------------------------
# The pipe endpoint, both ends in this process
# --------------------------------------------------------------------------

@pytest.fixture()
def pipe_pair():
    """Both ends of one ``multiprocessing`` pipe as ``wire.PipeEnd``
    objects, and the raw connections (closing one is EOF at the other)."""
    left, right = multiprocessing.Pipe()
    yield wire.PipeEnd(left), wire.PipeEnd(right), left, right
    left.close()
    right.close()


def test_a_long_text_arrives_over_several_reads_whole(pipe_pair,
                                                      monkeypatch):
    sender, receiver, _, _ = pipe_pair
    text = wire.encode_command({"op": "bulk", "rows": [
        [i, ["Person"], {"name": f"n{i}"}] for i in range(60_000)]})
    assert len(text) >= 1 << 20
    reads, got = [], []
    real_read = os.read
    monkeypatch.setattr(wire.os, "read", lambda fd, size: (
        fd == receiver._fd and reads.append(size)) or real_read(fd, size))
    reader = threading.Thread(target=lambda: got.append(receiver.recv()))
    reader.start()
    sender.send(text)       # blocks until the reader drains the pipe
    reader.join(10)
    assert got == [text]
    assert len(reads) >= 2 and reads[0] == wire.FIRST_READ


def test_a_non_ascii_text_round_trips(pipe_pair):
    sender, receiver, _, _ = pipe_pair
    text = wire.encode_command({"name": "Zürich — 病院 🏥"})
    sender.send(text)
    assert receiver.wait(1) and receiver.recv() == text
    receiver.send("")
    assert sender.recv() == ""


def test_a_frame_split_inside_its_header_comes_out_whole(pipe_pair):
    _, receiver, left, _ = pipe_pair
    frame = (2).to_bytes(wire.HEADER, "big") + b"{}"
    os.write(left.fileno(), frame[:2])
    got = []
    reader = threading.Thread(target=lambda: got.append(receiver.recv()))
    reader.start()
    time.sleep(0.05)        # the reader's first read holds 2 bytes
    os.write(left.fileno(), frame[2:])
    reader.join(10)
    assert got == ["{}"]


def test_eof_mid_frame_is_eof(pipe_pair):
    _, receiver, left, _ = pipe_pair
    os.write(left.fileno(), (100).to_bytes(wire.HEADER, "big") + b"{}")
    left.close()
    with pytest.raises(EOFError):
        receiver.recv()
    with pytest.raises(EOFError):       # and at a frame boundary
        receiver.recv()


def test_bytes_past_a_frame_are_a_protocol_fault(pipe_pair):
    _, receiver, left, _ = pipe_pair
    os.write(left.fileno(), (2).to_bytes(wire.HEADER, "big") + b"{}{}")
    with pytest.raises(ShardingError, match="2 bytes past the end"):
        receiver.recv()


def test_a_text_too_long_for_the_header_is_refused(pipe_pair):
    class HugeBytes(bytes):
        def __len__(self):
            return 1 << 32

    class Huge(str):
        def encode(self, *args):
            return HugeBytes()

    with pytest.raises(ShardingError, match="too long"):
        pipe_pair[0].send(Huge())


def test_value_codec_roundtrips_enums_and_refs():
    store = ObjectStore(SCHEMA)
    addr = store.create("Address", street="a", city="b",
                        state=EnumSymbol("NY"))
    encoded = codec.encode_values(
        {"home": addr, "age": 30, "state": EnumSymbol("NY")})
    decoded = codec.decode_values(
        encoded, lambda sid: store.get(Surrogate(sid)))
    assert decoded["home"] is addr
    assert decoded["age"] == 30
    assert decoded["state"] == EnumSymbol("NY")


# --------------------------------------------------------------------------
# Routing and replication
# --------------------------------------------------------------------------

def test_surrogates_match_single_store(twin):
    single, sharded = twin
    assert sorted(o.surrogate.id for o in single.instances()) == sorted(
        [sid for sid in sharded._owners] + list(sharded._broadcast))


def test_same_profile_objects_cluster():
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    handles = [sharded.create("Patient", name=f"p{i}", age=30)
               for i in range(50)]
    shards = {sharded._owner_of(h.surrogate.id) for h in handles}
    assert len(shards) == 1  # below the span threshold: one shard


def test_references_pin_to_the_referenced_shard():
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    ward = sharded.create("Ward", floor=3, name="W")
    for i in range(8):
        patient = sharded.create("Patient", name=f"p{i}", age=30,
                                 ward=ward)
        assert (sharded._owner_of(patient.surrogate.id)
                == sharded._owner_of(ward.surrogate.id))


def test_broadcast_references_never_pin():
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    doc = sharded.create("Physician", name="d", age=40,
                         specialty=EnumSymbol("General"),
                         broadcast=True)
    handles = [sharded.create("Patient", name=f"p{i}", age=30,
                              treatedBy=doc)
               for i in range(20)]
    # Placement still follows the profile policy (they cluster), not
    # the replica (which resolves on every shard).
    shards = {sharded._owner_of(h.surrogate.id) for h in handles}
    assert len(shards) == 1


def test_conflicting_pins_raise():
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    # Distinct profiles hash to distinct home shards; find two.
    seeds = {}
    seeds["Ward"] = sharded.create("Ward", floor=3, name="W")
    seeds["Physician"] = sharded.create(
        "Physician", name="d", age=40, specialty=EnumSymbol("General"))
    seeds["Hospital"] = sharded.create(
        "Hospital", accreditation=EnumSymbol("Federal"))
    owners = {name: sharded._owner_of(h.surrogate.id)
              for name, h in seeds.items()}
    assert len(set(owners.values())) > 1
    apart = [name for name in owners
              if owners[name] != owners["Ward"]]
    other = seeds[apart[0]]
    kwargs = {"ward": seeds["Ward"],
              "treatedBy" if apart[0] == "Physician"
              else "treatedAt": other}
    with pytest.raises(ShardingError):
        sharded.create("Patient", name="x", age=30, **kwargs)


def test_broadcast_entities_mask_to_one_owner(twin):
    single, sharded = twin
    assert sharded.count("Hospital") == single.count("Hospital") == 1
    assert sharded.count("Physician") == 1
    rows, _stats = sharded.query("for h in Hospital select h")
    assert len(rows) == 1


def test_broadcast_virtual_anchor_is_rejected():
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    hosp = sharded.create("Hospital", broadcast=True,
                          accreditation=EnumSymbol("Federal"))
    # Tubercular_Patient.treatedAt anchors Hospital$1 (virtual): a
    # broadcast replica must not be pulled in on one shard only.
    with pytest.raises(ShardingError):
        sharded.create("Tubercular_Patient", name="t", age=30,
                       treatedAt=hosp)
    patient = sharded.create("Patient", name="p", age=30,
                             treatedAt=hosp)
    with pytest.raises(ShardingError):
        sharded.classify(patient, "Tubercular_Patient")
    # Routed (non-broadcast) hospitals anchor fine (an accreditation
    # value would legitimately violate Hospital$1's excuse, so leave
    # it unset -- the single store behaves identically).
    local = sharded.create("Hospital")
    sharded.create("Tubercular_Patient", name="t2", age=30,
                   treatedAt=local)
    assert sharded.count("Hospital$1") == 1


def test_unknown_class_and_conformance_errors_propagate():
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    with pytest.raises(UnknownClassError):
        sharded.create("Nope", name="x")
    with pytest.raises(ConformanceError) as err:
        sharded.create("Patient", name="x", age=500)
    # The failed create burns a surrogate, exactly like a single store,
    # and is refused with the same message and violation record.
    single = ObjectStore(SCHEMA)
    with pytest.raises(ConformanceError) as single_err:
        single.create("Patient", name="x", age=500)
    assert (str(err.value), err.value.violation) == \
        (str(single_err.value), single_err.value.violation)
    ok_single = single.create("Patient", name="y", age=30)
    ok_sharded = sharded.create("Patient", name="y", age=30)
    assert ok_single.surrogate.id == ok_sharded.surrogate.id


def test_remove_and_handles(twin):
    single, sharded = twin
    sid = sorted(sharded._owners)[0]
    sharded.remove(sharded.handle(sid))
    single.remove(single.get(Surrogate(sid)))
    assert len(sharded) == len(single)
    q = "for x in Patient select x.name"
    assert _rows(sharded.query(q)[0]) == _rows(
        execute_planned(q, single)[0])


# --------------------------------------------------------------------------
# Command counts: a write costs what it touches (exact, no timings)
# --------------------------------------------------------------------------

def _commands(sharded: ShardedStore, run) -> int:
    before = sharded.stats_counters.commands_sent
    run()
    return sharded.stats_counters.commands_sent - before


@pytest.fixture()
def counted():
    sharded = ShardedStore(SCHEMA, 4, processes=False)
    doc = sharded.create("Physician", name="d", age=40,
                         specialty=EnumSymbol("General"), broadcast=True)
    hosp = sharded.create("Hospital", broadcast=True,
                          accreditation=EnumSymbol("Federal"))
    return sharded, doc, hosp


def test_routed_writes_are_one_command_each(counted):
    sharded, doc, hosp = counted
    made = []
    assert _commands(sharded, lambda: made.append(sharded.create(
        "Patient", name="p", age=30, treatedBy=doc, treatedAt=hosp))) == 1
    patient = made[0]
    ward = sharded.create("Ward", floor=3, name="W")
    # A routed reference pins the create: still one command.
    assert _commands(sharded, lambda: sharded.create(
        "Patient", name="q", age=31, ward=ward, treatedBy=doc)) == 1
    for write in (
            lambda: sharded.set_value(patient, "age", 44),
            # No virtual class originates at ``treatedBy``: the schema
            # says this set cannot anchor, so nobody is asked anything.
            lambda: sharded.set_value(patient, "treatedBy", doc),
            lambda: sharded.unset_value(patient, "age"),
            lambda: sharded.classify(patient, "Hemorrhaging_Patient"),
            lambda: sharded.declassify(patient, "Hemorrhaging_Patient"),
            lambda: sharded.remove(patient)):
        assert _commands(sharded, write) == 1


def test_broadcast_writes_are_one_command_per_shard(counted):
    sharded, doc, _hosp = counted
    assert _commands(sharded, lambda: sharded.create(
        "Physician", name="e", age=41, specialty=EnumSymbol("General"),
        broadcast=True)) == sharded.n_shards
    assert _commands(sharded, lambda: sharded.set_value(
        doc, "age", 50)) == sharded.n_shards


def test_anchoring_set_still_asks_who_is_written(counted):
    """``treatedAt`` is Hospital$1's origin: the guard needs the written
    object's classes, one ``get`` more -- and it still fires."""
    sharded, _doc, hosp = counted
    patient = sharded.create("Patient", name="p", age=30)
    assert _commands(sharded, lambda: sharded.set_value(
        patient, "treatedAt", hosp)) == 2
    tubercular = sharded.create("Tubercular_Patient", name="t", age=30)
    with pytest.raises(ShardingError, match="anchor"):
        sharded.set_value(tubercular, "treatedAt", hosp)


def test_bulk_load_is_one_command_per_shard_touched(counted):
    """One staging command per shard touched, plus the commit that makes
    the batch all-or-nothing across them."""
    sharded, doc, hosp = counted
    rows = [("Patient", {"name": f"b{i}", "age": 30 + i % 40,
                         "treatedBy": doc, "treatedAt": hosp})
            for i in range(700)]    # past SPAN_THRESHOLD: spreads
    loaded = []
    sent = _commands(sharded, lambda: loaded.extend(
        sharded.bulk_load(rows)))
    shards = {sharded._owner_of(h.surrogate.id) for h in loaded}
    assert len(shards) == 2 and sent == 2 * len(shards)
    assert sharded.count("Patient") == 700


def test_looking_at_a_handle_costs_nothing(counted):
    from repro.typesys.values import is_entity, value_repr
    sharded, doc, _hosp = counted
    other = sharded.handle(doc.surrogate.id)

    def look():
        assert is_entity(doc)
        assert "@" in repr(doc) and value_repr(doc).startswith("<entity")
        assert codec.encode_value(doc) == {"$": "ref",
                                          "id": doc.surrogate.id}
        assert doc == other and hash(doc) == hash(other)
        assert doc in {other}

    assert _commands(sharded, look) == 0
    assert _commands(sharded, lambda: doc.memberships) == 1


def test_closed_store_refuses_every_command(counted):
    sharded, doc, _hosp = counted
    sharded.close()
    for call in (lambda: sharded.create("Patient", name="p", age=30),
                 lambda: sharded.count("Patient"),
                 lambda: doc.get_value("age")):
        with pytest.raises(ShardingError, match="closed"):
            call()


@pytest.mark.parametrize("garbled", ["{", "[1]", "7", '{"seq": 3}',
                                     '{"error": "boom"}'])
def test_an_undecodable_reply_is_typed_and_the_gather_drains(counted,
                                                             garbled):
    """Shard 0's answer to one ``count`` is not a result envelope: a
    ``ShardingError`` naming the shard, raised after the other shards'
    replies are drained -- so none of them answers the previous
    question later."""
    sharded, _doc, _hosp = counted
    sharded.create("Patient", name="p", age=30)
    backend = sharded._backends[0]
    real_recv = backend.recv

    def recv_once_garbled(timeout=None):
        real_recv(timeout)      # the real reply arrived, then got mangled
        backend.recv = real_recv
        return garbled

    backend.recv = recv_once_garbled
    with pytest.raises(ShardingError, match="shard 0") as caught:
        sharded.count("Patient")
    assert type(caught.value) is ShardingError  # the router's own
    for shard_id in range(sharded.n_shards):
        assert sharded._call(shard_id, {"op": "ping"})["shard"] == shard_id
    assert sharded.count("Patient") == 1


# --------------------------------------------------------------------------
# Pruning pre-pass units
# --------------------------------------------------------------------------

def _facts(text):
    return extract_facts(parse_query(text), SCHEMA)


def test_extract_facts_tiers():
    facts = _facts("for x in Patient where x in Hemorrhaging_Patient "
                   "and x.age > 30 and x not in Alcoholic "
                   "and x.treatedBy not in Psychologist select x")
    assert facts.free_pos == ("Hemorrhaging_Patient",)
    assert facts.guarded_neg == ("Alcoholic",)
    assert set(facts.guard_attrs) == {"age", "treatedBy"}
    assert facts.path_neg == (("treatedBy", "Psychologist"),)


def test_extract_facts_stops_at_unsummarizable_conjuncts():
    facts = _facts("for x in Patient where x.treatedBy.age > 30 "
                   "and x in Alcoholic select x")
    # The two-hop path ends collection: the membership conjunct after
    # it must NOT become a fact of any tier.
    assert facts.free_pos == ()
    assert facts.guarded_pos == ()
    assert not facts.prunes_beyond_source


def test_profile_refuted_source_and_free_facts():
    facts = _facts("for x in Hemorrhaging_Patient select x")
    refuted, via = profile_refuted(
        SCHEMA, facts, frozenset({"Patient"}), frozenset(), True)
    assert refuted and not via
    refuted, _ = profile_refuted(
        SCHEMA, facts,
        frozenset({"Patient", "Hemorrhaging_Patient"}), frozenset(),
        True)
    assert not refuted


def test_profile_refuted_guard_needs_totality():
    facts = _facts("for x in Patient where x.age > 30 "
                   "and x in Alcoholic select x")
    profile = frozenset({"Patient"})
    # Without age total, the x.age conjunct could skip: no pruning.
    refuted, _ = profile_refuted(SCHEMA, facts, profile,
                                 frozenset(), True)
    assert not refuted
    refuted, _ = profile_refuted(SCHEMA, facts, profile,
                                 frozenset({"age"}), True)
    assert refuted


def test_profile_refuted_by_deduction_requires_clean():
    facts = _facts("for y in Patient where y.treatedBy not in Physician"
                   " and y.treatedBy not in Psychologist select y")
    profile = frozenset({"Patient"})
    total = frozenset({"treatedBy"})
    refuted, via = profile_refuted(SCHEMA, facts, profile, total, True)
    assert refuted and via
    refuted, _ = profile_refuted(SCHEMA, facts, profile, total, False)
    assert not refuted


def test_selective_queries_dispatch_to_fewer_shards(twin):
    _single, sharded = twin
    base = sharded.stats_counters.snapshot()
    rows, _ = sharded.query("for x in Hemorrhaging_Patient select x.name")
    assert len(rows) == 5
    after = sharded.stats_counters.snapshot()
    dispatched = after["shards_dispatched"] - base["shards_dispatched"]
    assert dispatched < sharded.n_shards     # the e2e sharded gate's shape
    assert after["shards_pruned"] > base["shards_pruned"]


# --------------------------------------------------------------------------
# Map refresh: a stale map is fetched again only where it would prune
# --------------------------------------------------------------------------

HEMORRHAGING = "for x in Hemorrhaging_Patient select x.name"


@pytest.fixture()
def split():
    """Patients on both of two shards (a routed physician pins four of
    them to shard 0), the one Hemorrhaging_Patient on shard 1."""
    single = ObjectStore(SCHEMA)
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    patients = {}
    for store in (single, sharded):
        kw = {"broadcast": True} if store is sharded else {}
        hosp = store.create("Hospital",
                            accreditation=EnumSymbol("Federal"), **kw)
        doc = store.create("Physician", name="doc", age=40,
                           specialty=EnumSymbol("General"), **kw)
        pin = store.create("Physician", name="pin", age=41,
                           specialty=EnumSymbol("General"))
        patients[store] = [store.create(
            "Patient", name=f"p{i}", age=30 + i, treatedAt=hosp,
            treatedBy=doc if i < 4 else pin,
            bloodPressure=EnumSymbol("Low_BP")) for i in range(8)]
        store.classify(patients[store][0], "Hemorrhaging_Patient")
    owners = [sharded._owner_of(sharded._sid_of(p))
              for p in patients[sharded]]
    assert owners == [1] * 4 + [0] * 4
    return single, sharded, patients


def _on_both(split, run) -> None:
    single, sharded, patients = split
    for store in (single, sharded):
        run(store, patients[store])


def _counted_query(split, text) -> dict:
    """Run ``text`` on both stores, assert the sharded rows and skips
    are the single store's, and return the sharded counter deltas."""
    single, sharded, _patients = split
    base = sharded.stats_counters.snapshot()
    rows_h, stats_h = sharded.query(text)
    rows_s, stats_s = execute_planned(text, single)
    assert _rows(rows_h) == _rows(rows_s)
    assert stats_h.rows_skipped == stats_s.rows_skipped
    after = sharded.stats_counters.snapshot()
    return {name: after[name] - base[name] for name in (
        "map_refreshes", "shards_dispatched", "shards_pruned")}


def _write_both_shards(store, patients) -> None:
    store.set_value(patients[1], "age", 60)     # shard 1
    store.set_value(patients[5], "age", 61)     # shard 0


def test_a_stale_map_that_keeps_its_shard_is_not_fetched(split):
    _counted_query(split, "for x in Patient select x.name")
    _on_both(split, _write_both_shards)
    assert _counted_query(split, "for x in Patient select x.name") == {
        "map_refreshes": 0, "shards_dispatched": 2, "shards_pruned": 0}


def test_only_the_stale_map_that_prunes_is_fetched(split):
    _counted_query(split, "for x in Patient select x.name")
    _on_both(split, _write_both_shards)
    assert _counted_query(split, HEMORRHAGING) == {
        "map_refreshes": 1, "shards_dispatched": 1, "shards_pruned": 1}


def _check_gained_profile(split, after_warm=lambda: None) -> None:
    """Shard 0's map prunes the query; then a Hemorrhaging_Patient is
    made there.  The stale map is fetched again and the shard asked."""
    _counted_query(split, HEMORRHAGING)
    after_warm()
    _on_both(split, lambda store, patients: store.classify(
        patients[5], "Hemorrhaging_Patient"))
    assert _counted_query(split, HEMORRHAGING) == {
        "map_refreshes": 1, "shards_dispatched": 2, "shards_pruned": 0}


def test_a_stale_map_that_prunes_a_gained_profile_is_fetched(split):
    _check_gained_profile(split)


def test_mutant_stale_refutation_trusted_is_killed(split, monkeypatch):
    """The router prunes on the map it holds, fetched or not."""
    def trusting():
        monkeypatch.setattr(ShardedStore, "_refresh_maps",
                            lambda self, ids: [self._maps[i] for i in ids])

    with pytest.raises(AssertionError):
        _check_gained_profile(split, trusting)


def test_current_maps_cost_no_scatter(split, monkeypatch):
    """With no stale map, pruning sends nothing: not even an empty
    ``shard_map`` round."""
    _counted_query(split, HEMORRHAGING)
    scatter, rounds = ShardedStore._scatter, []

    def counted(self, commands):
        rounds.append(len(commands))
        return scatter(self, commands)

    monkeypatch.setattr(ShardedStore, "_scatter", counted)
    assert _counted_query(split, HEMORRHAGING) == {
        "map_refreshes": 0, "shards_dispatched": 1, "shards_pruned": 1}
    assert _counted_query(split, "for x in Patient select x.name") == {
        "map_refreshes": 0, "shards_dispatched": 2, "shards_pruned": 0}
    assert 0 not in rounds


def test_a_profile_that_left_is_dispatched_to_exactly(split):
    """Shard 1's last Hemorrhaging_Patient leaves: its stale map still
    keeps the shard, which answers no row and no skip."""
    text = ("for x in Patient where x in Hemorrhaging_Patient "
            "and x.age > 30 select x.name")
    _counted_query(split, text)
    _on_both(split, lambda store, patients: store.declassify(
        patients[0], "Hemorrhaging_Patient"))
    assert _counted_query(split, text) == {
        "map_refreshes": 0, "shards_dispatched": 1, "shards_pruned": 1}


# --------------------------------------------------------------------------
# Scatter-gather equivalence (spot checks; the property suite does more)
# --------------------------------------------------------------------------

QUERIES = [
    "for x in Patient select x, x.name",
    "for x in Patient where x.age > 30 select x.name, x.age",
    "for x in Hemorrhaging_Patient where x.age < 25 select x.name",
    "for x in Person where x in Patient and x.age >= 20 select x",
    "for y in Patient where y.treatedBy not in Psychologist "
    "and y not in Alcoholic select y.name",
    # Real and negative literals survive the router's re-dispatched text.
    "for x in Patient where x.age > -1 and 29.5 < x.age select x.name",
]


@pytest.mark.parametrize("query", QUERIES)
def test_rows_and_skips_match_single_store(twin, query):
    single, sharded = twin
    rows_s, stats_s = execute_planned(query, single)
    rows_h, stats_h = sharded.query(query)
    assert _rows(rows_h) == _rows(rows_s)
    assert stats_h.rows_skipped == stats_s.rows_skipped
    assert stats_h.rows_returned == stats_s.rows_returned


AGGS = [
    "for x in Patient select count",
    "for x in Patient select count x.age, total x.age",
    "for x in Patient where x.age > 30 select avg x.age, min x.age, "
    "max x.age",
    "for x in Alcoholic select avg x.age",   # empty extent: INAPPLICABLE
]


@pytest.mark.parametrize("query", AGGS)
def test_aggregate_merge_matches_single_store(twin, query):
    single, sharded = twin
    rows_s, stats_s = execute_planned(query, single)
    rows_h, stats_h = sharded.query(query)
    assert rows_h == rows_s
    assert stats_h.rows_skipped == stats_s.rows_skipped


def test_extents_union_exactly(twin):
    single, sharded = twin
    for name in ("Patient", "Hemorrhaging_Patient", "Hospital",
                 "Person"):
        assert sorted(sharded.extent_surrogates(name).ids()) == sorted(
            s.id for s in single.snapshot().extent_surrogates(name))
        assert sharded.count(name) == single.count(name)


# --------------------------------------------------------------------------
# Schema replication
# --------------------------------------------------------------------------

def test_alter_replicates_to_all_shards(twin):
    single, sharded = twin
    for store in (single, sharded):
        store.add_excuse("Alcoholic", "age", (1, 200), ["Person"])
    # The successor epoch must be live on every shard: an age beyond
    # Person's range now conforms for Alcoholics everywhere.
    for store in (single, sharded):
        for i in range(6):
            p = store.create("Patient", name=f"a{i}", age=30)
            store.classify(p, "Alcoholic")
            store.set_value(p, "age", 150)
    q = "for x in Person where x.age > 120 select x.name"
    assert _rows(sharded.query(q)[0]) == _rows(
        execute_planned(q, single)[0])
    assert sharded.stats_counters.schema_replications == 1


def test_alter_violations_are_aggregated_not_vetoed(twin):
    single, sharded = twin
    from repro.schema.attribute import AttributeDef
    from repro.schema.builder import as_type
    for store in (single, sharded):
        for i in range(8):
            store.create("Ward", floor=i + 1, name=f"W{i}")
    new_def = single.schema.get("Ward").with_attribute(
        AttributeDef("floor", as_type((1, 2)), ()))
    expected = single.alter_class(new_def)
    got = sharded.alter_class(new_def)
    assert expected   # the narrowing stranded some wards
    assert ({h.surrogate.id for h, _v in got}
            == {o.surrogate.id for o, _v in expected})


# --------------------------------------------------------------------------
# Stats
# --------------------------------------------------------------------------

def _bitset(stats) -> dict:
    return {k: v for k, v in stats.items() if k.startswith("bitset.")}


def _queries(store, run) -> None:
    store.create_index("age")
    for age in (21, 30, 55):
        run(f"for p in Patient where p.age = {age} select p.name")
    run("for p in Patient where p not in Hemorrhaging_Patient select p.name")


def test_in_process_shards_report_their_own_bitset_counts(twin):
    _single, sharded = twin
    _queries(sharded, sharded.query)
    per_shard = [_bitset(shard) for shard in sharded.shard_stats()]
    assert len({tuple(counts.values()) for counts in per_shard}) > 1
    aggregate = _bitset(sharded.stats())
    assert aggregate == {name: sum(counts[name] for counts in per_shard)
                         for name in aggregate}
    assert aggregate["bitset.words_anded"] > 0


def test_another_stores_work_moves_no_sharded_counter(twin):
    single, sharded = twin
    before = [_bitset(shard) for shard in sharded.shard_stats()]
    moved = _bitset(single.stats())
    _queries(single, single.run_query)
    single.set_value(single.extent("Patient")[0], "age", 60)
    assert _bitset(single.stats()) != moved
    assert [_bitset(shard) for shard in sharded.shard_stats()] == before


def test_sharded_stats_shapes(twin):
    _single, sharded = twin
    per_shard = sharded.shard_stats()
    assert len(per_shard) == sharded.n_shards
    for shard in per_shard:
        assert "objects" in shard and "shard.objects" in shard
        assert "wal_bytes" in shard
    aggregate = sharded.stats()
    assert aggregate["shards"] == sharded.n_shards
    assert aggregate["routed_objects"] == len(sharded)
    assert aggregate["objects"] == sum(
        shard["objects"] for shard in per_shard)
    for name in ("shard.queries_routed", "shard.shards_pruned",
                 "shard.commands_sent"):
        assert name in aggregate


# --------------------------------------------------------------------------
# Durability (in-process backends; process crash tests are marked sharded)
# --------------------------------------------------------------------------

def test_durable_reopen_preserves_population_and_sids(tmp_path):
    directory = str(tmp_path / "shardedstore")
    sharded = ShardedStore(SCHEMA, 3, processes=False,
                           directory=directory, durability="wal")
    hosp = sharded.create("Hospital", broadcast=True,
                          accreditation=EnumSymbol("Federal"))
    for i in range(9):
        sharded.create("Patient", name=f"p{i}", age=30 + i,
                       treatedAt=hosp)
    sharded.close()

    reopened = ShardedStore.open(directory, processes=False)
    assert len(reopened) == 10
    assert reopened.count("Patient") == 9
    assert reopened.count("Hospital") == 1   # replicas still masked
    fresh = reopened.create("Patient", name="new", age=44)
    assert fresh.surrogate.id == 11          # allocator resumed, no gap
    rows, _ = reopened.query(
        "for x in Patient where x.age = 44 select x.name")
    assert rows == [("new",)]
    reopened.close()


def test_shard_manifests_with_retired_engine_key_still_open(tmp_path):
    """Shard directories written while stores had an ``engine=``
    selector carry it in every shard's MANIFEST; they reopen on the one
    checker with every shard's state intact."""
    directory = str(tmp_path / "shardedstore")
    sharded = ShardedStore(SCHEMA, 2, processes=False,
                           directory=directory, durability="wal")
    hosp = sharded.create("Hospital", broadcast=True,
                          accreditation=EnumSymbol("Federal"))
    for i in range(6):
        sharded.create("Patient", name=f"p{i}", age=30 + i,
                       treatedAt=hosp)
    sharded.checkpoint()
    sharded.create("Patient", name="tail", age=50)   # WAL tail

    def digests(router):
        return [store_digest(backend.server.store)
                for backend in router._backends]

    expected = digests(sharded)
    sharded.close()
    for shard_id in range(2):
        path = os.path.join(shard_directory(directory, shard_id),
                            "MANIFEST")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["store"]["engine"] = "full"
        with open(path, "w") as handle:
            json.dump(manifest, handle)

    reopened = ShardedStore.open(directory, processes=False)
    try:
        assert digests(reopened) == expected
        assert reopened.count("Patient") == 7
    finally:
        reopened.close()


def test_index_ddl_survives_reopen_on_every_shard(tmp_path):
    directory = str(tmp_path / "shardedstore")
    sharded = ShardedStore(SCHEMA, 2, processes=False,
                           directory=directory, durability="wal")
    for i in range(4):
        sharded.create("Patient", name=f"p{i}", age=30 + i)
    sharded.create_index("age")
    sharded.create_index("name")
    sharded.drop_index("name")
    sharded.close()
    reopened = ShardedStore.open(directory, processes=False)
    try:
        assert [backend.server.store.indexes.attributes()
                for backend in reopened._backends] == [("age",)] * 2
    finally:
        reopened.close()


def test_sid_reminted_after_a_rollback_replays(tmp_path):
    """A rolled-back router transaction frees its sids and leaves no
    trace in the shard's log, which holds the one create of the reminted
    sid -- the forced-surrogate pin is exact, on replay as when routed."""
    from repro.storage.fsio import OS_FS
    from repro.storage.recovery import read_manifest
    from repro.storage.wal import scan_wal
    directory = str(tmp_path / "shardedstore")
    sharded = ShardedStore(SCHEMA, 1, processes=False,
                           directory=directory, durability="wal")
    with pytest.raises(RuntimeError):
        with sharded.transaction():
            sharded.create("Ward", floor=1, name="gone")
            raise RuntimeError("abort")
    again = sharded.create("Ward", floor=2, name="kept")
    assert again.surrogate.id == 1
    sharded.close()
    shard = shard_directory(directory, 0)
    wal = read_manifest(OS_FS, shard)["wal"]
    records = scan_wal(OS_FS, os.path.join(shard, wal["file"])).records
    assert [(r.op, r.fields["sid"]) for r in records] == [("create", 1)]
    reopened = ShardedStore.open(directory, processes=False)
    try:
        assert reopened.get(1).get_value("name") == "kept"
        assert reopened.create("Ward", floor=3, name="next"
                               ).surrogate.id == 2
    finally:
        reopened.close()


def _rejected_batch(store):
    """4 Person rows, 4 Patient rows (another home shard) and a
    violating row: refused as a whole."""
    rows = [(cls, {"name": f"{cls}{i}", "age": 30 + i})
            for cls in ("Person", "Patient") for i in range(4)]
    with pytest.raises(ConformanceError):
        store.bulk_load(rows + [("Person", {"name": "x", "age": 999})],
                        check="eager")


def test_refused_bulk_batch_is_all_or_nothing_across_shards():
    single = ObjectStore(SCHEMA)
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    try:
        _rejected_batch(single)
        _rejected_batch(sharded)
        for store in (single, sharded):
            assert (store.count("Person"), store.count("Patient")) == (0, 0)
            with pytest.raises(NoSuchObjectError):
                store.get(Surrogate(1))
            assert store.create("Ward", floor=1, name="w").surrogate.id == 1
        assert sharded._profile_counts == {"Ward": 1}
    finally:
        sharded.close()


def test_remove_and_bulk_load_inside_a_transaction(twin):
    single, sharded = twin
    for store in (single, sharded):
        victim = store.extent("Patient")[0]
        before = len(store), store.count("Patient")
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.remove(victim)
                store.bulk_load([("Ward", {"floor": 1, "name": "w"})],
                                check="eager")
                assert store.count("Ward") == 1
                raise RuntimeError("abort")
        assert (len(store), store.count("Patient")) == before
        assert store.count("Ward") == 0
        assert store.get(victim.surrogate).get_value("name") == "p0"
        with store.transaction():
            store.remove(victim)
        assert store.count("Patient") == before[1] - 1
    assert _rows(sharded.query("for p in Patient select p.name")[0]) == \
        _rows(execute_planned("for p in Patient select p.name", single)[0])


def test_a_failed_commit_is_not_rolled_back_elsewhere():
    """Commit is not two-phase: when shard 1 cannot commit, shard 0's
    part of the scope stands and the router says so, typed."""
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    server = sharded._backends[1].server
    honest = server.handle

    def commit_fails(cmd):
        if cmd == {"op": "scope", "action": "commit"}:
            honest({"op": "scope", "action": "abort"})
            raise StorageError("disk full")
        return honest(cmd)

    server.handle = commit_fails
    try:
        with pytest.raises(StorageError) as failure:
            with sharded.transaction():
                person = sharded.create("Person", name="a", age=30)
                patient = sharded.create("Patient", name="b", age=30)
        assert (type(failure.value), str(failure.value),
                failure.value.shard_id) == (StorageError, "disk full", 1)
        assert [sharded._owner_of(h.surrogate.id)
                for h in (person, patient)] == [0, 1]
        assert person.get_value("name") == "a"
        assert sharded.count("Person") == 1
    finally:
        sharded.close()


@pytest.mark.parametrize("policy", ["synced", "flushed", "torn"])
def test_shard_manifest_is_never_torn(policy):
    """Crash at every filesystem operation of a manifest rewrite: what
    is left under the manifest's name is the old topology or the new
    one (or, first time, nothing) -- never a prefix."""
    from repro.storage.shards import SHARD_MANIFEST, write_shard_manifest
    from tests.faultfs import FaultFS, SimulatedCrash
    path = "/s/" + SHARD_MANIFEST
    probe = FaultFS()
    write_shard_manifest("/s", 2, "wal", "group", fs=probe)
    old = probe.read_bytes(path)
    for base in ({}, {path: old}):
        for point in range(1, probe.ops + 1):
            fs = FaultFS(dict(base), crash_at=point,
                         tear_writes=policy == "torn")
            with pytest.raises(SimulatedCrash):
                write_shard_manifest("/s", 4, "wal", "always", fs=fs)
            left = fs.crash_state(policy).get(path)
            if left is None:
                assert not base
            else:
                assert json.loads(left)["shards"] in (2, 4)
                assert left == old or json.loads(left)["shards"] == 4
        done = FaultFS(dict(base))
        write_shard_manifest("/s", 4, "wal", "always", fs=done)
        assert json.loads(done.crash_state(policy)[path])["shards"] == 4


def test_a_refused_schema_change_leaves_meta_and_shards_in_lockstep():
    """An unknown ``recheck`` used to commit on the meta store and then
    fail on every shard: the router went on admitting creates of a
    class no shard knew.  It is refused before meta changes -- as a
    request and through each of the three methods."""
    from repro.lang import load_schema, print_schema
    from repro.net.backends import ShardedBackend
    text = print_schema(SCHEMA)
    evolved = text + "\nclass Convalescent is-a Patient with\nend\n"
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    backend = ShardedBackend(sharded)
    try:
        with pytest.raises(StorageError, match="field 'recheck'"):
            backend.op_alter({"op": "alter", "schema": evolved,
                              "cls": "Convalescent", "recheck": "bogus"})
        for change in (
                lambda: sharded.alter_class(
                    load_schema(evolved).get("Convalescent"),
                    recheck="bogus"),
                lambda: sharded.add_excuse(
                    "Alcoholic", "treatedBy", "Psychologist", ["Patient"],
                    recheck="bogus"),
                lambda: sharded.retract_excuse(
                    "Alcoholic", "treatedBy", drop_attribute=True,
                    recheck="bogus")):
            with pytest.raises(ValueError, match="unknown recheck mode"):
                change()
        assert print_schema(sharded.schema) == text
        for shard_id in range(2):
            assert sharded._call(shard_id, {"op": "schema"}) == {
                "schema": text}
        with pytest.raises(UnknownClassError):
            sharded.create("Convalescent", name="c", age=30)
        assert backend.op_alter({"op": "alter", "schema": evolved,
                                 "cls": "Convalescent"})["violations"] == []
        assert sharded.create("Convalescent", name="c", age=30)
        assert sharded.count("Convalescent") == 1
    finally:
        sharded.close()


def test_anchoring_guard_reads_the_request():
    """One guard on the request: a create or bulk row is judged on what
    it carries, a ``set`` asks the shard for the classes, a
    ``classify`` for the values -- and a broadcast replica is never
    anchored into the virtual class by any of them, served or not."""
    from repro.net.backends import ShardedBackend
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    backend = ShardedBackend(sharded)
    try:
        hosp = sharded.create("Hospital", broadcast=True,
                              accreditation=EnumSymbol("Federal"))
        ref = codec.ref(hosp.surrogate.id)
        refused = [
            {"op": "create", "cls": "Tubercular_Patient",
             "values": {"name": "t", "age": 30, "treatedAt": ref}},
            {"op": "bulk", "rows": [[["Tubercular_Patient"], {
                "name": "t", "age": 30, "treatedAt": ref}]]},
        ]
        patient = sharded.create("Patient", name="p", age=30,
                                 treatedAt=hosp)
        tubercular = sharded.create("Tubercular_Patient", name="q", age=30)
        refused += [
            {"op": "classify", "sid": patient.surrogate.id,
             "cls": "Tubercular_Patient"},
            {"op": "set", "sid": tubercular.surrogate.id,
             "attr": "treatedAt", "value": ref},
            {"op": "txn", "ops": [{"op": "set", "sid": patient.surrogate.id,
                                   "attr": "age", "value": 31},
                                  {"op": "classify",
                                   "sid": patient.surrogate.id,
                                   "cls": "Tubercular_Patient"}]},
        ]
        for cmd in refused:
            with pytest.raises(ShardingError, match="anchor"):
                getattr(backend, "op_" + cmd["op"])(cmd)
        assert sharded.count("Hospital$1") == 0
        assert patient.get_value("age") == 30       # the txn rolled back
        assert sharded.count("Tubercular_Patient") == 1
    finally:
        sharded.close()


def test_a_request_reaches_a_shard_with_its_row_fields_only():
    """The router forwards a client's request as it came, but only the
    fields its row declares: what a router alone says to a shard --
    ``foreign`` (mask this replica), ``begin`` (open a scope) -- never
    gets through from outside."""
    from repro.net.backends import ShardedBackend
    sharded = ShardedStore(SCHEMA, 2, processes=False)
    backend = ShardedBackend(sharded)
    try:
        sid = backend.op_create({"cls": "Ward", "foreign": True,
                                 "begin": True,
                                 "values": {"floor": 1, "name": "w"}})["sid"]
        backend.op_set({"sid": sid, "attr": "floor", "value": 2,
                        "begin": True})
        assert backend.op_count({"cls": "Ward"}) == {"count": 1}
        with sharded.transaction():     # no scope was left open
            sharded.create("Ward", floor=3, name="v")
        assert sharded.count("Ward") == 2
        assert sharded.get(sid).get_value("floor") == 2
    finally:
        sharded.close()
