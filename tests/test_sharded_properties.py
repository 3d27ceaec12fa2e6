"""Sharded-store equivalence and crash suites (marker: ``sharded``).

Part 1 -- Hypothesis equivalence: the same mutation sequence applied to
a single ``ObjectStore`` and a ``ShardedStore(N)`` for N in {1, 2, 4}
must agree on every query's rows AND ``rows_skipped``, including across
an online schema-evolution step.  Partitioning, broadcast masking,
shard-map pruning, and aggregate merging are all under test at once:
any of them being inexact shows up as a row or skip-count mismatch.

Part 2 -- real processes: fork/spawn smoke tests, a crash-recovery
test that kills a worker mid-batch and reopens the directory, the pipe
transport's own contract (large messages, one command in flight,
crashes surfacing at once, survivors staying in step) and workers
exiting when their router is killed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ReproError,
    ShardCrashedError,
    ShardingError,
    ShardWorkerError,
)
from repro.objects import ObjectStore
from repro.query.planner import execute_planned
from repro.scenarios import build_hospital_schema
from repro.sharding.router import ShardedStore
from repro.typesys import EnumSymbol

pytestmark = pytest.mark.sharded

SCHEMA = build_hospital_schema()

N_PATIENTS = 6

EXTRA_CLASSES = ("Alcoholic", "Ambulatory_Patient", "Hemorrhaging_Patient")

# (attribute, value-key): ints stay ints, strings name either a
# broadcast reference entity or an enum symbol.  Deliberately includes
# values that violate conformance (age 200) -- both stores must reject
# them identically.
SET_CHOICES = (
    ("age", 30), ("age", 45), ("age", 200),
    ("bloodPressure", "Normal_BP"),
    ("bloodPressure", "High_BP"),
    ("bloodPressure", "Low_BP"),
    ("treatedBy", "physician"),
    ("treatedAt", "hospital"),
)

UNSET_CHOICES = ("age", "bloodPressure", "treatedBy", "treatedAt")

CONJUNCTS = (
    "p.age = 30", "p.age = 45", "p.age < 40",
    "p.bloodPressure = 'Low_BP",
    "p in Hemorrhaging_Patient", "p not in Hemorrhaging_Patient",
    "p in Alcoholic", "p not in Alcoholic",
    "p in Ambulatory_Patient",
    "p.age = 30 or p.age = 45",
    "p.treatedBy in Physician",
    # String and boolean literals: the router re-sends str(query), so
    # these only work when literals print in the lexer's own syntax.
    'p.name = "p2"', 'p.name != "p4"',
    "(p.age < 40) = true", "(p in Alcoholic) = false",
)

SELECTS = ("p.name", "p.age", "p.name, p.age", "p.name, true", "count",
           "count p.age, total p.age", "avg p.age, min p.age, max p.age")


def _norm(value):
    return value.surrogate.id if hasattr(value, "surrogate") else value


def _rows(rows):
    # key=repr: INAPPLICABLE is not orderable against ints, and both
    # sides are normalised the same way, so any total order works.
    return sorted((tuple(_norm(v) for v in row) for row in rows),
                  key=repr)


def _build_world(store):
    """Identical little hospital on either store kind; reference
    entities are broadcast on the sharded side so that set_value may
    target them from any shard."""
    kw = {"broadcast": True} if isinstance(store, ShardedStore) else {}
    hospital = store.create("Hospital",
                            accreditation=EnumSymbol("Federal"), **kw)
    physician = store.create("Physician", name="doc", age=50,
                             specialty=EnumSymbol("General"), **kw)
    patients = [
        store.create("Patient", name=f"p{i}", age=20 + i,
                     treatedBy=physician,
                     bloodPressure=EnumSymbol("Low_BP"))
        for i in range(N_PATIENTS)
    ]
    return patients, {"hospital": hospital, "physician": physician}


def _value(entities, key):
    if isinstance(key, int):
        return key
    entity = entities.get(key)
    return entity if entity is not None else EnumSymbol(key)


def _outcome(exc):
    """Normalise an exception to a comparable tag: remote worker
    failures carry the original error's type name."""
    if exc is None:
        return None
    if isinstance(exc, ShardWorkerError):
        return exc.remote_type
    return type(exc).__name__


def _apply(store, patients, entities, op):
    kind, idx = op[0], op[1]
    patient = patients[idx]
    try:
        if kind == "set":
            store.set_value(patient, op[2], _value(entities, op[3]))
        elif kind == "unset":
            store.unset_value(patient, op[2])
        elif kind == "classify":
            store.classify(patient, op[2])
        elif kind == "declassify":
            store.declassify(patient, op[2])
        elif kind == "remove":
            store.remove(patient)
    except ReproError as exc:
        return _outcome(exc)
    return None


_set_op = st.tuples(
    st.just("set"), st.integers(0, N_PATIENTS - 1),
    st.sampled_from(SET_CHOICES),
).map(lambda t: (t[0], t[1], t[2][0], t[2][1]))

_ops = st.lists(
    st.one_of(
        _set_op,
        st.tuples(st.just("unset"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(UNSET_CHOICES)),
        st.tuples(st.just("classify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("declassify"), st.integers(0, N_PATIENTS - 1),
                  st.sampled_from(EXTRA_CLASSES)),
        st.tuples(st.just("remove"), st.integers(0, N_PATIENTS - 1)),
    ),
    min_size=0, max_size=12,
)

_queries = st.lists(
    st.tuples(
        st.lists(st.sampled_from(CONJUNCTS), min_size=0, max_size=3),
        st.sampled_from(SELECTS),
    ),
    min_size=1, max_size=4,
)


def _render(conjuncts, select):
    where = f" where {' and '.join(conjuncts)}" if conjuncts else ""
    return f"for p in Patient{where} select {select}"


def _assert_equivalent(single, sharded, query):
    rows_s, stats_s = execute_planned(query, single)
    rows_h, stats_h = sharded.query(query)
    assert _rows(rows_h) == _rows(rows_s), query
    assert stats_h.rows_skipped == stats_s.rows_skipped, query
    assert stats_h.rows_returned == stats_s.rows_returned, query


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_shards=st.sampled_from((1, 2, 4)), ops=_ops, more_ops=_ops,
       queries=_queries, alter=st.booleans())
def test_sharded_store_equals_single_store(n_shards, ops, more_ops,
                                           queries, alter):
    single = ObjectStore(SCHEMA)
    sharded = ShardedStore(SCHEMA, n_shards, processes=False)
    try:
        pats_s, ents_s = _build_world(single)
        pats_h, ents_h = _build_world(sharded)

        removed = set()
        for op in ops:
            if op[1] in removed:
                continue
            out_s = _apply(single, pats_s, ents_s, op)
            out_h = _apply(sharded, pats_h, ents_h, op)
            assert out_h == out_s, (op, out_s, out_h)
            if op[0] == "remove" and out_s is None:
                removed.add(op[1])

        rendered = [_render(c, s) for c, s in queries]
        for query in rendered:
            _assert_equivalent(single, sharded, query)

        if alter:
            # Online schema evolution mid-sequence: the successor epoch
            # must land on every shard before the next op executes.
            for store in (single, sharded):
                store.add_excuse("Alcoholic", "age", (1, 200), ["Person"])
            for op in more_ops:
                if op[1] in removed:
                    continue
                out_s = _apply(single, pats_s, ents_s, op)
                out_h = _apply(sharded, pats_h, ents_h, op)
                assert out_h == out_s, (op, out_s, out_h)
                if op[0] == "remove" and out_s is None:
                    removed.add(op[1])
            for query in rendered:
                _assert_equivalent(single, sharded, query)
    finally:
        sharded.close()


# --------------------------------------------------------------------------
# Real worker processes
# --------------------------------------------------------------------------

START_METHODS = [m for m in ("fork", "spawn")
                 if m in multiprocessing.get_all_start_methods()]


@pytest.mark.parametrize("start_method", START_METHODS)
def test_process_backend_end_to_end(start_method):
    sharded = ShardedStore(SCHEMA, 2, processes=True,
                           start_method=start_method)
    try:
        pats, ents = _build_world(sharded)
        sharded.classify(pats[0], "Hemorrhaging_Patient")
        sharded.set_value(pats[1], "treatedAt", ents["hospital"])
        sharded.bulk_load([
            ("Patient", {"name": f"b{i}", "age": 99,
                         "treatedBy": ents["physician"]})
            for i in range(40)
        ])
        rows, _stats = sharded.query(
            "for p in Patient where p.age = 99 select p.name")
        assert len(rows) == 40
        rows, _stats = sharded.query("for p in Patient select count")
        assert rows == [(N_PATIENTS + 40,)]
        assert sharded.validate_all() == []
        stats = sharded.stats()
        assert stats["shards"] == 2
        assert stats["routed_objects"] == len(sharded)
    finally:
        sharded.close()


def test_worker_crash_is_reported_and_recovered(tmp_path):
    """Kill a worker mid-stream; the router surfaces ShardCrashedError,
    and reopening the directory recovers every acknowledged write."""
    directory = str(tmp_path / "crashstore")
    sharded = ShardedStore(SCHEMA, 2, processes=True,
                           directory=directory, durability="wal",
                           sync="always")
    hospital = sharded.create("Hospital", broadcast=True,
                              accreditation=EnumSymbol("Federal"))
    patients = [
        sharded.create("Patient", name=f"p{i}", age=30 + i,
                       treatedAt=hospital)
        for i in range(12)
    ]
    acked = 1 + len(patients)

    # Same-profile creates cluster, so crash the shard that owns the
    # Patient profile: the next Patient create must hit the corpse.
    target = sharded._owners[patients[0].surrogate.id]
    sharded.crash_shard(target)
    with pytest.raises(ShardCrashedError):
        sharded.create("Patient", name="post", age=20)
    sharded.close()

    reopened = ShardedStore.open(directory, processes=True)
    try:
        # Everything acknowledged before the crash survives
        # (sync="always"); the rejected create was never acknowledged
        # and must not resurface.
        assert len(reopened) == acked
        assert reopened.count("Hospital") == 1
        assert reopened.validate_all() == []
        rows, _stats = reopened.query(
            "for p in Patient where p.age > 29 select count")
        assert rows == [(12,)]
        existing = set(reopened._owners) | set(reopened._broadcast)
        fresh = reopened.create("Patient", name="fresh", age=33)
        assert fresh.surrogate.id not in existing
        assert fresh.surrogate.id > max(existing)
    finally:
        reopened.close()


def test_bulk_batch_is_all_or_nothing_per_shard(tmp_path):
    """A batch sent to a crashed shard must not partially apply: after
    recovery the store holds the whole seed batch and none of the
    failed batch."""
    directory = str(tmp_path / "bulkcrash")
    sharded = ShardedStore(SCHEMA, 2, processes=True,
                           directory=directory, durability="wal",
                           sync="always")
    seeded = sharded.bulk_load([
        ("Patient", {"name": f"s{i}", "age": 40}) for i in range(8)
    ])
    assert len(seeded) == 8
    target = sharded._owners[seeded[0].surrogate.id]
    sharded.crash_shard(target)
    with pytest.raises(ShardCrashedError):
        # Same profile, same shard: the whole batch lands on the corpse.
        sharded.bulk_load([
            ("Patient", {"name": f"x{i}", "age": 41}) for i in range(16)
        ])
    sharded.close()

    reopened = ShardedStore.open(directory, processes=True)
    try:
        rows, _stats = reopened.query(
            "for p in Patient where p.age = 40 select count")
        assert rows == [(8,)]   # the seed batch, fully intact
        rows, _stats = reopened.query(
            "for p in Patient where p.age = 41 select p.name")
        assert rows == []       # the failed batch left no trace
    finally:
        reopened.close()


# --------------------------------------------------------------------------
# The pipe transport: one command in flight, crashes surface at once
# --------------------------------------------------------------------------

def _bounded(run, seconds=90):
    """``run()`` on a thread, so a transport deadlock fails the test
    instead of hanging the suite."""
    outcome = []

    def target():
        try:
            outcome.append((run(), None))
        except BaseException as exc:    # re-raised on the test thread
            outcome.append((None, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"still blocked after {seconds}s: transport deadlock"
    value, exc = outcome[0]
    if exc is not None:
        raise exc
    return value


def _kill_workers(sharded):
    """Free any thread ``_bounded`` gave up on, so ``close`` cannot
    block behind it."""
    for backend in sharded._backends:
        backend.process.kill()
        backend.process.join(timeout=10)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_multi_megabyte_commands_and_replies_round_trip(start_method):
    """Both shards at once, each way far past the 64 KiB pipe buffer:
    a blocked ``send`` on one shard must never wait on another."""
    sharded = ShardedStore(SCHEMA, 2, processes=True,
                           start_method=start_method)
    try:
        names = [f"{i:05d}" + "n" * 1500 for i in range(3000)]
        loaded = _bounded(lambda: sharded.bulk_load(
            [("Patient", {"name": name, "age": 30}) for name in names]))
        per_shard = [0, 0]
        for handle in loaded:
            per_shard[sharded._owner_of(handle.surrogate.id)] += 1
        assert min(per_shard) * 1500 > 1_000_000   # MBs to each shard
        rows, _stats = _bounded(lambda: sharded.query(
            "for p in Patient select p.name"))
        assert sorted(name for (name,) in rows) == names
        assert sharded.count("Patient") == len(names)
    finally:
        _kill_workers(sharded)
        sharded.close()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_killed_worker_surfaces_without_a_poll_period(start_method):
    sharded = ShardedStore(SCHEMA, 2, processes=True,
                           start_method=start_method)
    try:
        pid = sharded._backends[0].process.pid
        os.kill(pid, signal.SIGSTOP)        # it cannot answer ...
        sharded._send(0, {"op": "ping"})    # ... the command in flight
        os.kill(pid, signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(ShardCrashedError):
            sharded._recv_ok(0)
        # EOF, not a liveness poll: the queue transport took >= 100 ms.
        assert time.monotonic() - started < 0.08
        with pytest.raises(ShardCrashedError):
            sharded._call(0, {"op": "ping"})
        assert sharded._call(1, {"op": "ping"})["shard"] == 1
    finally:
        sharded.close()


def test_second_send_with_a_reply_outstanding_is_refused():
    sharded = ShardedStore(SCHEMA, 2, processes=True)
    try:
        sharded._send(0, {"op": "ping"})
        with pytest.raises(ShardingError, match="in flight") as refusal:
            sharded._send(0, {"op": "ping"})
        assert not isinstance(refusal.value, ShardCrashedError)
        assert sharded._recv_ok(0)["shard"] == 0    # the first one's reply
        assert sharded.count("Patient") == 0        # and the pipe is clean
    finally:
        sharded.close()


def test_survivors_answer_their_own_questions_after_a_crash():
    """A broadcast that meets a dead shard must drain the replies it
    already asked the live shards for; undrained, every later reply
    from a survivor is the answer to the previous command."""
    sharded = ShardedStore(SCHEMA, 2, processes=True)
    try:
        people = [sharded.create("Person", name=f"n{i}", age=20 + i % 60)
                  for i in range(600)]      # spreads over both shards
        on_zero = [p for p in people
                   if sharded._owner_of(p.surrogate.id) == 0]
        assert 0 < len(on_zero) < len(people)
        sharded.crash_shard(1)
        with pytest.raises(ShardCrashedError):
            sharded.count("Person")
        with pytest.raises(ShardCrashedError):
            sharded.bulk_load([("Person", {"name": f"b{i}", "age": 30})
                               for i in range(1200)])
        with pytest.raises(ShardCrashedError):
            sharded.query("for p in Person select count")
        for person in on_zero[:5]:
            index = people.index(person)
            assert person.get_value("name") == f"n{index}"
            assert person.get_value("age") == 20 + index % 60
        sharded.set_value(on_zero[0], "age", 99)
        assert on_zero[0].get_value("age") == 99
    finally:
        sharded.close()


# --------------------------------------------------------------------------
# Orphans: a worker does not outlive a killed router
# --------------------------------------------------------------------------

_ROUTER_SCRIPT = """
import sys, time
from repro.scenarios import build_hospital_schema
from repro.sharding.router import ShardedStore

if __name__ == "__main__":
    store = ShardedStore(build_hospital_schema(), 2, processes=True,
                         directory=sys.argv[1], durability="wal",
                         sync="group", start_method=sys.argv[2])
    for i in range(40):
        store.create("Person", name=f"n{i}", age=30)
    print(*(backend.process.pid for backend in store._backends),
          flush=True)
    time.sleep(120)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.parametrize("start_method", START_METHODS)
def test_workers_do_not_outlive_a_killed_router(tmp_path, start_method):
    script = tmp_path / "router_main.py"
    script.write_text(_ROUTER_SCRIPT)
    directory = str(tmp_path / "orphaned")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    router = subprocess.Popen(
        [sys.executable, str(script), directory, start_method],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        pids = [int(pid) for pid in router.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
    finally:
        router.kill()
        router.wait(timeout=10)
    deadline = time.monotonic() + 8
    while any(_running(pid) for pid in pids):
        assert time.monotonic() < deadline, "shard workers were orphaned"
        time.sleep(0.05)
    # The orphans flushed their group-commit buffers on the way out:
    # every acknowledged write is there, and nobody else holds the WAL.
    reopened = ShardedStore.open(directory, processes=True,
                                 start_method=start_method)
    try:
        assert reopened.count("Person") == 40
        assert reopened.validate_all() == []
        reopened.create("Person", name="after", age=31)
    finally:
        reopened.close()
