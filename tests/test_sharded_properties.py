"""Sharded-store equivalence and crash suites (marker: ``sharded``).

Part 1 -- Hypothesis equivalence: the same mutation sequence applied to
a single ``ObjectStore`` and a ``ShardedStore(N)`` for N in {1, 2, 4}
must agree on every query's rows AND ``rows_skipped``, including across
an online schema-evolution step and transaction scopes (commits and
aborts over removes, bulk batches and broadcast entities, with the
counts read inside each scope).  Partitioning, broadcast masking,
shard-map pruning, aggregate merging and per-shard rollback are all
under test at once: any of them being inexact shows up as a row or
skip-count mismatch.  A router that skips one joined shard's abort is
killed within the bounded examples.

Part 2 -- real processes: fork/spawn smoke tests, a crash-recovery
test that kills a worker mid-batch and reopens the directory, the pipe
transport's own contract (large messages, one command in flight,
crashes surfacing at once, survivors staying in step), workers
exiting when their router is killed, and a transaction scope whose
router or worker dies leaving nothing behind.
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
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ReproError,
    ShardCrashedError,
    ShardingError,
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
    """Normalise an exception to a comparable tag: a worker's failure
    arrives as its own type."""
    return None if exc is None else type(exc).__name__


class _Abort(Exception):
    pass


def _write(store, patients, entities, op):
    kind = op[0]
    sharded = isinstance(store, ShardedStore)
    if kind == "create":
        store.create("Patient", name="t", age=op[1],
                     treatedBy=entities["physician"])
    elif kind == "bulk":
        store.bulk_load([("Patient", {"name": f"b{i}", "age": age,
                                      "treatedBy": entities["physician"]})
                         for i, age in enumerate(op[1])], check="eager")
    elif kind == "broadcast":
        store.create("Physician", name="d2", age=41,
                     specialty=EnumSymbol("General"),
                     **({"broadcast": True} if sharded else {}))
    elif kind == "set":
        store.set_value(patients[op[1]], op[2], _value(entities, op[3]))
    elif kind == "unset":
        store.unset_value(patients[op[1]], op[2])
    elif kind == "classify":
        store.classify(patients[op[1]], op[2])
    elif kind == "declassify":
        store.declassify(patients[op[1]], op[2])
    elif kind == "remove":
        store.remove(patients[op[1]])


def _apply(store, patients, entities, op, removed):
    """Run ``op`` unless it names a removed patient; returns the
    outcome and the patients it removed.  A ``txn`` runs its sub-ops
    in one scope, the first refusal (or a requested abort) rolling all
    of them back, and reports the counts it read inside the scope."""
    if op[0] != "txn":
        if op[0] in _NAMED and op[1] in removed:
            return "skipped", set()
        try:
            _write(store, patients, entities, op)
        except ReproError as exc:
            return _outcome(exc), set()
        return None, {op[1]} if op[0] == "remove" else set()
    gone, reads = set(removed), []
    try:
        with store.transaction():
            for sub in op[1]:
                if sub[0] in _NAMED and sub[1] in gone:
                    continue
                _write(store, patients, entities, sub)
                if sub[0] == "remove":
                    gone.add(sub[1])
                reads.append((store.count("Patient"),
                              store.count("Physician")))
            if op[2]:
                raise _Abort()
    except _Abort:
        return ("aborted", reads), set()
    except ReproError as exc:
        return (_outcome(exc), reads), set()
    return (None, reads), gone - removed


def _run(single, sharded, worlds, ops, removed):
    for op in ops:
        out_s, gone = _apply(single, *worlds[0], op, removed)
        out_h, _ = _apply(sharded, *worlds[1], op, removed)
        assert out_h == out_s, (op, out_s, out_h)
        removed |= gone


_set_op = st.tuples(
    st.just("set"), st.integers(0, N_PATIENTS - 1),
    st.sampled_from(SET_CHOICES),
).map(lambda t: (t[0], t[1], t[2][0], t[2][1]))

#: Op kinds whose second field names a patient.
_NAMED = ("set", "unset", "classify", "declassify", "remove")

_named_op = st.one_of(
    _set_op,
    st.tuples(st.just("unset"), st.integers(0, N_PATIENTS - 1),
              st.sampled_from(UNSET_CHOICES)),
    st.tuples(st.just("classify"), st.integers(0, N_PATIENTS - 1),
              st.sampled_from(EXTRA_CLASSES)),
    st.tuples(st.just("declassify"), st.integers(0, N_PATIENTS - 1),
              st.sampled_from(EXTRA_CLASSES)),
    st.tuples(st.just("remove"), st.integers(0, N_PATIENTS - 1)),
)

# Ages 200 are refused, so a scope also aborts on a sub-op's refusal.
_txn_op = st.tuples(
    st.just("txn"),
    st.lists(st.one_of(
        _named_op,
        st.tuples(st.just("create"), st.sampled_from((30, 45, 200))),
        st.tuples(st.just("bulk"), st.lists(
            st.sampled_from((30, 45, 200)), min_size=1, max_size=3)),
        st.tuples(st.just("broadcast")),
    ), min_size=1, max_size=5),
    st.booleans(),      # abort at the end
)

_ops = st.lists(st.one_of(_named_op, _txn_op), min_size=0, max_size=12)

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


def check_equivalence(n_shards, ops, more_ops, queries, alter):
    single = ObjectStore(SCHEMA)
    sharded = ShardedStore(SCHEMA, n_shards, processes=False)
    try:
        worlds = (_build_world(single), _build_world(sharded))
        removed = set()
        _run(single, sharded, worlds, ops, removed)
        rendered = [_render(c, s) for c, s in queries]
        for query in rendered:
            _assert_equivalent(single, sharded, query)

        if alter:
            # Online schema evolution mid-sequence: the successor epoch
            # must land on every shard before the next op executes.
            for store in (single, sharded):
                store.add_excuse("Alcoholic", "age", (1, 200), ["Person"])
            _run(single, sharded, worlds, more_ops, removed)
            for query in rendered:
                _assert_equivalent(single, sharded, query)
        # What every rollback must have restored: the population, the
        # replicas and the allocator.
        assert [len(sharded), sharded.count("Physician")] == \
            [len(single), single.count("Physician")]
        assert (sharded.create("Ward", floor=1, name="w").surrogate ==
                single.create("Ward", floor=1, name="w").surrogate)
    finally:
        sharded.close()


_equivalence_args = dict(n_shards=st.sampled_from((1, 2, 4)), ops=_ops,
                         more_ops=_ops, queries=_queries,
                         alter=st.booleans())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**_equivalence_args)
def test_sharded_store_equals_single_store(n_shards, ops, more_ops,
                                           queries, alter):
    check_equivalence(n_shards, ops, more_ops, queries, alter)


def test_mutant_one_joined_shards_abort_skipped_is_killed():
    """The router forgets one joined shard when it aborts: that shard's
    scope stays open, and the equivalence above must notice."""
    honest = ShardedStore._end_scope

    def mutant(self, joined, action):
        if action == "abort" and joined:
            joined = set(joined) - {max(joined)}
        honest(self, joined, action)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None, phases=(Phase.generate,),
              suppress_health_check=[HealthCheck.too_slow])
    @given(**_equivalence_args)
    def run(**args):
        check_equivalence(**args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardedStore, "_end_scope", mutant)
        with pytest.raises((AssertionError, ReproError)):
            run()


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


@pytest.mark.parametrize("start_method", START_METHODS)
def test_a_reply_that_times_out_stays_owed(start_method):
    """The poller's timeout, given in seconds, waits that long; the late
    reply is still owed, so the next receive returns it and no later
    question is answered with it."""
    sharded = ShardedStore(SCHEMA, 2, processes=True,
                           start_method=start_method)
    try:
        sharded.create("Person", name="a", age=30)
        backend = sharded._backends[0]
        pid = backend.process.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            sharded._send(0, {"op": "ping"})
            started = time.monotonic()
            with pytest.raises(ShardCrashedError, match="no result within"):
                backend.recv(timeout=0.5)
            assert 0.45 <= time.monotonic() - started < 5
            with pytest.raises(ShardingError, match="in flight"):
                sharded._send(0, {"op": "ping"})
        finally:
            os.kill(pid, signal.SIGCONT)
        assert sharded._recv_ok(0)["shard"] == 0
        assert sharded.count("Person") == 1
    finally:
        sharded.close()


@pytest.mark.skipif("fork" not in START_METHODS, reason="needs fork")
def test_no_selector_is_built_per_hop(monkeypatch):
    """``multiprocessing.connection.wait`` builds a selector per call;
    forked workers inherit the patch, so neither end of any hop below
    -- nor ``close`` -- may go through it."""
    import multiprocessing.connection

    def no_selectors(*args, **kwargs):
        raise AssertionError("a selector was built for a shard hop")

    monkeypatch.setattr(multiprocessing.connection, "wait", no_selectors)
    sharded = ShardedStore(SCHEMA, 2, processes=True, start_method="fork")
    try:
        doc = sharded.create("Physician", name="d", age=40,
                             specialty=EnumSymbol("General"),
                             broadcast=True)
        patient = sharded.create("Patient", name="p", age=37,
                                 treatedBy=doc)
        sharded.classify(patient, "Hemorrhaging_Patient")
        sharded.set_value(patient, "age", 38)
        assert sharded.get(patient.surrogate.id).get_value("age") == 38
        sharded.bulk_load([("Patient", {"name": f"b{i}", "age": 79})
                           for i in range(20)])
        rows, _stats = sharded.query(
            "for x in Hemorrhaging_Patient where x.age = 38 select x.name")
        assert rows == [("p",)]
        rows, _stats = sharded.query(
            "for p in Patient where p.age > 78 select p.name")
        assert len(rows) == 20
        with sharded.transaction():
            sharded.set_value(patient, "age", 39)
        with pytest.raises(RuntimeError):
            with sharded.transaction():
                sharded.set_value(patient, "age", 40)
                raise RuntimeError("abort")
        assert patient.get_value("age") == 39
    finally:
        sharded.close()
    assert not any(backend.process.is_alive()
                   for backend in sharded._backends)


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
    directory, start_method, sync, in_scope = sys.argv[1:]
    store = ShardedStore(build_hospital_schema(), 2, processes=True,
                         directory=directory, durability="wal",
                         sync=sync, start_method=start_method)
    for i in range(40):
        store.create("Person", name=f"n{i}", age=30)
    if in_scope == "scope":     # Person and Patient: both shards
        scope = store.transaction()
        scope.__enter__()
        store.create("Person", name="open", age=31)
        store.create("Patient", name="open", age=31)
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


def _kill_router(tmp_path, start_method, sync="group", in_scope=""):
    """Run the router script, kill it, wait for its workers to go; the
    directory it leaves."""
    script = tmp_path / "router_main.py"
    script.write_text(_ROUTER_SCRIPT)
    directory = str(tmp_path / "orphaned")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with subprocess.Popen(
            [sys.executable, str(script), directory, start_method, sync,
             in_scope], stdout=subprocess.PIPE, text=True, env=env) as router:
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
    return directory


@pytest.mark.parametrize("start_method", START_METHODS)
def test_workers_do_not_outlive_a_killed_router(tmp_path, start_method):
    directory = _kill_router(tmp_path, start_method)
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


def test_a_router_killed_inside_a_scope_leaves_none_of_it(tmp_path):
    """The orphans abort the open scope instead of flushing it, though
    every write in it reached a shard (and ``sync="always"``)."""
    directory = _kill_router(tmp_path, START_METHODS[0], sync="always",
                             in_scope="scope")
    reopened = ShardedStore.open(directory, processes=True)
    try:
        assert reopened.count("Person") == 40
        assert len(reopened) == 40
        assert reopened.create("Person", name="after", age=31
                               ).surrogate.id == 41
    finally:
        reopened.close()


def test_a_worker_killed_mid_scope_aborts_every_survivor(tmp_path):
    """The scope raises the crash, typed; the abort still reaches the
    shard after the dead one, so the survivor's next write is its own
    and nothing of the scope survives reopen."""
    directory = str(tmp_path / "midscope")
    sharded = ShardedStore(SCHEMA, 2, processes=True, directory=directory,
                           durability="wal", sync="always")
    try:
        sharded.create("Person", name="kept", age=30)       # shard 0
        with pytest.raises(ShardCrashedError):
            with sharded.transaction():
                sharded.create("Patient", name="in", age=31)    # shard 1
                sharded.create("Person", name="in", age=31)
                sharded.crash_shard(0)
                sharded.create("Person", name="dead", age=32)
        assert sharded._call(1, {"op": "count", "cls": "Person"}) == \
            {"count": 0}
        after = sharded.create("Patient", name="after", age=33)
        assert sharded._owner_of(after.surrogate.id) == 1
    finally:
        sharded.close()
    reopened = ShardedStore.open(directory, processes=True)
    try:
        rows, _stats = reopened.query("for p in Person select p.name")
        assert sorted(rows) == [("after",), ("kept",)]
    finally:
        reopened.close()
