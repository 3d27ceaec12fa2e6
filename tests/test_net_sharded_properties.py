"""Sharded-over-network equivalence suites (marker: ``net_sharded``).

The contract under test: a client speaking the wire protocol cannot
tell whether the service it reached is backed by one store or by a
``ShardedStore`` over N shards.  Hypothesis drives the same mutation
sequence through two live services -- a single-store primary and a
sharded one -- and every query's wire payload (rows, ``rows_skipped``,
aggregate folds) plus a full observable-state digest read back over
the wire must agree, including across an online ``alter`` and aborted
transactions.  A separate test proves the vector-token contract
survives a full worker restart, and a smoke test runs the whole stack
over real shard processes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConformanceError, ReproError
from repro.net import tokens as epoch_tokens
from repro.net.backends import open_backend
from repro.net.client import StoreClient, ref
from repro.net.server import StoreService
from repro.objects import ObjectStore
from repro.query.compiler import ON_UNSAFE
from repro.scenarios import build_hospital_schema
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.sharding.router import ShardedStore
from repro.typesys import EnumSymbol

pytestmark = pytest.mark.net_sharded

SCHEMA = build_hospital_schema()
IO_TIMEOUT = 10.0
N_PATIENTS = 5

EXTRA_CLASSES = ("Alcoholic", "Ambulatory_Patient", "Hemorrhaging_Patient")

DIGEST_CLASSES = ("Hospital", "Physician", "Patient") + EXTRA_CLASSES

SET_CHOICES = (
    ("age", 30), ("age", 45), ("age", 200),
    ("bloodPressure", "Normal_BP"),
    ("bloodPressure", "Low_BP"),
    ("treatedBy", "physician"),
    ("treatedAt", "hospital"),
)

UNSET_CHOICES = ("age", "bloodPressure", "treatedBy", "treatedAt")

CONJUNCTS = (
    "p.age = 30", "p.age < 40",
    "p.bloodPressure = 'Low_BP",
    "p in Hemorrhaging_Patient", "p not in Hemorrhaging_Patient",
    "p in Alcoholic", "p not in Alcoholic",
    "p.age = 30 or p.age = 45",
    "p.treatedBy in Physician",
)

SELECTS = ("p.name", "p.age", "p.name, p.age", "count",
           "count p.age, total p.age", "avg p.age, min p.age, max p.age",
           # Folds a name fails: non-numeric, skipping next to a count
           # (both orders), and a mixed operand that does not order.
           "total p.name", "avg p.name", "count p.name, total p.name",
           "total p.name, count p.name",
           "min when p.age < 40 then p.name else p.age end",
           "max when p in Alcoholic then p.name else p.age end, count")

# The online-evolution step: the Alcoholic class grows an age excuse,
# exactly the ``add_excuse`` used by the in-process equivalence suite,
# expressed as the CDL text ``alter`` ships over the wire.
ALTERED_CDL = HOSPITAL_CDL.replace(
    "  treatedBy: Psychologist excuses treatedBy on Patient;\nend",
    "  treatedBy: Psychologist excuses treatedBy on Patient;\n"
    "  age: 1..200 excuses age on Person;\nend",
)
assert ALTERED_CDL != HOSPITAL_CDL


class _World:
    """One live service + client over a fresh store."""

    def __init__(self, store):
        self.sharded = isinstance(store, ShardedStore)
        self.store = store
        self.service = StoreService(store)
        self.service.run_background()
        self.client = StoreClient(*self.service.address,
                                  timeout=IO_TIMEOUT)

    def populate(self):
        kw = {"broadcast": True} if self.sharded else {}
        client = self.client
        hospital = client.create(
            "Hospital", {"accreditation": EnumSymbol("Federal")},
            **kw)["sid"]
        physician = client.create(
            "Physician", {"name": "doc", "age": 50,
                          "specialty": EnumSymbol("General")},
            **kw)["sid"]
        self.entities = {"hospital": hospital, "physician": physician}
        self.patients = [
            client.create("Patient",
                          {"name": f"p{i}", "age": 20 + i,
                           "treatedBy": ref(physician),
                           "bloodPressure": EnumSymbol("Low_BP")})["sid"]
            for i in range(N_PATIENTS)
        ]

    def apply(self, op):
        """Run one mutation; a remote rejection normalises to the
        original error's type name -- the comparable outcome tag."""
        kind, idx = op[0], op[1]
        sid, client = self.patients[idx], self.client
        try:
            if kind == "set":
                client.set_value(sid, op[2],
                                 self._value(op[3]))
            elif kind == "unset":
                client.unset_value(sid, op[2])
            elif kind == "classify":
                client.classify(sid, op[2])
            elif kind == "declassify":
                client.declassify(sid, op[2])
            elif kind == "remove":
                client.remove(sid)
        except ReproError as exc:        # the server's own type
            return type(exc).__name__
        return None

    def _value(self, key):
        if isinstance(key, int):
            return key
        if key in self.entities:
            return ref(self.entities[key])
        return EnumSymbol(key)

    def digest(self):
        """Observable state read back over the wire: every surrogate
        reachable from any class extent, with classes and encoded
        values."""
        sids = set()
        for cls in DIGEST_CLASSES:
            sids.update(self.client.extent_ids(cls))
        out = []
        for sid in sorted(sids):
            got = self.client.get(sid)
            out.append((sid, tuple(sorted(got["classes"])),
                        tuple(sorted((name, repr(value)) for name, value
                                     in got["values"].items()))))
        return tuple(out)

    def close(self):
        self.client.close()
        self.service.shutdown()
        close = getattr(self.store, "close", None)
        if close is not None:            # plain ObjectStore has none
            close()


def _worlds(n_shards):
    single = _World(ObjectStore(SCHEMA))
    sharded = _World(ShardedStore(SCHEMA, n_shards, processes=False))
    return single, sharded


def _reply(world, query, on_unsafe):
    """The reply less its stats but for the skip/return counts, or the
    error's type name."""
    try:
        out = world.client.query(query, on_unsafe=on_unsafe)
    except ReproError as exc:
        return type(exc).__name__
    stats = out.pop("stats")
    return out, stats["rows_skipped"], stats["rows_returned"]


def _assert_wire_equivalent(single, sharded, query):
    for on_unsafe in ON_UNSAFE:
        assert _reply(single, query, on_unsafe) == \
            _reply(sharded, query, on_unsafe), (query, on_unsafe)


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
    min_size=0, max_size=10,
)

_queries = st.lists(
    st.tuples(
        st.lists(st.sampled_from(CONJUNCTS), min_size=0, max_size=2),
        st.sampled_from(SELECTS),
    ),
    min_size=1, max_size=3,
)


def _render(conjuncts, select):
    where = f" where {' and '.join(conjuncts)}" if conjuncts else ""
    return f"for p in Patient{where} select {select}"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_shards=st.sampled_from((1, 2, 4)), ops=_ops, more_ops=_ops,
       queries=_queries, alter=st.booleans())
def test_sharded_service_equals_single_service(n_shards, ops, more_ops,
                                               queries, alter):
    single, sharded = _worlds(n_shards)
    try:
        single.populate()
        sharded.populate()
        assert single.patients == sharded.patients  # allocator parity

        removed = set()

        def drive(batch):
            for op in batch:
                if op[1] in removed:
                    continue
                out_s = single.apply(op)
                out_h = sharded.apply(op)
                assert out_h == out_s, (op, out_s, out_h)
                if op[0] == "remove" and out_s is None:
                    removed.add(op[1])

        drive(ops)
        rendered = [_render(c, s) for c, s in queries]
        for query in rendered:
            _assert_wire_equivalent(single, sharded, query)
        assert single.digest() == sharded.digest()

        if alter:
            # Online evolution over the wire, then keep mutating: the
            # successor epoch must land on every shard before the next
            # op executes.
            for world in (single, sharded):
                ack = world.client.alter(ALTERED_CDL, "Alcoholic")
                assert ack["violations"] == []
            drive(more_ops)
            for query in rendered:
                _assert_wire_equivalent(single, sharded, query)
            assert single.digest() == sharded.digest()
    finally:
        sharded.close()
        single.close()


@pytest.mark.parametrize("n_shards", [2, 4])
def test_aborted_txn_leaves_both_services_identical(n_shards):
    single, sharded = _worlds(n_shards)
    try:
        single.populate()
        sharded.populate()
        before_s, before_h = single.digest(), sharded.digest()
        # The second sub-op violates Person.age's 1..120 range: the
        # whole envelope must unwind on both sides, leaving the wire
        # digests exactly where they were.
        bad = [
            {"op": "create", "cls": "Ward",
             "values": {"floor": 3, "name": "W"}},
            {"op": "create", "cls": "Patient",
             "values": {"name": "bad", "age": 999}},
        ]
        for world in (single, sharded):
            with pytest.raises(ConformanceError):
                world.client.txn(bad)
        assert single.digest() == before_s
        assert sharded.digest() == before_h
        # And the stores keep agreeing afterwards (allocator included):
        good = [{"op": "create", "cls": "Ward",
                 "values": {"floor": 5, "name": "ok"}}]
        acked = [world.client.txn(good)["created"]
                 for world in (single, sharded)]
        assert acked[0] == acked[1]
        assert single.digest() == sharded.digest()
    finally:
        sharded.close()
        single.close()


def test_vector_token_read_your_writes_across_restart(tmp_path):
    """A write acked with a vector token stays readable -- and
    ``token_wait`` on that token succeeds immediately -- after the
    whole sharded store is torn down and recovered from disk."""
    directory = str(tmp_path / "fleet")
    store = ShardedStore(SCHEMA, 2, processes=False,
                         directory=directory, durability="wal",
                         sync="group")
    service = StoreService(store)
    service.run_background()
    client = StoreClient(*service.address, timeout=IO_TIMEOUT)
    token = {}
    try:
        doc = client.create("Physician", {"name": "doc", "age": 50},
                            broadcast=True)["sid"]
        sids = []
        for i in range(6):
            ack = client.create("Patient",
                                {"name": f"p{i}", "age": 20 + i,
                                 "treatedBy": ref(doc)})
            token = epoch_tokens.merge(token, ack["token"])
            sids.append(ack["sid"])
        assert len(token) == 2           # writes landed on both shards
    finally:
        client.close()
        service.shutdown()
        store.close()

    backend = open_backend(directory, processes=False)
    service = StoreService(backend)
    service.run_background()
    client = StoreClient(*service.address, timeout=IO_TIMEOUT)
    try:
        out = client.token_wait(token, timeout=IO_TIMEOUT)
        assert epoch_tokens.covers(out["position"], token)
        assert client.count("Patient") == 6
        for i, sid in enumerate(sids):
            got = client.get(sid)
            assert got["values"]["age"] == 20 + i
            assert got["values"]["treatedBy"] == doc
    finally:
        client.close()
        service.shutdown()
        backend.close()


def test_process_backed_sharded_service_smoke():
    """The full stack -- client sockets, service threads, router,
    real shard worker processes -- serving reads and writes."""
    store = ShardedStore(SCHEMA, 2, processes=True)
    service = StoreService(store)
    service.run_background()
    client = StoreClient(*service.address, timeout=30.0)
    try:
        assert client.ping()["shards"] == 2
        doc = client.create("Physician", {"name": "doc", "age": 50},
                            broadcast=True)["sid"]
        acks = [client.create("Patient",
                              {"name": f"p{i}", "age": 20 + i,
                               "treatedBy": ref(doc)})
                for i in range(6)]
        token = {}
        for ack in acks:
            token = epoch_tokens.merge(token, ack["token"])
        out = client.token_wait(token, timeout=30.0)
        assert epoch_tokens.covers(out["position"], token)
        names = client.query("for p in Patient where p.age >= 23 "
                             "select p.name")["cols"][0]
        assert sorted(names) == ["p3", "p4", "p5"]
        out = client.bulk([[["Patient"],
                            {"name": f"b{i}", "age": 30,
                             "treatedBy": ref(doc)}]
                           for i in range(4)])
        assert out["objects"] == 4
        assert client.count("Patient") == 10
        stats = client.stats()
        assert stats["net.writes_routed"] >= 8
        assert stats["shard.objects_routed"] >= 10
    finally:
        client.close()
        service.shutdown()
        store.close()
