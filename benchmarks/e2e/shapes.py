"""The four deployment shapes behind one small op surface.

Each shape owns one store (and the processes serving it) and exposes
the same verbs over it -- ``create`` / ``set_value`` / ``remove`` /
``bulk_load`` / ``query`` / ``count`` / ``stats`` -- plus the timed block
loops built from them.  The verbs are the public API of the layer the
shape enters through (``ObjectStore``, ``StoreClient``,
``ShardedStore``); nothing here reaches into ``src/`` internals.

Handles are whatever that API hands back for an object: an
``Instance`` (embedded, churn), a surrogate id (served), a
``RemoteHandle`` (sharded).
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConformanceError, RemoteOpError, ShardWorkerError
from repro.lang.loader import load_schema
from repro.objects.store import ObjectStore
from repro.objects.surrogate import Surrogate
from repro.objects import transactions
from repro.scenarios.hospital import HOSPITAL_CDL
from repro.typesys.values import INAPPLICABLE, EnumSymbol

import gen

# Write-op codes of one block's op list: ``(code, x, y, z)``.
SET, CREATE, REMOVE, BAD_CREATE, BAD_SET = range(5)

LOW_BP = EnumSymbol("Low_BP")
IO_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# CPU placement
# ----------------------------------------------------------------------

def pin_to_one_cpu() -> List[int]:
    """Pin this process -- and so every server and worker child it
    starts -- to the first CPU it is allowed; returns all it was allowed.

    The loop is closed, so nothing ever runs beside anything else, and
    one CPU is one host-speed state: the calibration kernel then speaks
    for the servers' work too.  Measured on the build machine (README):
    unpinned, a process hop is bimodal (about 85 us when both ends
    happen to share a vCPU, 250 us when not); generator and children
    pinned *apart* spread 6-17% run to run; pinned *together*, 2-3%.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:1])
    return allowed


# ----------------------------------------------------------------------
# The shared surface
# ----------------------------------------------------------------------

class Shape:
    """Generic block loops over the verbs a subclass binds in
    :meth:`start`."""

    name = ""
    #: Exception classes an expected rejection arrives as.
    rejection: Tuple[type, ...] = (ConformanceError,)

    def __init__(self) -> None:
        self.physicians: List[object] = []
        self.psychologists: List[object] = []
        #: Objects created by the running write block, oldest first.
        self.live: deque = deque()

    # -- lifecycle (subclasses) -----------------------------------------

    def start(self, directory: str, fresh: bool) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def rebind(self) -> None:
        """Re-resolve the verbs bound straight to the program's methods
        (the tracer swaps those methods while a shape is running)."""

    def is_rejection(self, exc: Exception) -> bool:
        return True

    # -- population -----------------------------------------------------

    def create_doctors(self) -> None:
        general = EnumSymbol("General")
        cbt = EnumSymbol("CBT")
        self.physicians = [
            self.create_reference("Physician", {
                "name": f"doc{i}", "age": 40 + i, "specialty": general})
            for i in range(gen.N_PHYSICIANS)]
        self.psychologists = [
            self.create_reference("Psychologist", {
                "name": f"psy{i}", "age": 50 + i, "therapyStyle": cbt})
            for i in range(gen.N_PSYCHOLOGISTS)]

    def create_reference(self, cls: str, values: Dict[str, object]):
        return self.create(cls, values)

    def reference(self, handle):
        """The form ``handle`` takes as an attribute value."""
        return handle

    def bind(self, row: gen.Row) -> Tuple[Tuple[str, ...], Dict]:
        values: Dict[str, object] = {"name": row.name}
        if row.age is not None:
            values["age"] = row.age
        if row.classes is gen.ALCOHOLIC:
            values["treatedBy"] = self.reference(
                self.psychologists[row.doctor])
        else:
            values["treatedBy"] = self.reference(
                self.physicians[row.doctor])
            if row.classes is gen.HEMORRHAGING:
                values["bloodPressure"] = LOW_BP
        return row.classes, values

    # -- timed blocks ---------------------------------------------------

    def run_writes(self, ops: Sequence[tuple]) -> int:
        """Run one block of single-object writes; returns how many
        expected rejections were *not* rejected."""
        create, set_value, remove = self.create, self.set_value, self.remove
        live = self.live
        missed = 0
        for code, x, y, z in ops:
            if code == SET:
                set_value(x, y, z)
            elif code == CREATE:
                live.append(create(x, y))
            elif code == REMOVE:
                remove(live.popleft())
            else:
                try:
                    if code == BAD_CREATE:
                        create(x, y)
                    else:
                        set_value(x, y, z)
                except self.rejection as exc:
                    if not self.is_rejection(exc):
                        raise
                else:
                    missed += 1
        return missed

    def get_block(self, keys: Sequence) -> int:
        """Fetch each key and read its age; returns the sum read."""
        get_age = self.get_age
        total = 0
        for key in keys:
            total += get_age(key)
        return total

    def query_block(self, texts: Sequence[str]):
        """Run each text; returns (rows summed, last rows, last stats)."""
        query = self.query
        n_rows = 0
        rows = stats = None
        for text in texts:
            rows, stats = query(text)
            n_rows += len(rows)
        return n_rows, rows, stats

    # -- verification helpers -------------------------------------------

    def names(self, rows) -> List[tuple]:
        """Query rows as plain tuples (``None`` for an unset value)."""
        return [tuple(None if v is INAPPLICABLE else v for v in row)
                for row in rows]

    def skipped(self, stats) -> int:
        return stats.rows_skipped

    def shape_checks(self) -> List[tuple]:
        """``(name, got, expected)`` checks only this shape can make."""
        return []

    def store_digest(self) -> str:
        rows, _ = self.query(gen.DIGEST_ROWS)
        excused, _ = self.query(gen.DIGEST_EXCUSED)
        counts = sorted((cls, self.count(cls))
                        for cls in gen.DIGEST_CLASSES)
        return gen.digest([self.names(rows), self.names(excused), counts])


# ----------------------------------------------------------------------
# embedded / churn: the store in the benchmark process
# ----------------------------------------------------------------------

class Embedded(Shape):
    name = "embedded"

    def start(self, directory: str, fresh: bool) -> None:
        schema = load_schema(HOSPITAL_CDL) if fresh else None
        self.store = ObjectStore.open(
            directory, schema, durability="wal", sync="group")
        self.rebind()

    def rebind(self) -> None:
        store = self.store
        self.set_value = store.set_value
        self.remove = store.remove
        self.count = store.count
        self.stats = store.stats
        self.query = store.run_query
        self.checkpoint = store.checkpoint
        self.create_index = store.create_index

    def stop(self) -> None:
        self.store.close()

    def create(self, cls: str, values: Dict[str, object]):
        return self.store.create(cls, **values)

    def handle(self, sid: int):
        return self.store.get(Surrogate(sid))

    def key(self, handle):
        return handle.surrogate

    def bulk_load(self, rows):
        return self.store.bulk_load(rows, check="eager")

    def loaded(self, report, n: int) -> Sequence:
        return report.instances

    def remove_many(self, handles) -> None:
        remove = self.store.remove
        for handle in handles:
            remove(handle)

    def get_age(self, key):
        return self.store.snapshot().get(key).get_value("age")

    def get_block(self, keys: Sequence) -> int:
        # The MVCC read path a reader thread would take: resolve the
        # committed epoch, fetch, read.  Written out (no per-op adapter
        # call) because the op itself is a fraction of a microsecond.
        snapshot = self.store.snapshot
        total = 0
        for key in keys:
            total += snapshot().get(key).get_value("age")
        return total


class Churn(Embedded):
    """The same store used the other way: deferred bulk, transactional
    writes, every read behind a fresh write, more query texts than the
    plan cache holds."""

    name = "churn"

    def start(self, directory: str, fresh: bool) -> None:
        super().start(directory, fresh)
        #: The patient whose indexed ``age`` the pre-read write flips.
        self.scratch = None
        self.flip = 0

    def bulk_load(self, rows):
        store = self.store
        report = store.bulk_load(rows, check="deferred")
        problems = store.validate_dirty()
        if problems:
            raise AssertionError(f"deferred batch left {problems[:3]}")
        return report

    def run_txn(self, ops: Sequence[tuple]) -> List[object]:
        """One transaction; returns what it created."""
        create, set_value, remove = self.create, self.set_value, self.remove
        live = self.live
        made = []
        with transactions.transaction(self.store):
            for code, x, y, z in ops:
                if code == SET:
                    set_value(x, y, z)
                elif code == REMOVE:
                    remove(live.popleft())
                else:           # CREATE, or the BAD_CREATE closing ops
                    made.append(create(x, y))
        return made

    def run_writes(self, txns: Sequence[tuple]) -> int:
        """``txns`` is a list of ``(ops, aborts)``: each op list runs
        as one transaction; ``aborts`` marks the ones whose last op is
        an unexcused contradiction, expected to roll all four back."""
        run_txn, live = self.run_txn, self.live
        missed = 0
        for ops, aborts in txns:
            try:
                made = run_txn(ops)
            except ConformanceError:
                if not aborts:
                    raise
            else:
                if aborts:
                    missed += 1
                live.extend(made)
        return missed

    def write(self) -> None:
        """The committed write in front of every read."""
        self.flip ^= 1
        self.set_value(self.scratch, "age", 41 + self.flip)

    def get_block(self, keys: Sequence) -> int:
        get_age, write = self.get_age, self.write
        total = 0
        for key in keys:
            write()
            total += get_age(key)
        if self.flip:
            write()
        return total

    def query_block(self, texts: Sequence[str]):
        query, write = self.query, self.write
        n_rows = 0
        rows = stats = None
        for text in texts:
            write()
            rows, stats = query(text)
            n_rows += len(rows)
        if self.flip:
            write()
        return n_rows, rows, stats


# ----------------------------------------------------------------------
# served: the embedded store behind StoreService in a forked process
# ----------------------------------------------------------------------

def _serve(directory: str, fresh: bool, conn) -> None:
    from repro.net.server import StoreService
    schema = load_schema(HOSPITAL_CDL) if fresh else None
    store = ObjectStore.open(directory, schema, durability="wal",
                             sync="group")
    service = StoreService(store)
    conn.send(service.run_background())
    conn.recv()
    service.shutdown()
    store.close()


class Served(Shape):
    name = "served"
    rejection = (RemoteOpError,)

    def is_rejection(self, exc: Exception) -> bool:
        return exc.remote_type == "ConformanceError"

    def start(self, directory: str, fresh: bool) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve, args=(directory, fresh, child_conn))
        self.process.start()
        child_conn.close()
        if not self.conn.poll(IO_TIMEOUT):
            self.process.terminate()
            self.process.join()
            raise RuntimeError("server process failed to come up")
        self.connect(*self.conn.recv())

    def connect(self, host: str, port: int) -> None:
        from repro.net.client import StoreClient, ref
        self.client = client = StoreClient(host, port, pool_size=1,
                                           timeout=IO_TIMEOUT)
        self.reference = ref
        self.set_value = client.set_value
        self.remove = client.remove
        self.count = client.count
        self.stats = client.stats
        self.checkpoint = client.checkpoint
        self.create_index = client.create_index

    def stop(self) -> None:
        self.client.close()
        self.conn.send("stop")
        self.process.join(IO_TIMEOUT)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
            raise RuntimeError("server process did not stop")
        self.conn.close()

    def create(self, cls: str, values: Dict[str, object]) -> int:
        return self.client.create(cls, values)["sid"]

    def handle(self, sid: int) -> int:
        return sid

    def key(self, handle: int) -> int:
        return handle

    def bulk_load(self, rows):
        return self.client.bulk(rows, check="eager")

    def loaded(self, ack, n: int) -> Sequence[int]:
        # The ack carries no surrogates; patients are created in
        # surrogate order, so the newest n are the batch.
        return self.client.extent_ids("Patient")[-n:]

    def remove_many(self, handles) -> None:
        self.client.txn([{"op": "remove", "sid": sid}
                         for sid in handles])

    def get_age(self, key: int):
        return self.client.get(key)["values"]["age"]

    def query(self, text: str):
        out = self.client.query(text)
        return out["rows"], out["stats"]

    def names(self, rows) -> List[tuple]:
        return [tuple(None if isinstance(v, dict) and v.get("$") == "na"
                      else v for v in values)
                for _sid, values in rows]

    def skipped(self, stats) -> int:
        return stats["rows_skipped"]


# ----------------------------------------------------------------------
# sharded: two worker processes behind the in-process router
# ----------------------------------------------------------------------

class Sharded(Shape):
    name = "sharded"
    rejection = (ShardWorkerError,)
    N_SHARDS = 2
    processes = True

    def is_rejection(self, exc: Exception) -> bool:
        return exc.remote_type == "ConformanceError"

    def start(self, directory: str, fresh: bool) -> None:
        from repro.sharding.router import ShardedStore
        if fresh:
            self.store = ShardedStore(
                load_schema(HOSPITAL_CDL), self.N_SHARDS,
                processes=self.processes, directory=directory,
                durability="wal", sync="group")
        else:
            self.store = ShardedStore.open(directory,
                                           processes=self.processes)
        self.rebind()

    def rebind(self) -> None:
        store = self.store
        self.set_value = store.set_value
        self.remove = store.remove
        self.count = store.count
        self.stats = store.stats
        self.query = store.query
        self.checkpoint = store.checkpoint
        self.create_index = store.create_index
        self.handle = store.handle

    def stop(self) -> None:
        self.store.close()

    def create(self, cls: str, values: Dict[str, object]):
        return self.store.create(cls, **values)

    def create_reference(self, cls: str, values: Dict[str, object]):
        # Reference entities live on every shard, so any patient can
        # point at them wherever it is placed.
        return self.store.create(cls, broadcast=True, **values)

    def key(self, handle):
        return handle.surrogate

    def bulk_load(self, rows):
        return self.store.bulk_load(rows, check="eager")

    def loaded(self, handles, n: int) -> Sequence:
        return handles

    def remove_many(self, handles) -> None:
        remove = self.store.remove
        for handle in handles:
            remove(handle)

    def get_age(self, key):
        return self.store.get(key).get_value("age")

    def shape_checks(self) -> List[tuple]:
        """Pruning must be visible: the selective query goes to the one
        shard holding its cohort, the scan to every shard holding
        patients, the deduction-refuted query to none."""
        counters = self.store.stats_counters
        doctors = gen.N_PHYSICIANS + gen.N_PSYCHOLOGISTS
        holding = sum(1 for shard in self.store.shard_stats()
                      if shard["objects"] > doctors)
        checks = []
        for name, text, expected in (("sel", gen.SEL, 1),
                                     ("scan", gen.SCAN, holding),
                                     ("refuted", gen.REFUTED, 0)):
            before = counters.shards_dispatched
            self.query(text)
            checks.append((f"shards dispatched by {name}",
                           counters.shards_dispatched - before, expected))
        return checks


# ----------------------------------------------------------------------
# In-process variants: what the traced replay and the "without the
# process hop" probes run, so one process sees all the work.
# ----------------------------------------------------------------------

class ThreadServed(Served):
    """``served`` with the service on a thread of this process."""

    def start(self, directory: str, fresh: bool) -> None:
        from repro.net.server import StoreService
        schema = load_schema(HOSPITAL_CDL) if fresh else None
        self.store = ObjectStore.open(directory, schema, durability="wal",
                                      sync="group")
        self.service = StoreService(self.store)
        self.connect(*self.service.run_background())

    def stop(self) -> None:
        self.client.close()
        self.service.shutdown()
        self.store.close()


class LocalSharded(Sharded):
    """``sharded`` with the shards in this process: router, codec and
    worker code without the process hop."""

    processes = False


SHAPES = {"embedded": Embedded, "churn": Churn, "served": Served,
          "sharded": Sharded}
IN_PROCESS = {"embedded": Embedded, "churn": Churn, "served": ThreadServed,
              "sharded": LocalSharded}
