"""Per-layer metrics, measured from outside.

Two kinds, neither of which needs a line changed under ``src/``:

* **times** of calls into public functions of one layer, on inputs taken
  from the workloads' own op streams (the same generator, the same
  queries, records read back from a real WAL).  All probes run
  interleaved, block by block, and each reports the mean of its fastest
  quarter of blocks -- the estimator of the gated pass;
* **counts**: deltas of the counters the program already keeps
  (``store.stats()`` / ``client.stats()`` / ``ShardedStore.stats()``)
  across a known number of ops.  They repeat exactly.

The probes use their own small stores (``LAYER_N`` patients).  The
counts that depend on how a workload uses its store come from a replay
of that workload (``replay.py``).  ``net.ping_us`` and
``sharding.rtt_us`` are the two process hops the traced replay cannot
see, because it keeps every span in one process.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from typing import Callable, Dict, List, Optional, Sequence

import gen
import shapes
import workload
from timing import Normalised, clock, fastest_quarter, median

LAYER_N = 4_000
BLOCKS = 8
_TICK = os.sysconf("SC_CLK_TCK")

Metrics = Dict[str, tuple]


class Probe:
    """``run(n)`` makes ``n`` calls; ``prepare`` / ``reset`` run untimed
    around it.  A ``self_timed`` run returns the seconds to charge
    (when only part of what it does is the layer's)."""

    def __init__(self, name: str, n: int, run: Callable[[int], object],
                 reset: Optional[Callable[[], object]] = None,
                 prepare: Optional[Callable[[int], object]] = None,
                 unit: str = "us", per: float = 1.0,
                 self_timed: bool = False) -> None:
        self.name, self.n, self.run = name, n, run
        self.reset, self.prepare = reset, prepare
        self.unit, self.per, self.self_timed = unit, per, self_timed
        self.blocks: List[float] = []


def run_probes(probes: Sequence[Probe], budget: float) -> Metrics:
    """Interleave the probes' blocks; ``budget`` scales block sizes."""
    for probe in probes:
        probe.n = max(1, int(probe.n * budget))
    for _ in range(BLOCKS):
        for probe in probes:
            if probe.prepare is not None:
                probe.prepare(probe.n)
            gc.collect()
            t0 = clock()
            charged = probe.run(probe.n)
            seconds = charged if probe.self_timed else clock() - t0
            probe.blocks.append(seconds / (probe.n * probe.per))
            if probe.reset is not None:
                probe.reset()
    out: Metrics = {}
    for probe in probes:
        seconds = fastest_quarter(probe.blocks)
        if probe.unit == "us":
            out[probe.name] = (seconds * 1e6, "us")
        elif probe.unit == "s":
            out[probe.name] = (seconds, "s")
        else:                                   # a rate: things per second
            out[probe.name] = (1.0 / seconds, probe.unit)
    return out


def loop(fn: Callable[[], object]) -> Callable[[int], None]:
    def run(n: int) -> None:
        for _ in range(n):
            fn()
    return run


def over(fn: Callable, items: Sequence) -> Callable[[int], None]:
    """Call ``fn`` on ``n`` items, cycling through ``items``."""
    def run(n: int) -> None:
        size = len(items)
        for i in range(n):
            fn(items[i % size])
    return run


def cpu_seconds(pids: Sequence[int]) -> float:
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def cpu_shares(pids: Sequence[int], run: Callable[[], object]):
    """(this process's, ``pids``') CPU seconds per wall second while
    ``run`` executes (closed loop, so the two sum to about 1 when no
    one waits on anything else)."""
    wall0, own0, theirs0 = clock(), time.process_time(), cpu_seconds(pids)
    run()
    wall = clock() - wall0
    return ((time.process_time() - own0) / wall,
            (cpu_seconds(pids) - theirs0) / wall)


def hop_apart_us(pids: Sequence[int], cpus: Sequence[int],
                 hop: Callable[[], object], n: int = 200) -> float:
    """Median microseconds of ``hop`` with the processes ``pids`` moved
    to the CPUs this process is *not* pinned to (then moved back): the
    cross-CPU wake-up the gated pass leaves out by pinning everything
    together.  With one CPU allowed it is the same-CPU hop again."""
    home, others = set(cpus[:1]), set(cpus[1:]) or set(cpus[:1])
    for pid in pids:
        os.sched_setaffinity(pid, others)
    try:
        for _ in range(20):
            hop()
        samples = []
        for _ in range(n):
            t0 = clock()
            hop()
            samples.append(clock() - t0)
    finally:
        for pid in pids:
            os.sched_setaffinity(pid, home)
    return median(samples) * 1e6


def small(shape: shapes.Shape, directory: str, inputs: gen.Inputs):
    """Populate a probe store the way the workloads do; returns the
    base patients' handles."""
    workload.set_up(shape, directory, inputs, Normalised())
    return workload.base_handles(shape, inputs.n)


# ----------------------------------------------------------------------
# lang, semantics, objects, query, columnar: an in-memory store
# ----------------------------------------------------------------------

def memory_probes(inputs: gen.Inputs):
    from repro.errors import ConformanceError
    from repro.lang.loader import load_schema
    from repro.objects.store import ObjectStore
    from repro.objects.surrogate import Surrogate
    from repro.objects.transactions import transaction
    from repro.query import analyze, compile_query, parse_query
    from repro.query.planner import execute_plan, plan_query
    from repro.scenarios.hospital import HOSPITAL_CDL
    from repro.semantics.compiled import compile_profile

    schema = load_schema(HOSPITAL_CDL)
    store = ObjectStore(schema)
    store.create_index("age")
    shape = shapes.Shape()
    shape.create = lambda cls, values: store.create(cls, **values)
    shape.create_doctors()
    rows = [shape.bind(row) for row in inputs.base]
    for start in range(0, len(rows), 1000):
        store.bulk_load(rows[start:start + 1000], check="eager")
    handles = [store.get(Surrogate(workload.FIRST_PATIENT_SID + i))
               for i in range(inputs.n)]
    pairs = list(zip(handles, inputs.base))
    plain = [(h, r) for h, r in pairs
             if r.classes is gen.PLAIN and r.age is not None][:400]
    targets = [h for h, _ in plain]
    alcoholic = [h for h, r in pairs if r.classes is gen.ALCOHOLIC][:200]
    physician, psychologist = shape.physicians[0], shape.psychologists[0]
    checker = store.checker
    made: List[object] = []
    flip = [0]

    def create():
        made.append(store.create("Patient", name="c10000000", age=44,
                                 treatedBy=physician))

    def remove_made(_n=None):
        while made:
            store.remove(made.pop())

    def set_age(obj):
        flip[0] ^= 1
        store.set_value(obj, "age", 50 + flip[0])

    def set_name(obj):
        flip[0] ^= 1
        store.set_value(obj, "name", "w1234567" + "ab"[flip[0]])

    def restore():
        for obj, row in plain:
            store.set_value(obj, "age", row.age)
            store.set_value(obj, "name", row.name)

    def reject(obj):
        try:
            store.set_value(obj, "treatedBy", psychologist)
        except ConformanceError:
            return
        raise AssertionError("contradiction accepted")

    def txn4(obj):
        with transaction(store):
            store.set_value(obj, "age", 60)
            store.set_value(obj, "name", "in-a-txn")
            store.set_value(obj, "age", 61)
            store.set_value(obj, "name", "in-a-txn2")

    def classify(n: int) -> None:
        for obj in targets[:n]:
            store.classify(obj, "Hemorrhaging_Patient")

    def declassify():
        for obj in targets:
            if "Hemorrhaging_Patient" in obj.memberships:
                store.declassify(obj, "Hemorrhaging_Patient")

    bulk_rows = [shape.bind(row) for row in inputs.bulk]
    loaded: List[object] = []

    def bulk(_n: int) -> None:
        loaded.extend(store.bulk_load(bulk_rows, check="eager").instances)

    def unload():
        while loaded:
            store.remove(loaded.pop())

    def fresh_snapshots(n: int) -> float:
        """Charge only the capture that follows each write."""
        spent = 0.0
        for i in range(n):
            set_age(targets[i % len(targets)])
            t0 = clock()
            store.snapshot()
            spent += clock() - t0
        return spent

    sel, scan = parse_query(gen.SEL), parse_query(gen.SCAN)
    cold = gen.churn_sel_texts()
    turn = [0]

    def plan_cold():
        # 512 texts through a 256-entry LRU: every lookup misses.
        turn[0] += 1
        plan_query(cold[turn[0] % len(cold)], store)

    snap = store.snapshot()
    sel_plan = plan_query(gen.SEL, store)
    scan_plan = plan_query(gen.SCAN, store)
    extent = store.extent_surrogates("Hemorrhaging_Patient")
    posting = store.indexes.lookup("age", gen.SEL_AGE)

    probes = [
        Probe("lang.load_schema_us", 4,
              loop(lambda: load_schema(HOSPITAL_CDL))),
        Probe("semantics.check_plain_us", 2000,
              over(checker.check, targets)),
        Probe("semantics.check_excused_us", 2000,
              over(checker.check, alcoholic)),
        Probe("semantics.check_attr_us", 4000, over(
            lambda obj: checker.check_attribute(obj, "treatedBy",
                                                physician), targets)),
        Probe("semantics.compile_profile_us", 40, loop(
            lambda: compile_profile(schema, frozenset(gen.ALCOHOLIC)))),
        Probe("objects.create_us", 500, loop(create), reset=remove_made),
        Probe("objects.remove_us", 500, remove_made,
              prepare=lambda n: [create() for _ in range(n)]),
        Probe("objects.set_indexed_us", 800, over(set_age, targets),
              reset=restore),
        Probe("objects.set_plain_us", 2000, over(set_name, targets),
              reset=restore),
        Probe("objects.classify_us", 400, classify, reset=declassify),
        Probe("objects.reject_us", 1000, over(reject, targets)),
        Probe("objects.txn4_us", 10, over(txn4, targets), reset=restore),
        Probe("objects.bulk_mem_rows_per_s", 1, bulk, reset=unload,
              unit="rows/s", per=len(bulk_rows)),
        Probe("objects.snapshot_fresh_us", 300, fresh_snapshots,
              reset=restore, self_timed=True),
        Probe("objects.snapshot_reuse_us", 20000, loop(store.snapshot)),
        Probe("query.parse_us", 200, loop(lambda: parse_query(gen.SEL))),
        Probe("query.analyze_us", 100, loop(lambda: analyze(sel, schema))),
        Probe("query.compile_us", 50,
              loop(lambda: compile_query(sel, schema))),
        Probe("query.plan_cold_us", 40, loop(plan_cold)),
        Probe("query.plan_hit_us", 10000,
              loop(lambda: plan_query(gen.SEL, store))),
        Probe("query.exec_sel_us", 400,
              loop(lambda: execute_plan(sel_plan, snap))),
        Probe("query.exec_scan_us", 10,
              loop(lambda: execute_plan(scan_plan, snap))),
        Probe("columnar.and_us", 5000, loop(lambda: extent & posting)),
        Probe("columnar.andnot_us", 5000, loop(lambda: extent - posting)),
        Probe("columnar.iter_us", 2000, loop(lambda: list(extent.ids()))),
    ]
    counts = {"query.checks_inserted_scan": (
        compile_query(scan, schema).checks_inserted, "count")}
    return probes, counts, store.extent_surrogates("Patient")


# ----------------------------------------------------------------------
# storage: durable directories
# ----------------------------------------------------------------------

def storage_probes(inputs: gen.Inputs, workdir: str):
    from repro.objects.store import ObjectStore
    from repro.storage.fsio import OS_FS
    from repro.storage.recovery import read_manifest
    from repro.storage.wal import WriteAheadLog, frame_record, read_from

    def durable(name: str) -> shapes.Embedded:
        shape = shapes.Embedded()
        small(shape, os.path.join(workdir, name), inputs)
        return shape

    live = durable("layers-live")           # stays open: checkpoint()
    loadable = durable("layers-checkpointed")
    loadable.checkpoint()
    loadable.stop()

    # A near-empty base with a long tail of single-op records: reopening
    # it is replay and little else.
    tail_dir = os.path.join(workdir, "layers-tail")
    tailed = shapes.Embedded()
    tailed.start(tail_dir, fresh=True)
    tailed.create_doctors()
    patients = [tailed.create("Patient", {"name": row.name})
                for row in inputs.base[:10]]
    n_tail = 4_000
    for i in range(n_tail):
        tailed.set_value(patients[i % 10], "name", f"t{10_000_000 + i}")
    tailed.stop()
    wal = read_manifest(OS_FS, tail_dir)["wal"]
    records, _scan = read_from(OS_FS, os.path.join(tail_dir, wal["file"]),
                               after_seq=wal["base_seq"],
                               segment_base=wal["base_seq"])
    framed = [dict(record.fields, seq=record.seq, op=record.op)
              for record in records]
    replayed = len(records)
    log = WriteAheadLog(os.path.join(workdir, "layers-probe.log"),
                        sync="group")
    appended = [(record.op, record.fields) for record in records]
    opened: List[object] = []

    def reopen(directory: str) -> Callable[[int], None]:
        def run(_n: int) -> None:
            store = ObjectStore.open(directory)
            store.count("Patient")
            opened.append(store)
        return run

    def close_opened():
        while opened:
            opened.pop().close()

    probes = [
        Probe("storage.encode_record_us", 4000, over(frame_record, framed)),
        Probe("storage.wal_append_us", 4000, over(
            lambda record: log.append_fields(*record), appended)),
        Probe("storage.checkpoint_s", 1,
              lambda _n: live.checkpoint(), unit="s"),
        Probe("storage.load_checkpoint_s", 1,
              reopen(os.path.join(workdir, "layers-checkpointed")),
              reset=close_opened, unit="s"),
        Probe("storage.replay_records_per_s", 1, reopen(tail_dir),
              reset=close_opened, unit="1/s", per=replayed),
    ]

    def close():
        log.close()
        live.stop()

    return probes, close


# ----------------------------------------------------------------------
# net: codec functions and a served store
# ----------------------------------------------------------------------

def net_probes(inputs: gen.Inputs, workdir: str, cpus: Sequence[int]):
    from repro.net.protocol import FrameDecoder, encode_frame

    shape = shapes.Served()
    handles = small(shape, os.path.join(workdir, "layers-served"), inputs)
    client = shape.client
    readable = [h for h, r in zip(handles, inputs.base)
                if r.age is not None][:500]
    request = {"op": "set", "sid": 123_456, "attr": "age", "value": 44,
               "check": None, "id": 17}
    frame = encode_frame(request)
    rows, stats = shape.query(gen.SCAN)
    reply = encode_frame({"id": 18, "ok": {"rows": rows, "stats": stats}})

    def decode(data: bytes) -> Callable[[], object]:
        def run():
            decoder = FrameDecoder()
            decoder.feed(data)
            return list(decoder.messages())
        return run

    physician = shape.reference(shape.physicians[0])
    values = {"name": "c10000000", "age": 44, "treatedBy": physician}
    made: List[int] = []

    def wire_per_op(n: int, op: Callable[[int], object]) -> Dict[str, float]:
        """Bytes and frames per op, both directions, from the server's
        own counters; the cost of asking is measured and taken off."""
        def counters():
            stats = client.stats()
            return (stats["net.bytes_in"] + stats["net.bytes_out"],
                    stats["net.frames_in"] + stats["net.frames_out"])
        first, second = counters(), counters()
        for i in range(n):
            op(i)
        third = counters()
        asking = [b - a for a, b in zip(first, second)]
        spent = [b - a - c for a, b, c in zip(second, third, asking)]
        return {"bytes": spent[0] / n, "frames": spent[1] / n}

    get = wire_per_op(50, lambda i: client.get(readable[i]))
    create = wire_per_op(50, lambda i: made.append(
        client.create("Patient", values)["sid"]))
    shape.remove_many(made)
    scan = wire_per_op(5, lambda i: client.query(gen.SCAN))
    own, server = cpu_shares([shape.process.pid], lambda: [
        client.get(readable[i % len(readable)]) for i in range(3000)])
    counts = {
        "net.ping_apart_us": (hop_apart_us([shape.process.pid], cpus,
                                           client.ping), "us"),
        "net.bytes_per_get": (get["bytes"], "B"),
        "net.bytes_per_create": (create["bytes"], "B"),
        "net.bytes_per_scan": (scan["bytes"], "B"),
        "net.frames_per_op": (get["frames"], "count"),
        "net.client_cpu_share": (own, "ratio"),
        "net.server_cpu_share": (server, "ratio"),
    }
    probes = [
        Probe("net.encode_frame_us", 4000,
              loop(lambda: encode_frame(request))),
        Probe("net.decode_frame_us", 4000, loop(decode(frame))),
        Probe("net.decode_scan_reply_us", 40, loop(decode(reply))),
        Probe("net.ping_us", 150, loop(client.ping)),
    ]
    return probes, counts, shape.stop


# ----------------------------------------------------------------------
# sharding: codec and pruning functions, a local and a process store
# ----------------------------------------------------------------------

def sharding_probes(inputs: gen.Inputs, workdir: str, patients,
                    cpus: Sequence[int]):
    from repro.query import parse_query
    from repro.sharding import wire
    from repro.sharding.pruning import extract_facts, profile_refuted

    shape = shapes.Sharded()
    small(shape, os.path.join(workdir, "layers-sharded"), inputs)
    local = shapes.LocalSharded()
    small(local, os.path.join(workdir, "layers-local"), inputs)
    store, schema = shape.store, shape.store.schema
    # Built before the served store, so these are the shard workers.
    workers = [child.pid for child in multiprocessing.active_children()]

    command = {"op": "set", "sid": 123_456, "attr": "age", "value": 44,
               "check": None}
    text = wire.encode_command(command)
    facts = extract_facts(parse_query(gen.REFUTED), schema)
    sel = parse_query(gen.SEL)
    physician = local.physicians[0]
    made: List[object] = []

    def local_create():
        made.append(local.store.create("Patient", name="c10000000",
                                       age=44, treatedBy=physician))

    def local_remove():
        while made:
            local.store.remove(made.pop())

    # Counts: one round of the sharded workload's own blocks.
    spec = workload.SPECS["sharded"].scaled(4)
    rnd = workload.Round(shape, inputs, spec)
    counters = store.stats_counters

    def delta(run: Callable[[], object]) -> Dict[str, int]:
        before = counters.snapshot()
        run()
        return {name: value - before[name]
                for name, value in counters.snapshot().items()}

    loaded: List[object] = []
    bulk = delta(lambda: loaded.extend(shape.bulk_load(rnd.bulk_rows)))
    shape.remove_many(loaded)
    writes = delta(lambda: shape.run_writes(rnd.write_ops))
    sels = delta(lambda: shape.query_block([gen.SEL] * spec.sels))
    scans = delta(lambda: shape.query_block([gen.SCAN] * spec.scans))
    refuted = delta(lambda: shape.query_block([gen.REFUTED] * 4))
    handles = workload.base_handles(shape, inputs.n)
    router, worker = cpu_shares(workers, lambda: [
        store.set_value(handles[i % 50], "name", f"n{10_000_000 + i}")
        for i in range(1500)])
    n_queries = spec.sels + spec.scans
    counts = {
        "sharding.rtt_apart_us": (hop_apart_us(
            workers, cpus, store.refresh_positions) / shape.N_SHARDS, "us"),
        "sharding.commands_per_write":
            (writes["commands_sent"] / rnd.write_count, "count"),
        "sharding.commands_per_bulk_row":
            (bulk["commands_sent"] / len(rnd.bulk_rows), "count"),
        "sharding.dispatched_per_sel":
            (sels["shards_dispatched"] / spec.sels, "count"),
        "sharding.dispatched_per_scan":
            (scans["shards_dispatched"] / spec.scans, "count"),
        "sharding.dispatched_per_refuted":
            (refuted["shards_dispatched"] / 4, "count"),
        "sharding.map_refreshes_per_query":
            ((sels["map_refreshes"] + scans["map_refreshes"]) / n_queries,
             "count"),
        "sharding.rows_merged_per_scan":
            (scans["rows_merged"] / spec.scans, "count"),
        "sharding.router_cpu_share": (router, "ratio"),
        "sharding.worker_cpu_share": (worker, "ratio"),
    }
    probes = [
        Probe("sharding.encode_cmd_us", 4000,
              loop(lambda: wire.encode_command(command))),
        Probe("sharding.decode_cmd_us", 4000,
              loop(lambda: wire.decode_command(text))),
        Probe("sharding.chunks_codec_us", 200, loop(
            lambda: wire.decode_chunks(wire.encode_chunks(patients)))),
        Probe("sharding.rtt_us", 60, loop(store.refresh_positions),
              per=shape.N_SHARDS),
        Probe("sharding.local_create_us", 100, loop(local_create),
              reset=local_remove),
        Probe("sharding.local_sel_us", 30,
              loop(lambda: local.store.query(gen.SEL))),
        Probe("sharding.extract_facts_us", 400,
              loop(lambda: extract_facts(sel, schema))),
        Probe("sharding.refute_us", 400, loop(lambda: profile_refuted(
            schema, facts, frozenset(gen.PLAIN), frozenset(), True))),
    ]

    def close():
        shape.stop()
        local.stop()

    return probes, counts, close


# ----------------------------------------------------------------------

def run_layers(seed: int, budget: float, workdir: str,
               cpus: Sequence[int], n: int = LAYER_N) -> Metrics:
    """Every layer's times and the counts that do not depend on the
    workload; ``budget`` scales how many calls each block makes."""
    inputs = gen.Inputs(seed, n, max(80, n // 8))
    probes, counts, patients = memory_probes(inputs)
    closers = []
    storage, close = storage_probes(inputs, workdir)
    closers.append(close)
    # Sharding before net, so its workers are the only children yet.
    sharding, sharding_counts, close = sharding_probes(
        inputs, workdir, patients, cpus)
    closers.append(close)
    net, net_counts, close = net_probes(inputs, workdir, cpus)
    closers.append(close)
    gc.collect()
    gc.freeze()
    try:
        out = run_probes(probes + storage + net + sharding, budget)
    finally:
        for close in closers:
            close()
        gc.unfreeze()
    out.update(counts)
    out.update(net_counts)
    out.update(sharding_counts)
    return out


def run(name: str, seed: int, rounds: int, scale: int, workdir: str,
        traced: bool, cpus: Sequence[int]) -> Dict[str, object]:
    """The per-layer pass of one workload: the probes, then the replay
    of ``name`` (with the traced rounds when ``traced``)."""
    import replay
    started = clock()
    metrics = run_layers(seed, rounds / 16.0, workdir, cpus,
                         max(400, LAYER_N // scale))
    replayed, detail, gate = replay.replay(name, seed, scale, workdir,
                                           traced)
    metrics.update(replayed)
    return {"workload": name, "seed": seed, "correct": gate.correct,
            "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())},
            "detail": detail, "wall_s": clock() - started}
