"""A10 -- sharded multi-process stores: write scaling + pruned reads.

Two claims, measured over the same 100k-object hospital population:

1. **Write scaling.**  ``ShardedStore.bulk_load`` splits each batch
   into one sub-batch per shard and executes them across all worker
   processes concurrently, so bulk write throughput scales with shard
   count.  Floor: >= 2x objects/sec at 4 shards vs 1.  Process-level
   scaling needs processors to scale onto, so the floor is asserted
   when the machine has >= 4 CPUs and recorded (``scaling_enforced``)
   either way -- a 1-core container timeshares the workers and can
   only show the router's overhead, not the parallelism.

2. **Pruned scatter-gather reads.**  Selective class-restricted
   queries dispatch to strictly fewer than N shards (shard maps refute
   the profile on every shard that holds no candidate), and
   deduction-backed refutation prunes reference-constrained queries to
   zero shards.  Both are counter-verified (``shards_dispatched``) and
   hardware-independent.

Rows and ``rows_skipped`` are asserted identical across every shard
count, so none of the throughput comes from answering differently.
"""

import os
import time

from conftest import report, report_json

from repro.evaluation import render_table
from repro.scenarios import build_hospital_schema
from repro.objects.pipeline import CheckMode
from repro.sharding.router import ShardedStore
from repro.typesys import EnumSymbol

SCHEMA = build_hospital_schema()

N_OBJECTS = 100_000
N_RARE = 300            # Hemorrhaging cohort: fits one span-1 shard
N_BATCHES = 20
SHARD_COUNTS = (1, 2, 4, 8)
QUERY_REPEATS = 5

SELECTIVE_QUERY = ("for x in Hemorrhaging_Patient where x.age = 37 "
                   "select x.name")
DEDUCTION_QUERY = ("for y in Patient where y.treatedBy not in Physician "
                   "and y.treatedBy not in Psychologist select y.name")
SCAN_QUERY = "for p in Patient where p.age = 37 select count"


def _rows_payload():
    """The workload: broadcast reference entities are created up
    front; these rows are the routed bulk."""
    rows = []
    rare_every = max(1, N_OBJECTS // N_RARE)
    for i in range(N_OBJECTS):
        values = {"name": f"p{i}", "age": 20 + i % 60}
        if i % rare_every == 0 and i // rare_every < N_RARE:
            rows.append((("Patient", "Hemorrhaging_Patient"),
                         dict(values, age=37,
                              bloodPressure=EnumSymbol("Low_BP"))))
        else:
            rows.append(("Patient", values))
    return rows


def _populate(n_shards, rows, physician_ref):
    store = ShardedStore(SCHEMA, n_shards, processes=True)
    hospital = store.create("Hospital", broadcast=True,
                            accreditation=EnumSymbol("Federal"))
    physician = store.create("Physician", broadcast=True, name="doc",
                             age=50, specialty=EnumSymbol("General"),
                             affiliatedWith=hospital)
    bound = [(classes, dict(values, **{physician_ref: physician}))
             for classes, values in rows]
    batch = max(1, len(bound) // N_BATCHES)
    t0 = time.perf_counter()
    for start in range(0, len(bound), batch):
        store.bulk_load(bound[start:start + batch],
                        check=CheckMode.EAGER)
    return store, time.perf_counter() - t0


def _timed_query(store, query):
    # Warm the per-shard map caches (built lazily on the first pruned
    # query after a write epoch, O(population)), so the loop measures
    # the steady-state dispatch cost the claim is about.
    store.query(query)
    t0 = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        rows, stats = store.query(query)
    elapsed = (time.perf_counter() - t0) / QUERY_REPEATS
    return rows, stats, elapsed


def test_a10_sharded_scaling():
    rows = _rows_payload()
    cpu_count = os.cpu_count() or 1

    results = {}
    baseline = None
    for n_shards in SHARD_COUNTS:
        store, write_s = _populate(n_shards, rows, "treatedBy")
        try:
            entry = {"write_s": round(write_s, 3),
                     "objects_per_sec": round(N_OBJECTS / write_s)}

            before = store.stats_counters.shards_dispatched
            sel_rows, sel_stats, sel_t = _timed_query(
                store, SELECTIVE_QUERY)
            entry["selective_dispatched"] = (
                store.stats_counters.shards_dispatched
                - before) // (QUERY_REPEATS + 1)
            entry["selective_qps"] = round(1.0 / sel_t, 1)

            before = store.stats_counters.shards_dispatched
            ded_rows, _ded_stats, _ded_t = _timed_query(
                store, DEDUCTION_QUERY)
            entry["deduction_dispatched"] = (
                store.stats_counters.shards_dispatched
                - before) // (QUERY_REPEATS + 1)
            entry["deduction_prunes"] = \
                store.stats_counters.deduction_prunes
            assert ded_rows == []

            scan_rows, scan_stats, scan_t = _timed_query(
                store, SCAN_QUERY)
            entry["scan_qps"] = round(1.0 / scan_t, 1)

            signature = (_rows_key(sel_rows), sel_stats.rows_skipped,
                         _rows_key(scan_rows), scan_stats.rows_skipped)
            if baseline is None:
                baseline = signature
            # Identical answers at every shard count.
            assert signature == baseline, n_shards

            results[n_shards] = entry
        finally:
            store.close()

    scaling_4x = (results[4]["objects_per_sec"]
                  / results[1]["objects_per_sec"])
    scaling_enforced = cpu_count >= 4

    # Pruning floors (hardware-independent).  The rare cohort fits one
    # span-1 shard, so its class-restricted query must dispatch to
    # strictly fewer shards than exist; the reference-contradiction
    # query is refuted by deduction everywhere and dispatches to none.
    for n_shards in SHARD_COUNTS[1:]:
        entry = results[n_shards]
        assert entry["selective_dispatched"] < n_shards, entry
        assert entry["deduction_dispatched"] == 0, entry
        assert entry["deduction_prunes"] >= n_shards, entry
    if scaling_enforced:
        assert scaling_4x >= 2.0, results

    table_rows = [
        (n, e["write_s"], e["objects_per_sec"],
         e["selective_dispatched"], e["selective_qps"],
         e["deduction_dispatched"], e["scan_qps"])
        for n, e in sorted(results.items())
    ]
    report("A10-sharded", render_table(
        ("shards", "write s", "obj/s", "sel disp", "sel q/s",
         "ded disp", "scan q/s"),
        table_rows,
        title=f"A10: sharded stores, {N_OBJECTS} objects, "
              f"{cpu_count} cpu(s)"))
    report_json("sharded", {
        "experiment": "A10-sharded",
        "n_objects": N_OBJECTS + 2,     # + broadcast reference entities
        "n_rare": N_RARE,
        "cpu_count": cpu_count,
        "shards": {str(n): e for n, e in results.items()},
        "scaling_4x": round(scaling_4x, 3),
        "scaling_floor": 2.0,
        "scaling_enforced": scaling_enforced,
    })


def _rows_key(rows):
    return sorted(map(repr, rows))
