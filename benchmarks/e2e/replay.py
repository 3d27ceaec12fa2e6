"""A short replay of one workload, for the numbers only it can give.

* **Counts that depend on how the workload uses its store** -- deltas of
  the program's own counters across one phase of one round (constraints
  checked per write, snapshots built per read, plan-cache hits, WAL
  bytes per write ...).  They repeat exactly.
* **The traced rounds** (``--trace 1``): the same rounds with span
  recorders installed, giving the per-layer self-time ledger, and
  ``trace.overhead_ratio`` = traced / untraced time of the same blocks.

So that one process sees every span, ``served`` runs its service on a
thread here and ``sharded`` uses in-process shards.  The replay sets the
store up once and runs ``COUNT_ROUNDS`` untraced rounds, then
``TRACED_ROUNDS`` traced ones, with the get block cut to ``TRACED_GETS``
(a span per fetch is a lot of spans).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
from typing import Dict, List

import gen
import shapes
import tracing
import workload
from timing import Normalised, clock

COUNT_ROUNDS = 2
TRACED_ROUNDS = 4
TRACED_GETS = 2_000

Metrics = Dict[str, tuple]


#: Root spans: the shape's verbs, named by op type.
ROOT_VERBS = (("bulk_load", "bulk"), ("create", "create"),
              ("set_value", "set"), ("remove", "remove"),
              ("get_age", "get"), ("run_txn", "txn"), ("write", "flip"))


def trace_roots(tracer: tracing.Tracer, shape: shapes.Shape) -> None:
    shape.rebind()
    for verb, op in ROOT_VERBS:
        if hasattr(shape, verb):
            setattr(shape, verb,
                    tracer.wrap(getattr(shape, verb), "bench", name=op))
    shape.query = tracer.wrap(
        shape.query, "bench",
        namer=lambda text: "sel" if "Hemorrhaging" in text else "scan")
    if type(shape) is shapes.Embedded:
        # The written-out get loop has no per-op call to hang a span on.
        shape.get_block = lambda keys: shapes.Shape.get_block(shape, keys)


def untrace_roots(shape: shapes.Shape) -> None:
    for verb, _op in ROOT_VERBS + (("query", None), ("get_block", None)):
        vars(shape).pop(verb, None)
    shape.rebind()


def counter(stats: Dict[str, object], name: str) -> float:
    return float(stats.get(name, 0))


def replay(name: str, seed: int, scale: int, workdir: str,
           traced: bool):
    """Returns ``(metrics, detail, gate)``."""
    spec = workload.SPECS[name]
    if scale != 1:
        spec = spec.scaled(scale)
    spec = dataclasses.replace(spec, gets=min(spec.gets, TRACED_GETS),
                            get_unit=1)
    inputs = gen.Inputs(seed, spec.n, spec.bulk_rows)
    expected = workload.Expected(inputs, wrong=False)
    gate = workload.Gate()
    shape = shapes.IN_PROCESS[name]()
    directory = os.path.join(workdir, f"replay-{name}")
    workload.set_up(shape, directory, inputs, Normalised())
    rnd = workload.Round(shape, inputs, spec)
    gc.collect()
    gc.freeze()

    # -- untraced rounds: counter deltas per phase ----------------------
    deltas: Dict[str, Dict[str, float]] = {}
    seconds: Dict[str, List[float]] = {}

    def counting(phase, n_ops, units, run):
        before = shape.stats()
        t0 = clock()
        result = run(units)
        seconds.setdefault(phase, []).append(clock() - t0)
        after = shape.stats()
        row = deltas.setdefault(phase, {})
        for key, value in after.items():
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool):
                row[key] = row.get(key, 0) + value - before.get(key, 0)
        return [(result, len(units))]

    for round_no in range(COUNT_ROUNDS):
        workload.run_round(shape, rnd, expected, gate, round_no, counting)
    rounds = COUNT_ROUNDS
    writes = rounds * rnd.write_count
    reads = rounds * (len(rnd.get_keys) + spec.sels + spec.scans)
    w, sel = deltas["write"], deltas["sel"]
    read_phases = [deltas[p] for p in ("get", "sel", "scan")]
    plan_lookups = sum(counter(d, "query.plan_hits")
                       + counter(d, "query.plan_misses")
                       for d in (sel, deltas["scan"]))
    profile_lookups = (counter(w, "profile_hits")
                       + counter(w, "profile_misses"))
    metrics: Metrics = {
        "semantics.constraints_per_write":
            (counter(w, "constraints_checked") / writes, "count"),
        "semantics.skipped_per_write":
            (counter(w, "constraints_skipped") / writes, "count"),
        "semantics.profile_hit_ratio":
            (counter(w, "profile_hits") / max(1.0, profile_lookups),
             "ratio"),
        "objects.snapshots_built_per_read":
            (sum(counter(d, "snapshots_built") for d in read_phases)
             / reads, "count"),
        "query.plan_hit_ratio":
            (sum(counter(d, "query.plan_hits")
                 for d in (sel, deltas["scan"])) / max(1.0, plan_lookups),
             "ratio"),
        "query.rows_pruned_per_sel":
            (counter(sel, "query.rows_pruned") / (rounds * spec.sels),
             "count"),
        "query.index_updates_per_write":
            (counter(w, "query.index_updates") / writes, "count"),
        "columnar.words_per_sel":
            (counter(sel, "bitset.words_anded") / (rounds * spec.sels),
             "count"),
        "columnar.chunks_copied_per_write":
            ((counter(w, "bitset.chunks_cow_copied")
              + counter(w, "bitset.column_chunks_copied")) / writes,
             "count"),
        "storage.wal_bytes_per_write":
            (counter(w, "wal_bytes") / writes, "B"),
        "storage.wal_syncs_per_1k_writes":
            (1000.0 * counter(w, "wal_syncs") / writes, "count"),
    }
    detail: Dict[str, object] = {"sizes": spec.__dict__}
    untraced = {p: min(times) for p, times in seconds.items()}

    # -- traced rounds ----------------------------------------------------
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        trace_roots(tracer, shape)
        traced_s: Dict[str, List[float]] = {}

        def timing(phase, n_ops, units, run):
            tracer.active = True
            t0 = clock()
            result = run(units)
            traced_s.setdefault(phase, []).append(clock() - t0)
            tracer.active = False
            return [(result, len(units))]

        try:
            for round_no in range(rounds, rounds + TRACED_ROUNDS):
                workload.run_round(shape, rnd, expected, gate, round_no,
                                   timing)
        finally:
            tracer.uninstall()
            untrace_roots(shape)
        ledger = tracer.ledger()
        total = sum(v for row in ledger.values()
                    for k, v in row.items() if k != "ops")
        for layer in tracing.LAYERS:
            spent = sum(row.get(layer, 0.0) for row in ledger.values())
            metrics[f"trace.share.{layer}"] = (spent / total, "ratio")
        metrics["trace.overhead_ratio"] = (
            sum(min(times) for times in traced_s.values())
            / sum(untraced.values()), "ratio")
        trace_path = os.path.join(workdir, f"trace-{name}.jsonl")
        tracer.write(trace_path)
        detail["trace_file"] = trace_path
        detail["spans"] = len(tracer.spans)
        detail["ledger"] = tracing.render(ledger)
        detail["overhead_by_phase"] = {
            p: min(traced_s[p]) / untraced[p] for p in traced_s}

    gate.check("digest after the replay", shape.store_digest(),
               expected.store)
    shape.stop()
    shutil.rmtree(directory)
    gc.unfreeze()
    detail["checks"] = gate.checks
    return metrics, detail, gate
