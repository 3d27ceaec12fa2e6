"""Command-line interface: validate schemas, inspect types, check queries.

Usage (also via ``python -m repro.cli``)::

    repro validate <schema.cdl>            # run the validator, report all
    repro print <schema.cdl>               # parse and pretty-print back
    repro type <schema.cdl> <Class> <attr> # the relaxed conditional type
    repro check <schema.cdl> "<query>"     # safety analysis of a query
    repro explain <schema.cdl> "<query>"   # compiled plan + check sites
                  [--index attr ...]       # + index pushdown decisions
    repro excuses <schema.cdl>             # list every excused pair
    repro theory <schema.cdl>              # the generated type theory
    repro diff <old.cdl> <new.cdl>         # structural schema diff
    repro deduce <schema.cdl> <facts...>   # contrapositive deduction,
                                           # e.g. "y.treatedBy not in
                                           # Physician" "y not in Alcoholic"
    repro stats [--shards N]               # conformance counters
                                           # for a standard hospital
                                           # populate + churn workload
                                           # (sharded: per-shard +
                                           # aggregate tables)
    repro load <schema.cdl> <rows.json>    # bulk-load rows through the
                [--check eager|deferred]   # batched ingest path
                [--validate] [--shards N]  # (--persist: into a durable
                [--persist DIR]            # directory serve/recover open)
    repro shard-serve <dir>                # reopen a sharded store
                [--query "<q>" ...]        # (one worker process per
                [--stats] [--checkpoint]   # shard), run queries through
                                           # the pruned scatter-gather
                                           # path, report stats
    repro alter <dir> <schema.cdl> <Class> # apply one class definition
                [--recheck affected|lazy   # from the CDL file as a live
                 |full|none] [--dry-run]   # schema change (or report the
                                           # propagation diagnostics only)
    repro recover <dir>                    # recover a durable store
                                           # (checkpoint + WAL replay),
                                           # report what was rebuilt
    repro checkpoint <dir>                 # recover, then write a fresh
                                           # atomic checkpoint (rotates
                                           # the WAL)
    repro wal-dump <dir>                   # decode the active WAL
                                           # segment, record by record

Exit status: 0 on success/no errors, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import codec
from repro.errors import ReproError
from repro.lang import load_schema, print_schema
from repro.query.analysis import analyze
from repro.schema.validation import SchemaValidator


def _read_schema(path: str, validate: bool = False):
    with open(path) as f:
        return load_schema(f.read(), validate=validate)


def cmd_validate(args) -> int:
    schema = _read_schema(args.schema)
    diagnostics = SchemaValidator(schema).validate()
    for d in diagnostics:
        print(d)
    errors = [d for d in diagnostics if d.is_error]
    print(f"{len(schema)} classes, {len(errors)} error(s), "
          f"{len(diagnostics) - len(errors)} warning(s)")
    return 1 if errors else 0


def cmd_print(args) -> int:
    schema = _read_schema(args.schema)
    sys.stdout.write(print_schema(schema))
    return 0


def cmd_type(args) -> int:
    schema = _read_schema(args.schema)
    relaxed = schema.relaxed_constraint(args.class_name, args.attribute)
    print(f"{args.class_name} < [{args.attribute}: {relaxed}]")
    return 0


def cmd_check(args) -> int:
    schema = _read_schema(args.schema)
    report = analyze(args.query, schema,
                     assume_unshared=not args.no_unshared)
    for line in report.describe_select():
        print("type:", line)
    for finding in report.findings:
        print(finding)
    if report.is_safe:
        print("safe: no run-time checks needed")
        return 0
    return 1


def cmd_explain(args) -> int:
    from repro.objects.store import ObjectStore
    from repro.query.planner import plan_query
    schema = _read_schema(args.schema)
    # The planner needs a store for its physical design; an empty one is
    # enough to show which conjuncts would be pushed down.
    store = ObjectStore(schema)
    for attribute in args.index or ():
        store.create_index(attribute)
    plan = plan_query(args.query, store,
                      eliminate_checks=not args.all_checked)
    print(plan.explain(store if args.index else None))
    print("\ngenerated function (names and constants are bound, not "
          "spelled):")
    print(plan.executor._source)
    for name, value in sorted(plan.executor._bindings.items()):
        print(f"  {name} = {value!r}")
    return 0


def cmd_theory(args) -> int:
    from repro.typesys.theory import render_theory
    schema = _read_schema(args.schema)
    print(render_theory(schema, include_virtual=not args.no_virtual))
    return 0


def cmd_diff(args) -> int:
    from repro.schema.diff import diff_schemas, render_diff
    old = _read_schema(args.old)
    new = _read_schema(args.new)
    print(render_diff(old, new))
    return 1 if diff_schemas(old, new) else 0


def cmd_deduce(args) -> int:
    from repro.query.deduction import (
        deduce_non_memberships,
        explain_non_membership,
    )
    from repro.query.typing import FlowFacts
    schema = _read_schema(args.schema)
    facts = FlowFacts()
    var = None
    for fact in args.facts:
        words = fact.split()
        if len(words) == 3 and words[1] == "in":
            path, class_name, positive = words[0], words[2], True
        elif len(words) == 4 and words[1:3] == ["not", "in"]:
            path, class_name, positive = words[0], words[3], False
        else:
            print(f"error: cannot parse fact {fact!r} "
                  "(expected '<path> [not] in <Class>')", file=sys.stderr)
            return 2
        facts = facts.assume(path, class_name, positive)
        root = path.split(".")[0]
        var = var or root
    if var is None:
        print("error: no facts given", file=sys.stderr)
        return 2
    enriched, derived = deduce_non_memberships(schema, facts, var)
    if not derived:
        print("nothing new follows")
        return 0
    for class_name in sorted(derived):
        print(f"{var} not in {class_name}")
        lines = explain_non_membership(schema, facts, var, class_name)
        for line in lines[:-1]:
            print(f"  because {line}")
        if lines:
            print(f"  {lines[-1]}")
    return 0


def _render_shard_tables(store, title: str) -> str:
    """Per-shard metric columns plus the summed aggregate row set."""
    from repro.evaluation.reporting import render_table

    per_shard = store.shard_stats()
    keys = sorted(set().union(*(shard.keys() for shard in per_shard)))
    shard_rows = [
        tuple([key] + [shard.get(key, "") for shard in per_shard])
        for key in keys
    ]
    headers = tuple(["metric"] + [f"shard {i}"
                                  for i in range(len(per_shard))])
    tables = [render_table(headers, shard_rows,
                           title=f"{title}: per shard")]
    agg_rows = [(key, value)
                for key, value in sorted(store.stats().items())]
    tables.append(render_table(("metric", "value"), agg_rows,
                               title=f"{title}: aggregate"))
    return "\n\n".join(tables)


def _sharded_stats(args) -> int:
    from repro.scenarios import build_hospital_schema
    from repro.sharding.router import ShardedStore
    from repro.typesys.values import EnumSymbol

    store = ShardedStore(build_hospital_schema(), args.shards,
                         processes=args.processes)
    try:
        physician = store.create(
            "Physician", broadcast=True, name="doc", age=50,
            specialty=EnumSymbol("General"))
        patients = store.bulk_load([
            ("Patient", {"name": f"p{i}", "age": 20 + i % 60,
                         "treatedBy": physician})
            for i in range(args.patients)
        ])
        pressures = [EnumSymbol(s) for s in ("Normal_BP", "High_BP")]
        for round_no in range(args.rounds):
            for i, patient in enumerate(patients):
                store.set_value(patient, "age",
                                20 + (i + round_no) % 60)
                store.set_value(patient, "bloodPressure",
                                pressures[(i + round_no) % 2])
        store.query("for p in Patient where p.age = 30 select p.name")
        print(_render_shard_tables(
            store,
            f"sharded engine stats ({args.shards} shards, "
            f"{args.patients} patients, {args.rounds} churn rounds)"))
    finally:
        store.close()
    return 0


def cmd_stats(args) -> int:
    from repro.evaluation.reporting import render_table
    from repro.scenarios.hospital import populate_hospital
    from repro.typesys.values import EnumSymbol

    if args.shards:
        return _sharded_stats(args)
    pop = populate_hospital(n_patients=args.patients, seed=args.seed)
    store = pop.store
    if args.timing:
        store.checker.stats.timing = True
    # Churn phase: the eager-write workload the engine optimizes.
    pressures = [EnumSymbol(s) for s in ("Normal_BP", "High_BP")]
    for round_no in range(args.rounds):
        for i, patient in enumerate(pop.patients):
            store.set_value(patient, "age", 20 + (i + round_no) % 60)
            if not store.is_member(patient, "Hemorrhaging_Patient"):
                store.set_value(patient, "bloodPressure",
                                pressures[(i + round_no) % 2])
    rows = [(key, value) for key, value in sorted(store.stats().items())]
    print(render_table(("metric", "value"), rows,
                       title=f"engine stats ({args.patients} patients, "
                             f"{args.rounds} churn rounds)"))
    return 0


def cmd_load(args) -> int:
    """Load rows through the bulk path, into one store or ``--shards``
    of them.  Rows carrying an ``id`` are reference entities later rows
    may point at: they are created one by one as they are read (on a
    sharded store as broadcast replicas, so rows on any shard can
    reference them); the rest commit as one all-or-nothing batch (per
    shard).  With ``--persist`` the store is a durable directory,
    checkpointed at the end."""
    import json

    from repro.objects.store import ObjectStore
    from repro.typesys.values import EnumSymbol

    schema = _read_schema(args.schema)
    if args.rows == "-":
        text = sys.stdin.read()
    else:
        with open(args.rows) as f:
            text = f.read()
    # JSON array, or JSON Lines (one object per line).
    if text.lstrip().startswith("["):
        raw_rows = json.loads(text)
    else:
        raw_rows = [json.loads(line) for line in text.splitlines()
                    if line.strip()]

    placement = {}
    if args.shards:
        from repro.sharding.router import ShardedStore
        store = ShardedStore(schema, args.shards, processes=args.processes,
                             directory=args.persist,
                             durability="wal" if args.persist else None)
        placement["broadcast"] = True
    elif args.persist:
        store = ObjectStore.open(args.persist, schema)
    else:
        store = ObjectStore(schema)
    refs = {}

    def decode(value):
        if isinstance(value, str) and value.startswith("'"):
            return EnumSymbol(value[1:])
        if isinstance(value, dict) and set(value) == {"$ref"}:
            if value["$ref"] not in refs:
                print("error: row references undefined id "
                      f"{value['$ref']!r}", file=sys.stderr)
                raise SystemExit(2)
            return refs[value["$ref"]]
        return value

    try:
        bulk_rows = []
        try:
            for raw in raw_rows:
                fields = dict(raw)
                row_id = fields.pop("id", None)
                classes = fields.pop("classes", None)
                if classes is None:
                    classes = fields.pop("class")
                if isinstance(classes, str):
                    classes = (classes,)
                values = {name: decode(value)
                          for name, value in fields.items()}
                if row_id is None:
                    bulk_rows.append((tuple(classes), values))
                    continue
                head, *rest = classes
                obj = store.create(head, check=args.check, **placement,
                                   **values)
                for extra in rest:
                    store.classify(obj, extra, check=args.check)
                refs[row_id] = obj
            store.bulk_load(bulk_rows, check=args.check)
        except ReproError as exc:
            print(f"error: batch rejected: {exc}", file=sys.stderr)
            return 1
        where = f" across {args.shards} shards" if args.shards else ""
        print(f"loaded {len(refs) + len(bulk_rows)} objects{where} "
              f"({len(refs)} reference entities, {len(bulk_rows)} bulk "
              f"rows) check={args.check}")
        if args.check == "deferred" and args.validate:
            problems = store.validate_dirty()
            for obj, violation in problems:
                print(f"{obj.surrogate}: {violation}")
            if problems:
                print(f"{len(problems)} violation(s)")
                return 1
            print("validated: conformant")
        if args.persist:
            store.checkpoint()
            layout = (f" ({args.shards} shard directories + manifest)"
                      if args.shards else "")
            print(f"persisted {len(store)} objects to "
                  f"{args.persist}{layout}")
    finally:
        store.close()
    return 0


def cmd_shard_serve(args) -> int:
    """Reopen a durable sharded directory with one worker process per
    shard, optionally answer queries, and report per-shard stats
    (``repro serve`` is what puts the directory on the network)."""
    from repro.sharding.router import ShardedStore

    store = ShardedStore.open(args.directory, processes=args.processes)
    try:
        print(f"serving {args.directory}: {store.n_shards} shards, "
              f"{len(store)} objects")
        for query in args.query or ():
            rows, stats = store.query(query)
            for row in rows:
                print("  " + ", ".join(str(v) for v in row))
            dispatched = store.stats_counters.shards_dispatched
            print(f"-- {len(rows)} row(s), {stats.rows_skipped} "
                  f"skipped; dispatched to {dispatched} of "
                  f"{store.n_shards} shards")
            store.stats_counters.shards_dispatched = 0
        if args.stats:
            print(_render_shard_tables(store,
                                       f"shard-serve {args.directory}"))
        if args.checkpoint:
            store.checkpoint()
            print("checkpointed all shards")
    finally:
        store.close()
    return 0


def cmd_serve(args) -> int:
    """Serve a durable store directory as a network primary.

    A directory with a ``SHARDS.json`` manifest reopens as a sharded
    store (one worker process per shard) behind the same endpoint and
    the same op surface; anything else opens as a single store."""
    from repro.net.backends import open_backend
    from repro.net.server import serve

    kwargs = {}
    if args.sync:
        kwargs["sync"] = args.sync
    if args.schema:
        import os
        from repro.storage.recovery import MANIFEST_NAME
        if not os.path.exists(os.path.join(args.directory,
                                           MANIFEST_NAME)):
            # Only a fresh directory takes the schema; an existing
            # store keeps its persisted (possibly evolved) one.
            with open(args.schema) as f:
                kwargs["schema"] = load_schema(f.read())
    backend = open_backend(args.directory, processes=args.processes,
                           **kwargs)
    shards = backend.describe().get("shards")
    if shards:
        print(f"sharded store: {shards} shards, "
              f"{backend.object_count()} objects")
    try:
        serve(backend, host=args.host, port=args.port)
    finally:
        backend.close()
    return 0


def cmd_replica(args) -> int:
    """Serve a read replica of a network primary.

    Bootstraps (or crash-recovers, when ``--directory`` already holds a
    replica) from the primary's catch-up dump, then keeps replaying its
    shipped WAL tail while serving snapshot reads."""
    from repro.net.client import StoreClient
    from repro.net.replication import NetShipSource, Replica
    from repro.net.server import serve

    primary_host, _, primary_port = args.primary.rpartition(":")
    if not primary_host:
        print(f"error: --primary must be HOST:PORT, got "
              f"{args.primary!r}", file=sys.stderr)
        return 2
    client = StoreClient(primary_host, int(primary_port))
    replica = Replica(NetShipSource(client), directory=args.directory,
                      sync=args.sync or "group")
    try:
        print(f"replica of {args.primary} at seq "
              f"{replica.applied_seq}")
        serve(replica=replica, host=args.host, port=args.port,
              poll_interval=args.poll)
    finally:
        replica.close()
        client.close()
    return 0


def cmd_alter(args) -> int:
    from repro.net.backends import open_backend
    from repro.schema.evolution import apply_change

    target_schema = _read_schema(args.schema)
    if not target_schema.has_class(args.class_name):
        print(f"error: {args.schema!r} does not define "
              f"{args.class_name!r}", file=sys.stderr)
        return 2
    backend = open_backend(args.directory)    # as ``repro serve`` does
    try:
        if args.dry_run:
            # Propagate into a detached copy: diagnostics without
            # committing anything to the store or its WAL.
            diagnostics, rolled_back = apply_change(
                backend.store.schema.copy(),
                target_schema.get(args.class_name))
            for d in diagnostics:
                print(d)
            verdict = ("would be rejected" if rolled_back
                       else "would be accepted")
            print(f"dry run: change to {args.class_name!r} {verdict} "
                  f"({len(diagnostics)} diagnostic(s))")
            return 1 if rolled_back else 0
        problems = backend.op_alter({
            "schema": print_schema(target_schema), "cls": args.class_name,
            "recheck": args.recheck})["violations"]
        print(f"altered {args.class_name!r} (recheck={args.recheck}): "
              f"{len(problems)} violation(s)")
        for sid, violation in problems[:args.max_violations]:
            print(f"  @{sid}: {codec.decode_violation(violation, int)}")
        if len(problems) > args.max_violations:
            print(f"  ... and {len(problems) - args.max_violations} more")
        return 1 if problems else 0
    finally:
        backend.close()


def _store_directories(directory: str) -> List[str]:
    """The durable store directories ``directory`` holds: itself, or
    one per shard under a ``SHARDS.json`` manifest."""
    from repro.storage.shards import (
        is_sharded, read_shard_manifest, shard_directory)
    if not is_sharded(directory):
        return [directory]
    shards = int(read_shard_manifest(directory)["shards"])
    return [shard_directory(directory, i) for i in range(shards)]


def cmd_recover(args) -> int:
    from repro.objects.store import ObjectStore
    conformant = True
    for directory in _store_directories(args.directory):
        store = ObjectStore.open(directory)
        report = store.last_recovery
        print(report.describe())
        for obj, violation in report.violations[:args.max_violations]:
            print(f"  {obj.surrogate}: {violation}")
        if len(report.violations) > args.max_violations:
            print(f"  ... and "
                  f"{len(report.violations) - args.max_violations} more")
        store.close()
        conformant = conformant and report.conformant
    return 0 if conformant else 1


def cmd_checkpoint(args) -> int:
    from repro.objects.store import ObjectStore
    for directory in _store_directories(args.directory):
        store = ObjectStore.open(directory)
        replayed = store.last_recovery.replayed
        manifest = store.checkpoint()
        entry = manifest["checkpoint"]
        print(f"checkpoint generation {manifest['generation']}: "
              f"{entry['objects']} object(s), {entry['length']} bytes "
              f"-> {entry['file']} ({replayed} WAL record(s) folded in)")
        store.close()
    return 0


def cmd_wal_dump(args) -> int:
    import os

    from repro.storage.fsio import OS_FS
    from repro.storage.recovery import read_manifest
    from repro.storage.wal import dump_wal

    manifest = read_manifest(OS_FS, args.directory)
    wal_entry = manifest.get("wal")
    if wal_entry is None:
        print("(durability \"none\": the store has no WAL segment)")
        return 0
    lines = dump_wal(
        OS_FS, os.path.join(args.directory, wal_entry["file"]),
        base_seq=wal_entry.get("base_seq", 0))
    print(f"segment {wal_entry['file']} "
          f"(base seq {wal_entry.get('base_seq', 0)})")
    for line in lines:
        print(line)
    return 0


def cmd_excuses(args) -> int:
    schema = _read_schema(args.schema)
    pairs = schema.excuse_pairs()
    for owner, attribute in pairs:
        for entry in schema.excuses_against(owner, attribute):
            print(f"({owner}, {attribute}) excused by "
                  f"{entry.excusing_class} with range {entry.range}")
    if not pairs:
        print("no excuses declared")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Class hierarchies with contradictions (Borgida, "
                    "SIGMOD 1988)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a CDL schema")
    p.add_argument("schema")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("print", help="pretty-print a CDL schema")
    p.add_argument("schema")
    p.set_defaults(func=cmd_print)

    p = sub.add_parser("type",
                       help="show an attribute's relaxed conditional type")
    p.add_argument("schema")
    p.add_argument("class_name")
    p.add_argument("attribute")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("check", help="type-check a query")
    p.add_argument("schema")
    p.add_argument("query")
    p.add_argument("--no-unshared", action="store_true",
                   help="drop the unshared-exceptional-structure "
                        "assumption (ablation)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("explain",
                       help="show the compiled plan, check sites, and "
                            "index pushdowns")
    p.add_argument("schema")
    p.add_argument("query")
    p.add_argument("--all-checked", action="store_true",
                   help="compile without check elimination (baseline)")
    p.add_argument("--index", action="append", metavar="ATTR",
                   help="assume a secondary index on ATTR (repeatable); "
                        "sargable equality conjuncts on it are pushed "
                        "down")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("theory",
                       help="print the generated subtype theory")
    p.add_argument("schema")
    p.add_argument("--no-virtual", action="store_true",
                   help="omit axioms about virtual classes")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("diff", help="structural diff of two schemas")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("deduce",
                       help="contrapositive membership deduction")
    p.add_argument("schema")
    p.add_argument("facts", nargs="+",
                   metavar="FACT",
                   help="membership facts like 'y not in Alcoholic'")
    p.set_defaults(func=cmd_deduce)

    p = sub.add_parser("excuses", help="list all excused constraints")
    p.add_argument("schema")
    p.set_defaults(func=cmd_excuses)

    p = sub.add_parser(
        "load",
        help="bulk-load JSON/JSONL rows through the batched ingest path")
    p.add_argument("schema")
    p.add_argument("rows",
                   help="rows file (JSON array or JSON Lines; '-' for "
                        "stdin); each row has a 'class' or 'classes' "
                        "key, values ('Sym for enum symbols, "
                        "{\"$ref\": id} for entities), optional 'id'")
    p.add_argument("--check", choices=("eager", "deferred"),
                   default="deferred")
    p.add_argument("--validate", action="store_true",
                   help="after a deferred load, run validate_dirty() "
                        "and report violations")
    p.add_argument("--persist", metavar="DIR",
                   help="load into a durable store directory (what "
                        "serve / recover / checkpoint open; with "
                        "--shards, one directory per shard plus a "
                        "manifest) and checkpoint it")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="route rows through a sharded store with N "
                        "shard workers; rows with an 'id' become "
                        "broadcast reference entities")
    p.add_argument("--processes", action="store_true",
                   help="with --shards: real worker processes instead "
                        "of in-process shard servers")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser(
        "shard-serve",
        help="reopen a sharded store directory (one worker process "
             "per shard), answer queries, report per-shard stats")
    p.add_argument("directory")
    p.add_argument("--query", action="append", metavar="QUERY",
                   help="run a query through the pruned scatter-"
                        "gather path (repeatable)")
    p.add_argument("--stats", action="store_true",
                   help="print per-shard and aggregate stats tables")
    p.add_argument("--checkpoint", action="store_true",
                   help="checkpoint every shard before closing")
    p.add_argument("--no-processes", dest="processes",
                   action="store_false",
                   help="use in-process shard servers (debugging)")
    p.set_defaults(func=cmd_shard_serve)

    p = sub.add_parser(
        "serve",
        help="serve a durable store directory over the framed "
             "network protocol (primary role; a SHARDS.json "
             "directory serves as a sharded store)")
    p.add_argument("directory")
    p.add_argument("--schema",
                   help="CDL file to initialize a fresh directory "
                        "(ignored when the directory already holds "
                        "a store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7463)
    p.add_argument("--sync", choices=["always", "group"],
                   help="override the WAL sync policy")
    p.add_argument("--no-processes", dest="processes",
                   action="store_false", default=True,
                   help="for a sharded directory: in-process shard "
                        "servers (debugging)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "replica",
        help="serve a read replica that replays a primary's "
             "shipped WAL")
    p.add_argument("--primary", required=True, metavar="HOST:PORT",
                   help="the primary's service endpoint")
    p.add_argument("directory", nargs="?",
                   help="durable replica directory (omit for an "
                        "in-memory replica)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7464)
    p.add_argument("--poll", type=float, default=0.05,
                   help="seconds between WAL-tail pulls")
    p.add_argument("--sync", choices=["always", "group"],
                   help="the replica WAL's sync policy")
    p.set_defaults(func=cmd_replica)

    p = sub.add_parser(
        "alter",
        help="apply one class definition from a CDL file to a durable "
             "store as a live schema change")
    p.add_argument("directory")
    p.add_argument("schema",
                   help="CDL file holding the new definition (other "
                        "classes in it are ignored)")
    p.add_argument("class_name")
    p.add_argument("--recheck",
                   choices=("affected", "lazy", "full", "none"),
                   default="affected",
                   help="how much of the population to re-validate "
                        "(default: affected signatures only)")
    p.add_argument("--dry-run", action="store_true",
                   help="report propagation diagnostics without "
                        "committing the change")
    p.add_argument("--max-violations", type=int, default=10)
    p.set_defaults(func=cmd_alter)

    p = sub.add_parser(
        "recover",
        help="recover a durable store directory and report the result")
    p.add_argument("directory")
    p.add_argument("--max-violations", type=int, default=10,
                   help="violations to print in full (default 10)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "checkpoint",
        help="write a fresh atomic checkpoint of a durable store "
             "(folds the WAL into the snapshot and rotates it)")
    p.add_argument("directory")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser(
        "wal-dump",
        help="decode a durable store's active WAL segment")
    p.add_argument("directory")
    p.set_defaults(func=cmd_wal_dump)

    p = sub.add_parser(
        "stats",
        help="conformance-engine counters for a standard workload")
    p.add_argument("--patients", type=int, default=200)
    p.add_argument("--rounds", type=int, default=3,
                   help="churn rounds over the population (default 3)")
    p.add_argument("--seed", type=int, default=1988)
    p.add_argument("--timing", action="store_true",
                   help="also accumulate wall time per event class")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="run the workload against a sharded store "
                        "with N shards and print per-shard + "
                        "aggregate stats tables")
    p.add_argument("--processes", action="store_true",
                   help="with --shards: real worker processes instead "
                        "of in-process shard servers")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
