"""Machine-readable experiment registry.

The per-experiment index of DESIGN.md, as data: experiment id, paper
source, the claim whose *shape* the benchmark asserts, the library
modules exercised, and the bench module that regenerates the table.
Tests keep this registry, the bench files, and EXPERIMENTS.md in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Experiment:
    """One reproduced experiment."""

    id: str
    title: str
    paper_source: str
    claim: str
    modules: Tuple[str, ...]
    bench_module: str

    def __str__(self) -> str:
        return f"{self.id}: {self.title} ({self.paper_source})"


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "E1", "Desiderata matrix", "§4.2 + §5 + §6",
        "excuses meet all eight desiderata; every alternative fails >= 2",
        ("repro.evaluation.desiderata", "repro.baselines"),
        "bench_e1_desiderata.py"),
    Experiment(
        "E2", "Schema blow-up vs contradicted attributes", "§4.2.2",
        "intermediate classes grow as 2^k, reconciliation linearly, "
        "excuses add zero classes",
        ("repro.evaluation.verbosity", "repro.baselines"),
        "bench_e2_verbosity.py"),
    Experiment(
        "E3", "Run-time check elimination", "§5.4",
        "inference removes the vast majority of checks with identical "
        "answers; the speedup grows with database size",
        ("repro.query.compiler", "repro.query.interpreter"),
        "bench_e3_check_elimination.py"),
    Experiment(
        "E4", "Safety judgments (+ E4b scaling)", "§5.4",
        "every judgment in the paper's prose reproduces; analysis cost "
        "is low-polynomial in schema size",
        ("repro.query.typing", "repro.query.analysis"),
        "bench_e4_safety.py"),
    Experiment(
        "E5", "Default-inheritance ambiguity on DAGs", "§4.2.4",
        "ambiguity is 0 on trees, grows with multi-parent density; "
        "excuses are ambiguity-free by construction",
        ("repro.baselines.default_inheritance",
         "repro.scenarios.generators"),
        "bench_e5_ambiguity.py"),
    Experiment(
        "E6", "Accidental-contradiction detection", "§4.2.4 + §6",
        "excuse validation flags 100% of accidents with zero false "
        "positives; cancellable inheritance flags none",
        ("repro.schema.validation", "repro.scenarios.generators"),
        "bench_e6_error_detection.py"),
    Experiment(
        "E7", "Horizontal partitioning + pruned search", "§5.5",
        "exceptional subclasses get distinct record formats; type "
        "deduction prunes the live store's profile search with "
        "identical answers",
        ("repro.objects.profiles",),
        "bench_e7_storage.py"),
    Experiment(
        "E8", "Automatic extents vs manual sets", "§3c (vs ref [6])",
        "manual per-class procedures grow with the hierarchy and break "
        "silently under evolution; the store needs none and stays right",
        ("repro.objects.store",),
        "bench_e8_extents.py"),
    Experiment(
        "E9", "Candidate-semantics shoot-out", "§5.2",
        "each rejected candidate fails exactly the paper's "
        "counterexample; the final semantics is right on every case",
        ("repro.semantics.candidates",),
        "bench_e9_semantics.py"),
    Experiment(
        "E10", "Per-individual exceptions vs excuses", "§1 + §4.1",
        "ref [4] needs one record per exceptional object (linear "
        "bookkeeping); the schema needs one excuse clause",
        ("repro.objects.exceptional",),
        "bench_e10_exceptional.py"),
    Experiment(
        "A1", "Design-decision ablations", "DESIGN.md §6",
        "folding excuses off rejects every exceptional object; dropping "
        "the unshared invariant loses the guard-restored safety proofs",
        ("repro.semantics.checker", "repro.query.typing"),
        "bench_ablations.py"),
    Experiment(
        "A2", "Source-extent narrowing", "substrate",
        "`where p in C` scans C's extent instead of the source's: "
        "identical answers from a fraction of the rows",
        ("repro.query.compiler",),
        "bench_optimizations.py"),
    Experiment(
        "A4", "Indexed query execution", "substrate",
        "excuse-aware secondary indexes plus the pushdown planner beat "
        "the guarded full scan >= 5x on selective queries with "
        "identical rows and identical rows_skipped",
        ("repro.query.indexes", "repro.query.planner"),
        "bench_query_index.py"),
    Experiment(
        "A5", "Bulk ingestion pipeline", "substrate",
        "one generated check per signature group makes batched ingest "
        ">= 3x the per-object eager path with identical final state",
        ("repro.objects.bulk", "repro.semantics.compiled"),
        "bench_bulk_ingest.py"),
    Experiment(
        "A6", "Crash-consistent durability", "substrate",
        "WAL-backed stores keep >= 0.5x the in-memory write rate and "
        "recover a 10k-object store in < 5 s; every crash point "
        "recovers a committed prefix (fault-injection sweeps)",
        ("repro.storage.wal", "repro.storage.recovery"),
        "bench_wal_durability.py"),
    Experiment(
        "A7", "Concurrent serving via MVCC snapshots", "substrate",
        "snapshot readers never block on the writer: 4 reader threads "
        "sustain >= 2x the aggregate query throughput of a lock-coupled "
        "reader while a transactional writer churns a 10k-object store",
        ("repro.objects.pipeline", "repro.objects.snapshot",
         "repro.objects.concurrent"),
        "bench_concurrent.py"),
    Experiment(
        "A8", "Online schema evolution", "§6 + substrate",
        "adding an excused subclass over a 100k+-object store re-checks "
        "only diff-affected signatures (counter-verified) and leaves "
        "concurrent snapshot-reader p99 within 2x of the no-writer "
        "baseline",
        ("repro.schema.evolution", "repro.schema.diff",
         "repro.objects.pipeline", "repro.schema.epochs"),
        "bench_schema_evolution.py"),
    Experiment(
        "A10", "Sharded multi-process stores", "substrate",
        "signature-profile partitioning across worker processes scales "
        "bulk write throughput >= 2x at 4 shards vs 1 (on >= 4 CPUs), "
        "while shard maps plus contrapositive deduction prune "
        "selective class-restricted queries to strictly fewer than N "
        "shards (counter-verified) with rows and rows_skipped "
        "identical at every shard count",
        ("repro.sharding.router", "repro.sharding.worker",
         "repro.sharding.pruning", "repro.sharding.wire",
         "repro.query.deduction", "repro.storage.shards"),
        "bench_sharded.py"),
    Experiment(
        "A11", "Networked serving with WAL-shipped replicas",
        "substrate",
        "read replicas replaying the primary's shipped WAL records "
        "scale aggregate read throughput >= 2x at 2 replicas vs 0 "
        "(on >= 3 CPUs), while a write burst converges on every "
        "replica at the primary's exact WAL seq under the epoch-token "
        "wait -- zero gaps, duplicate applies, or stale re-bootstraps, "
        "counter-verified over the wire",
        ("repro.net.server", "repro.net.client",
         "repro.net.replication", "repro.net.protocol",
         "repro.storage.wal"),
        "bench_net.py"),
    Experiment(
        "A12", "Sharded stores served over the network", "substrate",
        "one service fronting N shard worker processes serves the "
        "full op surface through the StoreBackend seam: routed bulk "
        "loads scale write throughput >= 2x at 4 shards vs 1 (on "
        ">= 4 CPUs), the rare-cohort query dispatches to exactly 1 of "
        "N shards and the deduction-refuted query to 0 (verified from "
        "the service's routed-op counters over the wire), and the "
        "merged vector ack token spans every shard with token_wait "
        "returning a covering position",
        ("repro.net.backends", "repro.net.server", "repro.net.client",
         "repro.net.tokens", "repro.sharding.router",
         "repro.sharding.pruning"),
        "bench_net_sharded.py"),
)


def experiment(experiment_id: str) -> Optional[Experiment]:
    for e in EXPERIMENTS:
        if e.id == experiment_id:
            return e
    return None


def render_index() -> str:
    """The experiment index as aligned text."""
    lines = []
    for e in EXPERIMENTS:
        lines.append(f"{e.id:4} {e.title}")
        lines.append(f"     source: {e.paper_source}")
        lines.append(f"     claim:  {e.claim}")
        lines.append(f"     bench:  benchmarks/{e.bench_module}")
        lines.append(f"     code:   {', '.join(e.modules)}")
    return "\n".join(lines)
