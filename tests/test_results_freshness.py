"""Committed experiment tables match what the code computes today.

The benchmark harness persists its tables under ``benchmarks/results/``
and headline numbers as ``BENCH_*.json`` at the repo root; these tests
recompute the cheap, deterministic ones and compare, so a code change
that silently shifts an experiment's outcome fails CI even if the
benchmarks were not re-run.  (Timing-bearing tables are checked for
structure only.)
"""

import json
import os

import pytest

from repro.baselines import ALL_MECHANISMS
from repro.evaluation import DESIDERATA, desiderata_matrix, render_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")


def _result(name):
    path = os.path.join(RESULTS_DIR, name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not generated yet (run the benchmarks)")
    with open(path) as f:
        return f.read()


def _bench_json(name):
    path = os.path.join(REPO_ROOT, name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not generated yet (run the benchmarks)")
    with open(path) as f:
        return json.load(f)


def test_e1_table_matches_recomputation():
    matrix = desiderata_matrix(ALL_MECHANISMS)
    rows = [[name] + [cells[d] for d in DESIDERATA]
            for name, cells in matrix]
    expected = render_table(
        ["mechanism"] + list(DESIDERATA), rows,
        "E1: desiderata of Section 5, probed per mechanism")
    assert _result("E1-desiderata.txt").strip() == expected.strip()


def test_e9_table_shape():
    text = _result("E9-semantics.txt")
    assert "excuse" in text
    # The final column must equal the correct column on every case row.
    for line in text.splitlines()[3:]:
        cells = [c for c in line.split("  ") if c.strip()]
        if len(cells) >= 6:
            assert cells[-1].strip() == cells[1].strip(), line


def test_e6_table_shows_perfect_detection():
    text = _result("E6-error-detection.txt")
    total_row = next(l for l in text.splitlines()
                     if l.startswith("all"))
    cells = [c for c in total_row.split() if c]
    # all <intended> <accidental> <flagged> <correct> <default>
    assert cells[2] == cells[3] == cells[4]
    assert cells[5] == "0"


def test_e5_table_monotone_and_zero_for_excuses():
    text = _result("E5-ambiguity.txt")
    rates = []
    for line in text.splitlines()[3:]:
        cells = line.split()
        if len(cells) == 3:
            rates.append(float(cells[1].rstrip("%")))
            assert cells[2] == "0.0%"
    assert rates[0] == 0.0
    assert rates[-1] > 0.0


def test_e4_table_matches_paper_column():
    text = _result("E4-safety.txt")
    for line in text.splitlines()[3:]:
        cells = [c for c in line.split("  ") if c.strip()]
        if len(cells) == 4:
            assert cells[1].strip() == cells[2].strip(), line


def test_bench_bulk_json_structure():
    data = _bench_json("BENCH_bulk.json")
    assert data["experiment"] == "A5-bulk-ingest"
    assert data["n_objects"] >= 10_000
    paths = data["paths"]
    assert {"bulk eager", "bulk deferred"} <= set(paths)
    for name, entry in paths.items():
        assert entry["time_s"] > 0 and entry["objects_per_sec"] > 0
        assert entry["speedup"] > 1.0, name
    # The committed run cleared both acceptance floors (the benchmark
    # asserts them again on regeneration).
    assert data["eager_speedup"] >= 3.0
    assert data["best_speedup"] >= 5.0
    assert data["best_speedup"] == max(
        entry["speedup"] for entry in paths.values())
    # Every distinct membership signature in the workload was served by
    # a compiled checker.
    assert data["profiles_compiled"] >= 1
    assert data["validate_dirty_s"] > 0


def test_bench_concurrent_json_structure():
    data = _bench_json("BENCH_concurrent.json")
    assert data["experiment"] == "A7-concurrent"
    assert data["n_objects"] >= 10_000
    assert data["locked_reader_qps"] > 0
    readers = data["snapshot_readers"]
    assert {"1", "2", "4"} <= set(readers)
    for entry in readers.values():
        assert entry["aggregate_qps"] > 0
    # The committed run cleared the acceptance floor: 4 snapshot readers
    # beat the lock-coupled single reader by >= 2x aggregate throughput
    # (the benchmark asserts it again on regeneration).
    assert data["scaling"] >= 2.0
    assert data["scaling"] == (readers["4"]["aggregate_qps"]
                               / data["locked_reader_qps"])
    # The writer kept committing while readers ran.
    assert data["writer_commits"] > 0


def test_bench_evolution_json_structure():
    data = _bench_json("BENCH_evolution.json")
    assert data["experiment"] == "A8-evolution"
    assert data["n_objects"] >= 100_000
    # Counter-verified delta scoping: the affected-mode alter checked
    # strictly less than the full re-validation of the same change, and
    # together the rechecked + skipped populations cover the store.
    assert (data["delta_objects_rechecked"]
            < data["full_objects_rechecked"])
    assert data["delta_objects_skipped"] >= data["n_equipment"]
    assert (data["delta_objects_rechecked"]
            + data["delta_objects_skipped"]
            == data["full_objects_rechecked"])
    # The committed run cleared the acceptance floor: reader p99 during
    # the online alter within 2x of the no-writer baseline (the
    # benchmark asserts it again on regeneration).
    assert data["disturbance"] <= data["disturbance_floor"] == 2.0
    assert data["reader_baseline_p99_us"] > 0
    assert data["baseline_samples"] > 0
    assert data["during_alter_samples"] > 0


def test_bench_wal_json_structure():
    data = _bench_json("BENCH_wal.json")
    assert data["experiment"] == "A6-wal-durability"
    assert data["n_objects"] >= 10_000
    paths = data["paths"]
    assert {"in-memory", "none", "wal group", "wal always"} <= set(paths)
    for name, entry in paths.items():
        assert entry["time_s"] > 0 and entry["objects_per_sec"] > 0
    # The committed run cleared both acceptance floors (the benchmark
    # asserts them again on regeneration).
    assert data["write_ratio"] >= 0.5
    assert data["write_ratio"] == paths["wal group"]["ratio_vs_none"]
    assert data["recovery_s"] < 5.0
    # Recovery replayed the whole eager workload from the log.
    assert data["recovery_replayed"] >= data["n_objects"]
    # fsync-per-commit must not beat batched group commit.
    assert (paths["wal always"]["objects_per_sec"]
            <= paths["wal group"]["objects_per_sec"])


def test_bench_sharded_json_structure():
    data = _bench_json("BENCH_sharded.json")
    assert data["experiment"] == "A10-sharded"
    assert data["n_objects"] >= 100_000
    shards = data["shards"]
    assert {"1", "2", "4", "8"} <= set(shards)
    for n_shards, entry in shards.items():
        assert entry["write_s"] > 0 and entry["objects_per_sec"] > 0
        assert entry["selective_qps"] > 0 and entry["scan_qps"] > 0
        # Pruning floors are hardware-independent: the rare cohort's
        # class-restricted query dispatched to strictly fewer shards
        # than exist, and the reference-contradiction query was
        # refuted by deduction on every shard.
        if int(n_shards) > 1:
            assert entry["selective_dispatched"] < int(n_shards), entry
            assert entry["deduction_dispatched"] == 0, entry
            assert entry["deduction_prunes"] >= int(n_shards), entry
    # The write-scaling floor is asserted whenever the committed run
    # had processors to scale onto (the benchmark re-asserts it on
    # regeneration under the same condition).
    assert data["scaling_floor"] == 2.0
    assert data["scaling_4x"] > 0
    assert data["scaling_enforced"] == (data["cpu_count"] >= 4)
    if data["scaling_enforced"]:
        assert data["scaling_4x"] >= data["scaling_floor"]


def test_bench_net_json_structure():
    data = _bench_json("BENCH_net.json")
    assert data["experiment"] == "A11-net"
    assert data["n_objects"] >= 4_000
    assert data["n_client_threads"] >= 4
    replicas = data["replicas"]
    assert {"0", "1", "2"} <= set(replicas)
    for entry in replicas.values():
        assert entry["reads_per_sec"] > 0
        assert 0 < entry["p50_us"] <= entry["p99_us"]
    # Convergence floors are hardware-independent: the committed run's
    # write burst replayed on every replica with no sequence gaps,
    # duplicate applies, or stale re-bootstraps, and the epoch-token
    # catch-up completed (the benchmark re-asserts exact counter
    # equality over the wire on regeneration).
    assert data["write_burst"] >= 400
    assert data["ship_records"] >= 2 * data["write_burst"]
    assert data["ship_batches"] > 0
    assert data["gaps_detected"] == 0
    assert data["stale_restarts"] == 0
    assert data["catchup_s"] > 0
    assert data["max_lag_during_burst"] >= 0
    # The read-scaling floor is asserted whenever the committed run had
    # processors to scale onto (the benchmark re-asserts it on
    # regeneration under the same condition).
    assert data["scaling_floor"] == 2.0
    assert data["scaling_2x"] > 0
    assert data["scaling_enforced"] == (data["cpu_count"] >= 3)
    if data["scaling_enforced"]:
        assert data["scaling_2x"] >= data["scaling_floor"]


def test_bench_net_sharded_json_structure():
    data = _bench_json("BENCH_net_sharded.json")
    assert data["experiment"] == "A12-net-sharded"
    assert data["n_objects"] >= 20_000
    assert data["n_rare"] >= 100
    shards = data["shards"]
    assert {"1", "2", "4"} <= set(shards)
    for entry in shards.values():
        assert entry["objects_per_sec"] > 0
        assert entry["selective_qps"] > 0
        assert entry["scan_qps"] > 0
    # Pruning floors are hardware-independent and counter-verified
    # over the wire (the benchmark re-asserts them on regeneration):
    # the rare cohort's class-restricted query reaches exactly one
    # shard, the deduction-refuted query reaches none and prunes all.
    for n in ("2", "4"):
        entry = shards[n]
        assert entry["selective_dispatched"] == 1
        assert entry["deduction_dispatched"] == 0
        assert entry["deduction_pruned"] == int(n)
        assert entry["deduction_prunes"] >= int(n)
    assert data["scaling_floor"] == 2.0
    assert data["scaling_4x"] > 0
    assert data["scaling_enforced"] == (data["cpu_count"] >= 4)
    if data["scaling_enforced"]:
        assert data["scaling_4x"] >= data["scaling_floor"]
