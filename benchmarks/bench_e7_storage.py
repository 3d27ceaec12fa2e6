"""E7 -- horizontal partitioning and type-deduction pruning (§5.5).

"[With horizontal partitioning] it is no longer possible to associate
with every attribute a single table where all its values are stored.
However ... the type deduction algorithm can then help reduce the
run-time search for the file where some particular object's attribute
value is located."

We populate stores with growing exceptional fractions, read the
partition off each live store (``repro.objects.profiles``: one profile
per direct-membership signature, each with its own record format), and
compare the pruned attribute scan (profiles filtered by the schema)
against the scan-everything baseline below: rows read, partitions
touched, wall time.

Expected shape: pruning reads strictly fewer rows, identical answers;
the relative saving grows as more of the population lives in partitions
irrelevant to the scanned class.
"""

import time

from conftest import report

from repro.evaluation import render_table
from repro.objects.profiles import ScanStats, profile_catalog, scan_attribute
from repro.scenarios import populate_hospital
from repro.typesys.values import INAPPLICABLE

FRACTIONS = (0.0, 0.1, 0.25, 0.5)


def _build(fraction, hospital_schema):
    pop = populate_hospital(
        schema=hospital_schema, n_patients=1500, seed=44,
        tubercular_fraction=fraction / 2,
        ambulatory_fraction=fraction / 2,
        alcoholic_fraction=0.1)
    return profile_catalog(pop.store)


def unpruned_scan(schema, catalog, class_name, attribute, stats):
    """The no-type-deduction baseline: every profile is read and each
    row's membership tested."""
    for profile in sorted(catalog.values(), key=lambda p: p.classes):
        stats.partitions_considered += 1
        stats.partitions_scanned += 1
        relevant = any(schema.is_subclass(m, class_name)
                       for m in profile.classes)
        for obj in profile.members:
            stats.rows_read += 1
            value = obj.get_value(attribute)
            if relevant and value is not INAPPLICABLE:
                stats.rows_matched += 1
                yield obj.surrogate, value


def _scan(schema, catalog, prune):
    stats = ScanStats()
    scan = scan_attribute if prune else unpruned_scan
    values = list(scan(schema, catalog, "Hospital", "accreditation", stats))
    return values, stats


def test_e7_pruning_table(benchmark, hospital_schema):
    def run():
        rows = []
        for fraction in FRACTIONS:
            catalog = _build(fraction, hospital_schema)
            pruned_values, fast = _scan(hospital_schema, catalog, True)
            t0 = time.perf_counter()
            _scan(hospital_schema, catalog, True)
            t_fast = time.perf_counter() - t0
            full_values, slow = _scan(hospital_schema, catalog, False)
            t0 = time.perf_counter()
            _scan(hospital_schema, catalog, False)
            t_slow = time.perf_counter() - t0
            assert sorted(pruned_values) == sorted(full_values)
            rows.append((fraction, len(catalog),
                         fast.partitions_scanned, slow.partitions_scanned,
                         fast.rows_read, slow.rows_read,
                         f"{t_fast * 1000:.2f} ms",
                         f"{t_slow * 1000:.2f} ms"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("E7-storage", render_table(
        ["exceptional frac", "partitions", "parts (pruned)",
         "parts (full)", "rows read (pruned)", "rows read (full)",
         "pruned scan", "full scan"], rows,
        "E7: attribute scan with/without type-deduction pruning"))

    for row in rows:
        assert row[2] <= row[3]
        assert row[4] < row[5]
    # The absolute saving (rows skipped) grows with the population size
    # outside the scanned class.
    assert (rows[-1][5] - rows[-1][4]) >= (rows[0][5] - rows[0][4])


def test_e7_bench_pruned(benchmark, hospital_schema):
    catalog = _build(0.2, hospital_schema)
    benchmark(lambda: _scan(hospital_schema, catalog, True))


def test_e7_bench_unpruned(benchmark, hospital_schema):
    catalog = _build(0.2, hospital_schema)
    benchmark(lambda: _scan(hospital_schema, catalog, False))
