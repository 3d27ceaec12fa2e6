"""A2 -- source-extent narrowing measured (not a paper table).

An optimization the substrate provides beyond the paper's check
elimination, quantified so its claim in the docs stays honest:
``where p in Alcoholic`` scans the Alcoholic extent instead of all
Patients.  (Index lookups vs scans are the e2e benchmark's ``sel_us``
and ``scan_us``.)
"""

import time

from conftest import report

from repro.evaluation import render_table
from repro.query import compile_query, execute
from repro.scenarios import populate_hospital


def test_a2_source_narrowing(benchmark, hospital_schema):
    def run():
        pop = populate_hospital(schema=hospital_schema, n_patients=4000,
                                seed=66, alcoholic_fraction=0.05)
        query = ("for p in Patient where p in Alcoholic "
                 "select p.treatedBy.therapyStyle")
        rows = []
        for optimize in (False, True):
            compiled = compile_query(query, hospital_schema,
                                     optimize_source=optimize)
            t0 = time.perf_counter()
            result, stats = execute(compiled, pop.store)
            elapsed = time.perf_counter() - t0
            rows.append(("narrowed" if optimize else "full scan",
                         compiled.source_class, stats.rows_scanned,
                         len(result), f"{elapsed * 1000:.2f} ms"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("A2-source-narrowing", render_table(
        ["plan", "scanned extent", "rows scanned", "rows out", "time"],
        rows, "A2a: source-extent narrowing on a 4000-patient base"))
    full, narrowed = rows
    assert narrowed[3] == full[3]              # same answers
    assert narrowed[2] < full[2] / 5           # far fewer rows touched

