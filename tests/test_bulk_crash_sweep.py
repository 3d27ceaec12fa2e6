"""Crash-point sweep over a mixed bulk-ingest workload (slow).

A bulk batch is one WAL record and therefore one atomicity unit: a crash
anywhere during ingestion must recover either the pre-batch store or the
whole batch -- never a partial load.  This sweep runs a mixed workload
shape (patients / exceptional patients / wards / physicians
against the shared cast) on the fault-injection filesystem, killing the
process at every counted filesystem operation under every crash policy,
and asserts all-or-nothing recovery at each point.
"""

from __future__ import annotations

import pytest

from repro.storage.recovery import open_store
from repro.typesys import EnumSymbol

from tests.faultfs import FaultFS, MemFS, SimulatedCrash, store_digest

pytestmark = pytest.mark.slow

DIR = "/store"
N_ROWS = 120
_BP = ("Normal_BP", "High_BP", "Low_BP")
POLICIES = ("synced", "flushed", "torn")


def _row_specs(n):
    """The mix, placeholders resolved against the cast at ingest
    time."""
    rows = []
    for i in range(n):
        k = i % 10
        if k < 6:
            rows.append((("Patient",), {
                "name": f"p{i}", "age": 20 + i % 60,
                "bloodPressure": EnumSymbol(_BP[i % 3]),
                "treatedBy": "$physician"}))
        elif k < 8:
            extra = ("Alcoholic", "Cancer_Patient")[i % 2]
            values = {"name": f"x{i}", "age": 30 + i % 50,
                      "treatedBy": "$psychologist" if extra == "Alcoholic"
                      else "$oncologist"}
            rows.append((("Patient", extra), values))
        elif k < 9:
            rows.append((("Ward",),
                         {"floor": 1 + i % 12, "name": f"W{i}"}))
        else:
            rows.append((("Physician",), {
                "name": f"dr{i}", "age": 35 + i % 30,
                "affiliatedWith": "$hospital",
                "specialty": EnumSymbol("General")}))
    return rows


def _run_workload(fs, schema, digests=None):
    store = open_store(DIR, schema, durability="wal", fs=fs,
                       sync="always")
    store.create_index("age")
    cast = {}
    note = (lambda: digests.append(store_digest(store))) \
        if digests is not None else (lambda: None)
    note()
    addr = store.create("Address", street="1 Main", city="Trenton",
                        state=EnumSymbol("NJ"))
    note()
    cast["$hospital"] = store.create(
        "Hospital", location=addr, accreditation=EnumSymbol("Federal"))
    note()
    cast["$physician"] = store.create(
        "Physician", name="Dr. F", age=50,
        affiliatedWith=cast["$hospital"],
        specialty=EnumSymbol("General"))
    note()
    cast["$oncologist"] = store.create(
        "Oncologist", name="Dr. O", age=48,
        affiliatedWith=cast["$hospital"],
        specialty=EnumSymbol("Oncology"))
    note()
    cast["$psychologist"] = store.create(
        "Psychologist", name="Dr. P", age=61,
        therapyStyle=EnumSymbol("CBT"))
    note()
    rows = [(classes,
             {name: cast.get(value, value) if isinstance(value, str)
              else value for name, value in values.items()})
            for classes, values in _row_specs(N_ROWS)]
    store.bulk_load(rows, check="deferred")
    note()
    store.validate_dirty()
    note()
    store.close()
    return store


def test_batch_is_one_atomicity_unit(hospital_schema):
    """The oracle itself: exactly one digest jump covers all N_ROWS."""
    digests = []
    fs = FaultFS()
    _run_workload(fs, hospital_schema, digests)
    pre, post = digests[-3], digests[-2]
    assert len(post[0]) - len(pre[0]) == N_ROWS
    assert fs.ops >= 20


@pytest.mark.parametrize("policy", POLICIES)
def test_every_crash_point_is_all_or_nothing(hospital_schema, policy):
    digests = []
    probe = FaultFS()
    _run_workload(probe, hospital_schema, digests)
    allowed = set(digests)
    sizes = {len(d[0]) for d in digests}

    for point in range(1, probe.ops + 1):
        fs = FaultFS(crash_at=point, tear_writes=policy == "torn")
        with pytest.raises(SimulatedCrash):
            _run_workload(fs, hospital_schema)
        disk = MemFS(fs.crash_state(policy))
        if not disk.exists(f"{DIR}/MANIFEST"):
            continue
        recovered = open_store(DIR, fs=disk)
        assert recovered.last_recovery.conformant
        digest = store_digest(recovered)
        assert digest in allowed, (
            f"crash at op {point} ({policy}): recovered a state that "
            "was never committed")
        assert len(digest[0]) in sizes, (
            f"crash at op {point} ({policy}): partial bulk batch "
            f"survived ({len(digest[0])} objects)")
        recovered.close()
