"""The hospital knowledge base -- the paper's running example, end to end.

Run::

    python examples/hospital_kb.py

Covers the paper's Sections 3-5.6 on one synthetic hospital database:

* the full class hierarchy with Alcoholics, Ambulatory patients (ward:
  None), Tubercular patients (nested Swiss-hospital excuses), and the
  blood-pressure adjudication between Renal_Failure and Hemorrhaging;
* implicit virtual-class extents (H1/A1) maintained by the store;
* the Section 5.4 type-safety judgments on live queries;
* the Section 5.5 storage layout: the store's partitions (one per
  direct-membership signature, each with its own record format) and the
  deduction-pruned attribute scan.
"""

from repro import analyze, compile_query, execute
from repro.objects.profiles import (
    ScanStats,
    profile_catalog,
    record_format,
    scan_attribute,
)
from repro.objects.store import CheckMode
from repro.scenarios import populate_hospital
from repro.typesys import EnumSymbol


def main() -> None:
    pop = populate_hospital(n_patients=300, seed=1988,
                            alcoholic_fraction=0.15,
                            tubercular_fraction=0.08,
                            ambulatory_fraction=0.1,
                            cancer_fraction=0.1)
    store = pop.store
    schema = store.schema

    print("=== Population ===")
    print(f"patients={len(pop.patients)}  alcoholics={len(pop.alcoholics)}"
          f"  tubercular={len(pop.tubercular)}"
          f"  ambulatory={len(pop.ambulatory)}"
          f"  cancer={len(pop.cancer)}")
    print(f"whole store conformant: {store.validate_all() == []}")

    print("\n=== Virtual classes (Section 5.6) ===")
    print("Extent of Hospital$1 (Swiss hospitals of TB patients):",
          store.count("Hospital$1"))
    print("Extent of Address$1 (their stateless addresses):",
          store.count("Address$1"))
    swiss = store.extent("Hospital$1")[0]
    print("One of them:", swiss, "accreditation =",
          swiss.get_value("accreditation"), "location.country =",
          swiss.get_value("location").get_value("country"))

    print("\n=== Multi-membership (Section 4.1's blood pressure) ===")
    victim = pop.patients[0]
    store.set_value(victim, "bloodPressure", EnumSymbol("High_BP"),
                    check=CheckMode.NONE)
    store.classify(victim, "Renal_Failure_Patient")
    print(f"{victim.get_value('name')} is now renal-failure "
          f"(High_BP required).")
    store.set_value(victim, "bloodPressure", EnumSymbol("Low_BP"),
                    check=CheckMode.NONE)
    print("After blood loss its pressure is Low_BP; conformant?",
          store.checker.conforms(victim))
    store.classify(victim, "Hemorrhaging_Patient", check=CheckMode.NONE)
    print("Classified as Hemorrhaging too (its excuse adjudicates);",
          "conformant?", store.checker.conforms(victim))

    print("\n=== Query safety (Section 5.4) ===")
    for query in (
        "for p in Patient select p.treatedAt.location.city",
        "for p in Patient select p.treatedAt.location.state",
        "for p in Patient where p not in Tubercular_Patient "
        "select p.treatedAt.location.state",
    ):
        report = analyze(query, schema)
        verdict = "SAFE" if report.is_safe else "UNSAFE"
        print(f"[{verdict}] {query}")
        for finding in report.findings:
            print("        ", finding)

    compiled = compile_query(
        "for p in Patient select p.name, p.treatedAt.location.state",
        schema)
    rows, stats = execute(compiled, store)
    print(f"\nRunning the unsafe query anyway: {stats.rows_returned} rows,"
          f" {stats.rows_skipped} exceptional rows skipped by "
          f"{compiled.checks_inserted} inserted check(s).")

    print("\n=== Storage (Section 5.5) ===")
    catalog = profile_catalog(store)
    print(f"{len(catalog)} partitions, {len(store)} objects")
    for profile in sorted(catalog.values(), key=lambda p: p.classes):
        fields = ", ".join(f"{name}:{kind}" for name, kind in
                           record_format(schema, profile.classes).items())
        print(f"{'+'.join(profile.classes)} ({fields}) "
              f"[{len(profile.members)} objects]")
    stats = ScanStats()
    list(scan_attribute(schema, catalog, "Hospital", "accreditation",
                        stats))
    print(f"accreditation scan: reads {stats.rows_read} rows in "
          f"{stats.partitions_scanned} of {stats.partitions_considered} "
          f"partitions; a full scan reads all {len(store)}.")


if __name__ == "__main__":
    main()
