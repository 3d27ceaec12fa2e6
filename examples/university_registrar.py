"""A second domain: the university registrar.

Run::

    python examples/university_registrar.py

The hospital is the paper's example; this applies the same constructs to
a fresh domain to show they travel: auditors receive no grades,
pass/fail enrollments contradict the letter-grade range, visiting
professors have no department, emeritus professors teach nothing.
Exercises the CDL, conditional types, guarded queries, aggregates, and
partitioned storage in one pass.
"""

from repro import analyze, execute
from repro.objects.profiles import profile_catalog, record_format
from repro.scenarios.university import populate_university


def main() -> None:
    pop = populate_university(n_students=120, audit_fraction=0.15,
                              pass_fail_fraction=0.2, seed=7)
    store = pop.store
    schema = store.schema

    print("=== The grade attribute as a type ===")
    print("Enrollment <",
          f"[grade: {schema.relaxed_constraint('Enrollment', 'grade')}]")

    print("\n=== Query safety ===")
    for query in (
        "for e in Enrollment select e.grade",
        "for e in Enrollment where e not in Audit_Enrollment and "
        "e not in PassFail_Enrollment select e.grade",
    ):
        report = analyze(query, schema)
        print(f"[{'SAFE' if report.is_safe else 'UNSAFE'}] {query}")
        for finding in report.findings:
            print("        ", finding)

    print("\n=== Registrar statistics (aggregate queries) ===")
    for label, query in (
        ("enrollments", "for e in Enrollment select count"),
        ("with letter/PF grade",
         "for e in Enrollment select count e.grade"),
        ("audits",
         "for e in Enrollment where e in Audit_Enrollment select count"),
        ("average student age", "for s in Student select avg s.age"),
        ("course credits (min/max/total)",
         "for c in Course select min c.credits, max c.credits, "
         "total c.credits"),
    ):
        rows, _ = execute(query, store)
        print(f"{label}: {rows[0]}")

    print("\n=== Storage layout ===")
    for profile in sorted(profile_catalog(store).values(),
                          key=lambda p: p.classes):
        if any("Enrollment" in name for name in profile.classes):
            fields = ", ".join(
                f"{name}:{kind}" for name, kind in
                record_format(schema, profile.classes).items())
            print(f"{'+'.join(profile.classes)} ({fields}) "
                  f"[{len(profile.members)} objects]")
    print("(note: the audit partition's record format has no grade "
          "field at all)")


if __name__ == "__main__":
    main()
