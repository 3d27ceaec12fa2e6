"""A1 -- ablations of the design decisions DESIGN.md section 6 calls out.

Not a paper table; these quantify what breaks when a key ingredient of
the reproduction is turned off, over the hospital scenario:

* **excuse folding off** (strict class = type): conformance checking that
  ignores the excuse registry.  Every exceptional object in a perfectly
  paper-valid population is rejected -- the measured size of the problem
  the ``excuses`` construct exists to solve.
* **unshared-exceptional-structure off**: the guarded-query corpus loses
  the safety proofs that depend on virtual-class provenance, so their
  run-time checks come back.
"""

from conftest import report

from repro.evaluation import render_table
from repro.query import analyze, compile_query
from repro.scenarios import populate_hospital
from repro.semantics.candidates import ExcuseSemantics
from repro.semantics.checker import ConformanceChecker, expand_signature
from repro.semantics.compiled import profile_rows
from repro.typesys.values import INAPPLICABLE


class _NoExcuses(ExcuseSemantics):
    """The paper's rule with the excuse registry ablated away."""

    def satisfies(self, schema, entity, value, constraint, excuses):
        return super().satisfies(schema, entity, value, constraint, ())


def _conforms(schema, semantics, entity, require_values=False):
    """``semantics`` over every row of the entity's profile, as E9
    reads a candidate: an unset value is skipped unless values are
    required or the declared range speaks about applicability."""
    for row in profile_rows(schema,
                            expand_signature(schema, entity.memberships)):
        value = entity.get_value(row.constraint.attribute)
        if (value is INAPPLICABLE and not require_values
                and not row.mentions_none):
            continue
        if not semantics.satisfies(schema, entity, value, row.constraint,
                                   row.excuses):
            return False
    return True


GUARDED_QUERIES = (
    "for p in Patient where p not in Tubercular_Patient "
    "select p.treatedAt.location.state",
    "for p in Patient where p not in Tubercular_Patient "
    "select p.treatedAt.accreditation",
    "for h in Hospital select h.location.city",
    "for p in Patient where p not in Alcoholic "
    "select p.treatedBy.affiliatedWith",
)


def test_a1_excuse_fold_ablation(benchmark, hospital_schema):
    def run():
        pop = populate_hospital(schema=hospital_schema, n_patients=400,
                                seed=55, alcoholic_fraction=0.15,
                                tubercular_fraction=0.1,
                                ambulatory_fraction=0.1)
        full = ConformanceChecker(hospital_schema)
        ablated = _NoExcuses()
        objects = list(pop.store.instances())
        with_fold = sum(1 for o in objects if not full.conforms(o))
        without = sum(1 for o in objects
                      if not _conforms(hospital_schema, ablated, o))
        # In lenient (values-optional) mode the ablation bites exactly on
        # objects holding a *present* value admitted only through an
        # excuse: the alcoholics.  None-excused exceptionality (missing
        # accreditation/state/ward) reads as "unset" unless values are
        # required, so we measure that separately on the Swiss hospitals.
        strict_required = ConformanceChecker(hospital_schema,
                                             require_values=True)
        swiss = pop.store.extent("Hospital$1")
        swiss_ok_full = sum(
            1 for h in swiss if strict_required.conforms(h))
        swiss_ok_ablated = sum(
            1 for h in swiss
            if _conforms(hospital_schema, ablated, h, require_values=True))
        return (len(objects), with_fold, without, len(pop.alcoholics),
                len(swiss), swiss_ok_full, swiss_ok_ablated)

    (total, with_fold, without, alcoholics, swiss, swiss_ok_full,
     swiss_ok_ablated) = benchmark.pedantic(run, rounds=1, iterations=1)
    report("A1-excuse-fold", render_table(
        ["objects", "rejected (excuses on)", "rejected (excuses off)",
         "alcoholics", "swiss hospitals", "swiss ok (excuses)",
         "swiss ok (ablated)"],
        [(total, with_fold, without, alcoholics, swiss, swiss_ok_full,
          swiss_ok_ablated)],
        "A1a: conformance with the excuse registry ablated"))
    assert with_fold == 0           # the paper-valid population passes
    assert without == alcoholics    # ablation rejects every alcoholic
    assert swiss_ok_full == swiss   # excused None ranges conform strictly
    assert swiss_ok_ablated == 0    # ...and fail without the excuses


def test_a1_unshared_ablation(benchmark, hospital_schema):
    def run():
        rows = []
        for query in GUARDED_QUERIES:
            with_inv = analyze(query, hospital_schema).is_safe
            without = analyze(query, hospital_schema,
                              assume_unshared=False).is_safe
            checks_with = compile_query(query,
                                        hospital_schema).checks_inserted
            checks_without = compile_query(
                query, hospital_schema,
                assume_unshared=False).checks_inserted
            rows.append((query[:60] + "...", with_inv, without,
                         checks_with, checks_without))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("A1-unshared", render_table(
        ["query", "safe (invariant)", "safe (ablated)",
         "checks (invariant)", "checks (ablated)"], rows,
        "A1b: guarded-query safety without the unshared invariant"))
    # Some guard-dependent proofs must be lost, and never the reverse.
    lost = sum(1 for _q, with_inv, without, _c, _d in rows
               if with_inv and not without)
    assert lost >= 2
    for _q, with_inv, without, checks_with, checks_without in rows:
        assert checks_without >= checks_with
        if without:
            assert with_inv  # ablation never *adds* safety
