"""The cost-based planner: pushdown extraction, caching, execution.

The planner's contract has two halves: (i) plans never change results
-- rows *and* ``rows_skipped`` match the guarded full scan exactly; and
(ii) plans are reused across executions until the schema or the index
design moves.  The exactness half is also property-tested in
``test_planner_equivalence_properties.py``; here the individual
decision rules are pinned one by one.
"""

import pytest

from repro.objects import ObjectStore
from repro.query import (
    execute,
    execute_plan,
    execute_planned,
    plan_query,
)
from repro.lang.loader import load_schema
from repro.query.compiler import _code_object
from repro.query.planner import split_conjuncts
from repro.query.parser import parse_query
from repro.scenarios import populate_hospital


@pytest.fixture(scope="module")
def world(hospital_schema):
    pop = populate_hospital(schema=hospital_schema, n_patients=200,
                            seed=21)
    store = pop.store
    store.create_index("age")
    store.create_index("ward")
    return pop, store


def _plans_equal_scan(query, store, **kwargs):
    scan_rows, scan_stats = execute(query, store, **kwargs)
    idx_rows, idx_stats = execute_planned(query, store, **kwargs)
    assert idx_rows == scan_rows
    assert idx_stats.rows_skipped == scan_stats.rows_skipped
    return idx_stats


class TestPushdownExtraction:
    def test_split_conjuncts_order(self):
        query = parse_query(
            "for p in Patient where p.age = 1 and p in Alcoholic "
            "and p.age < 9 select p.name")
        texts = [str(c) for c in split_conjuncts(query.where)]
        assert texts == ["p.age = 1", "p in Alcoholic", "p.age < 9"]

    def test_eq_pushed_when_indexed(self, world):
        _pop, store = world
        plan = plan_query("for p in Patient where p.age = 40 "
                          "select p.name", store)
        assert [p.kind for p in plan.pushdowns] == ["eq"]
        assert plan.pushdowns[0].attribute == "age"
        assert plan.pushdowns[0].value == 40

    def test_eq_blocked_without_index(self, world):
        _pop, store = world
        plan = plan_query("for p in Patient where p.name = \"x\" "
                          "select p.age", store)
        assert plan.pushdowns == ()
        assert any("no index" in reason for _t, reason in plan.blocked)

    def test_flipped_equality_is_sargable(self, world):
        _pop, store = world
        plan = plan_query("for p in Patient where 40 = p.age "
                          "select p.name", store)
        assert [p.kind for p in plan.pushdowns] == ["eq"]

    def test_membership_pushdowns(self, world):
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p in Alcoholic and "
            "p not in Tubercular_Patient select p.name", store)
        assert [p.kind for p in plan.pushdowns] == ["member", "not-member"]

    def test_residual_path_conjunct_blocks_later_pushdowns(self, world):
        # `p.age < 50` stays residual and can skip; pruning by the later
        # equality would silently drop rows the scan counts as skipped.
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p.ward < 5 and p.age = 40 "
            "select p.name", store)
        assert plan.pushdowns == ()
        assert any("can skip" in reason for _t, reason in plan.blocked)

    def test_pushed_eq_does_not_block_later_pushdowns(self, world):
        # A *pushed* equality contributes its skip rows to the visit
        # set, so later conjuncts may still be pushed.
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p.ward = 3 and p.age = 40 "
            "select p.name", store)
        assert [p.kind for p in plan.pushdowns] == ["eq", "eq"]

    def test_non_path_residuals_do_not_block(self, world):
        _pop, store = world
        plan = plan_query(
            "for p in Patient where 1 = 1 and p.age = 40 select p.name",
            store)
        assert [p.kind for p in plan.pushdowns] == ["eq"]

    def test_disjunction_is_residual(self, world):
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p.age = 40 or p.age = 41 "
            "select p.name", store)
        assert plan.pushdowns == ()


class TestPlanCache:
    def test_repeat_query_hits(self, world):
        _pop, store = world
        store.indexes.plan_cache.clear()
        base_hits = store.indexes.qstats.plan_hits
        q = "for p in Patient where p.age = 33 select p.name"
        first = plan_query(q, store)
        second = plan_query(q, store)
        assert second is first
        assert store.indexes.qstats.plan_hits == base_hits + 1

    def test_index_design_change_misses(self, world):
        _pop, store = world
        q = "for p in Patient where p.age = 34 select p.name"
        first = plan_query(q, store)
        store.create_index("name")
        try:
            assert plan_query(q, store) is not first
        finally:
            store.drop_index("name")

    def test_different_options_different_plans(self, world):
        _pop, store = world
        q = "for p in Patient where p.age = 35 select p.name"
        default = plan_query(q, store)
        unchecked = plan_query(q, store, eliminate_checks=False)
        assert unchecked is not default

    def test_unknown_option_rejected(self, world):
        _pop, store = world
        with pytest.raises(TypeError):
            plan_query("for p in Patient select p.name", store,
                       bogus=True)


class TestExecution:
    def test_selective_equality_prunes(self, world):
        _pop, store = world
        stats = _plans_equal_scan(
            "for p in Patient where p.age = 40 select p.name", store)
        assert stats.rows_pruned > 0
        assert stats.index_lookups >= 1

    def test_membership_intersection(self, world):
        _pop, store = world
        stats = _plans_equal_scan(
            "for p in Patient where p in Alcoholic and p.age = 40 "
            "select p.name", store)
        assert stats.rows_pruned >= 0

    def test_skip_rows_are_visited(self, world):
        # Ambulatory patients are excused from `ward`: the guarded scan
        # skips them, so the indexed plan must visit and skip them too.
        _pop, store = world
        stats = _plans_equal_scan(
            "for p in Patient where p.ward = 3 select p.name", store)
        assert stats.rows_skipped > 0
        assert stats.rows_pruned > 0

    def test_aggregates_over_pruned_set(self, world):
        _pop, store = world
        _plans_equal_scan(
            "for p in Patient where p.age = 40 select count", store)

    def test_on_unsafe_null_policy(self, world):
        _pop, store = world
        _plans_equal_scan(
            "for p in Patient where p.ward = 3 and p.age = 40 "
            "select p.name", store, on_unsafe="null")

    def test_unselective_pushdown_falls_back_to_scan(self, hospital_schema):
        store = ObjectStore(hospital_schema)
        for i in range(10):
            store.create("Person", name=f"p{i}", age=30)
        store.create_index("age")
        base = store.indexes.qstats.full_scans
        rows, stats = execute_planned(
            "for p in Person where p.age = 30 select p.name", store)
        assert len(rows) == 10
        assert stats.rows_pruned == 0
        assert store.indexes.qstats.full_scans == base + 1

    def test_stale_plan_with_dropped_index_scans(self, hospital_schema):
        """A plan object outliving its index runs the guarded scan
        itself, on the live store and on a snapshot that never had the
        index; a snapshot captured while the index existed still owns
        the postings and keeps pruning."""
        store = populate_hospital(schema=hospital_schema, n_patients=60,
                                  seed=21).store
        q = "for p in Patient where p.ward = 3 select p.name"
        unindexed = store.snapshot()
        store.create_index("ward")
        plan = plan_query(q, store)
        assert plan.pushdowns
        indexed = store.snapshot()
        store.drop_index("ward")
        scan_rows, scan_stats = execute(q, store)
        assert scan_stats.rows_skipped > 0
        qstats = store.indexes.qstats

        for target in (store, unindexed):
            before = qstats.snapshot()
            rows, stats = execute_plan(plan, target)  # stale plan object
            moved = {name: value - before[name]
                     for name, value in qstats.snapshot().items()
                     if value != before[name]}
            assert rows == scan_rows
            assert stats.rows_skipped == scan_stats.rows_skipped
            assert (stats.rows_pruned, stats.index_lookups) == (0, 0)
            assert moved == {"full_scans": 1, "compiled_execs": 1}

        before = qstats.snapshot()
        rows, stats = execute_plan(plan, indexed)
        assert rows == scan_rows
        assert stats.rows_skipped == scan_stats.rows_skipped
        assert stats.rows_pruned > 0
        assert qstats.index_scans == before["index_scans"] + 1
        assert qstats.full_scans == before["full_scans"]


class TestExplain:
    def test_explain_shows_pushdowns_and_blocks(self, world):
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p.age = 40 and p.name = \"x\" "
            "select p.name", store)
        text = plan.explain(store)
        assert "[pushdown] p.age = 40" in text
        assert "index(age)" in text
        assert "INAPPLICABLE" in text
        assert "no index on 'name'" in text
        assert "extent(Patient):" in text

    @pytest.mark.parametrize("face", ["live", "snapshot"])
    def test_explain_reads_postings_off_either_index_face(self, world,
                                                          face):
        # One cached plan serves the live store and every snapshot --
        # explain() included (a SnapshotIndexes has no .get()).
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p.ward = 3 select p.name", store)
        target = store if face == "live" else store.snapshot()
        text = plan.explain(target)
        assert "executor: generated row function, " in text
        assert "~0 rows" in text            # no patient's ward is 3
        ambulatory = len(store.indexes.inapplicable("ward"))
        assert ambulatory > 0
        assert f"postings: {ambulatory} inapplicable, 0 residue" in text
        assert "source(s) compiled" in text

    def test_explain_without_store_omits_estimates(self, world):
        _pop, store = world
        plan = plan_query(
            "for p in Patient where p.age = 40 select p.name", store)
        assert "~" not in plan.explain()

    def test_cli_explain_with_index(self, tmp_path, capsys):
        from repro.cli import main
        from repro.scenarios.hospital import HOSPITAL_CDL
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        rc = main(["explain", str(path),
                   "for p in Patient where p.age = 37 select p.name",
                   "--index", "age"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pushdown] p.age = 37" in out
        assert "index(age)" in out
        # "Why was this query slow" without a debugger: the function the
        # plan runs, then what its generated names are bound to.
        assert "def _plan(store, stats):" in out
        assert "for ref, memberships, values in state:" in out
        assert "_v0 = 37" in out and "_f0 = 'age'" in out
        assert "37" not in out.split("def _plan")[1].split("_a0 =")[0]

    def test_cli_explain_without_index_unchanged_prefix(self, tmp_path,
                                                        capsys):
        from repro.cli import main
        from repro.scenarios.hospital import HOSPITAL_CDL
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        rc = main(["explain", str(path),
                   "for p in Patient where p.age = 37 select p.name"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks:" in out           # the compiled half still leads
        assert "no index on 'age'" in out


# --------------------------------------------------------------------------
# Compile once per shape: names and constants are namespace-bound, so the
# code object is shared by every query that differs only in those.
# --------------------------------------------------------------------------

_SEL = "for x in Hemorrhaging_Patient where x.age = 37 select x.name"


class TestShapes:
    @pytest.fixture()
    def store(self, hospital_schema):
        store = populate_hospital(schema=hospital_schema, n_patients=30,
                                  seed=5).store
        store.create_index("age")
        _code_object.cache_clear()
        return store

    def test_alpha_renamed_texts_compile_one_code_object(self, store):
        qstats = store.indexes.qstats
        texts = [_SEL.replace("x.", f"x{i}.").replace(" x ", f" x{i} ")
                 for i in range(512)]
        plans = [plan_query(text, store) for text in texts]
        assert qstats.plan_misses == 512
        assert qstats.sources_compiled == 1
        assert len({id(plan.executor.__code__) for plan in plans}) == 1
        assert len({plan.executor for plan in plans}) == 512
        # The 256-plan cache evicted half of them; the code object is
        # not theirs to take along.
        assert qstats.plan_evictions >= 256
        plan_query(texts[0], store)
        assert qstats.plan_misses == 513
        assert qstats.sources_compiled == 1

    def test_distinct_constants_and_names_do_not_add_shapes(self, store):
        qstats = store.indexes.qstats
        results = {}
        for age in (37, 38, 40):
            text = f"for p in Patient where p.age = {age} select p.name"
            results[age] = execute_planned(text, store)[0]
            assert results[age] == execute(text, store)[0]
        execute_planned("for q in Person where q.age = 50 select q.home",
                        store.snapshot())
        # One planned shape: an eq pushdown and one unguarded select.
        assert qstats.sources_compiled == 1
        assert len({tuple(rows) for rows in results.values()}) > 1

    def test_schemas_share_code_but_not_subclass_sets(self):
        cdl = """
        class Person with name: String; end
        class Patient is-a Person with ward: String; end
        class Alcoholic is-a {parent} with therapy: String; end
        """
        text = "for p in Person where p in Patient select p.name"
        rows, plans = {}, {}
        _code_object.cache_clear()
        for parent in ("Patient", "Person"):
            store = ObjectStore(load_schema(cdl.format(parent=parent)))
            store.create("Alcoholic", name="al")
            store.create("Patient", name="pat")
            plans[parent] = plan_query(text, store)
            rows[parent] = sorted(execute_plan(plans[parent], store)[0])
            assert store.indexes.qstats.sources_compiled == (
                1 if parent == "Patient" else 0)
        assert (plans["Patient"].executor.__code__
                is plans["Person"].executor.__code__)
        assert rows == {"Patient": [("al",), ("pat",)],
                        "Person": [("pat",)]}
