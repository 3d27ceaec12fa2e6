"""Query compilation, check elimination, and execution."""

import pytest

from repro.errors import QueryTypeError
from repro.objects import ObjectStore
from repro.query import compile_query, execute, plan_query
from repro.query.ast import Expr, InClass, Path, Query, Var, When
from repro.query.compiler import QueryRuntimeError
from repro.query.typing import QueryTyper
from repro.typesys import EnumSymbol, INAPPLICABLE
from tests.reference_query import reference_execute


@pytest.fixture(scope="module")
def world(hospital_population):
    pop = hospital_population
    return pop.store.schema, pop


class TestCheckInsertion:
    def test_safe_query_has_no_checks(self, world):
        schema, _pop = world
        c = compile_query(
            "for p in Patient select p.name, p.treatedAt.location.city",
            schema)
        assert c.checks_inserted == 0
        assert c.accesses_total == 4
        assert c.checks_eliminated == 4

    def test_unsafe_access_gets_exactly_one_check(self, world):
        schema, _pop = world
        c = compile_query(
            "for p in Patient select p.treatedAt.location.state", schema)
        assert c.checks_inserted == 1  # only the final .state fetch

    def test_guard_eliminates_the_check(self, world):
        schema, _pop = world
        c = compile_query(
            "for p in Patient where p not in Tubercular_Patient "
            "select p.treatedAt.location.state", schema)
        assert c.checks_inserted == 0

    def test_baseline_checks_everything(self, world):
        schema, _pop = world
        c = compile_query(
            "for p in Patient select p.name, p.treatedAt.location.city",
            schema, eliminate_checks=False)
        assert c.checks_inserted == c.accesses_total == 4

    def test_branch_sensitive_decisions(self, world):
        schema, _pop = world
        c = compile_query(
            "for p in Patient select when p in Alcoholic "
            "then p.treatedBy.therapyStyle else p.treatedBy end", schema)
        # Inside the guard everything is provable; no checks needed.
        assert c.checks_inserted == 0

    def test_definite_error_rejected_at_compile_time(self, world):
        schema, _pop = world
        with pytest.raises(QueryTypeError):
            compile_query("for p in Person select p.supervisor", schema)


class TestExecution:
    def test_safe_query_runs_clean(self, world):
        schema, pop = world
        rows, stats = execute(
            "for p in Patient select p.name, p.treatedAt.location.city",
            pop.store)
        assert stats.rows_returned == len(pop.patients)
        assert stats.rows_skipped == 0
        assert stats.checks_executed == 0

    def test_unsafe_query_skips_exceptional_rows(self, world):
        schema, pop = world
        rows, stats = execute(
            "for p in Patient select p.name, p.treatedAt.location.state",
            pop.store)
        assert stats.rows_skipped == len(pop.tubercular)
        assert stats.rows_returned == len(pop.patients) - len(
            pop.tubercular)
        assert stats.checks_executed == stats.rows_scanned

    def test_guarded_query_equivalent_without_checks(self, world):
        schema, pop = world
        rows_guarded, stats_guarded = execute(
            "for p in Patient where p not in Tubercular_Patient "
            "select p.name, p.treatedAt.location.state", pop.store)
        rows_unsafe, _ = execute(
            "for p in Patient select p.name, "
            "p.treatedAt.location.state", pop.store)
        assert sorted(rows_guarded) == sorted(rows_unsafe)
        assert stats_guarded.checks_executed == 0

    def test_elimination_does_not_change_results(self, world):
        schema, pop = world
        query = ("for p in Patient where p.age > 40 "
                 "select p.name, p.treatedAt.location.city")
        fast, _ = execute(compile_query(query, schema), pop.store)
        slow, slow_stats = execute(
            compile_query(query, schema, eliminate_checks=False),
            pop.store)
        assert fast == slow
        assert slow_stats.checks_executed > 0

    def test_where_filtering(self, world):
        schema, pop = world
        rows, _ = execute(
            "for p in Patient where p in Alcoholic select p.name",
            pop.store)
        assert len(rows) == len(pop.alcoholics)

    def test_when_expression_evaluation(self, world):
        schema, pop = world
        rows, _ = execute(
            "for p in Patient select p.name, when p in Alcoholic "
            "then 'Therapy else 'Medicine end", pop.store)
        therapy = [r for r in rows if r[1] == EnumSymbol("Therapy")]
        assert len(therapy) == len(pop.alcoholics)

    def test_comparisons_and_literals(self, world):
        schema, pop = world
        rows, _ = execute(
            "for p in Patient where p.bloodPressure = 'Normal_BP "
            "and p.age >= 50 select p.age", pop.store)
        assert all(age >= 50 for (age,) in rows)

    def test_boolean_connectives(self, world):
        schema, pop = world
        rows_or, _ = execute(
            "for p in Patient where p in Alcoholic or "
            "p in Tubercular_Patient select p.name", pop.store)
        assert len(rows_or) == len(pop.alcoholics) + len(pop.tubercular)
        rows_not, _ = execute(
            "for p in Patient where not p in Alcoholic select p.name",
            pop.store)
        assert len(rows_not) == len(pop.patients) - len(pop.alcoholics)


class TestUnsafePolicies:
    def test_null_policy_returns_inapplicable(self, world):
        schema, pop = world
        rows, stats = execute(
            compile_query(
                "for p in Patient select p.name, "
                "p.treatedAt.location.state", schema, on_unsafe="null"),
            pop.store)
        assert stats.rows_skipped == 0
        nulls = [r for r in rows if r[1] is INAPPLICABLE]
        assert len(nulls) == len(pop.tubercular)

    def test_raise_policy(self, world):
        schema, pop = world
        compiled = compile_query(
            "for p in Patient select p.treatedAt.location.state",
            schema, on_unsafe="raise")
        with pytest.raises(QueryRuntimeError):
            execute(compiled, pop.store)

    def test_bad_policy_rejected(self, world):
        schema, _pop = world
        with pytest.raises(ValueError):
            compile_query("for p in Patient select p.name", schema,
                          on_unsafe="explode")


class TestQueryTextEntryPoint:
    def test_execute_accepts_text(self, world):
        _schema, pop = world
        rows, _ = execute("for p in Patient select p.age", pop.store)
        assert len(rows) == len(pop.patients)


def _path_nodes(node) -> int:
    """Attribute accesses in an AST, counted per occurrence."""
    if isinstance(node, tuple):
        return sum(map(_path_nodes, node))
    if not isinstance(node, (Expr, Query)):
        return 0
    return isinstance(node, Path) + sum(map(_path_nodes, vars(node).values()))


class TestOneTypingPass:
    def test_a_shared_path_node_is_decided_per_occurrence(self, world):
        """One ``Path`` object in both branches of ``when p in
        Alcoholic``: proven in ``then``, checked in ``else``."""
        schema, pop = world
        p = Var("p")
        style = Path(Path(p, "treatedBy"), "therapyStyle")
        query = Query("p", "Patient", None,
                      (When(InClass(p, "Alcoholic"), style, style),))
        compiled = compile_query(query, schema, raise_on_error=False)
        assert [checked for _, checked, _ in compiled.decisions] == [
            False, False, False, True]
        assert compiled.decisions[1][2] == "proven safe"
        unshared = compile_query(
            "for p in Patient select when p in Alcoholic then "
            "p.treatedBy.therapyStyle else p.treatedBy.therapyStyle end",
            schema, raise_on_error=False)
        assert compiled.decisions == unshared.decisions
        rows, stats = execute(compiled, pop.store)
        assert (rows, stats) == reference_execute(compiled, pop.store)
        assert stats.rows_returned == len(pop.alcoholics)

    def test_a_cold_compile_types_each_access_once(self, world,
                                                   monkeypatch):
        schema, _pop = world
        typed = []
        real = QueryTyper._infer_path

        def counting(self, expr, env, facts):
            typed.append(expr)
            return real(self, expr, env, facts)

        monkeypatch.setattr(QueryTyper, "_infer_path", counting)
        text = ("for p in Patient where p.age > 30 and p not in "
                "Tubercular_Patient select p.treatedAt.location.state, "
                "when p in Alcoholic then p.treatedBy.therapyStyle "
                "else p.name end")
        compiled = compile_query(text, schema)
        assert len(typed) == _path_nodes(compiled.query) == 7
        store = ObjectStore(schema)
        plan_query(text, store)     # cold: one typing pass
        plan_query(text, store)     # a plan hit types nothing
        assert len(typed) == 14
