"""Queries over the object base, with the paper's type discipline.

Section 5.4 sketches a type inference/checking scheme for queries so the
compiler can (i) warn that a query "may result in a run-time failure for
certain database states" and (ii) "avoid the introduction of run-time
safety tests in those cases where it has determined that no type error can
occur".  This package implements both:

* :mod:`repro.query.ast` / :mod:`repro.query.parser` -- a small query
  language: ``for p in Patient where <cond> select <exprs>``, attribute
  paths, class-membership tests (``p in Alcoholic``), boolean connectives,
  comparisons, the paper's guarded expression
  ``when p in Alcoholic then ... else ... end``, and aggregates
  (``select count``, ``select avg p.age`` -- Section 2c's "counting
  entities").
* :mod:`repro.query.typing` -- flow-sensitive inference: every expression
  is described by a set of *possibilities* (type + the membership
  assumptions under which it occurs); excuse alternatives, membership
  guards, and virtual-class provenance resolve or refute assumptions.
* :mod:`repro.query.analysis` -- the safety report: which accesses are
  provably safe, which are conditionally unsafe (and under what
  assumptions), and which are definite type errors.
* :mod:`repro.query.compiler` / :mod:`repro.query.interpreter` --
  compilation to generated Python where run-time safety checks are
  inserted *only* at accesses the analysis could not prove safe; the
  generated loop counts checks so the saving is measurable (bench E3).
* :mod:`repro.query.indexes` / :mod:`repro.query.planner` -- secondary
  attribute indexes (excuse-aware: INAPPLICABLE and unhashable-residue
  posting lists keep indexed results scan-exact), a cost-based planner
  that pushes sargable ``where`` conjuncts into index probes, bucket-key
  range walks and extent-set intersections, and a schema-versioned plan
  cache.
"""

from repro.query.ast import (
    And,
    Compare,
    Const,
    InClass,
    Not,
    NotInClass,
    Or,
    Path,
    Query,
    Var,
    When,
)
from repro.query.parser import parse_query
from repro.query.typing import (
    Assumption,
    Possibility,
    QueryTyper,
    TypeReport,
    UnsafeFinding,
)
from repro.query.analysis import analyze
from repro.query.compiler import CompiledQuery, compile_query
from repro.query.interpreter import ExecutionStats, execute
from repro.query.indexes import IndexManager, PlanCache, StoreIndex
from repro.query.planner import (
    Pushdown,
    QueryPlan,
    execute_plan,
    execute_planned,
    plan_query,
)

__all__ = [
    "And",
    "Assumption",
    "Compare",
    "CompiledQuery",
    "Const",
    "ExecutionStats",
    "InClass",
    "IndexManager",
    "Not",
    "NotInClass",
    "Or",
    "Path",
    "PlanCache",
    "Possibility",
    "Pushdown",
    "Query",
    "QueryPlan",
    "QueryTyper",
    "StoreIndex",
    "TypeReport",
    "UnsafeFinding",
    "Var",
    "When",
    "analyze",
    "compile_query",
    "execute",
    "execute_plan",
    "execute_planned",
    "parse_query",
    "plan_query",
]
