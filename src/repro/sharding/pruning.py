"""Shard-pruning pre-pass: which shards can a query touch at all?

The single-store planner prunes *rows* through indexes; across shards
the same reasoning prunes whole *workers*.  Each shard summarizes the
signature profiles it holds (``shard_map``: ``objects/profiles.py``'s
catalog of its visible objects' direct-membership sets, with counts, the
attributes that are *total* -- applicable on every member -- and a
clean flag).  The router extracts membership facts from a query's
where-prefix and dispatches the query only to shards holding at least
one profile those facts cannot refute.

Exactness argument (SEMANTICS.md section 14 carries the prose form).
A pruned shard must contribute neither result rows nor ``rows_skipped``.
Rows live in extents, so a profile whose closure misses the source
class contributes nothing, unconditionally.  For facts drawn from the
where clause the rule mirrors the planner's prefix-skip-free rule, row
by row:

* **Free membership facts** -- ``x in C`` / ``x not in C`` conjuncts
  occurring before any conjunct that touches an attribute.  Membership
  tests cannot skip, so a row whose profile refutes such a fact is
  filtered at that conjunct having skipped nowhere: no row, no skip.

* **Guarded facts** -- membership conjuncts occurring after attribute
  -touching conjuncts, and negative *path* facts ``x.a not in D``.
  A refuted row is filtered at (or before) the last fact conjunct, but
  an *earlier* conjunct could still have skipped it -- unless every
  attribute touched up to that point (``guard_attrs``) is total for the
  profile on that shard, in which case no guarded access ever fires.
  Only then may a guarded refutation prune.  Conjuncts containing
  multi-hop or non-query-variable paths end fact collection: their
  skip behavior cannot be bounded by the shard map's per-profile
  totality summary.

* **Deduction** -- the contrapositive rule of ``query/deduction.py``.
  For a profile the router knows the member's exact membership set
  (the IS-A closure of its direct classes), so it hands
  :func:`deduce_non_memberships` complete positive *and* negative
  membership facts plus the query's negative path facts.  Any derived
  exclusion contradicts a closure membership, refuting the profile.
  The deduction leans on the conformance invariant (a member of ``C``
  has ``x.a`` in the declared range or is excused), so it additionally
  requires the profile to be *clean* -- no member dirty from unchecked
  or residue-producing mutations -- on that shard.

Pruning never looks at positive path facts (``x.a in D`` proves no
non-membership without disjointness information).  Only a refutation
needs a current map: the router re-fetches a stale map only to prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.query.ast import Expr, NotInClass, Path, Query, Var
from repro.query.deduction import deduce_non_memberships
from repro.query.planner import _as_sargable, split_conjuncts
from repro.query.typing import FlowFacts
from repro.schema.schema import Schema

__all__ = ["PruneFacts", "extract_facts", "profile_refuted",
           "closure_of"]


@dataclass(frozen=True)
class PruneFacts:
    """Membership facts a query's where-prefix establishes (module
    docstring: free vs. guarded vs. deduction-feeding path facts)."""

    var: str
    source: str
    free_pos: Tuple[str, ...]
    free_neg: Tuple[str, ...]
    guarded_pos: Tuple[str, ...]
    guarded_neg: Tuple[str, ...]
    #: Negative single-hop path facts, as (attribute, class_name).
    path_neg: Tuple[Tuple[str, str], ...]
    #: Attributes that must be total for guarded pruning to be exact.
    guard_attrs: Tuple[str, ...]

    @property
    def prunes_beyond_source(self) -> bool:
        return bool(self.free_pos or self.free_neg or self.guarded_pos
                    or self.guarded_neg or self.path_neg)


def _single_hop_attrs(expr, var: str) -> Optional[Set[str]]:
    """The attributes ``expr`` touches, when every path in it is the
    single hop ``var.attr``; None when any path is deeper or rooted
    elsewhere (its skip behavior is not summarizable per profile)."""
    if isinstance(expr, Path):
        return {expr.attribute} if expr.base == Var(var) else None
    touched: Set[str] = set()
    for child in vars(expr).values():
        if isinstance(child, Expr):
            found = _single_hop_attrs(child, var)
            if found is None:
                return None
            touched |= found
    return touched


def _negative_path_fact(conjunct, var: str,
                        schema: Schema) -> Optional[Tuple[str, str]]:
    """``x.attr not in D`` with a single-hop path, or None."""
    if not isinstance(conjunct, NotInClass):
        return None
    expr = conjunct.expr
    if (isinstance(expr, Path) and isinstance(expr.base, Var)
            and expr.base.name == var
            and schema.has_class(conjunct.class_name)):
        return (expr.attribute, conjunct.class_name)
    return None


def extract_facts(query: Query, schema: Schema) -> PruneFacts:
    """One left-to-right pass over the where conjuncts (module
    docstring's three fact tiers)."""
    var = query.var
    free_pos: List[str] = []
    free_neg: List[str] = []
    guarded_pos: List[str] = []
    guarded_neg: List[str] = []
    path_neg: List[Tuple[str, str]] = []
    pending: Set[str] = set()     # attrs touched so far
    guard: Set[str] = set()       # pending as of the last guarded fact
    alive = True                  # no unsummarizable conjunct seen yet
    for conjunct in split_conjuncts(query.where):
        p = _as_sargable(conjunct, var, schema)
        if p is not None and p.kind in ("member", "not-member"):
            if not alive:
                continue
            if not pending:
                (free_pos if p.kind == "member"
                 else free_neg).append(p.class_name)
            else:
                (guarded_pos if p.kind == "member"
                 else guarded_neg).append(p.class_name)
                guard = set(pending)
            continue
        touched = _single_hop_attrs(conjunct, var)
        if touched is None:
            # Unsummarizable skips from here on: stop collecting facts
            # (facts already collected stay exact -- they are filtered
            # at conjuncts evaluated before this one).
            alive = False
            continue
        pending |= touched
        if not alive:
            continue
        fact = _negative_path_fact(conjunct, var, schema)
        if fact is not None:
            path_neg.append(fact)
            guard = set(pending)
    return PruneFacts(
        var=var, source=query.source_class,
        free_pos=tuple(free_pos), free_neg=tuple(free_neg),
        guarded_pos=tuple(guarded_pos), guarded_neg=tuple(guarded_neg),
        path_neg=tuple(path_neg), guard_attrs=tuple(sorted(guard)))


def closure_of(schema: Schema, profile: FrozenSet[str]) -> FrozenSet[str]:
    """The IS-A closure of a direct-membership profile: the exact set
    of classes every object carrying the profile is a member of."""
    closure: Set[str] = set()
    for name in profile:
        if schema.has_class(name):
            closure |= schema.ancestors(name)
        else:
            # The shard knows a class this schema epoch does not (maps
            # are refreshed synchronously, so this is only reachable
            # when pruning against a stale schema); keep the name so
            # the profile is never refuted by its absence.
            closure.add(name)
    return frozenset(closure)


def profile_refuted(schema: Schema, facts: PruneFacts,
                    profile: FrozenSet[str],
                    total_attrs: FrozenSet[str],
                    clean: bool) -> Tuple[bool, bool]:
    """Whether the facts prove no object with ``profile`` (whose
    applicable-everywhere attributes include ``total_attrs``, clean per
    the shard map) can contribute rows or skips.

    Returns ``(refuted, via_deduction)``.
    """
    closure = closure_of(schema, profile)
    if facts.source not in closure:
        return True, False
    for name in facts.free_pos:
        if name not in closure:
            return True, False
    for name in facts.free_neg:
        if name in closure:
            return True, False
    if not set(facts.guard_attrs) <= set(total_attrs):
        return False, False
    for name in facts.guarded_pos:
        if name not in closure:
            return True, False
    for name in facts.guarded_neg:
        if name in closure:
            return True, False
    if facts.path_neg and clean:
        var = facts.var
        neg: Dict[str, Set[str]] = {
            var: {c.name for c in schema.classes()} - set(closure)}
        for attribute, class_name in facts.path_neg:
            neg.setdefault(f"{var}.{attribute}", set()).add(class_name)
        flow = FlowFacts(pos={var: set(closure)}, neg=neg)
        _flow, derived = deduce_non_memberships(schema, flow, var)
        # Complete negative knowledge means every derivable exclusion
        # is fresh -- i.e. contradicts a closure membership.
        if derived:
            return True, True
    return False, False
