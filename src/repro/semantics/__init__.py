"""Semantics of class definitions with excuses (paper Section 5.2).

Given the abstract declarations::

    class B with p : R ;
    class E with p : S excuses p on B ;

the paper considers four candidate meanings for the constraint on
instances of ``B`` and settles on the last:

1. **Broadened range** -- ``IF x in B THEN x.p in R or x.p in S``.
   Inadequate: it "permits even non-alcoholic patients to be treated by
   psychologists".
2. **Membership waiver** -- ``IF x in B THEN x.p in R or x in E``.
   Inadequate: *dagwood*, a Quaker Republican, "would be allowed to have
   even opinion 'Ostrich, because neither assertion would place a
   condition on his opinion".
3. **Exact partition** -- ``IF x in B THEN (x not in E and x.p in R) or
   (x in E and x.p in S)``.  Overly restrictive: "each class points a
   finger at the other, insisting that the other's condition must hold".
4. **The correct definition** -- ``IF x in B THEN x.p in R or
   (x in E and x.p in S)``.

All four are :class:`ConstraintSemantics` strategies so the paper's
litmus cases can be *executed* (benchmark E9 and the A1 ablation).  The
store checks the fourth only: :class:`ConformanceChecker` runs each
signature's generated check (:mod:`repro.semantics.compiled`), with the
excuse guards folded when the check is compiled.
"""

from repro.semantics.candidates import (
    BroadenedRangeSemantics,
    ConstraintSemantics,
    ExactPartitionSemantics,
    ExcuseSemantics,
    MembershipWaiverSemantics,
    ALL_SEMANTICS,
)
from repro.semantics.checker import ConformanceChecker, Violation
from repro.semantics.compiled import CompiledProfileChecker, compile_profile

__all__ = [
    "ALL_SEMANTICS",
    "BroadenedRangeSemantics",
    "CompiledProfileChecker",
    "ConformanceChecker",
    "ConstraintSemantics",
    "ExactPartitionSemantics",
    "ExcuseSemantics",
    "MembershipWaiverSemantics",
    "Violation",
    "compile_profile",
]
