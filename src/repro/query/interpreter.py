"""Executing compiled queries against an object store.

:func:`execute` is the guarded full scan -- every row of the source
extent is visited and the compiled ``where``/``select`` expressions
decide its fate.  The planner (:mod:`repro.query.planner`) splices the
*same* generated row loop (:meth:`CompiledQuery.loop_source`) behind its
pushdown algebra, feeding it the reduced visit set; sharing the loop
text is what makes "indexed results exactly match scan semantics" true
by construction row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.query.compiler import CompiledQuery, compile_query
from repro.schema.schema import Schema


@dataclass
class ExecutionStats:
    """Counters exposed so check elimination and index pruning are
    measurable (benches E3 and A4)."""

    rows_scanned: int = 0
    rows_returned: int = 0
    rows_skipped: int = 0
    checks_executed: int = 0
    #: Rows the planner proved away without visiting (0 for full scans).
    rows_pruned: int = 0
    #: Posting-list / extent-set probes this execution performed.
    index_lookups: int = 0


def execute(compiled: Union[CompiledQuery, str], store,
            schema: Schema = None,
            **compile_kwargs) -> Tuple[List[tuple], ExecutionStats]:
    """Run a compiled query (or compile query text first) over ``store``
    -- anything that serves ``scan_rows`` / ``get`` / ``is_member``.

    Returns ``(rows, stats)``.  A row is a tuple of the values of the
    ``select`` expressions; rows whose guarded accesses fail under the
    ``"skip"`` policy are dropped and counted in ``stats.rows_skipped``.
    """
    if isinstance(compiled, str):
        if schema is None:
            schema = store.schema
        compiled = compile_query(compiled, schema, **compile_kwargs)
    stats = ExecutionStats()
    return compiled.scan(store, stats), stats
