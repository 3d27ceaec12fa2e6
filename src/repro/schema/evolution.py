"""Schema evolution: change a class, see what breaks (Section 6).

"A modification to some class definition is propagated to all its
subclasses; this may result in unexcused contradictions being found by
the compiler/environment, which the designer must address explicitly."

``propagate_change`` applies a replacement definition and re-validates
the affected region: the class itself, its descendants (their
redefinitions are checked against the new constraints), every class
holding an excuse against it (the excuse may have become dangling or
redundant), the constraints it excuses (their relaxed types cite its
range), and -- when the change reaches a virtual class -- the anchor
class embedding it.  The change is rolled back if ``dry_run`` is set,
if validation raises, or if the diagnostics contain an unexcused
contradiction (a change must not leave the schema half-valid).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from repro.schema.builder import require_cdl_names
from repro.schema.classdef import ClassDef
from repro.schema.schema import Schema
from repro.schema.validation import Diagnostic, SchemaValidator


def affected_classes(schema: Schema, name: str) -> Set[str]:
    """Classes whose validity can depend on the definition of ``name``.

    The closure follows four edges from every class whose *meaning*
    (definition, or set of relaxed constraints) may have changed:

    * its descendants, which inherit every constraint it declares;
    * the anchor class embedding it, when it is a virtual class -- the
      anchor's attribute range *is* the virtual class, so the anchor's
      constraints change meaning with it (an excuse routed through a
      virtual anchor otherwise escapes re-validation entirely);
    * every class declaring an excuse against one of its constraints,
      together with that excuser's descendants (they inherit the
      excusing declaration) -- the excuse may have become dangling or
      redundant;
    * every constraint it excuses: the target's relaxed type lists this
      class's range as an alternative, so the target's meaning changes
      with it.
    """
    affected: Set[str] = set()
    # Classes whose meaning may have changed; each expands further.
    frontier = deque([name])
    while frontier:
        current = frontier.popleft()
        if current in affected:
            continue
        affected.add(current)
        if not schema.has_class(current):
            continue
        cdef = schema.get(current)
        grown: Set[str] = set(schema.descendants(current))
        if cdef.virtual and cdef.origin is not None:
            grown.add(cdef.origin.owner_class)
        for _attr, ref in cdef.declared_excuses():
            if schema.has_class(ref.class_name):
                grown.add(ref.class_name)
        frontier.extend(grown - affected)
        # Excusers (and their descendants, which inherit the excusing
        # declaration) are re-validated but expand no further: their own
        # definitions are unchanged.
        for other in schema.classes():
            for _attr, ref in other.declared_excuses():
                if ref.class_name == current:
                    affected.add(other.name)
                    affected.update(schema.descendants(other.name))
    return affected


def _validate_region(schema: Schema, name: str) -> List[Diagnostic]:
    validator = SchemaValidator(schema)
    diagnostics: List[Diagnostic] = []
    for affected in sorted(affected_classes(schema, name)):
        diagnostics.extend(validator.validate_class(affected))
    return diagnostics


def _has_contradiction(diagnostics: List[Diagnostic]) -> bool:
    return any(d.code == "unexcused-contradiction" for d in diagnostics)


def propagate_change(schema: Schema, new_def: ClassDef,
                     dry_run: bool = False) -> List[Diagnostic]:
    """Replace a class definition and report diagnostics for the affected
    region only (this locality is itself one of the paper's selling
    points: no blind whole-schema search).

    The replacement is atomic: the old definition is restored when
    ``dry_run`` is set, when validation raises, and when the diagnostics
    contain an unexcused contradiction -- a change is either fully
    applied to a valid schema or not applied at all.  The diagnostics
    are returned either way so the designer can address them.
    """
    old = schema.replace_class(new_def)
    committed = False
    try:
        diagnostics = _validate_region(schema, new_def.name)
        committed = not dry_run and not _has_contradiction(diagnostics)
        return diagnostics
    finally:
        if not committed:
            schema.replace_class(old)


def apply_change(schema: Schema,
                 new_def: ClassDef) -> Tuple[List[Diagnostic], bool]:
    """Install ``new_def`` -- adding the class when it is new, replacing
    it otherwise -- with the same atomicity as :func:`propagate_change`.

    Returns ``(diagnostics, rolled_back)``; when ``rolled_back`` is true
    the schema is unchanged and the diagnostics explain why.  This is
    the primitive the online evolution pipeline applies to a *clone* of
    a live store's schema before swapping the clone in as the next
    epoch.  A name CDL cannot write back raises :class:`SchemaError`
    with the schema untouched.
    """
    require_cdl_names(new_def)
    adding = not schema.has_class(new_def.name)
    old: Optional[ClassDef] = None
    if adding:
        schema.add_class(new_def)
    else:
        old = schema.replace_class(new_def)
    committed = False
    try:
        diagnostics = _validate_region(schema, new_def.name)
        committed = not _has_contradiction(diagnostics)
        return diagnostics, not committed
    finally:
        if not committed:
            if adding:
                schema.remove_class(new_def.name)
            else:
                schema.replace_class(old)
