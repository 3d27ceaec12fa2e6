"""The unified mutation pipeline: every write is one command, one path.

Historically each mutation entry point -- ``create``/``remove``,
``classify``/``declassify``, ``set_value``/``unset_value``, transaction
scopes, and bulk batches -- carried its own hand-written orchestration of
the same five concerns, duplicated across ``store.py``,
``transactions.py``, ``bulk.py`` and ``durable.py``.  This module is the
single home for that orchestration.  A mutation is a typed
:class:`MutationCommand` executed by the store's
:class:`MutationPipeline`, and every command flows through one ordered
stage sequence:

1. **admit** -- liveness / schema checks (raises before anything moves);
2. **apply** -- conformance checking (the rows of the signature's
   generated check a command can affect) interleaved with extent,
   virtual-class and secondary-index maintenance, rolling its own work
   back on violation;
3. **journal** -- on a durable store, the surviving command is appended
   to the WAL as one logical record (nested commands -- a bulk batch's
   per-object fallback, a failing create's internal removal -- never
   reach the log because only depth-1 commands are journaled);
4. **commit** -- the store epoch is bumped and observers are notified.

The pipeline also owns the store's **write lock**: commands, transaction
scopes and snapshot capture all serialize through ``store._write_lock``,
which is what makes :meth:`~repro.objects.store.ObjectStore.snapshot`
reads safe from other threads (see :mod:`repro.objects.snapshot`).

Copy-on-write discipline
------------------------

Snapshot captures are O(live structure roots), not O(state): a snapshot
records *references* to instance membership/value dicts, extent sets and
index postings.  The pipeline therefore privatizes any structure it is
about to mutate when the structure is older than the newest snapshot
stamp (``store._snapshot_stamp``): instances through
``store._prepare_write``, extent sets through :meth:`writable_extent`,
index postings through the manager's own copy-on-write hooks.  Captured
references are thus frozen forever, and a snapshot taken before a
committed mutation can never observe it.

This module is deliberately the **only** place that mutates
``store._extents`` and index internals -- enforced by
``tests/test_api_hygiene.py`` (the AST ban ruff cannot express).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

from repro.codec import encode_value, encode_values
from repro.columnar import SurrogateSet
from repro.errors import (
    ConformanceError,
    SchemaEvolutionError,
    StorageError,
    TransactionError,
    UnknownClassError,
)
from repro.lang import print_schema
from repro.objects.instance import Instance
from repro.objects.surrogate import Surrogate
from repro.schema.diff import EvolutionRegion, affected_region, diff_schemas
from repro.schema.evolution import apply_change
from repro.semantics.checker import Violation, expand_signature
from repro.typesys.values import INAPPLICABLE, is_entity


class CheckMode:
    """When conformance is enforced."""

    EAGER = "eager"      # on every write (default)
    DEFERRED = "deferred"  # only via validate_all()
    NONE = "none"        # never (benchmarking substrate only)
    ALL = (EAGER, DEFERRED, NONE)
    BULK = (EAGER, DEFERRED)    # a batch is checked, now or later


def refuse_check(op: str, check, legal: Tuple[str, ...]) -> None:
    if check not in legal:      # as the request row refuses it (repro.ops)
        raise StorageError(f"op {op!r} field 'check' must be one of {legal}")


#: Undo-log marker (see :class:`UndoScope`): the key had no binding.
_MISSING = object()


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

class MutationCommand:
    """One mutation flowing through the pipeline.

    ``mutated`` reports whether the apply stage changed committed state:
    no-op commands (classify to an existing membership, declassify of an
    absent one) and rolled-back attempts leave it False, so they neither
    reach the journal nor bump the store epoch -- a cached snapshot
    stays valid across them.
    """

    op = "?"
    __slots__ = ("check", "mutated")

    def __init__(self, check: Optional[str] = None) -> None:
        if check is not None:
            refuse_check(self.op, check, CheckMode.ALL)
        self.check = check
        self.mutated = False

    def mode(self, store) -> str:
        return self.check if self.check is not None else store.check_mode

    def apply(self, pipe: "MutationPipeline"):
        raise NotImplementedError

    def journal(self, pipe: "MutationPipeline", journal) -> None:
        """Append this command's logical WAL record (depth-1 commands on
        a journaling store only): the :mod:`repro.ops` request that
        would have run it, plus the sid of anything it minted."""

    def _checked(self, store, fields: dict) -> dict:
        if self.check is not None and self.check != store.check_mode:
            fields["check"] = self.check  # replay defaults to check_mode
        return fields


class CreateCommand(MutationCommand):
    op = "create"
    __slots__ = ("class_name", "values", "result")

    def __init__(self, class_name: str, values: Dict[str, object],
                 check: Optional[str] = None) -> None:
        super().__init__(check)
        self.class_name = class_name
        self.values = values
        self.result: Optional[Instance] = None

    def apply(self, pipe):
        self.result = pipe.apply_create(self.class_name, self.values,
                                        self.mode(pipe.store))
        self.mutated = True
        return self.result

    def journal(self, pipe, journal):
        fields = {"sid": self.result.surrogate.id, "cls": self.class_name,
                  "values": encode_values(self.values)}
        journal.record("create", self._checked(pipe.store, fields))


class RemoveCommand(MutationCommand):
    op = "remove"
    __slots__ = ("obj", "sid")

    def __init__(self, obj: Instance) -> None:
        super().__init__(None)
        self.obj = obj
        self.sid = obj.surrogate.id

    def apply(self, pipe):
        pipe.apply_remove(self.obj)
        self.mutated = True

    def journal(self, pipe, journal):
        journal.record("remove", {"sid": self.sid})


class ClassifyCommand(MutationCommand):
    op = "classify"
    __slots__ = ("obj", "class_name")

    def __init__(self, obj: Instance, class_name: str,
                 check: Optional[str] = None) -> None:
        super().__init__(check)
        self.obj = obj
        self.class_name = class_name

    def apply(self, pipe):
        self.mutated = pipe.apply_classify(
            self.obj, self.class_name, self.mode(pipe.store))

    def journal(self, pipe, journal):
        fields = {"sid": self.obj.surrogate.id, "cls": self.class_name}
        journal.record("classify", self._checked(pipe.store, fields))


class DeclassifyCommand(MutationCommand):
    op = "declassify"
    __slots__ = ("obj", "class_name")

    def __init__(self, obj: Instance, class_name: str,
                 check: Optional[str] = None) -> None:
        super().__init__(check)
        self.obj = obj
        self.class_name = class_name

    def apply(self, pipe):
        self.mutated = pipe.apply_declassify(
            self.obj, self.class_name, self.mode(pipe.store))

    def journal(self, pipe, journal):
        fields = {"sid": self.obj.surrogate.id, "cls": self.class_name}
        journal.record("declassify", self._checked(pipe.store, fields))


class SetValueCommand(MutationCommand):
    op = "set"
    __slots__ = ("obj", "attribute", "value")

    def __init__(self, obj: Instance, attribute: str, value,
                 check: Optional[str] = None) -> None:
        super().__init__(check)
        self.obj = obj
        self.attribute = attribute
        self.value = value

    def apply(self, pipe):
        pipe.store._require_live(self.obj)
        pipe.apply_set_value(self.obj, self.attribute, self.value,
                             self.mode(pipe.store))
        self.mutated = True

    def journal(self, pipe, journal):
        if self.value is INAPPLICABLE:
            op = "unset"
            fields = {"sid": self.obj.surrogate.id, "attr": self.attribute}
        else:
            op = "set"
            fields = {"sid": self.obj.surrogate.id, "attr": self.attribute,
                      "value": encode_value(self.value)}
        journal.record(op, self._checked(pipe.store, fields))


class ValidateCommand(MutationCommand):
    op = "validate"
    __slots__ = ("scope", "result")

    def __init__(self, scope: str) -> None:
        super().__init__(None)
        self.scope = scope
        self.result: List[Tuple[Instance, Violation]] = []

    def apply(self, pipe):
        self.result = pipe.apply_validate(self.scope)
        # Validation sweeps mutate durable state (conformant objects
        # leave the dirty ledger), so they are journaled and replayed.
        self.mutated = True
        return self.result

    def journal(self, pipe, journal):
        journal.record("validate", {"scope": self.scope})


class AlterClassCommand(MutationCommand):
    """One live schema change: replace (or add) a class definition and
    migrate the populated store to the successor schema epoch.

    ``store.alter_class``, ``store.add_excuse`` and
    ``store.retract_excuse`` all construct this command; ``verb``
    records which entry point did, for the epoch registry and the WAL.
    ``recheck`` selects the migration policy for affected objects:
    ``"affected"`` (delta-recheck now, the default), ``"lazy"`` (mark
    dirty for a later ``validate_dirty``), ``"full"`` (whole-object
    re-check of the entire population -- the measured baseline), or
    ``"none"``.
    """

    op = "alter"
    RECHECK = ("affected", "lazy", "full", "none")
    __slots__ = ("new_def", "recheck", "verb", "diagnostics", "region",
                 "result")

    def __init__(self, new_def, recheck: str = "affected",
                 verb: str = "alter-class") -> None:
        super().__init__(None)
        if recheck not in self.RECHECK:
            raise ValueError(f"unknown recheck mode {recheck!r}")
        self.new_def = new_def
        self.recheck = recheck
        self.verb = verb
        self.diagnostics: List = []
        self.region: Optional[EvolutionRegion] = None
        self.result: List[Tuple[Instance, Violation]] = []

    def apply(self, pipe):
        self.result = pipe.apply_alter(self)
        return self.result

    def journal(self, pipe, journal):
        # The whole successor schema rides in the record: replay needs no
        # out-of-band state, and the CDL print/load round-trip is the
        # same one checkpoints already depend on.
        journal.record("alter", {
            "cls": self.new_def.name,
            "verb": self.verb,
            "recheck": self.recheck,
            "schema": print_schema(pipe.store.schema),
        })


class IndexCommand(MutationCommand):
    """One change to the physical design: build or drop the secondary
    index on an attribute."""

    op = "index"
    __slots__ = ("attribute", "action", "result")

    def __init__(self, attribute: str, action: str) -> None:
        super().__init__(None)
        self.attribute = attribute
        self.action = action
        self.result = None

    def apply(self, pipe):
        indexes = pipe.store.indexes
        design = indexes.version
        if self.action == "drop":
            indexes.drop(self.attribute)
        else:
            self.result = indexes.create(self.attribute)
        # A design change is a committed state change: snapshots must
        # re-capture so their gauges and plan keys see it.
        self.mutated = indexes.version != design
        return self.result

    def journal(self, pipe, journal):
        journal.record("index", {"attr": self.attribute,
                                 "action": self.action})


class BulkCommand(MutationCommand):
    """One staged bulk batch committed as a single pipeline command (and
    a single WAL record)."""

    op = "bulk"
    __slots__ = ("session", "fast", "slow", "groups")

    def __init__(self, session) -> None:
        super().__init__(session._mode)
        self.session = session

    def apply(self, pipe):
        self.fast, self.slow, self.groups = pipe.apply_bulk(self.session)
        self.mutated = bool(self.session._staged)

    def journal(self, pipe, journal):
        journal.log_bulk(self.session._staged, self.session._mode)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

class MutationPipeline:
    """Executes commands for one store through the staged sequence.

    Holds the store's write lock for the duration of each command (and
    of whole transaction scopes), tracks nesting depth so internal
    re-entrant applies (a failing create's removal, a bulk batch's
    per-object fallback rows) are never journaled and never bump the
    epoch, and owns all extent / virtual-class / index maintenance.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._depth = 0
        #: Open transaction scopes (all on the lock-holding thread).
        self._txn_depth = 0
        #: Commands committed inside an open transaction: observer
        #: notification is deferred to scope commit (and dropped on
        #: rollback), so observers only ever see durable commands.
        self._pending: List[MutationCommand] = []

    # ------------------------------------------------------------------
    # Stage driver
    # ------------------------------------------------------------------

    def execute(self, command: MutationCommand):
        store = self.store
        with store._write_lock:
            self._depth += 1
            try:
                result = command.apply(self)
            finally:
                self._depth -= 1
            if self._depth == 0 and command.mutated:
                journal = store._journal
                if journal is not None:
                    command.journal(self, journal)
                store._epoch += 1
                if self._txn_depth:
                    self._pending.append(command)
                else:
                    for observer in store.observers:
                        observer(command)
            return result

    @contextmanager
    def transaction(self, validate_on_commit: bool = False):
        """Atomic scope: every command commits or none does.

        The write lock is held for the whole scope, so no snapshot (and
        no other thread's command) can ever observe an uncommitted
        intermediate state; on a durable store the WAL group-commits the
        scope as one record.  Rollback is an :class:`UndoScope` (nested
        scopes are its savepoints): it costs what the scope touched, and
        snapshots captured before the scope stay untouched.
        """
        store = self.store
        with store._write_lock:
            # Seed the committed-epoch snapshot cache: reads issued
            # inside the scope (stats(), same-thread snapshot()) are
            # served this pre-transaction epoch, never partial state.
            store.snapshot()
            journal = store._journal
            if journal is not None:
                # Group commit: records buffered until the scope exits
                # cleanly, discarded (sequence rolled back) on abort.
                journal.begin()
            self._txn_depth += 1
            mark = len(self._pending)
            sealed = None
            try:
                with UndoScope(store):
                    yield
                    if validate_on_commit:
                        problems = store.validate_all()
                        if problems:
                            raise TransactionError(tuple(
                                (obj.surrogate.id, v) for obj, v in problems))
                    if journal is not None:
                        # An unencodable group rolls the scope back; the
                        # log has dropped it already (no second abort).
                        wal, journal = journal.wal, None
                        sealed = wal.seal()
            except BaseException:
                self._txn_depth -= 1
                del self._pending[mark:]
                if journal is not None:
                    journal.abort()
                raise
            self._txn_depth -= 1
            if sealed:
                # The record holds its seq: an I/O error keeps the writes.
                wal.write_out(*sealed)
            if self._txn_depth == 0 and self._pending:
                pending, self._pending = self._pending, []
                for command in pending:
                    for observer in store.observers:
                        observer(command)

    # ------------------------------------------------------------------
    # Apply stage: create / remove
    # ------------------------------------------------------------------

    def apply_create(self, class_name: str, values: Dict[str, object],
                     mode: str) -> Instance:
        store = self.store
        if not store.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        obj = Instance(store._allocator.allocate(), (class_name,))
        obj._cow_stamp = store._snapshot_stamp   # fresh dicts, never captured
        self.install_new(obj, class_name, mode)
        try:
            for name, value in values.items():
                self.apply_set_value(obj, name, value, mode)
        except BaseException:
            self.apply_remove(obj)
            raise
        return obj

    def install_new(self, obj: Instance, class_name: str,
                    mode: str) -> None:
        """Register a freshly-allocated instance as live: objects map,
        index postings, extents, and (for unchecked modes) the dirty
        ledger."""
        store = self.store
        log = store._undo_log
        if log is not None:
            log.append((store._objects, obj.surrogate, _MISSING))
        store._objects[obj.surrogate] = obj
        store._columns.put(obj.surrogate, obj._memberships,
                           obj._values, store._snapshot_stamp)
        store.indexes.on_create(obj.surrogate)
        self.add_to_extents(obj, class_name)
        if mode != CheckMode.EAGER:
            store._mark_dirty(obj)

    def apply_remove(self, obj: Instance) -> None:
        store = self.store
        store._require_live(obj)
        store.checker.stats.removals += 1
        for name in obj.value_names():
            value = obj.get_value(name)
            if is_entity(value):
                self.release_virtual_targets(obj, name, value)
        surrogate = obj.surrogate
        for class_name, members in store._extents.items():
            if surrogate in members:
                self.writable_extent(class_name).discard(surrogate)
                store._extent_cache.pop(class_name, None)
        log = store._undo_log
        if log is not None:
            log.append((store._objects, surrogate, obj))
        del store._objects[surrogate]
        store._columns.drop(surrogate.id, store._snapshot_stamp)
        store.indexes.on_remove(obj)
        self.clear_dirty(surrogate)
        # Anything still referencing the dead object keeps a dangling
        # Python reference by design, but the refcount bookkeeping must
        # not outlive the object: stale entries would corrupt the counts
        # if the surrogate were ever re-issued (transaction rollback).
        refs = store._virtual_refs
        for key in [key for key in refs if key[1] == surrogate]:
            if log is not None:
                log.append((refs, key, refs[key]))
            del refs[key]

    # ------------------------------------------------------------------
    # Apply stage: membership changes
    # ------------------------------------------------------------------

    def apply_classify(self, obj: Instance, class_name: str,
                       mode: str) -> bool:
        store = self.store
        store._require_live(obj)
        if not store.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        if class_name in obj.memberships:
            return False
        checker = store.checker
        checker.stats.classifies += 1
        eager = mode == CheckMode.EAGER
        before = checker.expanded_memberships(obj) if eager else None
        joins = self.begin_join_log(eager)
        try:
            store._prepare_write(obj)
            obj._add_membership(class_name)
            self.add_to_extents(obj, class_name)
            self.cascade_virtuals(obj, class_name, +1)
        finally:
            self.end_join_log(joins)
        if not eager:
            store._mark_dirty(obj)
            return True
        delta = store.schema.ancestors(class_name) - before
        blamed, violations = obj, checker.check_classes(obj, delta)
        if not violations:
            blamed, violations = self.check_joins(joins, skip=obj)
        if violations:
            checker.stats.rollbacks += 1
            self.cascade_virtuals(obj, class_name, -1)
            obj._remove_membership(class_name)
            self.rebuild_extents_for(obj)
            raise ConformanceError(blamed.surrogate.id, violations[0])
        return True

    def apply_declassify(self, obj: Instance, class_name: str,
                         mode: str) -> bool:
        store = self.store
        store._require_live(obj)
        if class_name not in obj.memberships:
            return False
        checker = store.checker
        checker.stats.declassifies += 1
        eager = mode == CheckMode.EAGER
        before = checker.expanded_memberships(obj) if eager else None
        self.cascade_virtuals(obj, class_name, -1)
        store._prepare_write(obj)
        obj._remove_membership(class_name)
        self.rebuild_extents_for(obj)
        if not eager:
            store._mark_dirty(obj)
            return True
        removed = before - checker.expanded_memberships(obj)
        violations = checker.check_membership_loss(obj, removed)
        hard = [v for v in violations if v.kind != "inapplicable-attribute"]
        if hard:
            checker.stats.rollbacks += 1
            obj._add_membership(class_name)
            self.add_to_extents(obj, class_name)
            self.cascade_virtuals(obj, class_name, +1)
            raise ConformanceError(obj.surrogate.id, hard[0])
        if violations:
            store._mark_dirty(obj)
        return True

    # ------------------------------------------------------------------
    # Apply stage: attribute writes
    # ------------------------------------------------------------------

    def apply_set_value(self, obj: Instance, attribute: str, value,
                        mode: str) -> None:
        store = self.store
        old = obj.get_value(attribute)
        stats = store.checker.stats
        stats.writes += 1
        eager = mode == CheckMode.EAGER
        if eager and store.strict_virtual_extents and is_entity(value):
            # Unchecked writes (bulk loading) bypass the unshared
            # invariant along with every other check; the type checker's
            # provenance reasoning is sound for eagerly-checked stores.
            self.enforce_unshared(obj, attribute, value)

        timing = stats.timing
        t0 = stats.clock() if timing else 0.0

        # Classify the new value into the virtual classes this assignment
        # anchors, release the old value's anchoring, then check.
        joins = self.begin_join_log(eager)
        try:
            self.acquire_virtual_targets(obj, attribute, value)
            if is_entity(old):
                self.release_virtual_targets(obj, attribute, old)
            store._prepare_write(obj)
            obj._set_value(attribute, value)
            store.indexes.on_value_change(
                obj.surrogate, attribute, old, value)
        finally:
            self.end_join_log(joins)

        if not eager:
            store._mark_dirty(obj, attribute)
            if timing:
                stats.record("write.unchecked", stats.clock() - t0)
            return
        blamed = obj
        violations = store.checker.check_attribute(obj, attribute, value)
        if not violations:
            blamed, violations = self.check_joins(joins, skip=obj)
        if violations:
            # Roll back: restore the old value and the anchoring counts.
            stats.rollbacks += 1
            obj._set_value(attribute, old)
            store.indexes.on_value_change(
                obj.surrogate, attribute, value, old)
            if is_entity(old):
                self.acquire_virtual_targets(obj, attribute, old)
            if is_entity(value):
                self.release_virtual_targets(obj, attribute, value)
            if timing:
                stats.record("write.eager", stats.clock() - t0)
            raise ConformanceError(blamed.surrogate.id, violations[0])
        if timing:
            stats.record("write.eager", stats.clock() - t0)

    # ------------------------------------------------------------------
    # Apply stage: whole-store validation
    # ------------------------------------------------------------------

    def apply_validate(self, scope: str) -> List[Tuple[Instance, Violation]]:
        store = self.store
        out: List[Tuple[Instance, Violation]] = []
        if scope == "all":
            for obj in store._objects.values():
                problems = store.checker.check(obj)
                for violation in problems:
                    out.append((obj, violation))
                if not problems:
                    self.clear_dirty(obj.surrogate)
            return out
        for surrogate in sorted(store._dirty):
            obj = store._objects.get(surrogate)
            if obj is None:
                continue
            attrs = store._dirty[surrogate]
            if attrs is None:
                problems = store.checker.check(obj)
            else:
                problems = [
                    v for name in sorted(attrs)
                    for v in store.checker.check_attribute(
                        obj, name, obj.get_value(name))
                ]
            if problems:
                for violation in problems:
                    out.append((obj, violation))
            else:
                self.clear_dirty(surrogate)
        return out

    def clear_dirty(self, surrogate: Surrogate) -> None:
        """Take an object off the dirty ledger (found conformant, or
        removed)."""
        dirty = self.store._dirty
        if surrogate in dirty:
            log = self.store._undo_log
            if log is not None:
                log.append((dirty, surrogate, dirty[surrogate]))
            del dirty[surrogate]

    # ------------------------------------------------------------------
    # Apply stage: schema evolution
    # ------------------------------------------------------------------

    def apply_alter(self, command) -> List[Tuple[Instance, Violation]]:
        """Apply one schema change to the live store and migrate.

        The change is validated against a *clone* of the current schema
        first (``apply_change``); a rejected change raises before
        anything observable moves.  The surviving clone is then swapped
        in as the next schema epoch -- open snapshots keep their
        reference to the prior schema and continue reading against it --
        and the derived state is migrated delta-scoped: only signature
        profiles, extents and index postings inside the diff's affected
        region are touched.

        Object-level nonconformance surfaced by the re-check does *not*
        roll the change back: like virtual-class residue, the objects
        are marked dirty and the (object, violation) pairs returned, for
        the designer to address (the paper's Section 6 stance -- the
        *schema* must be contradiction-free, the data catches up).
        """
        store = self.store
        name = command.new_def.name
        if self._txn_depth:
            raise SchemaEvolutionError(
                name, "schema changes cannot run inside a transaction "
                "scope (they are their own atomic unit)")
        stats = store.checker.stats
        old_schema = store.schema
        new_schema = old_schema.copy()
        diagnostics, rolled_back = apply_change(new_schema, command.new_def)
        command.diagnostics = diagnostics
        if rolled_back:
            raise SchemaEvolutionError(
                name, "; ".join(
                    str(d) for d in diagnostics
                    if d.code == "unexcused-contradiction"),
                diagnostics)
        changes = diff_schemas(old_schema, new_schema)
        if not changes:
            return []   # no-op: no epoch, no journal record
        region = affected_region(old_schema, new_schema, changes)
        command.region = region

        # Swap in the successor epoch.  Everything derived from the old
        # schema object either moves with the swap (checker profiles,
        # virtual lookup) or is keyed by schema version and simply stops
        # matching (plan cache).
        store.schema = new_schema
        store.checker.rebind_schema(new_schema, region.classes)
        store._rebuild_virtual_lookup()
        store.schema_epochs.advance(new_schema, command.verb,
                                    tuple(changes), region)

        self.migrate_extents(old_schema, changes)
        stats.schema_index_rebuilds += store.indexes.on_schema_change(
            region.attributes)
        # Every derived read-side structure re-derives at the epoch
        # swap -- cached plans stop matching, affected postings rebuild
        # above -- and the memoized extent tuples must not be the one
        # survivor.  Structural migrations already dropped the memos
        # they touched; attribute-level deltas (add_excuse /
        # retract_excuse rebuilding residue postings) reach here with
        # the memos still primed, so drop them for the affected region
        # (delta-scoped, like the index rebuild).
        for class_name in region.classes:
            store._extent_cache.pop(class_name, None)
        problems = self.recheck_after_alter(region, command.recheck)
        stats.schema_changes += 1
        command.mutated = True
        return problems

    def migrate_extents(self, old_schema, changes) -> None:
        """Re-derive extent entries for every object a hierarchy change
        can have moved.  Only ``parents-changed`` (and class add/remove)
        deltas re-scope extents; attribute-level deltas never do."""
        store = self.store
        structural = {
            c.class_name for c in changes
            if c.kind in ("parents-changed", "class-added", "class-removed")
        }
        if not structural:
            return
        moved: Set[str] = set()
        for name in structural:
            for schema in (old_schema, store.schema):
                if schema.has_class(name):
                    moved |= schema.descendants(name)
        for obj in list(store._objects.values()):
            if not moved.isdisjoint(obj._memberships):
                self.rebuild_extents_for(obj)

    def recheck_after_alter(
            self, region: EvolutionRegion,
            recheck: str) -> List[Tuple[Instance, Violation]]:
        """Re-validate the population against the new epoch, scoped by
        the migration policy; violating objects are marked dirty."""
        store = self.store
        stats = store.checker.stats
        problems: List[Tuple[Instance, Violation]] = []
        if recheck == "none":
            return problems
        if recheck == "full":
            for obj in store._objects.values():
                stats.schema_objects_rechecked += 1
                violations = store.checker.check(obj)
                if violations:
                    store._mark_dirty(obj)
                    problems.extend((obj, v) for v in violations)
            return problems
        # Group by direct-membership signature: one profile probe decides
        # the fate of every object sharing the signature.
        by_signature: Dict[frozenset, List[Instance]] = {}
        for obj in store._objects.values():
            by_signature.setdefault(obj.memberships, []).append(obj)
        affected = region.classes
        for signature, objs in by_signature.items():
            profile = store.checker._profile_for(signature)
            touched = profile.expanded & affected
            if not touched:
                stats.schema_objects_skipped += len(objs)
                continue
            if recheck == "lazy":
                stats.schema_migrations_lazy += len(objs)
                for obj in objs:
                    store._mark_dirty(obj)
                continue
            delta = sorted(touched)
            for obj in objs:
                stats.schema_objects_rechecked += 1
                violations = store.checker.check_classes(obj, delta)
                # A removed declaration can strand stored values outside
                # the applicable set; surface them like any residue.
                for attr in sorted(
                        set(obj.value_names()) - profile.applicable):
                    value = obj.get_value(attr)
                    if value is INAPPLICABLE:
                        continue
                    stats.violations_found += 1
                    violations.append(Violation(
                        "inapplicable-attribute", "?", attr, value))
                if violations:
                    store._mark_dirty(obj)
                    problems.extend((obj, v) for v in violations)
        return problems

    # ------------------------------------------------------------------
    # Apply stage: bulk batches
    # ------------------------------------------------------------------

    def apply_bulk(self, session):
        """Commit one staged bulk batch: validate the fast-path groups,
        merge them in one pass, run virtual-class-involved rows through
        the ordinary (nested, unjournaled) apply paths.  All-or-nothing:
        the undo scope opens here, under the write lock, so a failure
        undoes this commit -- counters included -- and nothing that was
        acknowledged while the session was staging."""
        store = self.store
        stats = store.checker.stats
        with UndoScope(store, include_stats=True):
            fast, slow = session._partition()
            groups = session._group(fast)
            if session._mode == CheckMode.EAGER:
                self.bulk_validate(session, groups)
            self.bulk_merge(fast, groups, session._mode)
            for entry in slow:
                self.bulk_fallback(entry, session._mode)
            stats.bulk_loads += 1
            stats.bulk_objects += len(fast)
            stats.bulk_fallbacks += len(slow)
        return fast, slow, groups

    def bulk_validate(self, session, groups) -> None:
        """Eager validation of the fast path: unshared-structure checks,
        then per-profile conformance.  Raises on the earliest-staged
        violating object."""
        store = self.store
        if store.strict_virtual_extents:
            # Only values that are members of some virtual class can
            # violate unshared structure; collect those members once.
            virtual_members = SurrogateSet()
            for cdef in store.schema.virtual_classes():
                members = store._extents.get(cdef.name)
                if members:
                    virtual_members |= members
            if virtual_members:
                for entries in groups.values():
                    for entry in entries:
                        for attribute, value in entry.values.items():
                            if (is_entity(value) and
                                    value.surrogate in virtual_members):
                                self.enforce_unshared(
                                    entry.obj, attribute, value)
        session._check_profiles(groups)

    def bulk_merge(self, fast, groups, mode: str) -> None:
        """Make the fast-path objects visible: registration, one extent
        pass per profile, one index pass per batch, dirty marks and
        counters."""
        store = self.store
        if not fast:
            return
        objects = store._objects
        indexed = (set(store.indexes.attributes())
                   if len(store.indexes) else None)
        # Freshly-created objects have no ledger entry, so marking
        # whole-object dirty is a plain insert (no merge logic).
        deferred = mode != CheckMode.EAGER
        dirty = store._dirty
        merged: List[Instance] = []
        append = merged.append
        total_writes = 0
        classifies = 0
        indexed_writes = 0
        columns_put = store._columns.put
        stamp = store._snapshot_stamp
        log_append = store._undo_log.append   # apply_bulk opened a scope
        for entry in fast:
            obj = entry.obj
            surrogate = obj.surrogate
            log_append((objects, surrogate, _MISSING))
            objects[surrogate] = obj
            columns_put(surrogate, obj._memberships, obj._values, stamp)
            append(obj)
            total_writes += entry.n_writes
            classifies += len(entry.classes) - 1
            if indexed:
                for attribute in entry.write_attrs:
                    if attribute in indexed:
                        indexed_writes += 1
            if deferred:
                log_append((dirty, surrogate, _MISSING))
                dirty[surrogate] = None
        self.merge_extents({
            signature: [entry.obj.surrogate.id for entry in entries]
            for signature, entries in groups.items()})
        store.indexes.bulk_add(merged, indexed_writes)
        stats = store.checker.stats
        stats.writes += total_writes
        stats.classifies += classifies

    def bulk_fallback(self, entry, mode: str) -> None:
        """Apply one virtual-class-involved row through the ordinary
        apply stages, in the sequential order the batch is equivalent
        to: install bare, classify the extra classes, then write the
        values (the staged instance is un-baked first so the checked
        paths see the same transitions a sequential caller would
        produce).  Runs nested -- never journaled individually."""
        store = self.store
        obj = entry.obj
        obj._memberships = {entry.classes[0]}
        obj._values = {}
        obj._cow_stamp = store._snapshot_stamp
        self.install_new(obj, entry.classes[0], mode)
        for extra in entry.classes[1:]:
            self.apply_classify(obj, extra, mode)
        for attribute in entry.write_attrs:
            self.apply_set_value(
                obj, attribute, entry.values.get(attribute, INAPPLICABLE),
                mode)

    # ------------------------------------------------------------------
    # Extent maintenance (the only mutation site for store._extents)
    # ------------------------------------------------------------------

    def writable_extent(self, class_name: str) -> SurrogateSet:
        """The extent set for ``class_name``, privatized for writing:
        if the current set predates the newest snapshot stamp it is
        copied first, so captured references stay frozen.  The copy is
        the bitset's chunk-table clone -- O(extent/4096), with the chunk
        payloads shared until a write splits them."""
        store = self.store
        members = store._extents[class_name]
        if store._extent_cow.get(class_name) != store._snapshot_stamp:
            members = members.copy()
            store._extents[class_name] = members
            store._extent_cow[class_name] = store._snapshot_stamp
        return members

    def merge_extents(self, groups: Dict[object, List[int]]) -> None:
        """The batch extent path (bulk merge, image install): ``groups``
        maps a direct-membership signature to its new members' sids.
        Each class grows once, by the union of one bitset per signature
        whose IS-A closure contains it."""
        store = self.store
        by_class: Dict[str, List[SurrogateSet]] = {}
        for signature, sids in groups.items():
            members = SurrogateSet.from_ids(sids)
            for class_name in expand_signature(store.schema, signature):
                by_class.setdefault(class_name, []).append(members)
        for class_name, sets in by_class.items():
            # A fresh set per class: extents never share a container.
            added = SurrogateSet.union(sets)
            if class_name in store._extents:
                self.writable_extent(class_name).update(added)
            else:
                store._extents[class_name] = added
                store._extent_cow[class_name] = store._snapshot_stamp
            store._extent_cache.pop(class_name, None)

    def add_to_extents(self, obj: Instance, class_name: str) -> None:
        """IS-A-closed extent insertion, delta-aware: ancestors that
        already contain the object are left untouched -- their cached
        sorted snapshots stay valid (no needless invalidation)."""
        store = self.store
        surrogate = obj.surrogate
        extents = store._extents
        for ancestor in store.schema.ancestors(class_name):
            members = extents.get(ancestor)
            if members is None:
                extents[ancestor] = SurrogateSet((surrogate,))
                store._extent_cow[ancestor] = store._snapshot_stamp
                store._extent_cache.pop(ancestor, None)
            elif surrogate not in members:
                self.writable_extent(ancestor).add(surrogate)
                store._extent_cache.pop(ancestor, None)

    def rebuild_extents_for(self, obj: Instance) -> None:
        """Re-derive the object's extent entries from its remaining
        memberships, delta-aware: only classes whose membership actually
        changes are touched (and only their cached extents invalidated),
        so a membership-neutral mutation invalidates nothing."""
        store = self.store
        keep: Set[str] = set()
        for m in obj.memberships:
            keep.update(store.schema.ancestors(m))
        surrogate = obj.surrogate
        for class_name, members in store._extents.items():
            if class_name in keep:
                if surrogate not in members:
                    self.writable_extent(class_name).add(surrogate)
                    store._extent_cache.pop(class_name, None)
            elif surrogate in members:
                self.writable_extent(class_name).discard(surrogate)
                store._extent_cache.pop(class_name, None)

    # ------------------------------------------------------------------
    # Membership-delta checking
    # ------------------------------------------------------------------

    def begin_join_log(
            self, eager: bool
    ) -> Optional[List[Tuple[Instance, frozenset]]]:
        """Install (and return) a fresh membership-gain journal for the
        duration of one eagerly-checked mutation; nested adjustments
        append to it from :meth:`adjust_virtual`."""
        store = self.store
        if not eager or store._join_log is not None:
            return None
        store._join_log = []
        return store._join_log

    def end_join_log(
            self, log: Optional[List[Tuple[Instance, frozenset]]]) -> None:
        if log is not None:
            self.store._join_log = None

    def check_joins(
            self, log: Optional[List[Tuple[Instance, frozenset]]],
            skip: Instance) -> Tuple[Instance, List[Violation]]:
        """Check every object that gained a virtual-class membership
        during the current mutation (the membership-change path the seed
        left unchecked).  Returns (blamed object, violations)."""
        if log:
            for inst, delta in log:
                if inst is skip:
                    continue
                violations = self.store.checker.check_classes(inst, delta)
                if violations:
                    return inst, violations
        return skip, []

    # ------------------------------------------------------------------
    # Virtual-class extent maintenance (Section 5.6)
    # ------------------------------------------------------------------

    def acquire_virtual_targets(self, obj: Instance, attribute: str,
                                value) -> None:
        if not is_entity(value):
            return
        for cdef in self.store._home_virtuals(obj, attribute):
            self.adjust_virtual(value, cdef.name, +1)

    def release_virtual_targets(self, obj: Instance, attribute: str,
                                value) -> None:
        if not is_entity(value):
            return
        for cdef in self.store._home_virtuals(obj, attribute):
            self.adjust_virtual(value, cdef.name, -1)

    def adjust_virtual(self, obj: Instance, virtual_name: str,
                       delta: int) -> None:
        store = self.store
        if store._objects.get(obj.surrogate) is not obj:
            # A dangling reference to a removed object: its refcounts
            # were purged with it, and cascading through its values would
            # corrupt live objects' counts.
            return
        key = (virtual_name, obj.surrogate)
        refs = store._virtual_refs
        count = refs.get(key, 0) + delta
        log = store._undo_log
        if log is not None:
            log.append((refs, key, refs.get(key, _MISSING)))
        if count > 0:
            refs[key] = count
            if virtual_name not in obj.memberships:
                if store._join_log is not None:
                    closure = store.checker.expanded_memberships(obj)
                    gained = store.schema.ancestors(virtual_name) - closure
                    store._join_log.append((obj, gained))
                else:
                    store._mark_dirty(obj)
                store._prepare_write(obj)
                obj._add_membership(virtual_name)
                self.add_to_extents(obj, virtual_name)
                self.cascade_virtuals(obj, virtual_name, +1)
        else:
            refs.pop(key, None)
            if virtual_name in obj.memberships:
                self.cascade_virtuals(obj, virtual_name, -1)
                store._prepare_write(obj)
                obj._remove_membership(virtual_name)
                self.rebuild_extents_for(obj)
                # Leaving a virtual class may strand no-longer-applicable
                # values (residue policy): tolerated, but recorded for
                # validate_dirty().
                store._mark_dirty(obj)

    def cascade_virtuals(self, obj: Instance, class_name: str,
                         delta: int) -> None:
        """Membership in ``class_name`` anchors the values of nested
        embedding attributes: gaining H1 puts the hospital's location into
        A1; losing it releases the location."""
        store = self.store
        for cdef in store.schema.virtual_classes_with_origin_owner(
                class_name):
            value = obj.get_value(cdef.origin.attribute)
            if is_entity(value):
                self.adjust_virtual(value, cdef.name, delta)

    def enforce_unshared(self, obj: Instance, attribute: str,
                         value: Instance) -> None:
        """Reject referencing a virtual-class member through any site
        other than the virtual class's home attribute."""
        store = self.store
        homes = {c.name for c in store._home_virtuals(obj, attribute)}
        for m in value.memberships:
            cdef = (store.schema.get(m)
                    if store.schema.has_class(m) else None)
            if cdef is None or not cdef.virtual:
                continue
            if m not in homes:
                raise ConformanceError(obj.surrogate.id, Violation(
                    "shared-virtual", m, attribute, value, str(cdef.origin)))


# ----------------------------------------------------------------------
# Undo scopes (transactions, bulk all-or-nothing)
# ----------------------------------------------------------------------

class UndoScope:
    """The one rollback mechanism: ``with UndoScope(store): ...`` leaves
    the store as it found it if the body raises, for O(touched + roots)
    work -- never O(objects).  The caller holds the write lock.

    Opening advances ``store._snapshot_stamp``, so the first write in
    the scope to any instance, extent set, index or column chunk
    privatizes it and the container it replaced *is* the frozen
    pre-image: opening only takes references to the roots (with
    ``include_stats`` the counters too -- a failed bulk batch leaves
    every observable untouched; a rolled-back transaction still did the
    work it counted).  What is not copy-on-write -- ``_objects``,
    ``_virtual_refs``, ``_dirty``, and which instances had containers
    reassigned -- the write path logs on ``store._undo_log`` as
    ``(mapping, key, prior)``, ``mapping`` None for an instance.
    Rollback reinstalls the roots, points each logged instance at the
    containers the captured columns hold (identity kept, unstamped: open
    snapshots may share them), replays the log backwards and bumps the
    epoch.  A scope opened inside another is a savepoint on the same log.
    """

    __slots__ = ("_store", "_outermost", "_mark", "_columns", "_extents",
                 "_extent_cow", "_indexes", "_next_surrogate", "_counters")

    def __init__(self, store, include_stats: bool = False) -> None:
        self._store = store
        store._snapshot_stamp += 1
        log = store._undo_log
        self._outermost = log is None
        if log is None:
            log = store._undo_log = []
        self._mark = len(log)
        self._columns = store._columns.capture()
        self._extents = dict(store._extents)
        self._extent_cow = dict(store._extent_cow)
        self._indexes = store.indexes.capture()
        self._next_surrogate = store._allocator._next
        self._counters = (
            (store.checker.stats.capture(), store.indexes.qstats.capture())
            if include_stats else None)

    def __enter__(self) -> "UndoScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._rollback()
        if self._outermost:
            self._store._undo_log = None
        return False

    def _rollback(self) -> None:
        store = self._store
        log = store._undo_log
        for mapping, key, prior in reversed(log[self._mark:]):
            if mapping is None:
                state = self._columns.get(key.surrogate.id)
                if state is not None:   # else: created inside the scope
                    _, key._memberships, key._values = state
                    key._cow_stamp = -1
            elif prior is _MISSING:
                mapping.pop(key, None)
            else:
                mapping[key] = prior
        del log[self._mark:]
        store._columns.reinstall(self._columns)
        # Only a replaced (= touched) extent set can have a stale memo.
        live = store._extents
        for name in live.keys() | self._extents.keys():
            if live.get(name) is not self._extents.get(name):
                store._extent_cache.pop(name, None)
        store._extents = self._extents
        store._extent_cow = self._extent_cow
        store.indexes.reinstall(self._indexes)
        store._allocator._next = self._next_surrogate
        if self._counters is not None:
            engine_state, query_state = self._counters
            store.checker.stats.restore(engine_state)
            store.indexes.qstats.restore(query_state)
        store._epoch += 1
