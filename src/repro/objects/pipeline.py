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

1. **admit** -- checks that move nothing (an alter validates its
   successor schema on a clone);
2. **frame record** -- on a WAL store, the command's record
   (:meth:`MutationCommand.record`) is encoded: one the log cannot
   encode refuses the command before anything moves;
3. **apply** -- conformance checking (the rows of the signature's
   generated check a command can affect) interleaved with extent,
   virtual-class and secondary-index maintenance, rolling its own work
   back on violation;
4. **put / seal** -- a command that mutated puts its record (a lone one
   takes its seq; a scope's joins the group its ``UndoScope`` seals);
   the frame of one that changed nothing is dropped;
5. **epoch** -- the epoch is bumped.

The one commit rule: a write is visible iff its record holds a seq.
Only depth-1 commands are logged, and only here
(``tests/test_api_hygiene.py``).

The pipeline also owns the store's **write lock**: commands, transaction
scopes and snapshot capture all serialize through ``store._write_lock``,
which is what makes :meth:`~repro.objects.store.ObjectStore.snapshot`
reads safe from other threads (see :mod:`repro.objects.snapshot`).

Copy-on-write discipline
------------------------

Snapshot captures are O(live structure roots), not O(state): a snapshot
records *references* to instance signatures and value dicts, extent
sets and index postings.  A signature is an interned frozenset that
:meth:`MutationPipeline.reclassify` replaces; the pipeline privatizes any
other structure it is about to mutate when it is older than the newest
snapshot stamp (``store._snapshot_stamp``): value dicts through
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

from repro.codec import NA, encode_value, encode_values
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
from repro.objects.profiles import profile_catalog
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
    reach the log nor bump the store epoch -- a cached snapshot stays
    valid across them.  :meth:`record`, built before :meth:`apply`, is
    the :mod:`repro.ops` request that runs it plus any sid it mints.
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

    def admit(self, pipe: "MutationPipeline") -> None:
        """Raise before the record is framed and anything moves."""

    def record(self, store) -> Tuple[str, dict]:
        raise NotImplementedError

    def apply(self, pipe: "MutationPipeline"):
        raise NotImplementedError

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

    def record(self, store):
        # apply_create mints the allocator's next sid.
        fields = {"sid": store._allocator._next, "cls": self.class_name,
                  "values": encode_values(self.values)}
        return "create", self._checked(store, fields)


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

    def record(self, store):
        return "remove", {"sid": self.sid}


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

    def record(self, store):
        fields = {"sid": self.obj.surrogate.id, "cls": self.class_name}
        return self.op, self._checked(store, fields)


class DeclassifyCommand(ClassifyCommand):
    op = "declassify"
    __slots__ = ()

    def apply(self, pipe):
        self.mutated = pipe.apply_declassify(
            self.obj, self.class_name, self.mode(pipe.store))


class SetValueCommand(MutationCommand):
    op = "set"
    __slots__ = ("obj", "attribute", "value")

    def __init__(self, obj: Instance, attribute: str, value,
                 check: Optional[str] = None) -> None:
        super().__init__(check)
        self.obj = obj
        self.attribute = attribute
        self.value = value

    def admit(self, pipe):
        pipe.store._require_live(self.obj)

    def apply(self, pipe):
        pipe.apply_set_value(self.obj, self.attribute, self.value,
                             self.mode(pipe.store))
        self.mutated = True

    def record(self, store):
        fields = {"sid": self.obj.surrogate.id, "attr": self.attribute}
        if self.value is INAPPLICABLE:
            return "unset", self._checked(store, fields)
        fields["value"] = encode_value(self.value)
        return "set", self._checked(store, fields)


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

    def record(self, store):
        return "validate", {"scope": self.scope}


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
    __slots__ = ("new_def", "recheck", "verb", "diagnostics", "successor",
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
        self.successor = None
        self.result: List[Tuple[Instance, Violation]] = []

    def admit(self, pipe):
        # Validated on a clone, which is what the record carries.
        name = self.new_def.name
        if pipe._txn_depth:
            raise SchemaEvolutionError(
                name, "schema changes cannot run inside a transaction "
                "scope (they are their own atomic unit)")
        successor = pipe.store.schema.copy()
        self.diagnostics, rolled_back = apply_change(successor, self.new_def)
        if rolled_back:
            raise SchemaEvolutionError(
                name, "; ".join(
                    str(d) for d in self.diagnostics
                    if d.code == "unexcused-contradiction"),
                self.diagnostics)
        self.successor = successor

    def record(self, store):
        # The whole successor schema rides in the record: replay needs no
        # out-of-band state, and the CDL print/load round-trip is the
        # same one checkpoints already depend on.
        return "alter", {
            "cls": self.new_def.name,
            "verb": self.verb,
            "recheck": self.recheck,
            "schema": print_schema(self.successor),
        }

    def apply(self, pipe):
        self.result = pipe.apply_alter(self)
        return self.result


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

    def record(self, store):
        return "index", {"attr": self.attribute, "action": self.action}


class BulkCommand(MutationCommand):
    """One staged bulk batch committed as a single pipeline command (and
    a single WAL record)."""

    op = "bulk"
    __slots__ = ("session", "fast", "slow", "profiles")

    def __init__(self, session) -> None:
        super().__init__(session._mode)
        self.session = session

    def apply(self, pipe):
        staged = self.session._staged
        self.fast, self.slow, self.profiles = pipe.apply_bulk(
            staged, self.check)
        self.mutated = bool(staged)

    def record(self, store):
        """One record per batch (all-or-nothing); staging minted the sids."""
        rows = [[entry.obj.surrogate.id, list(entry.classes),
                 {name: encode_value(entry.values[name])
                  if name in entry.values else NA
                  for name in entry.write_attrs}]
                for entry in self.session._staged]
        return "bulk", {"check": self.session._mode, "rows": rows}


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

class MutationPipeline:
    """Executes commands for one store through the staged sequence.

    Holds the store's write lock for the duration of each command (and
    of whole transaction scopes), tracks nesting depth so internal
    re-entrant applies (a failing create's removal, a bulk batch's
    per-object fallback rows) are never logged and never bump the
    epoch, and owns all extent / virtual-class / index maintenance.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._depth = 0
        #: Open :meth:`unlogged` scopes: commands apply without records.
        self._unlogged = 0
        #: Open transaction scopes (all on the lock-holding thread).
        self._txn_depth = 0

    # ------------------------------------------------------------------
    # Stage driver
    # ------------------------------------------------------------------

    def execute(self, command: MutationCommand):
        store = self.store
        with store._write_lock:
            command.admit(self)
            wal = (store._wal if not (self._depth or self._unlogged)
                   else None)
            if wal is not None:
                # Framed at last_seq + 1 under the lock, or None inside
                # a transaction: the record then joins the scope's group.
                op, fields = command.record(store)
                data = wal.frame(op, fields)
            self._depth += 1
            try:
                result = command.apply(self)
            finally:
                self._depth -= 1
            if self._depth == 0 and command.mutated:
                if wal is not None:
                    wal.put(op, fields, data)
                store._epoch += 1
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
            wal = open_group = None if self._unlogged else store._wal
            if wal is not None:
                # Group commit: records buffered until the scope exits
                # cleanly, discarded (sequence rolled back) on abort.
                wal.begin()
            self._txn_depth += 1
            sealed = None
            try:
                with UndoScope(store):
                    yield
                    if validate_on_commit:
                        problems = store.validate_all()
                        if problems:
                            raise TransactionError(tuple(
                                (obj.surrogate.id, v) for obj, v in problems))
                    if wal is not None:
                        # An unencodable group rolls the scope back; the
                        # log has dropped it already (no second abort).
                        open_group = None
                        sealed = wal.seal()
            except BaseException:
                self._txn_depth -= 1
                if open_group is not None:
                    wal.abort()
                raise
            self._txn_depth -= 1
            if sealed:
                # The record holds its seq: an I/O error keeps the writes.
                wal.write_out(*sealed)

    @contextmanager
    def unlogged(self):
        """Commands apply without records (a replica re-logs verbatim)."""
        self._unlogged += 1
        try:
            yield
        finally:
            self._unlogged -= 1

    # ------------------------------------------------------------------
    # Apply stage: create / remove
    # ------------------------------------------------------------------

    def apply_create(self, class_name: str, values: Dict[str, object],
                     mode: str) -> Instance:
        store = self.store
        if not store.schema.has_class(class_name):
            raise UnknownClassError(class_name)
        obj = Instance(store._allocator.allocate(),
                       store._signature((class_name,)))
        obj._cow_stamp = store._snapshot_stamp   # fresh dict, never captured
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
            self.reclassify(obj, obj._memberships | {class_name})
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
            self.reclassify(obj, obj._memberships - {class_name})
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
        self.reclassify(obj, obj._memberships - {class_name})
        self.rebuild_extents_for(obj)
        if not eager:
            store._mark_dirty(obj)
            return True
        removed = before - checker.expanded_memberships(obj)
        violations = checker.check_membership_loss(obj, removed)
        hard = [v for v in violations if v.kind != "inapplicable-attribute"]
        if hard:
            checker.stats.rollbacks += 1
            self.reclassify(obj, obj._memberships | {class_name})
            self.add_to_extents(obj, class_name)
            self.cascade_virtuals(obj, class_name, +1)
            raise ConformanceError(obj.surrogate.id, hard[0])
        if violations:
            store._mark_dirty(obj)
        return True

    def reclassify(self, obj: Instance, memberships) -> None:
        """The one membership write: ``obj`` takes the store's signature
        for ``memberships``, and its column row is put again."""
        store = self.store
        store._prepare_write(obj)
        obj._memberships = store._signature(memberships)
        store._columns.put(obj.surrogate, obj._memberships, obj._values,
                           store._snapshot_stamp)

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
            out = store.checker.sweep(store._objects.values())
            found = {obj.surrogate for obj, _violation in out}
            for surrogate in [s for s in store._dirty if s not in found]:
                self.clear_dirty(surrogate)
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

        The clone the command's admission validated
        (``apply_change``) is swapped in as the next schema epoch --
        open snapshots keep their reference to the prior schema and
        continue reading against it -- and the derived state is
        migrated delta-scoped: only signature profiles, extents and
        index postings inside the diff's affected region are touched.

        Object-level nonconformance surfaced by the re-check does *not*
        roll the change back: like virtual-class residue, the objects
        are marked dirty and the (object, violation) pairs returned, for
        the designer to address (the paper's Section 6 stance -- the
        *schema* must be contradiction-free, the data catches up).
        """
        store = self.store
        stats = store.checker.stats
        old_schema, new_schema = store.schema, command.successor
        changes = diff_schemas(old_schema, new_schema)
        if not changes:
            return []   # no-op: no epoch, no record
        region = affected_region(old_schema, new_schema, changes)

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
            stats.schema_objects_rechecked += len(store._objects)
            problems = store.checker.sweep(store._objects.values())
            for obj in dict.fromkeys(obj for obj, _violation in problems):
                store._mark_dirty(obj)
            return problems
        # One profile probe per direct-membership signature decides the
        # fate of every object sharing it.
        affected = region.classes
        for signature, share in profile_catalog(store).items():
            objs, profile = share.members, store.checker._profile_for(
                signature)
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

    def apply_bulk(self, staged, mode: str):
        """Commit one staged bulk batch: check the fast path, merge it in
        one pass, run virtual-class-involved rows through the ordinary
        (nested, unjournaled) apply paths.  All-or-nothing: the undo
        scope opens here, under the write lock, so a failure undoes this
        commit -- counters included -- and nothing that was acknowledged
        while the session was staging.  Returns the fast rows, the
        fallback rows and the number of signatures merged."""
        store = self.store
        stats = store.checker.stats
        with UndoScope(store, include_stats=True):
            fast, slow = self.bulk_partition(staged)
            if mode == CheckMode.EAGER:
                self.bulk_validate(fast)
            profiles = self.bulk_merge(fast, mode)
            for entry in slow:
                self.bulk_fallback(entry, mode)
            stats.bulk_loads += 1
            stats.bulk_objects += len(fast)
            stats.bulk_fallbacks += len(slow)
        return fast, slow, profiles

    def bulk_partition(self, staged) -> Tuple[list, list]:
        """Split staged rows into the batched fast path and the rows
        that must take the store's per-object path because they interact
        with virtual-class maintenance (:meth:`virtual_anchors`, decided
        once per class tuple)."""
        fast: list = []
        slow: list = []
        anchors: Dict[Tuple[str, ...], Optional[frozenset]] = {}
        for entry in staged:
            at = anchors.get(entry.classes, False)
            if at is False:
                at = anchors[entry.classes] = self.virtual_anchors(
                    entry.classes)
            values = entry.values
            (slow if at is None or any(
                is_entity(values[name]) for name in at.intersection(values))
             else fast).append(entry)
        return fast, slow

    def virtual_anchors(self, classes) -> Optional[frozenset]:
        """None when a virtual class is in the IS-A expansion of
        ``classes``; else the attributes at which an entity value lands
        on a virtual class's home attribute (and so must go through the
        store's reference-counting write path)."""
        schema = self.store.schema
        expanded = expand_signature(schema, classes)
        if any(schema.get(name).virtual for name in expanded):
            return None
        return frozenset(
            attribute
            for attribute, cdefs in self.store._virtuals_by_attr.items()
            if any(cdef.origin.owner_class in expanded for cdef in cdefs))

    def bulk_validate(self, fast) -> None:
        """Eager validation of the fast path in staging order: the
        unshared-structure checks, then one :meth:`ConformanceChecker.sweep
        <repro.semantics.checker.ConformanceChecker.sweep>`.  Raises on
        the earliest-staged violating object, with its first
        violation."""
        store = self.store
        if store.strict_virtual_extents:
            # Only values that are members of some virtual class can
            # violate unshared structure; collect those members once.
            virtual_members = SurrogateSet()
            for cdef in store.schema.virtual_classes():
                members = store._extents.get(cdef.name)
                if members:
                    virtual_members.update(members, store.bitset_stats)
            if virtual_members:
                for entry in fast:
                    for attribute, value in entry.values.items():
                        if (is_entity(value) and
                                value.surrogate in virtual_members):
                            self.enforce_unshared(
                                entry.obj, attribute, value)
        found = store.checker.sweep([entry.obj for entry in fast])
        if found:
            obj, violation = found[0]
            raise ConformanceError(obj.surrogate.id, violation)

    def bulk_merge(self, fast, mode: str) -> int:
        """Make the fast-path objects visible: registration, one extent
        pass per class tuple, one index pass per batch, dirty marks and
        counters.  Returns the number of signatures merged."""
        store = self.store
        if not fast:
            return 0
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
        extents: Dict[Tuple[str, ...], List[int]] = {}
        for entry in fast:
            obj = entry.obj
            surrogate = obj.surrogate
            sids = extents.get(entry.classes)
            if sids is None:
                sids = extents[entry.classes] = []
            sids.append(surrogate.id)
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
        self.merge_extents(extents)
        store.indexes.bulk_add(merged, indexed_writes)
        stats = store.checker.stats
        stats.writes += total_writes
        stats.classifies += classifies
        return len(set(map(frozenset, extents)))

    def bulk_fallback(self, entry, mode: str) -> None:
        """Apply one virtual-class-involved row through the ordinary
        apply stages, in the sequential order the batch is equivalent
        to: install bare, classify the extra classes, then write the
        values (the staged instance is un-baked first so the checked
        paths see the same transitions a sequential caller would
        produce).  Runs nested -- never journaled individually."""
        store = self.store
        obj = entry.obj
        obj._memberships = store._signature(entry.classes[:1])
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
            members = members.copy(store.bitset_stats)
            store._extents[class_name] = members
            store._extent_cow[class_name] = store._snapshot_stamp
        return members

    def merge_extents(self, groups: Dict[object, List[int]]) -> None:
        """The batch extent path (bulk merge, image install): ``groups``
        maps direct memberships (a class tuple or set) to its new
        members' sids.
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
            added = SurrogateSet.union(sets, store.bitset_stats)
            if class_name in store._extents:
                self.writable_extent(class_name).update(
                    added, store.bitset_stats)
            else:
                store._extents[class_name] = added
                store._extent_cow[class_name] = store._snapshot_stamp

    def add_to_extents(self, obj: Instance, class_name: str) -> None:
        """IS-A-closed extent insertion, delta-aware: ancestors that
        already contain the object are left untouched (no needless
        copy-on-write)."""
        store = self.store
        surrogate = obj.surrogate
        extents = store._extents
        for ancestor in store.schema.ancestors(class_name):
            members = extents.get(ancestor)
            if members is None:
                extents[ancestor] = SurrogateSet((surrogate,))
                store._extent_cow[ancestor] = store._snapshot_stamp
            elif surrogate not in members:
                self.writable_extent(ancestor).add(surrogate)

    def rebuild_extents_for(self, obj: Instance) -> None:
        """Re-derive the object's extent entries from its remaining
        memberships, delta-aware: only classes whose membership actually
        changes are touched, so a membership-neutral mutation copies no
        extent."""
        store = self.store
        keep: Set[str] = set()
        for m in obj.memberships:
            keep.update(store.schema.ancestors(m))
        surrogate = obj.surrogate
        for class_name, members in store._extents.items():
            if class_name in keep:
                if surrogate not in members:
                    self.writable_extent(class_name).add(surrogate)
            elif surrogate in members:
                self.writable_extent(class_name).discard(surrogate)

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
                self.reclassify(obj, obj._memberships | {virtual_name})
                self.add_to_extents(obj, virtual_name)
                self.cascade_virtuals(obj, virtual_name, +1)
        else:
            refs.pop(key, None)
            if virtual_name in obj.memberships:
                self.cascade_virtuals(obj, virtual_name, -1)
                self.reclassify(obj, obj._memberships - {virtual_name})
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
    ``_virtual_refs``, ``_dirty``, and which instances had their value
    dict or signature reassigned -- the write path logs on
    ``store._undo_log`` as ``(mapping, key, prior)``, ``mapping`` None
    for an instance, once per scope.  Rollback reinstalls the roots,
    points each logged instance at the signature and value dict the
    captured row holds (identity kept, unstamped: open snapshots may
    share them), replays the log backwards and bumps the epoch.  A scope
    opened inside another is a savepoint on the same log.
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
        store._extents = self._extents
        store._extent_cow = self._extent_cow
        store.indexes.reinstall(self._indexes)
        store._allocator._next = self._next_surrogate
        if self._counters is not None:
            engine_state, query_state = self._counters
            store.checker.stats.restore(engine_state)
            store.indexes.qstats.restore(query_state)
        store._epoch += 1
