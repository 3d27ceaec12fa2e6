"""An aborted atomic scope leaves no trace -- and costs what it touched.

Rollback (:class:`repro.objects.pipeline.UndoScope`) reinstalls the
copy-on-write pre-images the scope's own writes left behind and replays
a journal of the few maps that are not copy-on-write.  Two claims:

* **Equivalence.**  Over random traces on the paper's hospital schema
  (writes that anchor and release virtual classes, index design changes,
  nested transactions, nested eager bulk batches), a scope aborted by an
  exception, a rejected contradiction or ``validate_on_commit`` leaves
  objects, memberships, values, extents, ``_virtual_refs``, ``_dirty``,
  postings, the allocator and every instance's identity as they were; a
  snapshot pinned before the scope (which is also what ``snapshot()``
  answers inside it) keeps reading its own epoch; and the rest of the
  trace ends where a store on :mod:`tests.reference_model` that never
  ran the scope ends -- on plain and on durable stores (reopen ==
  memory).  The mutant "rollback forgets ``_virtual_refs``" is killed.
* **O(touched), not as a timing.**  At 5,000 objects a committed
  transaction, an aborted one and a rejected eager batch leave every
  untouched instance, extent set and posting set *the same container
  object*, and never call ``Instance.values_snapshot``.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConformanceError
from repro.objects import Instance, ObjectStore
from repro.objects.pipeline import UndoScope
from repro.objects.store import CheckMode
from repro.objects.transactions import TransactionError, transaction
from repro.scenarios import populate_hospital
from repro.typesys import EnumSymbol
from repro.typesys.values import is_entity
from tests.reference_model import on_reference
from tests.test_incremental_properties import (
    EXTRA_CLASSES, SCHEMA, SET_CHOICES, UNSET_CHOICES, _World,
)

INDEXABLE = ("age", "treatedBy", "bloodPressure")

#: Bulk rows by key: (classes, values-by-world-key).  "tb" lands on a
#: virtual class's home attribute, so it takes the per-object path.
BULK_ROWS = {
    "person": (("Person",), {"name": "bp", "age": 33}),
    "patient": (("Patient",), {"name": "bq", "age": 44,
                               "treatedBy": "physician"}),
    "alcoholic": (("Patient", "Alcoholic"), {"name": "ba", "age": 51,
                                            "treatedBy": "psychologist"}),
    "tb": (("Tubercular_Patient",), {"name": "bt", "age": 29,
                                     "treatedAt": "swiss"}),
    "poison": (("Person",), {"name": "bad", "age": 999}),
}


class _Abort(Exception):
    pass


def _refs(values):
    return {name: ("ref", value.surrogate) if is_entity(value) else value
            for name, value in values.items()}


class _ScopedWorld(_World):
    """The shared cast, plus a tubercular patient anchoring the Swiss
    structures (so ``_virtual_refs`` is live before any scope opens)."""

    def __init__(self, store) -> None:
        super().__init__(store)
        store.classify(self.patients[1], "Tubercular_Patient")
        store.set_value(self.patients[1], "treatedAt", self.swiss)
        self.removed = set()

    def run(self, op) -> None:
        """One trace step; individually rejected writes are part of the
        trace (they roll themselves back), not aborts."""
        store, kind = self.store, op[0]
        try:
            if kind == "create":
                self.patients.append(store.create(
                    "Patient", name="n", age=op[1],
                    treatedBy=self.physician))
            elif kind == "create_index":
                store.create_index(op[1])
            elif kind == "drop_index":
                store.drop_index(op[1])
            elif kind == "bulk":
                rows = [(BULK_ROWS[key][0],
                         {a: self.value(v) if a.startswith("treated") else v
                          for a, v in BULK_ROWS[key][1].items()})
                        for key in op[1]]
                store.bulk_load(rows, check="eager")
            elif kind == "nested":
                cast = self.cast()
                try:
                    with transaction(store):
                        for inner in op[1]:
                            self.run(inner)
                        if op[2]:
                            raise _Abort
                except _Abort:
                    self.recast(cast)
            else:
                idx = op[1] % len(self.patients)
                if idx not in self.removed and self.apply(
                        (kind, idx) + tuple(op[2:])) and kind == "remove":
                    self.removed.add(idx)
        except ConformanceError:
            pass

    def cast(self):
        return len(self.patients), set(self.removed)

    def recast(self, cast) -> None:
        """Forget the handles an aborted scope made or removed."""
        del self.patients[cast[0]:]
        self.removed = cast[1]

    def digest(self, postings: bool = True, allocator: bool = True):
        store = self.store
        out = {
            "objects": {obj.surrogate: (obj.memberships,
                                        _refs(obj.values_snapshot()))
                        for obj in store.instances()},
            "extents": {name: frozenset(members)
                        for name, members in store._extents.items()
                        if members},
            "virtual_refs": dict(store._virtual_refs),
            "dirty": {s: None if attrs is None else frozenset(attrs)
                      for s, attrs in store._dirty.items()},
        }
        if allocator:
            out["allocator"] = store._allocator._next
        if postings:
            out["postings"] = {
                attr: ({repr(v): frozenset(m) for v, m in
                        store.indexes.get(attr)._buckets.items()},
                       frozenset(store.indexes.get(attr).inapplicable),
                       frozenset(store.indexes.get(attr).residue))
                for attr in store.indexes.attributes()}
        return out


def _snapshot_digest(snap):
    return ({inst.surrogate: (inst.memberships,
                              _refs(inst.values_snapshot()))
             for inst in snap.instances()},
            {name: frozenset(snap.extent_surrogates(name))
             for name in ("Patient", "Alcoholic", "Hospital", "Address")},
            snap.indexes.attributes())


def _abort_scope(world, scope_ops, how) -> None:
    """Run ``scope_ops`` in a transaction that ends in an abort; returns
    once the abort has been observed."""
    store = world.store
    pinned = store.snapshot()
    before = _snapshot_digest(pinned)
    with pytest.raises((_Abort, ConformanceError, TransactionError)):
        with transaction(store, validate_on_commit=(how == "validate")):
            for op in scope_ops:
                world.run(op)
            # Inside the scope a snapshot is still the committed epoch.
            assert store.snapshot() is pinned
            assert _snapshot_digest(pinned) == before
            if how == "exception":
                raise _Abort
            if how == "contradiction":
                store.set_value(world.physician, "age", 200)
            store.set_value(world.physician, "age", 200,
                            check=CheckMode.NONE)
    assert _snapshot_digest(pinned) == before


def _check_trace(make_store, prefix, scope_ops, how, suffix,
                 reopen=None) -> None:
    world = _ScopedWorld(make_store())
    oracle = _ScopedWorld(on_reference(ObjectStore(SCHEMA)))
    for op in prefix:
        world.run(op)
        oracle.run(op)

    before = world.digest()
    handles = {obj.surrogate: obj for obj in world.store.instances()}
    cast = world.cast()
    pinned = world.store.snapshot()
    pinned_view = _snapshot_digest(pinned)
    _abort_scope(world, scope_ops, how)
    world.recast(cast)

    assert world.digest() == before
    assert all(world.store.get(s) is obj for s, obj in handles.items())
    assert before == oracle.digest()

    for op in suffix:
        world.run(op)
        oracle.run(op)
    assert world.digest() == oracle.digest()
    assert _snapshot_digest(pinned) == pinned_view
    assert (world.problems(world.store.validate_all())
            == oracle.problems(oracle.store.validate_all()))
    if reopen is not None:
        # Neither the design nor burned surrogates are WAL-journaled.
        memory = world.digest(postings=False, allocator=False)
        world.store = reopen(world.store)
        assert world.digest(postings=False, allocator=False) == memory


_patient = st.integers(0, 7)
_base = st.one_of(
    st.tuples(st.just("set"), _patient, st.sampled_from(SET_CHOICES)).map(
        lambda t: ("set", t[1], t[2][0], t[2][1])),
    st.tuples(st.just("unset"), _patient, st.sampled_from(UNSET_CHOICES)),
    st.tuples(st.just("classify"), _patient, st.sampled_from(EXTRA_CLASSES)),
    st.tuples(st.just("declassify"), _patient,
              st.sampled_from(EXTRA_CLASSES)),
    st.tuples(st.just("remove"), _patient),
    st.tuples(st.just("create"), st.sampled_from((30, 200))),
    st.tuples(st.just("create_index"), st.sampled_from(INDEXABLE)),
    st.tuples(st.just("drop_index"), st.sampled_from(INDEXABLE)),
)
_bulk = st.tuples(
    st.just("bulk"),
    st.lists(st.sampled_from(sorted(BULK_ROWS)), min_size=1, max_size=4))
_flat = st.one_of(_base, _bulk)
_nested = st.tuples(st.just("nested"), st.lists(_flat, max_size=5),
                    st.booleans())
_step = st.one_of(_base, _bulk, _nested)
_trace = (st.lists(_flat, max_size=6), st.lists(_step, max_size=10),
          st.sampled_from(("exception", "contradiction", "validate")),
          st.lists(_flat, max_size=6))

#: Takes the tubercular patient off the Swiss hospital inside the scope:
#: both structures leave their virtual classes and the refcounts go.
_RELEASE_ANCHOR = ([], [("unset", 1, "treatedAt")], "exception",
                   [("remove", 1)])


@settings(max_examples=120, deadline=None)
@given(*_trace)
@example(*_RELEASE_ANCHOR)
@example([("create_index", "age")],
         [("nested", [("bulk", ["tb", "person"]), ("remove", 1)], False),
          ("drop_index", "age"), ("bulk", ["patient", "poison"])],
         "validate", [("bulk", ["alcoholic", "tb"])])
def test_aborted_scope_leaves_no_trace(prefix, scope_ops, how, suffix):
    _check_trace(lambda: ObjectStore(SCHEMA), prefix, scope_ops, how, suffix)


@settings(max_examples=30, deadline=None)
@given(*_trace)
@example(*_RELEASE_ANCHOR)
def test_aborted_scope_leaves_no_trace_durable(prefix, scope_ops, how,
                                               suffix):
    with tempfile.TemporaryDirectory() as directory:
        def reopen(store):
            store.close()
            return ObjectStore.open(directory)
        _check_trace(
            lambda: ObjectStore.open(directory, SCHEMA, durability="wal"),
            prefix, scope_ops, how, suffix, reopen=reopen)


def test_mutant_rollback_forgets_virtual_refs_is_killed(monkeypatch):
    rollback = UndoScope._rollback

    def forgetful(self):
        log, refs = self._store._undo_log, self._store._virtual_refs
        log[self._mark:] = [e for e in log[self._mark:] if e[0] is not refs]
        rollback(self)

    monkeypatch.setattr(UndoScope, "_rollback", forgetful)
    with pytest.raises(AssertionError):
        _check_trace(lambda: ObjectStore(SCHEMA), *_RELEASE_ANCHOR)


# ---------------------------------------------------------------------------
# O(touched): container identity, not a stopwatch
# ---------------------------------------------------------------------------

def test_scopes_touch_only_what_they_write(monkeypatch):
    pop = populate_hospital(n_patients=5000, seed=7, tubercular_fraction=0.01)
    store = pop.store
    store.create_index("age")
    store.create_index("name")
    assert len(store) > 5000
    touched = pop.patients[-1]          # a plain Patient
    doomed = pop.patients[-2]

    def containers():
        age = store.indexes.get("age")
        return ({s: (o._memberships, o._values)
                 for s, o in store._objects.items()},
                dict(store._extents), dict(age._buckets),
                store.indexes.get("name")._buckets)

    def same(before, after, skip_objects, skip_extents, skip_ages):
        objects, extents, ages, names = before
        objects2, extents2, ages2, _names2 = after
        assert all(objects2[s][0] is m and objects2[s][1] is v
                   for s, (m, v) in objects.items()
                   if s not in skip_objects)
        assert all(extents2[c] is e for c, e in extents.items()
                   if c not in skip_extents)
        assert all(ages2[v] is b for v, b in ages.items()
                   if v not in skip_ages)

    def no_copy(self):
        raise AssertionError("values_snapshot called: O(store) work")
    monkeypatch.setattr(Instance, "values_snapshot", no_copy)

    # A snapshot holds every current container: whatever a scope
    # touches it must first replace.
    pinned = store.snapshot()
    old_age = touched.get_value("age")
    before = containers()
    with transaction(store):            # committed, 4 ops
        store.set_value(touched, "age", 101)
        store.set_value(touched, "name", "renamed")
        store.set_value(touched, "bloodPressure", EnumSymbol("Low_BP"))
        store.classify(touched, "Hemorrhaging_Patient")
    after = containers()
    same(before, after, {touched.surrogate}, {"Hemorrhaging_Patient"},
         {old_age, 101})
    assert after[3] is not before[3]    # the touched index did privatize

    before = after
    with pytest.raises(ConformanceError):
        with transaction(store):        # aborted, 4 ops
            store.set_value(touched, "name", "again")
            store.remove(doomed)
            store.set_value(touched, "age", 103)
            store.set_value(touched, "age", 999)
    after = containers()
    # Rollback put the touched instance's *old* containers back.
    same(before, after, set(), set(), set())
    assert store.get(doomed.surrogate) is doomed

    before = after
    n = store._allocator._next
    with pytest.raises(ConformanceError):   # rejected eager batch
        store.bulk_load(
            [("Patient", {"name": f"b{i}", "age": 30 + i,
                          "treatedBy": pop.physicians[0]})
             for i in range(9)] + [("Person", {"name": "x", "age": 999})],
            check="eager")
    same(before, containers(), set(), set(), set())
    assert store._allocator._next == n
    assert pinned.get(touched.surrogate).get_value("age") == old_age
