"""API hygiene: exports resolve, modules are documented, and the store's
extent/index structures are only mutated by their owners."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

ALL_MODULES = sorted(
    name for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
)


def test_package_has_modules():
    assert len(ALL_MODULES) > 30


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a docstring"
    assert len(module.__doc__.strip()) > 20, module_name


def _packages_with_all():
    out = []
    for name in ALL_MODULES + ["repro"]:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            out.append(module)
    return out


@pytest.mark.parametrize("module", _packages_with_all(),
                         ids=lambda m: m.__name__)
def test_all_exports_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_top_level_all_sorted_and_unique():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


# ---------------------------------------------------------------------------
# Encapsulation ban: extents, index postings, and bitset chunks are owned
# ---------------------------------------------------------------------------
#
# The mutation pipeline (objects/pipeline.py) is the single writer of
# store._extents and the store's index set; the IndexManager
# (query/indexes.py) alone rebuilds posting buckets at a design swap;
# and SurrogateSet (columnar.py) alone touches its chunk tables -- every
# other module must treat all of them as read-only.  Ruff has no rule
# language for "no mutation of this attribute outside these modules"
# (see the note in pyproject.toml), so the ban is enforced here with an
# AST sweep: outside an attribute's owning module(s), no statement may
# mutate `<expr>._extents` / `._indexes` / `._buckets` / `._chunks`
# where `<expr>` is anything but `self` (an object may
# initialize/maintain its *own* private structures; it may never reach
# into another's).

_BANNED_ATTRS = {
    "_extents": {"objects/pipeline.py"},
    "_indexes": {"objects/pipeline.py"},
    "_buckets": {"objects/pipeline.py", "query/indexes.py"},
    "_chunks": {"columnar.py"},
}
_MUTATOR_METHODS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update", "__setitem__",
}
_EXEMPT = {"objects/pipeline.py"}


def _banned_target(node):
    """The `<expr>._extents`-style attribute this node refers to, if the
    root expression is not `self`."""
    if (isinstance(node, ast.Attribute) and node.attr in _BANNED_ATTRS
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")):
        return node.attr
    return None


def _mutations_in(tree):
    hits = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            raw = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else node.targets)
            for target in raw:
                # Rebinding the attribute itself, or writing through a
                # subscript of it.
                if _banned_target(target):
                    targets.append(target)
                elif (isinstance(target, ast.Subscript)
                      and _banned_target(target.value)):
                    targets.append(target.value)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATOR_METHODS
              and _banned_target(node.func.value)):
            targets.append(node.func.value)
        for target in targets:
            attr = (target.attr if isinstance(target, ast.Attribute)
                    else _banned_target(target))
            hits.append((attr, target.lineno))
    return hits


def test_owned_structures_only_mutated_by_owners():
    src_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        for attr, lineno in _mutations_in(tree):
            if rel in _BANNED_ATTRS[attr]:
                continue
            offenders.append(f"{rel}:{lineno} ({attr})")
    assert not offenders, (
        "direct mutation of an owned structure outside its owning "
        "module: " + ", ".join(offenders))


# ---------------------------------------------------------------------------
# Evolution ban: a live store's schema is only changed by the pipeline
# ---------------------------------------------------------------------------
#
# Online schema evolution is a journaled, epoch-swapping pipeline command
# (AlterClassCommand): it rebinds `store.schema` to a fresh Schema object
# so MVCC snapshots keep their pinned epoch, re-scopes the conformance
# profiles, and logs the change for recovery.  Mutating another object's
# schema in place -- `store.schema.add_class(...)` -- or rebinding it
# outside the pipeline would bypass all of that, so both are banned here.
# A *detached* schema held in a plain variable (`schema.add_class(...)`,
# the evolution helpers and builders) and an object's own `self.schema`
# stay legal.

_SCHEMA_MUTATORS = {"add_class", "replace_class", "remove_class"}


def _foreign_schema(node):
    """True for `<expr>.schema` where `<expr>` is not `self` -- i.e. a
    reach into some *other* object's live schema attribute."""
    return (isinstance(node, ast.Attribute) and node.attr == "schema"
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self"))


def _schema_mutations_in(tree):
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            raw = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else node.targets)
            if any(_foreign_schema(target) for target in raw):
                hits.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _SCHEMA_MUTATORS
              and _foreign_schema(node.func.value)):
            hits.append(node.lineno)
    return hits


def test_live_schema_only_evolved_through_the_pipeline():
    src_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        if rel in _EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        for lineno in _schema_mutations_in(tree):
            offenders.append(f"{rel}:{lineno}")
    assert not offenders, (
        "live-store schema mutation outside the mutation pipeline "
        "(use alter_class/add_excuse/retract_excuse): "
        + ", ".join(offenders))


# ---------------------------------------------------------------------------
# One op table: the wire vocabulary is listed in repro/ops.py and nowhere else
# ---------------------------------------------------------------------------
#
# Every store operation is one row of `repro.ops.OPS`; the backends'
# handlers, the service's dispatch sets, the client's retry set and the
# replica-set stubs are derived from it.  A second hand-kept list of op
# names is how the edges drifted apart before, so any set/dict/tuple/
# list literal naming three or more ops outside ops.py is an offence.

def _op_name_lists_in(tree, op_names):
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            members = node.elts
        elif isinstance(node, ast.Dict):
            members = [key for key in node.keys if key is not None]
        else:
            continue
        named = {m.value for m in members
                 if isinstance(m, ast.Constant)
                 and isinstance(m.value, str)} & op_names
        if len(named) >= 3:
            hits.append((node.lineno, sorted(named)))
    return hits


def test_op_names_are_listed_only_in_the_op_table():
    from repro.ops import OPS
    src_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        if rel == "ops.py":
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        for lineno, named in _op_name_lists_in(tree, set(OPS)):
            offenders.append(f"{rel}:{lineno} {named}")
    assert not offenders, (
        "a hand-kept list of op names outside repro/ops.py (derive it "
        "from OPS): " + ", ".join(offenders))


def _op_names_compared_in(chain: ast.If, op_names):
    """Op names an ``if`` / ``elif`` chain's tests compare against."""
    named = set()
    while True:
        for node in ast.walk(chain.test):
            if isinstance(node, ast.Compare):
                for side in [node.left] + node.comparators:
                    for const in ast.walk(side):
                        if (isinstance(const, ast.Constant)
                                and const.value in op_names):
                            named.add(const.value)
        if len(chain.orelse) == 1 and isinstance(chain.orelse[0], ast.If):
            chain = chain.orelse[0]
        else:
            return named


def test_storage_and_net_do_not_dispatch_on_op_names():
    """The log and the replication stream carry op-table commands;
    ``repro.ops.replay`` runs them.  A ladder of ``op == "create" ...
    elif op == "set" ...`` under storage/ or net/ is a second applier."""
    from repro.ops import OPS
    offenders = []
    for rel, tree in _src_trees():
        if not rel.startswith(("storage/", "net/")):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.If):
                named = _op_names_compared_in(node, set(OPS))
                if len(named) >= 3:
                    offenders.append(f"{rel}:{node.lineno} {sorted(named)}")
    assert not offenders, (
        "an if/elif chain over op names (run the row through "
        "repro.ops.replay): " + ", ".join(offenders))


def _keys_in(tree):
    """Every expression used as a mapping key: ``{k: ...}``, ``m[k]``,
    ``m.get(k)``, ``k in m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            yield from (key for key in node.keys if key is not None)
        elif isinstance(node, ast.Subscript):
            yield node.slice
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            yield node.args[0]
        elif (isinstance(node, ast.Compare)
              and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            yield node.left


def test_value_tags_are_known_to_one_module():
    """The tagged-value format (``{"$": tag, ...}``) lives behind
    ``repro/codec.py``: nobody else spells the tag key."""
    spelled = sorted(
        rel for rel, tree in _src_trees()
        if any(isinstance(key, ast.Constant) and key.value == "$"
               for key in _keys_in(tree)))
    assert spelled == ["codec.py"]


def _names_an_exception_type(node) -> bool:
    """``type(exc).__name__``: an error flattened to its class name."""
    return (isinstance(node, ast.Attribute) and node.attr == "__name__"
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "type" and node.value.args
            and isinstance(node.value.args[0], ast.Name)
            and node.value.args[0].id == "exc")


def test_error_payloads_are_built_in_one_module():
    """An error crosses an edge as ``codec.encode_error`` /
    ``decode_error`` build it: nobody else spells the payload's
    ``"msg"`` key or names an exception by its type's name."""
    offenders = [
        f"{rel}:{node.lineno}" for rel, tree in _src_trees()
        if rel != "codec.py"
        for node in [*_keys_in(tree), *ast.walk(tree)]
        if (isinstance(node, ast.Constant) and node.value == "msg")
        or _names_an_exception_type(node)]
    assert not offenders, ", ".join(offenders)


#: The names an error used to be relayed under (``remote_type`` the
#: type name it carried), and the lines ``errors.py`` keeps them on
#: until the benchmark stops importing them.
_RELAY_NAMES = re.compile(r"\b(RemoteOpError|ShardWorkerError|remote_type)\b")
_RELAY_KEPT = {"RemoteOpError = ShardWorkerError = ReproError",
               "remote_type = property(lambda self: type(self).__name__)"}


def test_no_error_is_relayed_under_another_name():
    root = pathlib.Path(__file__).resolve().parent.parent
    offenders = [
        f"{path.relative_to(root)}:{number}"
        for top in ("src", "tests") for path in sorted(
            (root / top).rglob("*.py"))
        if path != pathlib.Path(__file__).resolve()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _RELAY_NAMES.search(line) and not (
            path.name == "errors.py" and line.strip() in _RELAY_KEPT)]
    assert not offenders, ", ".join(offenders)


def test_the_sharded_backend_writes_no_handler_of_its_own():
    """Every ``ShardedBackend.op_<name>`` is derived from its row and
    hands the request to ``ShardedStore.execute``: none is written out
    (the router routes requests, it does not restate them)."""
    tree = dict(_src_trees())["net/backends.py"]
    backend = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name == "ShardedBackend")
    written = [node.name for node in ast.walk(backend)
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("op_")]
    assert not written, written


def test_no_row_body_probes_its_target():
    """A row body runs against ``ObjectStore``; a router routes the
    request instead of running it, so no body asks which store it was
    given (``hasattr``, or a three-argument ``getattr``)."""
    from repro.ops import OPS
    bodies = {row.run.__name__ for row in OPS.values()}
    tree = dict(_src_trees())["ops.py"]
    offenders = [
        f"ops.py:{node.lineno} ({func.name})"
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name in bodies
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and (node.func.id == "hasattr"
             or (node.func.id == "getattr" and len(node.args) == 3))]
    assert bodies <= {func.name for func in tree.body
                      if isinstance(func, ast.FunctionDef)}
    assert not offenders, ", ".join(offenders)


#: The calls that put records into a WAL (or open and close the group
#: they join), and the modules that may make them: the pipeline's one
#: commit path, and a replica re-logging a shipped record verbatim.
_WAL_PUTS = {"append", "append_fields", "begin", "commit", "put", "seal",
             "write_out"}
_WAL_PUTTERS = {"objects/pipeline.py": _WAL_PUTS,
                "net/replication.py": {"put"}}


def _wal_puts_in(tree):
    """``<log>.<put>(...)`` calls whose ``<log>`` is a name or attribute
    ending in ``wal`` (``wal``, ``store._wal``, ``new_wal``)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _WAL_PUTS):
            log = node.func.value
            name = (log.attr if isinstance(log, ast.Attribute)
                    else getattr(log, "id", ""))
            if name.endswith("wal"):
                yield node.func.attr, node.lineno


def test_only_the_pipeline_puts_records_into_a_store_wal():
    """One commit rule -- a write is visible iff its record holds a seq
    -- decided in one place: a second path putting records into a
    store's log would be a second rule."""
    seen, offenders = set(), []
    for rel, tree in _src_trees():
        for method, lineno in _wal_puts_in(tree):
            if method in _WAL_PUTTERS.get(rel, ()):
                seen.add(rel)
            else:
                offenders.append(f"{rel}:{lineno} ({method})")
    assert seen == set(_WAL_PUTTERS)    # the sweep sees the real puts
    assert not offenders, ", ".join(offenders)


def test_every_op_row_is_served_at_every_edge():
    from repro.net.backends import (
        ConcurrentBackend, ReplicaBackend, ShardedBackend)
    from repro.net.client import ReplicaSetClient, StoreClient
    from repro.ops import OPS
    from repro.sharding.worker import ShardServer
    for name, row in OPS.items():
        handler = "op_" + name
        assert callable(getattr(ConcurrentBackend, handler)), name
        assert callable(getattr(ShardedBackend, handler)), name
        if row.write:
            # A replica's refusal is explicit: it is not writable (the
            # service answers NotPrimaryError) and has no write handler.
            assert not ReplicaBackend.writable
            assert not hasattr(ReplicaBackend, handler), name
        else:
            assert callable(getattr(ReplicaBackend, handler)), name
        assert name in ShardServer._HANDLERS, name
        assert row.stubs, name
        for stub in row.stubs:
            assert callable(getattr(StoreClient, stub)), (name, stub)
            assert callable(getattr(ReplicaSetClient, stub)), (name, stub)


def _op_reference_rows():
    """The op reference table of docs/SEMANTICS.md section 16, as it
    must read given ``OPS``."""
    from repro.ops import OPS

    def fields(names):
        return ", ".join(f"`{name}`" for name in names) or "–"

    def flag(value):
        return "yes" if value else "–"

    return [
        f"| `{row.name}` | {fields(row.required)} | "
        f"{fields(row.optional)} | {flag(row.write)} | "
        f"{flag(row.idempotent)} | {flag(row.fenced)} | "
        f"{flag(row.in_txn)} | `{row.reach}` |"
        for row in OPS.values()]


def test_documented_op_reference_matches_the_table():
    docs = pathlib.Path(__file__).resolve().parent.parent / "docs"
    lines = (docs / "SEMANTICS.md").read_text().splitlines()
    header = ("| op | required | optional | write | idempotent | "
              "fenced | in_txn | reach |")
    start = lines.index(header) + 2         # skip the |---| rule
    documented = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        documented.append(line)
    assert documented == _op_reference_rows()


# ---------------------------------------------------------------------------
# One execution path: no baseline selectors, no imports from the test side,
# and a size ratchet
# ---------------------------------------------------------------------------
#
# A measurement baseline used to be reachable from the serving path through
# a user option (`engine=`, `use_index=`, `prune=`, `semantics=`).  The
# serving path now has one implementation, the reference lives in
# tests/reference_model.py, and these checks keep it that way -- E7's
# unpruned partition scan and the candidate semantics included.

_BASELINE_SELECTORS = {"engine", "use_index", "prune", "semantics"}

#: Physical lines under src/repro/**/*.py after the last change.  Lower
#: this after a deletion; a raise needs its reason in the PR description.
SRC_LINE_CEILING = 20430

#: The same ratchet for prose, in bytes: detail lives in git and the
#: issue, not in ever-growing reference docs or changelog entries.
PROSE_BYTE_CEILINGS = {"docs/SEMANTICS.md": 60251, "README.md": 28759}
CHANGES_ENTRY_BYTES = 1200
FIRST_CAPPED_CHANGES_ENTRY = 25


def _src_trees():
    src_root = pathlib.Path(repro.__file__).resolve().parent
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        yield rel, ast.parse(path.read_text(), filename=rel)


def test_no_def_takes_a_baseline_selector():
    offenders = []
    for rel, tree in _src_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            names = {a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)}
            for name in sorted(names & _BASELINE_SELECTORS):
                offenders.append(f"{rel}:{node.lineno} ({name}=)")
    assert not offenders, (
        "a parameter that selects a second implementation (keep the "
        "reference in tests/, measure against the parent commit): "
        + ", ".join(offenders))


def _src_imports_of(packages):
    """``rel:line (module)`` for every absolute import under src/repro
    whose top-level package is one of ``packages``."""
    offenders = []
    for rel, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in packages:
                    offenders.append(f"{rel}:{node.lineno} ({module})")
    return offenders


def test_src_never_imports_the_test_side():
    offenders = _src_imports_of(("tests", "benchmarks"))
    assert not offenders, (
        "src/repro imports from tests/ or benchmarks/: "
        + ", ".join(offenders))


def test_src_never_imports_gc():
    """A batch path gets faster by doing less work.  ``gc.disable``,
    ``gc.freeze`` or threshold tuning would only move the collections
    into whatever runs next."""
    offenders = _src_imports_of(("gc",))
    assert not offenders, "src/repro imports gc: " + ", ".join(offenders)


#: Modules on the read and plan paths, and the functions in them allowed
#: a function-level import: cold paths whose import would be a cycle.
_HOT_MODULES = ("objects/store.py", "objects/snapshot.py",
                "query/planner.py", "query/typing.py", "ops.py")
_COLD_IMPORTS = {("objects/store.py", "open"),
                 ("objects/store.py", "bulk_session")}


def test_read_paths_import_at_module_level():
    """An import inside a function runs on every call: about a
    microsecond, on a read that costs two."""
    offenders = []
    for rel, tree in _src_trees():
        if rel not in _HOT_MODULES:
            continue
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, (ast.Import, ast.ImportFrom))
                        and (rel, func.name) not in _COLD_IMPORTS):
                    offenders.append(f"{rel}:{node.lineno} ({func.name})")
    assert not offenders, ", ".join(offenders)


def test_entity_ness_is_asked_in_one_place():
    """``typesys.values.is_entity`` is the one predicate, and it looks
    at the type: a ``hasattr(x, "memberships")`` anywhere else would
    evaluate the property -- a worker round trip on a remote handle."""
    offenders = [
        f"{rel}:{node.lineno}"
        for rel, tree in _src_trees() if rel != "typesys/values.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("hasattr", "getattr")
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "memberships"]
    assert not offenders, (
        "probe entity-ness with typesys.values.is_entity, not by "
        "touching .memberships: " + ", ".join(offenders))


def test_code_is_generated_in_one_place():
    """One ``compile`` (memoised on the source text) and one ``exec``,
    side by side in the query compiler: every generated function --
    plan, bare scan, predicate -- goes through
    ``query.compiler.instantiate``."""
    sites = sorted(
        (node.func.id, rel)
        for rel, tree in _src_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "compile", "eval"))
    assert sites == [("compile", "query/compiler.py"),
                     ("exec", "query/compiler.py")]


def test_the_closure_tree_evaluator_lives_with_the_tests():
    """``tests/reference_query.py`` is the only closure-tree evaluator;
    nothing under ``src/`` defines, imports or mentions its parts."""
    src_root = pathlib.Path(repro.__file__).resolve().parent
    gone = ("RuntimeContext", "run_rows", "_run_aggregate", "_nowhere",
            "_Accumulator", "SkipRow")
    offenders = [
        f"{path.relative_to(src_root)} ({name})"
        for path in sorted(src_root.rglob("*.py")) for name in gone
        if name in path.read_text()]
    assert not offenders, ", ".join(offenders)
    for module_name in ALL_MODULES:
        module = importlib.import_module(module_name)
        assert not any(hasattr(module, name) for name in gone), module_name


def test_json_text_has_one_encoder():
    """``codec.dumps`` is the one encoder of the program's JSON text (the
    WAL, checkpoints, the socket, the shard pipe, the catch-up dump):
    ``json.JSONEncoder`` is built only in ``codec.py``, and
    ``json.dumps`` is left to the indented manifest writers and the
    human-readable ``wal.dump_wal``."""
    offenders = []
    for rel, tree in _src_trees():
        exempt = set()
        for node in ast.walk(tree):
            if (rel == "storage/wal.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "dump_wal"):
                exempt = {id(child) for child in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {a.name for a in node.names}
                    & {"JSONEncoder", "dump", "dumps"}):
                offenders.append(f"{rel}:{node.lineno} (from json import)")
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                continue
            name = node.func.attr
            if name == "JSONEncoder" and rel != "codec.py":
                offenders.append(f"{rel}:{node.lineno} (JSONEncoder)")
            elif (name in ("dump", "dumps") and id(node) not in exempt
                  and not any(k.arg == "indent" for k in node.keywords)):
                offenders.append(f"{rel}:{node.lineno} (json.{name})")
    assert not offenders, (
        "encode JSON text with repro.codec.dumps: " + ", ".join(offenders))


def test_one_snapshot_cache():
    """``StoreSnapshot(...)`` is constructed only by
    ``ObjectStore.snapshot`` in ``objects/store.py``: every reader,
    threaded or served, shares the store's one cached epoch."""
    offenders = [
        f"{rel}:{node.lineno}"
        for rel, tree in _src_trees() if rel != "objects/store.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id",
                    getattr(node.func, "attr", None)) == "StoreSnapshot"]
    assert not offenders, (
        "take snapshots through store.snapshot(): " + ", ".join(offenders))


#: The only ``IndexManager`` methods that may move its design version.
_DESIGN_VERSION_WRITERS = {"__init__", "create", "drop", "reinstall"}


def test_index_design_version_moves_only_with_the_index_set():
    """Every plan key carries ``IndexManager.version``; a plan bakes in
    the set of indexed attributes and reads cardinalities per execution.
    So the version moves when that set does (``create``, ``drop``, a
    ``reinstall`` that changes it) and nowhere else: a bump on a data
    change would throw away plans that read nothing it changed."""
    offenders = []
    for rel, tree in _src_trees():
        methods = {id(func): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for func in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            owners = {"indexes", "manager"}
            if methods.get(id(func)) == "IndexManager":
                if func.name in _DESIGN_VERSION_WRITERS:
                    continue
                owners.add("self")
            offenders += [
                f"{rel}:{node.lineno} ({func.name})"
                for node in ast.walk(func)
                if isinstance(node, (ast.Assign, ast.AugAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Attribute)
                and target.attr == "version"
                and getattr(target.value, "id",
                            getattr(target.value, "attr", None)) in owners]
    assert not offenders, (
        "IndexManager.version moves only in "
        f"{sorted(_DESIGN_VERSION_WRITERS)}: " + ", ".join(offenders))


def test_the_wire_has_one_parser_and_the_service_never_polls():
    """Under ``net/``: the frame header is unpacked only inside
    ``protocol.FrameDecoder`` (the parser ``test_net_protocol.py``
    fuzzes), nothing reads a stream with ``readexactly`` or serves one
    through ``start_server``, and no wait is an ``asyncio.sleep`` of a
    literal (a poll: wake the waiter instead)."""
    offenders = []
    for rel, tree in _src_trees():
        if not rel.startswith("net/"):
            continue
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "FrameDecoder":
                inside = {id(child) for child in ast.walk(node)}
        for node in ast.walk(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("readexactly", "start_server", "read_frame"):
                offenders.append(f"{rel}:{node.lineno} ({name})")
            elif (isinstance(node, ast.Attribute)
                  and node.attr.startswith("unpack")
                  and id(node) not in inside):
                offenders.append(f"{rel}:{node.lineno} (second parser)")
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "sleep"
                  and any(isinstance(arg, ast.Constant)
                          for arg in node.args)):
                offenders.append(f"{rel}:{node.lineno} (sleep literal)")
    assert not offenders, ", ".join(offenders)


def test_the_shard_pipe_has_one_framing_path():
    """``wire.PipeEnd`` frames each text on the pipe's fd itself: the
    connection's ``send_bytes``/``recv_bytes`` framing is not kept
    beside it anywhere in the sharding package."""
    offenders = [f"{rel}:{node.lineno} ({node.attr})"
                 for rel, tree in _src_trees() if rel.startswith("sharding/")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("send_bytes", "recv_bytes")]
    assert not offenders, ", ".join(offenders)


def _module_level(body):
    """Statements a module runs at import, through ``if``/``try``
    blocks, never into a ``def`` or ``class``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def test_no_counters_instance_lives_at_module_level():
    """Counters belong to the store (or service) that ticks them and are
    passed down to the code doing the work: no module binds an instance
    of a ``repro.obs._Counters`` subclass for everyone to tick."""
    trees = list(_src_trees())
    classes = [node for _rel, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    counters, grew = {"_Counters"}, True
    while grew:
        found = {node.name for node in classes
                 if any(_name(base) in counters for base in node.bases)}
        grew = not found <= counters
        counters |= found
    offenders = [f"{rel}:{node.lineno}" for rel, tree in trees
                 for node in _module_level(tree.body)
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and node.value is not None
                 and any(isinstance(call, ast.Call)
                         and _name(call.func) in counters
                         for call in ast.walk(node.value))]
    assert len(counters) > 5
    assert not offenders, ", ".join(offenders)


def test_src_size_ratchet():
    src_root = pathlib.Path(repro.__file__).resolve().parent
    lines = sum(len(path.read_text().splitlines())
                for path in src_root.rglob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/repro grew to {lines} physical lines (ceiling "
        f"{SRC_LINE_CEILING}): delete the path the new code replaces, or "
        "raise SRC_LINE_CEILING and justify the raise in the PR "
        "description")


def test_prose_ratchet():
    root = pathlib.Path(__file__).resolve().parent.parent
    offenders = [
        f"{rel}: {size} bytes (ceiling {ceiling})"
        for rel, ceiling in PROSE_BYTE_CEILINGS.items()
        for size in [len((root / rel).read_bytes())] if size > ceiling]
    changes = (root / "CHANGES.md").read_text(encoding="utf-8")
    for entry in re.split(r"(?m)^(?=- PR )", changes):
        number = re.match(r"- PR (\d+)", entry)
        size = len(entry.encode("utf-8"))
        if (number and int(number.group(1)) >= FIRST_CAPPED_CHANGES_ENTRY
                and size > CHANGES_ENTRY_BYTES):
            offenders.append(f"CHANGES.md PR {number.group(1)}: {size} "
                             f"bytes (ceiling {CHANGES_ENTRY_BYTES})")
    assert not offenders, ", ".join(offenders)
