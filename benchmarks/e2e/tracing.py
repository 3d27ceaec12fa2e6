"""Span recorders the benchmark installs from its own files.

Nothing under ``src/`` knows about tracing yet (ROADMAP item 3), so the
spans sit *around* public layer entry points: each is replaced, for the
length of the traced rounds, by a wrapper that records name, layer,
start, end, parent and request id.  Spans stay in memory and are written
out as ``trace.jsonl`` at the end.

One process must see every span, so the traced ``served`` shape runs
its service on a thread and the traced ``sharded`` shape uses in-process
shards; the two process hops this leaves out are measured on their own
(``net.ping_us``, ``sharding.rtt_us``).  The loop is closed -- one
request in flight, its work handed from thread to thread but never
overlapping -- so all threads share one span stack: a server-thread
span's parent is whatever span is open when it starts, which is the
client call (or the dispatch that handed it to an executor thread).
Spans are recorded only while ``active`` is set, i.e. inside the timed
blocks; the harness's own housekeeping between blocks leaves none.

A layer's **self time** is its span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import asyncio
import functools
import json
from typing import Callable, Dict, List, Optional, Tuple

from timing import clock

#: Every layer the ledger reports, outermost first.  ``bench`` is the
#: benchmark's own adapter code between the op loop and the program.
LAYERS = ("bench", "net.client", "net.protocol", "net.server",
          "net.backends", "sharding.router", "sharding.wire",
          "sharding.pruning", "sharding.worker", "objects", "semantics",
          "query", "storage")

# Span fields.
NAME, LAYER, START, END, PARENT, REQUEST = range(6)


def entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` of every wrapped entry point."""
    from repro.net import backends, client, protocol, server
    from repro.objects import transactions
    from repro.objects.store import ObjectStore
    from repro.query import planner
    from repro.semantics.checker import ConformanceChecker
    from repro.semantics.compiled import CompiledProfileChecker
    from repro.sharding import router, wire, worker
    from repro.storage.wal import WriteAheadLog

    points: List[Tuple[object, str, str]] = [
        (client.StoreClient, "call", "net.client"),
        (protocol, "encode_frame", "net.protocol"),
        (protocol, "decode_payload", "net.protocol"),
        (server.StoreService, "_dispatch", "net.server"),
        (planner, "plan_query", "query"),
        (planner, "execute_plan", "query"),
        (router, "extract_facts", "sharding.pruning"),
        (worker.ShardServer, "handle_json", "sharding.worker"),
        (CompiledProfileChecker, "check", "semantics"),
        # A context manager: its span covers the scope, so its self
        # time is what beginning and committing (or rolling back) cost.
        (transactions, "transaction", "objects"),
    ]
    for cls in (backends.SnapshotBackend, backends.ConcurrentBackend):
        points += [(cls, name, "net.backends") for name in vars(cls)
                   if name.startswith("op_")]
    points += [(ObjectStore, name, "objects") for name in (
        "create", "set_value", "remove", "bulk_load", "validate_dirty",
        "snapshot", "get", "count")]
    points += [(ConformanceChecker, name, "semantics") for name in (
        "check", "check_attribute", "check_classes",
        "check_membership_loss")]
    points += [(WriteAheadLog, name, "storage") for name in (
        "append", "append_fields", "commit")]
    points += [(wire, name, "sharding.wire") for name in (
        "encode_command", "decode_command", "encode_result",
        "decode_result")]
    points += [(router.ShardedStore, name, "sharding.router") for name in (
        "create", "set_value", "remove", "bulk_load", "query", "get",
        "count")]
    return points


class _Scope:
    """A context manager's span: opened on entry, closed on exit."""

    def __init__(self, tracer: "Tracer", inner, label: str,
                 layer: str) -> None:
        self.tracer, self.inner = tracer, inner
        self.label, self.layer = label, layer
        self.span = None

    def __enter__(self):
        self.span = self.tracer._begin(self.label, self.layer)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer._end(self.span)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        self._stack: List[int] = []
        self._requests = 0
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _begin(self, name: str, layer: str) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            request = self.spans[parent][REQUEST]
        else:
            parent = -1
            self._requests += 1
            request = self._requests
        span = [name, layer, 0.0, 0.0, parent, request]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = clock()
        return span

    def _end(self, span: list) -> None:
        span[END] = clock()
        self._stack.pop()

    def wrap(self, fn: Callable, layer: str,
             name: Optional[str] = None,
             namer: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.  ``namer(*args)`` names
        the span from the call's arguments."""
        label = name or getattr(fn, "__qualname__", repr(fn))

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                if not self.active:
                    return await fn(*args, **kwargs)
                span = self._begin(label, layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._end(span)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._begin(
                namer(*args) if namer is not None else label, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)
        return traced

    def wrap_scope(self, factory: Callable, layer: str) -> Callable:
        """A context-manager factory whose scopes record a span."""
        label = getattr(factory, "__qualname__", repr(factory))

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            inner = factory(*args, **kwargs)
            if not self.active:
                return inner
            return _Scope(self, inner, label, layer)
        return traced

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in entry_points():
            original = vars(owner)[attr]
            wrap = self.wrap_scope if attr == "transaction" else self.wrap
            setattr(owner, attr, wrap(original, layer))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps({
                    "name": span[NAME], "layer": span[LAYER],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "request": span[REQUEST]}))
                f.write("\n")

    def ledger(self) -> Dict[str, Dict[str, float]]:
        """``{op type: {layer: self seconds, "ops": n}}``; the op type
        is the name of a request's root span."""
        spans = self.spans
        covered = [0.0] * len(spans)
        root_name: List[str] = []
        for span in spans:
            parent = span[PARENT]
            if parent < 0:
                root_name.append(span[NAME])
            else:
                root_name.append(root_name[parent])
                covered[parent] += span[END] - span[START]
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            row = table.setdefault(root_name[index], {"ops": 0})
            if span[PARENT] < 0:
                row["ops"] += 1
            self_time = span[END] - span[START] - covered[index]
            row[span[LAYER]] = row.get(span[LAYER], 0.0) + self_time
        return table


def render(ledger: Dict[str, Dict[str, float]]) -> List[str]:
    """The ledger as text: per op type, per layer, self time per op in
    microseconds and as a share of the op."""
    lines = []
    for op, row in ledger.items():
        ops = row["ops"]
        total = sum(v for k, v in row.items() if k != "ops")
        lines.append(f"ledger {op:<6} {total / ops * 1e6:10.1f} us/op "
                     f"over {ops} ops")
        for layer in LAYERS:
            if layer in row:
                lines.append(
                    f"ledger   {layer:<18} {row[layer] / ops * 1e6:10.2f} "
                    f"us  {100.0 * row[layer] / total:5.1f}%")
    return lines
