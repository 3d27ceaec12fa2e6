"""One workload, start to finish, in this process.

``run.py`` starts ``child.py`` in a fresh subprocess per workload, so
``peak_rss_mb`` is that workload's own high-water mark and one
workload's heap never shapes another's timings.

The untraced pass (:func:`run_e2e`):

1. set the store up three times into fresh directories (``setup_s``);
   the first copy is closed and weighed (``disk_bytes_per_object``),
   the second gets a WAL tail of acknowledged writes and is reopened
   five times (``recover_s``), the third serves the timed rounds;
2. ``rounds`` rounds, each one block of every phase in the same order
   (bulk, write, get, sel, scan), so each metric's blocks are spread
   over the whole run; block sizes are constants of the workload;
   every round leaves the store as it found it;
3. two more rounds with every op timed on its own, for the percentiles
   printed beside the gated numbers;
4. the correctness gate: every answer against the generator's
   closed-form expectation.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import gen
import shapes
from shapes import BAD_CREATE, BAD_SET, CREATE, REMOVE, SET
from timing import (Normalised, clock, fastest_quarter, high_percentile,
                    median)

PHASES = ("bulk", "write", "get", "sel", "scan")
SETUPS = 3
REOPENS = 5
PER_OP_ROUNDS = 2


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  Block op counts are fixed (never
    adaptive), chosen so a block lasts roughly 80-150 ms here."""

    n: int              # base patients
    bulk_rows: int      # rows per bulk block
    write_groups: int   # 40-op groups per write block (even)
    gets: int           # fetches per get block
    sels: int           # selective queries per block
    scans: int          # scan queries per block
    tail: int           # acknowledged writes logged before recovery
    checkpoint: bool    # take a checkpoint before the tail
    get_unit: int = 1   # gets per sample in the per-op pass

    def scaled(self, divisor: int) -> "Spec":
        def cut(value: int, floor: int) -> int:
            return max(floor, value // divisor)
        groups = cut(self.write_groups, 2)
        return replace(
            self, n=cut(self.n, 400), bulk_rows=cut(self.bulk_rows, 80),
            write_groups=groups + groups % 2,
            gets=cut(self.gets, 2 * self.get_unit), sels=cut(self.sels, 2),
            scans=cut(self.scans, 2), tail=cut(self.tail, 10))


SPECS: Dict[str, Spec] = {
    "embedded": Spec(n=40_000, bulk_rows=2_000, write_groups=80,
                     gets=40_000, sels=120, scans=5, tail=2_000,
                     checkpoint=True, get_unit=100),
    "churn": Spec(n=10_000, bulk_rows=4_000, write_groups=2,
                  gets=250, sels=50, scans=6, tail=2_000,
                  checkpoint=False),
    "served": Spec(n=16_000, bulk_rows=2_000, write_groups=14,
                   gets=700, sels=100, scans=12, tail=2_000,
                   checkpoint=True),
    "sharded": Spec(n=6_000, bulk_rows=240, write_groups=6,
                    gets=500, sels=100, scans=16, tail=500,
                    checkpoint=False),
}

FIRST_PATIENT_SID = 1 + gen.N_PHYSICIANS + gen.N_PSYCHOLOGISTS


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(path) for name in names)


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------

class Gate:
    """Counts ops attempted and ops whose outcome differed from the
    expected one, and records every named check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[Dict[str, object]] = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, got, expected) -> None:
        ok = got == expected
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"check": name, "ok": ok,
                            **({} if ok else {"got": repr(got)[:120],
                                              "expected":
                                              repr(expected)[:120]})})

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Expected:
    """The generator's closed-form answers for one run."""

    def __init__(self, inputs: gen.Inputs, wrong: bool) -> None:
        sel, scan = inputs.expected_sel(), inputs.expected_scan()
        self.sel_rows = len(sel)
        self.scan_rows = len(scan)
        self.sel_digest = gen.digest(sel)
        self.scan_digest = gen.digest(scan)
        self.sel_skipped = inputs.expected_sel_skipped()
        self.scan_skipped = inputs.expected_scan_skipped()
        self.store = inputs.expected_store_digest()
        if wrong:
            # --expect-wrong: the gate must trip on this.
            self.sel_digest = gen.digest(sel[:-1])


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

#: Bulk batches of the base load between two kernel runs.
SETUP_SEGMENT = 4


def set_up(shape: shapes.Shape, directory: str, inputs: gen.Inputs,
           norm: Normalised) -> Tuple[float, float]:
    """Nothing -> populated, indexed, warmed store.  Returns ``(raw,
    normalised)`` seconds: the work is timed in segments, each between
    two kernel runs, and input binding is left out."""
    raw = normalised = 0.0

    def segment(block: Callable[[], object]) -> None:
        nonlocal raw, normalised
        took, scaled, _ = norm.measure(block, collect=False)
        raw += took
        normalised += scaled

    def open_store():
        shape.start(directory, fresh=True)
        shape.create_index("age")
        shape.create_doctors()

    def warm():
        shape.query(gen.SEL)
        shape.query(gen.SCAN)
        shape.get_age(shape.key(shape.handle(FIRST_PATIENT_SID)))

    norm.fresh()
    segment(open_store)
    rows = [shape.bind(row) for row in inputs.base]
    norm.fresh()
    step = 1000 * SETUP_SEGMENT
    for start in range(0, len(rows), step):
        segment(lambda: [shape.bulk_load(rows[at:at + 1000])
                         for at in range(start, min(start + step,
                                                    len(rows)), 1000)])
    segment(warm)
    return raw, normalised


def base_handles(shape: shapes.Shape, n: int) -> List[object]:
    return [shape.handle(FIRST_PATIENT_SID + i) for i in range(n)]


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------

def recovery(shape: shapes.Shape, shape_cls, directory: str,
             inputs: gen.Inputs, spec: Spec, gate: Gate,
             norm: Normalised) -> Dict[str, List[float]]:
    """Log a tail of acknowledged writes, close, and time reopening to
    the first answered ``count``; every acknowledged write must be
    readable afterwards."""
    handles = base_handles(shape, inputs.n)
    rng = random.Random(inputs.seed)
    renamed = rng.sample(range(inputs.n), spec.tail)
    names = [row.name for row in inputs.base]
    for index in renamed:
        names[index] = "t" + names[index][1:]
        shape.set_value(handles[index], "name", names[index])
    gate.ops(spec.tail)
    expected = gen.digest([
        [(name, row.age) for name, row in zip(names, inputs.base)],
        [(name,) for name, row in zip(names, inputs.base)
         if row.classes is gen.ALCOHOLIC],
        sorted(inputs.expected_counts().items())])
    gate.check("digest before close", shape.store_digest(), expected)
    shape.stop()
    times: Dict[str, List[float]] = {"raw": [], "normalised": []}
    for attempt in range(REOPENS):
        reopened = shape_cls()

        def reopen():
            reopened.start(directory, fresh=False)
            return reopened.count("Patient")

        norm.fresh()
        raw, normalised, patients = norm.measure(reopen)
        times["raw"].append(raw)
        times["normalised"].append(normalised)
        gate.check(f"reopen {attempt}: patients", patients, inputs.n)
        if attempt == 0:    # the same bytes are reopened every time
            gate.check("reopen: acknowledged writes readable",
                       reopened.store_digest(), expected)
        reopened.stop()
    return times


# ----------------------------------------------------------------------
# The op streams of one round
# ----------------------------------------------------------------------

class Round:
    """The fixed inputs of every round, bound to one shape's handles."""

    def __init__(self, shape: shapes.Shape, inputs: gen.Inputs,
                 spec: Spec) -> None:
        rng = random.Random(inputs.seed + 1)
        handles = base_handles(shape, inputs.n)
        base = inputs.base
        plain = [i for i, row in enumerate(base)
                 if row.classes is gen.PLAIN and row.age is not None
                 and row.age <= gen.SCAN_AGE]
        rng.shuffle(plain)
        self.bulk_rows = [shape.bind(row) for row in inputs.bulk]
        churn = isinstance(shape, shapes.Churn)
        if churn:
            # The pre-read write flips this patient's indexed age
            # between 41 and 42; no query answer contains it.
            scratch = next(i for i in plain if base[i].age == 41)
            plain.remove(scratch)
            shape.scratch = handles[scratch]
        # One write group.  Generic: 10 creates, 9 + 9 sets, 2 expected
        # rejections, 10 removes (40 ops).  Churn: 4 creates, 4 + 4
        # sets, 4 removes in four 4-op transactions, plus one 4-op
        # transaction that ends in a contradiction and rolls back (20
        # ops): a transaction costs O(store) to begin, so churn's
        # groups are small.
        n_creates, n_sets = (4, 4) if churn else (10, 9)
        half = spec.write_groups * n_sets // 2
        targets, victim = plain[:half], handles[plain[half]]

        def pairs(attr: str, change: Callable) -> List[tuple]:
            """Set a new value on each target, then put each back."""
            old = [getattr(base[i], attr) for i in targets]
            return ([(SET, handles[i], attr, change(v))
                     for i, v in zip(targets, old)]
                    + [(SET, handles[i], attr, v)
                       for i, v in zip(targets, old)])

        age_ops = pairs("age", lambda age: 1 + (age + 10) % 70)
        name_ops = pairs("name", lambda name: "w" + name[1:])
        physician, psychologist = (
            [shape.reference(h) for h in group]
            for group in (shape.physicians, shape.psychologists))

        def patient(k: int, doctor) -> Dict[str, object]:
            return {"name": f"c{10_000_000 + k}", "age": 1 + k % 78,
                    "treatedBy": doctor}

        ops: List[tuple] = []
        for g in range(spec.write_groups):
            made = range(g * n_creates, (g + 1) * n_creates)
            # The excuse branch: the last create of each group is an
            # Alcoholic treated by a Psychologist.  The same values on
            # a plain Patient are the unexcused contradiction the
            # store must refuse.
            creates = [(CREATE, "Patient",
                        patient(k, physician[k % len(physician)]), None)
                       for k in made[:-1]]
            creates.append((CREATE, "Alcoholic",
                            patient(made[-1], psychologist[g % 3]), None))
            bad_create = (BAD_CREATE, "Patient",
                          patient(g, psychologist[g % 3]), None)
            cut = slice(g * n_sets, (g + 1) * n_sets)
            removes = [(REMOVE, None, None, None)] * n_creates
            accepted = creates + age_ops[cut] + name_ops[cut] + removes
            if churn:
                ops.extend((accepted[i:i + 4], False)
                           for i in range(0, len(accepted), 4))
                ops.append(([(SET, victim, "age", 5),
                             (SET, victim, "name", "rolled-back"),
                             creates[0], bad_create], True))
            else:
                bad_set = (BAD_SET, victim, "treatedBy",
                           psychologist[g % 3])
                ops.extend(creates + age_ops[cut] + name_ops[cut]
                           + [bad_create, bad_set] + removes)
        self.write_ops = ops
        self.write_count = spec.write_groups * (20 if churn else 40)
        readable = [i for i, row in enumerate(base) if row.age is not None
                    and not (churn and i == scratch)]
        picks = rng.choices(readable, k=spec.gets)
        self.get_keys = [shape.key(handles[i]) for i in picks]
        self.get_sums = [base[i].age for i in picks]
        self.churn_texts = gen.churn_sel_texts() if churn else None
        self.sels, self.scans = spec.sels, spec.scans

    def sel_texts(self, round_no: int) -> List[str]:
        if self.churn_texts is None:
            return [gen.SEL] * self.sels
        texts, start = self.churn_texts, round_no * self.sels
        return [texts[(start + i) % len(texts)] for i in range(self.sels)]


# ----------------------------------------------------------------------
# The rounds
# ----------------------------------------------------------------------

def check_queries(gate: Gate, shape: shapes.Shape, phase: str, results,
                  rows_each: int, digest: str, skipped: int) -> None:
    for (n_rows, rows, stats), n_queries in results:
        got = (n_rows, gen.digest(shape.names(rows)), shape.skipped(stats))
        want = (n_queries * rows_each, digest, skipped)
        gate.ops(n_queries, 0 if got == want else n_queries)
        if got != want:
            gate.check(f"{phase}: rows, digest, rows_skipped", got, want)


def run_round(shape: shapes.Shape, rnd: Round, expected: Expected,
              gate: Gate, round_no: int, measure: Callable) -> None:
    """One block of every phase.  ``measure(phase, n_ops, units, run)``
    times ``run`` over ``units`` -- the whole block at once in the gated
    pass, unit by unit in the per-op pass -- and returns
    ``[(result, units covered), ...]``."""
    rows = rnd.bulk_rows
    (report, _), = measure("bulk", len(rows), [rows],
                           lambda units: shape.bulk_load(units[0]))
    shape.remove_many(shape.loaded(report, len(rows)))
    gate.ops(len(rows))

    results = measure("write", rnd.write_count, rnd.write_ops,
                      shape.run_writes)
    gate.ops(rnd.write_count, sum(missed for missed, _ in results))

    results = measure("get", len(rnd.get_keys), rnd.get_keys,
                      shape.get_block)
    right = sum(total for total, _ in results) == sum(rnd.get_sums)
    gate.ops(len(rnd.get_keys), 0 if right else len(rnd.get_keys))

    texts = rnd.sel_texts(round_no)
    check_queries(gate, shape, "sel",
                  measure("sel", len(texts), texts, shape.query_block),
                  expected.sel_rows, expected.sel_digest,
                  expected.sel_skipped)
    texts = [gen.SCAN] * rnd.scans
    check_queries(gate, shape, "scan",
                  measure("scan", len(texts), texts, shape.query_block),
                  expected.scan_rows, expected.scan_digest,
                  expected.scan_skipped)


def run_e2e(name: str, seed: int, rounds: int, scale: int, workdir: str,
            wrong: bool) -> Dict[str, object]:
    started = clock()
    spec = SPECS[name] if scale == 1 else SPECS[name].scaled(scale)
    shape_cls = shapes.SHAPES[name]
    inputs = gen.Inputs(seed, spec.n, spec.bulk_rows)
    expected = Expected(inputs, wrong)
    gate = Gate()
    objects = spec.n + FIRST_PATIENT_SID - 1

    norm = Normalised()
    setup_raw: List[float] = []
    setup_s: List[float] = []
    shape = None
    for copy in range(SETUPS):
        directory = os.path.join(workdir, f"{name}-{copy}")
        # The previous copy is cyclic garbage until collected; without
        # this each set-up runs slower than the one before.
        del shape
        gc.collect()
        shape = shape_cls()
        raw, normalised = set_up(shape, directory, inputs, norm)
        setup_raw.append(raw)
        setup_s.append(normalised)
        gate.ops(spec.n)
        if copy == 0:
            # Weighed after a clean close, which flushes the whole log.
            if spec.checkpoint:
                shape.checkpoint()
            shape.stop()
            disk_bytes = tree_bytes(directory)
        elif copy == 1:
            if spec.checkpoint:
                shape.checkpoint()
            recover = recovery(shape, shape_cls, directory, inputs,
                               spec, gate, norm)
        if copy < SETUPS - 1:
            shutil.rmtree(directory)

    gate.check("digest after set-up", shape.store_digest(), expected.store)
    for check in shape.shape_checks():
        gate.check(*check)
    rnd = Round(shape, inputs, spec)
    # Everything alive now lives to the end of the run: keep the
    # collector from re-walking the store before every block.
    gc.collect()
    gc.freeze()
    blocks: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    raw_blocks: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    samples: Dict[str, List[float]] = {phase: [] for phase in PHASES}

    def gated(phase, n_ops, units, run):
        raw, normalised, result = norm.measure(lambda: run(units))
        raw_blocks[phase].append(raw / n_ops)
        blocks[phase].append(normalised / n_ops)
        return [(result, len(units))]

    def per_op(phase, n_ops, units, run):
        step = spec.get_unit if phase == "get" else 1
        ops_per_unit = n_ops / len(units)
        out = []
        for at in range(0, len(units), step):
            chunk = units[at:at + step]
            t0 = clock()
            result = run(chunk)
            samples[phase].append(
                (clock() - t0) / (len(chunk) * ops_per_unit))
            out.append((result, len(chunk)))
        return out

    rounds_started = clock()
    for round_no in range(rounds):
        norm.fresh()
        run_round(shape, rnd, expected, gate, round_no, gated)
    rounds_s = clock() - rounds_started
    for round_no in range(rounds, rounds + PER_OP_ROUNDS):
        run_round(shape, rnd, expected, gate, round_no, per_op)
    per_op_s = clock() - rounds_started - rounds_s
    gate.check("digest after the last round", shape.store_digest(),
               expected.store)
    gate.check("patients after the last round", shape.count("Patient"),
               spec.n)
    shape.stop()
    shutil.rmtree(directory)

    per_op = {phase: median(blocks[phase]) for phase in PHASES}
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "bulk_rows_per_s": (1.0 / per_op["bulk"], "rows/s"),
        "write_us": (per_op["write"] * 1e6, "us"),
        "get_us": (per_op["get"] * 1e6, "us"),
        "sel_us": (per_op["sel"] * 1e6, "us"),
        "scan_us": (per_op["scan"] * 1e6, "us"),
        "recover_s": (median(recover["normalised"]), "s"),
        "disk_bytes_per_object": (disk_bytes / objects, "B"),
        "peak_rss_mb": ((self_kb + child_kb) / 1024.0, "MB"),
    }
    detail = {
        "sizes": spec.__dict__, "rounds": rounds,
        "setup_s": {"raw": setup_raw, "normalised": setup_s},
        "recover_s": recover,
        "wall_s": {"before_rounds": rounds_started - started,
                   "rounds": rounds_s, "per_op_pass": per_op_s},
        "raw_block_us": {p: {
            "median": median(raw_blocks[p]) * 1e6,
            "fastest_quarter": fastest_quarter(raw_blocks[p]) * 1e6,
            "blocks": [b * 1e6 for b in raw_blocks[p]]} for p in PHASES},
        "per_op_us": {p: {
            "median": median(samples[p]) * 1e6,
            **{k: (v * 1e6 if k == "value" else v)
               for k, v in high_percentile(samples[p]).items()}}
            for p in PHASES},
        "digests": {"sel": expected.sel_digest,
                    "scan": expected.scan_digest,
                    "store": expected.store},
        "checks": gate.checks,
    }
    return {"workload": name, "seed": seed, "correct": gate.correct,
            "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "detail": detail, "wall_s": clock() - started}
