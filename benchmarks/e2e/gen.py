"""Seeded inputs for the four workloads, with closed-form expectations.

The *shape* of the population is fixed by its size alone: how many
patients of each kind, the multiset of ages, the byte length of every
value.  The seed decides only *which* individual gets which kind, age
and name.  So timings see different data under every seed while every
count (constraints checked, WAL bytes, bytes on disk, rows returned)
repeats exactly, and the expected answer of each query is known here
without asking the store.

Kinds, by share of the base patients:

* 1 in 20 is doubly classified ``Patient`` + ``Hemorrhaging_Patient``
  (blood pressure ``'Low_BP``); every fourth one of them has age 37 --
  so 1 in 80 patients answers the selective query, the extent and the
  ``age = 37`` posting list each hold rows the other prunes, and the
  posting list is short enough that the planner intersects the two
  instead of scanning the extent;
* 1 in 20 is an ``Alcoholic`` treated by a ``Psychologist`` -- the
  paper's excuse branch, live on every bulk load;
* the rest are plain ``Patient`` s treated by a ``Physician``.  1 in 60
  of all patients is older than 78 (the scan's answer) and 1 in 200 has
  no recorded age (the scan's ``rows_skipped``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

N_PHYSICIANS = 6
N_PSYCHOLOGISTS = 3

SEL_AGE = 37
SCAN_AGE = 78
SEL = ("for x in Hemorrhaging_Patient where x.age = 37 "
       "select x.name")
SCAN = "for p in Patient where p.age > 78 select p.name"
#: A10's deduction query: every profile is refuted, no shard is asked.
REFUTED = ("for y in Patient where y.treatedBy not in Physician "
           "and y.treatedBy not in Psychologist select y.name")
#: The store digest: every patient's name and age, who is treated by a
#: psychologist (exactly the alcoholics, unless a contradiction slipped
#: in), and the population of each class.
DIGEST_ROWS = "for p in Patient select p.name, p.age"
DIGEST_EXCUSED = ("for p in Patient where p.treatedBy in Psychologist "
                  "select p.name")
DIGEST_CLASSES = ("Person", "Physician", "Psychologist", "Patient",
                  "Alcoholic", "Hemorrhaging_Patient")

PLAIN = ("Patient",)
ALCOHOLIC = ("Alcoholic",)
HEMORRHAGING = ("Patient", "Hemorrhaging_Patient")


def churn_sel_texts(n: int = 512) -> List[str]:
    """``n`` distinct texts of the selective query (the bound variable
    is renamed): one plan, one answer, ``n`` plan-cache keys."""
    return [SEL.replace("x.", f"x{i}.").replace(" x ", f" x{i} ")
            for i in range(n)]


class Row(NamedTuple):
    """One patient before it is bound to a store: ``age`` is ``None``
    when unrecorded, ``doctor`` indexes the physicians (plain and
    hemorrhaging patients) or the psychologists (alcoholics)."""

    classes: Tuple[str, ...]
    name: str
    age: object
    doctor: int


def digest(rows: Sequence) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


def _name(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(10 ** 7, 10 ** 8)}"


def _patients(rng: random.Random, n: int, prefix: str) -> List[Row]:
    """``n`` patients in the kind shares of the module docstring."""
    n_sel = n // 80
    n_hem_other = n // 20 - n_sel
    n_alc = n // 20
    kinds = ([(HEMORRHAGING, True)] * n_sel
             + [(HEMORRHAGING, False)] * n_hem_other
             + [(ALCOHOLIC, False)] * n_alc
             + [(PLAIN, False)] * (n - n_sel - n_hem_other - n_alc))
    rng.shuffle(kinds)
    # Ages of everyone outside the selected cohort: a fixed multiset
    # (so digit counts, hence bytes, do not depend on the seed), dealt
    # in seeded order.  Cycling 1..78 puts other patients on the
    # ``age = 37`` posting list too.
    ages: List[object] = ([None] * (n // 200)
                          + [79 + i % 21 for i in range(n // 60)])
    ages += [1 + i % SCAN_AGE for i in range(n - n_sel - len(ages))]
    rng.shuffle(ages)
    deal = iter(ages)
    rows = []
    for i, (classes, selected) in enumerate(kinds):
        n_doctors = (N_PSYCHOLOGISTS if classes is ALCOHOLIC
                     else N_PHYSICIANS)
        rows.append(Row(classes, _name(rng, prefix),
                        SEL_AGE if selected else next(deal),
                        i % n_doctors))
    return rows


class Inputs:
    """Everything one workload run feeds its store, made from
    ``(seed, n)`` alone."""

    def __init__(self, seed: int, n: int, bulk_rows: int) -> None:
        rng = random.Random(seed * 1_000_003 + n)
        self.seed = seed
        self.n = n
        self.base = _patients(rng, n, "p")
        #: The rows of one bulk block (loaded, then removed, per round).
        self.bulk = _patients(rng, bulk_rows, "b")

    # -- closed-form expectations ---------------------------------------

    def expected_sel(self) -> List[Tuple[str]]:
        return [(r.name,) for r in self.base
                if r.classes is HEMORRHAGING and r.age == SEL_AGE]

    def expected_sel_skipped(self) -> int:
        return sum(1 for r in self.base
                   if r.classes is HEMORRHAGING and r.age is None)

    def expected_scan(self) -> List[Tuple[str]]:
        return [(r.name,) for r in self.base
                if r.age is not None and r.age > SCAN_AGE]

    def expected_scan_skipped(self) -> int:
        return sum(1 for r in self.base if r.age is None)

    def expected_counts(self) -> Dict[str, int]:
        n_alc = sum(1 for r in self.base if r.classes is ALCOHOLIC)
        n_hem = sum(1 for r in self.base if r.classes is HEMORRHAGING)
        return {"Person": self.n + N_PHYSICIANS + N_PSYCHOLOGISTS,
                "Physician": N_PHYSICIANS,
                "Psychologist": N_PSYCHOLOGISTS,
                "Patient": self.n, "Alcoholic": n_alc,
                "Hemorrhaging_Patient": n_hem}

    def expected_store_digest(self) -> str:
        """What :func:`store_digest` must return for the base
        population (ages unrecorded come back as ``None``)."""
        return digest([
            [(r.name, r.age) for r in self.base],
            [(r.name,) for r in self.base if r.classes is ALCOHOLIC],
            sorted(self.expected_counts().items())])
