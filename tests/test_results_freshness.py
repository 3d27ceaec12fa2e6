"""Committed experiment tables match what the code computes today.

The benchmark harness persists its tables under ``benchmarks/results/``;
these tests recompute the cheap, deterministic ones and compare, so a
code change that silently shifts an experiment's outcome fails CI even
if the benchmarks were not re-run.  (Timing-bearing tables are checked
for structure only.)
"""

import os

import pytest

from repro.baselines import ALL_MECHANISMS
from repro.evaluation import DESIDERATA, desiderata_matrix, render_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")


def _result(name):
    path = os.path.join(RESULTS_DIR, name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not generated yet (run the benchmarks)")
    with open(path) as f:
        return f.read()


def test_e1_table_matches_recomputation():
    matrix = desiderata_matrix(ALL_MECHANISMS)
    rows = [[name] + [cells[d] for d in DESIDERATA]
            for name, cells in matrix]
    expected = render_table(
        ["mechanism"] + list(DESIDERATA), rows,
        "E1: desiderata of Section 5, probed per mechanism")
    assert _result("E1-desiderata.txt").strip() == expected.strip()


def test_e9_table_shape():
    text = _result("E9-semantics.txt")
    assert "excuse" in text
    # The final column must equal the correct column on every case row.
    for line in text.splitlines()[3:]:
        cells = [c for c in line.split("  ") if c.strip()]
        if len(cells) >= 6:
            assert cells[-1].strip() == cells[1].strip(), line


def test_e6_table_shows_perfect_detection():
    text = _result("E6-error-detection.txt")
    total_row = next(l for l in text.splitlines()
                     if l.startswith("all"))
    cells = [c for c in total_row.split() if c]
    # all <intended> <accidental> <flagged> <correct> <default>
    assert cells[2] == cells[3] == cells[4]
    assert cells[5] == "0"


def test_e5_table_monotone_and_zero_for_excuses():
    text = _result("E5-ambiguity.txt")
    rates = []
    for line in text.splitlines()[3:]:
        cells = line.split()
        if len(cells) == 3:
            rates.append(float(cells[1].rstrip("%")))
            assert cells[2] == "0.0%"
    assert rates[0] == 0.0
    assert rates[-1] > 0.0


def test_e4_table_matches_paper_column():
    text = _result("E4-safety.txt")
    for line in text.splitlines()[3:]:
        cells = [c for c in line.split("  ") if c.strip()]
        if len(cells) == 4:
            assert cells[1].strip() == cells[2].strip(), line
