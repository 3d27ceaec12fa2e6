"""Shared fixtures and reporting helpers for the experiment benchmarks.

Every experiment prints its result table through :func:`report`, which
writes both to stdout (visible with ``pytest -s``) and to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can be checked
against regenerated numbers; ``tests/test_results_freshness.py``
recomputes the deterministic ones.

All benchmark items carry the ``slow`` marker (added here at collection
time), so the tier-1 run (``pytest -x -q``, with ``-m 'not slow'`` in
the default addopts) never pays for them; run them explicitly with
``pytest benchmarks/ -m slow``.
"""

from __future__ import annotations

import os

import pytest

from repro.scenarios import build_hospital_schema, populate_hospital

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_collection_modifyitems(config, items):
    for item in items:
        item.add_marker(pytest.mark.slow)


def report(experiment: str, text: str) -> None:
    """Print and persist one experiment's output table."""
    banner = f"\n===== {experiment} =====\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Dump every regenerated experiment table into the run's output so
    ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
    captures them alongside the timing table."""
    if not os.path.isdir(RESULTS_DIR):
        return
    terminalreporter.section("experiment tables (benchmarks/results/)")
    for name in sorted(os.listdir(RESULTS_DIR)):
        path = os.path.join(RESULTS_DIR, name)
        with open(path) as f:
            terminalreporter.write_line("")
            terminalreporter.write_line(f.read().rstrip())


@pytest.fixture(scope="session")
def hospital_schema():
    return build_hospital_schema()


@pytest.fixture(scope="session")
def small_population(hospital_schema):
    return populate_hospital(schema=hospital_schema, n_patients=200,
                             seed=11)


@pytest.fixture(scope="session")
def large_population(hospital_schema):
    return populate_hospital(schema=hospital_schema, n_patients=2000,
                             seed=12, alcoholic_fraction=0.1,
                             tubercular_fraction=0.05,
                             ambulatory_fraction=0.1,
                             cancer_fraction=0.1)
