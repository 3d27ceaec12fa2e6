"""The experiment registry stays in sync with the benches and docs."""

import importlib
import os


from repro.evaluation.experiments import (
    EXPERIMENTS,
    experiment,
    render_index,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


def test_ids_unique():
    ids = [e.id for e in EXPERIMENTS]
    assert len(ids) == len(set(ids))


def test_covers_e1_through_e10_plus_ablations():
    ids = {e.id for e in EXPERIMENTS}
    # The substrate experiments (A2-A12) are retired: what they measured
    # is an e2e benchmark metric or a tier-1 test (EXPERIMENTS.md).
    assert ids == {f"E{i}" for i in range(1, 11)} | {"A1"}


def test_every_bench_module_exists():
    for e in EXPERIMENTS:
        path = os.path.join(BENCH_DIR, e.bench_module)
        assert os.path.exists(path), e.id


def test_every_bench_script_is_registered():
    # A script outside the registry is a floor nothing asserts, and a
    # root BENCH_*.json a number nothing regenerates.
    scripts = {name for name in os.listdir(BENCH_DIR)
               if name.startswith("bench_") and name.endswith(".py")}
    assert scripts == {e.bench_module for e in EXPERIMENTS}
    assert not [name for name in os.listdir(REPO_ROOT)
                if name.startswith("BENCH_") and name.endswith(".json")]


def test_every_code_module_imports():
    for e in EXPERIMENTS:
        for module in e.modules:
            importlib.import_module(module)


def test_experiments_md_mentions_every_id():
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as f:
        text = f.read()
    for e in EXPERIMENTS:
        assert f"## {e.id} " in text or f"{e.id} " in text, e.id


def test_design_md_maps_every_numbered_experiment():
    with open(os.path.join(REPO_ROOT, "DESIGN.md")) as f:
        text = f.read()
    for e in EXPERIMENTS:
        if e.id.startswith("E"):
            assert e.bench_module in text, e.id


def test_lookup_and_render():
    assert experiment("E3").title.startswith("Run-time check")
    assert experiment("E99") is None
    index = render_index()
    assert "bench_e9_semantics.py" in index
    assert "A1" in index
