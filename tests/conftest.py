"""Shared fixtures: the paper's schemas and populated stores."""

from __future__ import annotations

import pytest

from repro.objects import ObjectStore
from repro.scenarios import (
    build_bird_schema,
    build_employee_schema,
    build_hospital_schema,
    build_quaker_schema,
    populate_hospital,
)
from repro.storage.recovery import install_image, store_image


@pytest.fixture(scope="session")
def hospital_schema():
    return build_hospital_schema()


@pytest.fixture(scope="session")
def quaker_schema():
    return build_quaker_schema()


@pytest.fixture(scope="session")
def bird_schema():
    return build_bird_schema()


@pytest.fixture(scope="session")
def employee_schema():
    return build_employee_schema()


@pytest.fixture()
def hospital_store(hospital_schema):
    return ObjectStore(hospital_schema)


@pytest.fixture(scope="module")
def hospital_population():
    """A small, seeded population shared within a test module."""
    return populate_hospital(n_patients=60, seed=2024)


@pytest.fixture(scope="session")
def cold_start(tmp_path_factory):
    """``cold_start(store)``: write ``store``'s image into a fresh
    durable directory, checkpoint it, and reopen that directory -- the
    store a restart recovers."""
    def run(store):
        directory = str(tmp_path_factory.mktemp("cold"))
        durable = ObjectStore.open(directory, store.schema,
                                   durability="none")
        install_image(durable, *store_image(store))
        durable.checkpoint()
        durable.close()
        return ObjectStore.open(directory)
    return run
