"""Record formats: a signature's fields and their kinds (Section 5.5)."""

import pytest

from repro.errors import StorageError
from repro.objects.profiles import kind_of_range, record_format
from repro.typesys import (
    ANY_ENTITY,
    BOOLEAN,
    INTEGER,
    NONE,
    REAL,
    STRING,
    ClassType,
    ConditionalType,
    EnumerationType,
    IntRangeType,
    RecordType,
)


class TestKinds:
    @pytest.mark.parametrize("range_type,kind", [
        (INTEGER, "int"),
        (IntRangeType(1, 9), "int"),
        (REAL, "real"),
        (BOOLEAN, "bool"),
        (STRING, "string"),
        (EnumerationType(["A"]), "symbol"),
        (ClassType("Hospital"), "surrogate"),
        (ANY_ENTITY, "surrogate"),
        (RecordType({"x": STRING}), "record"),
    ])
    def test_kind_of_range(self, range_type, kind):
        assert kind_of_range(range_type) == kind

    def test_none_has_no_field(self):
        assert kind_of_range(NONE) is None

    def test_conditional_range_has_no_kind(self):
        with pytest.raises(StorageError):
            kind_of_range(ConditionalType(INTEGER, ((STRING, "X"),)))


class TestFormatDerivation:
    def test_hospital_format(self, hospital_schema):
        assert record_format(hospital_schema, ["Hospital"]) == {
            "accreditation": "symbol", "location": "surrogate"}

    def test_virtual_partition_drops_none_fields(self, hospital_schema):
        fmt = record_format(hospital_schema, ["Hospital", "Hospital$1"])
        assert "accreditation" not in fmt
        assert fmt["location"] == "surrogate"

    def test_most_specific_range_wins(self, hospital_schema):
        assert record_format(hospital_schema, ["Employee"])["age"] == "int"
        fmt = record_format(hospital_schema, ["Ambulatory_Patient"])
        assert "ward" not in fmt  # None range on the subclass

    def test_compatibility(self, hospital_schema):
        plain = record_format(hospital_schema, ["Hospital"])
        swiss = record_format(hospital_schema, ["Hospital", "Hospital$1"])
        # Shared fields agree in kind; partitioning still separates the
        # two because the field *sets* differ.
        assert all(plain[name] == kind for name, kind in swiss.items())
        assert list(plain) != list(swiss)
