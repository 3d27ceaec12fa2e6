"""The command-line interface."""

import pytest

from repro.cli import main
from repro.scenarios.hospital import HOSPITAL_CDL

GOOD = """
class Person with
  name: String;
class Physician is-a Person with end
class Psychologist is-a Person with end
class Patient is-a Person with
  treatedBy: Physician;
class Alcoholic is-a Patient with
  treatedBy: Psychologist excuses treatedBy on Patient;
"""

BAD = GOOD.replace(" excuses treatedBy on Patient", "")


@pytest.fixture()
def good_schema(tmp_path):
    path = tmp_path / "good.cdl"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture()
def bad_schema(tmp_path):
    path = tmp_path / "bad.cdl"
    path.write_text(BAD)
    return str(path)


class TestValidate:
    def test_clean_schema_exits_zero(self, good_schema, capsys):
        assert main(["validate", good_schema]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_bad_schema_exits_one(self, bad_schema, capsys):
        assert main(["validate", bad_schema]) == 1
        out = capsys.readouterr().out
        assert "unexcused-contradiction" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent.cdl"]) == 2

    def test_hospital_schema_validates(self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        assert main(["validate", str(path)]) == 0


class TestPrint:
    def test_round_trips(self, good_schema, capsys, tmp_path):
        assert main(["print", good_schema]) == 0
        printed = capsys.readouterr().out
        again = tmp_path / "again.cdl"
        again.write_text(printed)
        assert main(["validate", str(again)]) == 0


class TestType:
    def test_relaxed_type_shown(self, good_schema, capsys):
        assert main(["type", good_schema, "Patient", "treatedBy"]) == 0
        out = capsys.readouterr().out
        assert "Physician + Psychologist/Alcoholic" in out

    def test_unknown_attribute_is_error(self, good_schema, capsys):
        assert main(["type", good_schema, "Patient", "bogus"]) == 2


class TestCheck:
    def test_safe_query(self, good_schema, capsys):
        code = main(["check", good_schema,
                     "for p in Patient select p.name"])
        assert code == 0
        assert "safe" in capsys.readouterr().out

    def test_unsafe_query(self, good_schema, capsys):
        code = main(["check", good_schema,
                     "for p in Alcoholic select p.treatedBy"])
        assert code == 0  # narrow source: Psychologist, safe
        code = main(["check", good_schema,
                     "for p in Patient select p.treatedBy.name, "
                     "p.treatedBy"])
        assert code == 0

    def test_query_with_findings_exits_one(self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        code = main(["check", str(path),
                     "for p in Patient select p.treatedAt.location.state"])
        assert code == 1
        assert "unsafe" in capsys.readouterr().out

    def test_no_unshared_flag(self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        query = ("for p in Patient where p not in Tubercular_Patient "
                 "select p.treatedAt.location.state")
        assert main(["check", str(path), query]) == 0
        assert main(["check", str(path), query, "--no-unshared"]) == 1

    def test_syntax_error_exits_two(self, good_schema):
        assert main(["check", good_schema, "for for for"]) == 2


class TestExplain:
    def test_explain_output(self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        code = main(["explain", str(path),
                     "for p in Patient select p.treatedAt.location.state"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CHECKED" in out and "unchecked" in out

    def test_all_checked_flag(self, good_schema, capsys):
        assert main(["explain", good_schema,
                     "for p in Patient select p.name",
                     "--all-checked"]) == 0
        assert "check elimination disabled" in capsys.readouterr().out


class TestTheory:
    def test_theory_output(self, good_schema, capsys):
        assert main(["theory", good_schema]) == 0
        out = capsys.readouterr().out
        assert "Patient < Person" in out
        assert ("Patient < [treatedBy: Physician + Psychologist/Alcoholic]"
                in out)


class TestDiff:
    def test_identical_exits_zero(self, good_schema, capsys):
        assert main(["diff", good_schema, good_schema]) == 0
        assert "identical" in capsys.readouterr().out

    def test_changed_exits_one(self, good_schema, bad_schema, capsys):
        # Schemas load unvalidated for diffing; the only difference is
        # the dropped excuse clause.
        assert main(["diff", good_schema, bad_schema]) == 1
        out = capsys.readouterr().out
        assert "excuses-changed Alcoholic.treatedBy" in out


class TestDeduce:
    def test_paper_deduction(self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        code = main(["deduce", str(path),
                     "y.treatedBy not in Physician",
                     "y not in Alcoholic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "y not in Patient" in out
        assert "because" in out

    def test_single_fact_gets_only_the_subclass_deduction(
            self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        assert main(["deduce", str(path),
                     "y.treatedBy not in Physician"]) == 0
        out = capsys.readouterr().out
        # Cancer patients need oncologists (a Physician subclass), so
        # that exclusion follows -- but Patient itself does not (y might
        # be an Alcoholic).
        assert "y not in Cancer_Patient" in out
        assert "y not in Patient\n" not in out

    def test_nothing_follows(self, tmp_path, capsys):
        path = tmp_path / "hospital.cdl"
        path.write_text(HOSPITAL_CDL)
        assert main(["deduce", str(path),
                     "y not in Person"]) == 0
        assert "nothing new follows" in capsys.readouterr().out

    def test_bad_fact_syntax(self, good_schema, capsys):
        assert main(["deduce", good_schema, "y is weird"]) == 2


class TestExcuses:
    def test_lists_pairs(self, good_schema, capsys):
        assert main(["excuses", good_schema]) == 0
        out = capsys.readouterr().out
        assert "(Patient, treatedBy) excused by Alcoholic" in out

    def test_empty(self, tmp_path, capsys):
        path = tmp_path / "plain.cdl"
        path.write_text("class Person with name: String; end")
        assert main(["excuses", str(path)]) == 0
        assert "no excuses" in capsys.readouterr().out


class TestStats:
    def test_stats_runs_standard_workload(self, capsys):
        assert main(["stats", "--patients", "40", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "engine stats (40 patients" in out
        assert "constraints_skipped" in out
        assert "writes" in out

    def test_stats_timing_rows(self, capsys):
        assert main(["stats", "--patients", "40", "--rounds", "1",
                     "--timing"]) == 0
        out = capsys.readouterr().out
        assert "time.write.eager" in out


class TestDurability:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.objects.store import ObjectStore
        from repro.scenarios.hospital import build_hospital_schema
        directory = str(tmp_path / "store")
        store = ObjectStore.open(directory, build_hospital_schema(),
                                 durability="wal", sync="always")
        ward = store.create("Ward", floor=3, name="West")
        store.create("Person", name="Casey", age=41)
        store.close()
        return directory

    def test_recover_reports_clean_store(self, store_dir, capsys):
        assert main(["recover", store_dir]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "0 violation(s)" in out

    def test_recover_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_checkpoint_rotates_generation(self, store_dir, capsys):
        assert main(["checkpoint", store_dir]) == 0
        out = capsys.readouterr().out
        assert "checkpoint generation 2" in out
        assert "2 object(s)" in out
        # The fold consumed the WAL: nothing left to replay.
        assert main(["recover", store_dir]) == 0
        assert "replayed: 0" in capsys.readouterr().out

    def test_wal_dump_lists_records(self, store_dir, capsys):
        assert main(["wal-dump", store_dir]) == 0
        out = capsys.readouterr().out
        assert "segment wal-1.log" in out
        assert "create" in out

    def test_wal_dump_durability_none(self, tmp_path, capsys):
        from repro.objects.store import ObjectStore
        from repro.scenarios.hospital import build_hospital_schema
        directory = str(tmp_path / "plain")
        ObjectStore.open(directory, build_hospital_schema(),
                         durability="none").close()
        assert main(["wal-dump", directory]) == 0
        assert "no WAL" in capsys.readouterr().out


class TestSharded:
    def test_stats_shards_prints_both_tables(self, capsys):
        assert main(["stats", "--shards", "2", "--patients", "16",
                     "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "per shard" in out
        assert "aggregate" in out
        assert "shard 0" in out and "shard 1" in out
        assert "routed_objects" in out

    def test_load_shards_and_shard_serve(self, tmp_path, capsys):
        import json

        schema_path = tmp_path / "hospital.cdl"
        schema_path.write_text(HOSPITAL_CDL)
        rows = [
            {"id": "doc", "class": "Physician", "name": "Dr. F",
             "age": 50, "specialty": "'General"},
            {"class": "Patient", "name": "a", "age": 30,
             "treatedBy": {"$ref": "doc"}},
            {"class": "Patient", "name": "b", "age": 37,
             "treatedBy": {"$ref": "doc"}},
            {"class": "Patient", "name": "c", "age": 44,
             "treatedBy": {"$ref": "doc"}},
        ]
        rows_path = tmp_path / "rows.json"
        rows_path.write_text(json.dumps(rows))
        directory = str(tmp_path / "sharded")

        assert main(["load", str(schema_path), str(rows_path),
                     "--shards", "2", "--persist", directory,
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "loaded 4 objects across 2 shards" in out
        assert "validated: conformant" in out
        assert "manifest" in out

        assert main(["shard-serve", directory, "--no-processes",
                     "--stats", "--checkpoint", "--query",
                     "for p in Patient where p.age > 35 "
                     "select p.name, p.age"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out and "2 shards, 4 objects" in out
        assert "b, 37" in out and "c, 44" in out
        assert "2 row(s), 0 skipped" in out
        assert "dispatched to 1 of 2 shards" in out
        assert "checkpointed all shards" in out

    @pytest.mark.parametrize("shards", [0, 2])
    def test_load_persist_is_a_durable_directory(self, tmp_path, capsys,
                                                 shards):
        """One ``--persist`` format: what ``load`` wrote, ``recover``
        and ``checkpoint`` open (and ``serve``, through the same
        ``ObjectStore.open`` / ``ShardedStore.open``)."""
        import json

        schema_path = tmp_path / "hospital.cdl"
        schema_path.write_text(HOSPITAL_CDL)
        rows_path = tmp_path / "rows.jsonl"
        rows_path.write_text("\n".join(json.dumps(row) for row in [
            {"id": "doc", "classes": ["Physician"], "name": "Dr. F",
             "age": 50, "specialty": "'General"},
            {"class": "Patient", "name": "a", "age": 30,
             "treatedBy": {"$ref": "doc"}},
            {"class": "Patient", "name": "b", "age": 37,
             "treatedBy": {"$ref": "doc"}},
        ]))
        directory = str(tmp_path / "clinic")
        argv = ["load", str(schema_path), str(rows_path),
                "--persist", directory, "--check", "eager"]
        if shards:
            argv += ["--shards", str(shards)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "loaded 3 objects" in out
        assert "(1 reference entities, 2 bulk rows)" in out
        assert f"persisted 3 objects to {directory}" in out

        assert main(["recover", directory]) == 0
        out = capsys.readouterr().out
        recovered = [int(line.split(":")[1]) for line in out.splitlines()
                     if "checkpoint objects" in line]
        # The physician is replicated to every shard.
        assert len(recovered) == max(shards, 1)
        assert sum(recovered) == 3 + max(shards - 1, 0)
        assert out.count("0 violation(s)") == max(shards, 1)
        assert main(["checkpoint", directory]) == 0
        assert out.count("recovered") == capsys.readouterr().out.count(
            "checkpoint generation")

    def test_load_shards_rejects_bad_batch(self, tmp_path, capsys):
        import json

        schema_path = tmp_path / "hospital.cdl"
        schema_path.write_text(HOSPITAL_CDL)
        rows_path = tmp_path / "rows.json"
        rows_path.write_text(json.dumps(
            [{"class": "Patient", "name": "x", "age": 500}]))
        assert main(["load", str(schema_path), str(rows_path),
                     "--shards", "2", "--check", "eager"]) == 1
        assert "batch rejected" in capsys.readouterr().err
