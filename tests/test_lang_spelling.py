"""CDL and queries share one lexer: whatever a schema names, a query can
name, and whatever the builder accepts, ``print_schema`` writes as CDL
that reads back."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CDLSyntaxError, SchemaError
from repro.lang import load_schema, parse, print_schema, tokenize
from repro.lang.parser import spells
from repro.objects import ObjectStore
from repro.query import parse_query
from repro.scenarios import (
    build_bird_schema,
    build_employee_schema,
    build_hospital_schema,
    build_quaker_schema,
)
from repro.scenarios.university import build_university_schema
from repro.schema import AttributeDef, ClassDef, SchemaBuilder
from repro.sharding import ShardedStore
from repro.typesys import EnumSymbol
from repro.typesys.core import STRING

_THERMO_CDL = "class Thermo with\n  temp: -40..60;\nend\n"


# --------------------------------------------------------------------------
# A CDL integer is signed
# --------------------------------------------------------------------------

class TestNegativeRanges:
    @pytest.mark.parametrize("lo, hi", [(-40, 60), (-40, -10)])
    def test_print_load_round_trip(self, lo, hi):
        builder = SchemaBuilder()
        builder.cls("Thermo").attr("temp", (lo, hi))
        text = print_schema(builder.build())
        assert f"temp: {lo}..{hi};" in text
        temp = load_schema(text).get("Thermo").attribute("temp").range
        assert (temp.lo, temp.hi) == (lo, hi)

    def test_a_durable_store_reopens(self, tmp_path):
        store = ObjectStore.open(str(tmp_path), load_schema(_THERMO_CDL),
                                 durability="wal")
        sid = store.create("Thermo", temp=-30).surrogate
        store.close()
        reopened = ObjectStore.open(str(tmp_path))
        assert reopened.get(sid).get_value("temp") == -30
        reopened.close()

    def test_a_sharded_store_starts(self):
        store = ShardedStore(load_schema(_THERMO_CDL), n_shards=2,
                             processes=False)
        try:
            store.create("Thermo", temp=-30)
            assert store.count("Thermo") == 1
        finally:
            store.close()


# --------------------------------------------------------------------------
# A query names whatever CDL accepts
# --------------------------------------------------------------------------

class TestQueriesNameWhatCDLNames:
    @pytest.fixture()
    def store(self):
        store = ObjectStore(load_schema(
            "class Pátient with\n  name: String;\n  c: {'1st, 'B};\nend\n"))
        store.create("Pátient", name="first", c=EnumSymbol("1st"))
        store.create("Pátient", name="second", c=EnumSymbol("B"))
        return store

    def test_a_unicode_class_name(self, store):
        rows, _ = store.run_query("for p in Pátient select p.name")
        assert sorted(rows) == [("first",), ("second",)]

    def test_a_digit_led_symbol(self, store):
        rows, _ = store.run_query(
            "for e in Pátient where e.c = '1st select e.name")
        assert rows == [("first",)]

    def test_query_keywords_as_names(self):
        store = ObjectStore(load_schema(
            "class where with\n  select: String;\n  in: Integer;\nend\n"))
        store.create("where", select="a", **{"in": 2})
        text = ("for p in where where (p.in > 1 and p in where) "
                "select p.select")
        assert str(parse_query(text)) == text
        rows, _ = store.run_query(text)
        assert rows == [("a",)]

    @pytest.mark.parametrize("name", ["Pátient", "room#", "Hospital$1",
                                      "_x", "Жк2"])
    def test_names_lex_alike(self, name):
        assert spells("ident", name)
        assert parse_query(f"for p in {name} select p.{name}").source_class \
            == name


# --------------------------------------------------------------------------
# The builder refuses what CDL cannot spell
# --------------------------------------------------------------------------

class TestBuilderRefusesUnspellableNames:
    @pytest.mark.parametrize("name", ["a b", "x-y", "", "class", "is_a",
                                      "1st"])
    def test_class_name(self, name):
        builder = SchemaBuilder()
        builder.cls(name).attr("x", STRING)
        with pytest.raises(SchemaError, match=f"class {name!r}"):
            builder.build()

    @pytest.mark.parametrize("name", ["a b", "x-y", "", "None"])
    def test_attribute_name(self, name):
        builder = SchemaBuilder()
        builder.cls("C").attr(name, STRING)
        with pytest.raises(SchemaError, match=f"attribute {name!r} of 'C'"):
            builder.build()

    def test_record_field_name(self):
        builder = SchemaBuilder()
        builder.cls("C").attr("r", {"a b": STRING})
        with pytest.raises(SchemaError, match="attribute 'a b' of 'C.r'"):
            builder.build()

    @pytest.mark.parametrize("symbol", ["New York", "x-y", ""])
    def test_enumeration_symbol(self, symbol):
        builder = SchemaBuilder()
        builder.cls("C").attr("city", {symbol, "Boston"})
        with pytest.raises(SchemaError,
                           match=f"symbol {symbol!r} of C.city"):
            builder.build(validate=False)

    def test_an_alter_refuses_them_too(self, tmp_path):
        store = ObjectStore.open(str(tmp_path), load_schema(_THERMO_CDL),
                                 durability="wal")
        with pytest.raises(SchemaError, match="class 'B c'"):
            store.alter_class(ClassDef("B c", (), (
                AttributeDef("y", STRING),)))
        with pytest.raises(SchemaError,
                           match="symbol 'New York' of Thermo.city"):
            store.add_excuse("Thermo", "city", {"New York"}, [])
        assert store.position() == 0
        assert store.schema.class_names() == ("Thermo",)
        store.checkpoint()
        store.close()
        ObjectStore.open(str(tmp_path)).close()

    def test_spellable_names_are_accepted(self):
        builder = SchemaBuilder()
        builder.cls("Pátient").attr("c", {"1st", "B"}).attr("is", STRING)
        schema = builder.build()
        assert load_schema(print_schema(schema)).has_class("Pátient")


# --------------------------------------------------------------------------
# Blanks, newlines and comments between the tokens of a printed schema
# change nothing but the positions a syntax error reports.
# --------------------------------------------------------------------------

_ident = st.from_regex(r"[A-Za-záßЖ_][A-Za-z0-9áЖ_#$]{0,4}",
                       fullmatch=True).filter(lambda s: spells("ident", s))
_symbol = st.from_regex(r"[A-Za-z0-9áЖ_#$]{1,4}", fullmatch=True)


def _range(classes):
    return st.one_of(
        st.sampled_from(("String", "Integer", "Real", "Boolean")),
        st.sampled_from(classes),
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)).map(
            lambda pair: tuple(sorted(pair))),
        st.frozensets(_symbol, min_size=1, max_size=3),
        st.dictionaries(_ident, st.sampled_from(("String", "Integer")),
                        min_size=1, max_size=2),
    )


@st.composite
def _built_schemas(draw):
    names = draw(st.lists(_ident, min_size=1, max_size=4, unique=True))
    builder = SchemaBuilder()
    for i, name in enumerate(names):
        parents = draw(st.lists(st.sampled_from(names[:i]), max_size=2,
                                unique=True)) if i else []
        cls = builder.cls(name, isa=parents or None)
        for attr in draw(st.lists(_ident, max_size=3, unique=True)):
            excuses = draw(st.lists(st.sampled_from(names), max_size=1))
            cls.attr(attr, draw(_range(names[:i + 1])), excuses=excuses)
    return builder.build(validate=False)


_schemas = st.one_of(
    _built_schemas(),
    st.sampled_from((build_hospital_schema, build_quaker_schema,
                     build_bird_schema, build_employee_schema,
                     build_university_schema)).map(lambda build: build()),
)

#: What may stand between two tokens; a comment runs to its newline.
_filler = st.lists(st.one_of(
    st.sampled_from((" ", "  ", "\t", "\n", "\n\n", "\r\n")),
    st.text(alphabet="ab -'@é:;.", max_size=6).map(
        lambda body: f"--{body}\n"),
), max_size=3).map("".join)


def _pieces(text: str):
    """``text`` as (piece, is_token) pairs that concatenate to it."""
    pieces, end = [], 0
    for _kind, token, offset in tokenize(text)[:-1]:
        assert text[end:offset].strip() == "", text
        pieces += [(text[end:offset], False), (token, True)]
        end = offset + len(token)
    pieces.append((text[end:], False))
    return pieces


def _position(text: str, offset: int):
    """The (line, column) of ``offset``, both counted from 1."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def check_blanks_and_a_stray_character(schema, data):
    printed = print_schema(schema)
    spread, clear = [], set()
    # Offsets where a stray `@` ends lexing there: between tokens but
    # not inside a comment, or inside a name.
    for piece, is_token in _pieces(printed):
        at = sum(map(len, spread))
        clear.add(at)
        if not is_token:
            piece += data.draw(_filler)
            inside = [m.span() for m in re.finditer(r"--[^\n]*", piece)]
            clear.update(at + i for i in range(len(piece) + 1)
                         if not any(a < i <= b for a, b in inside))
        elif re.fullmatch(r"[^\W\d][\w#$]*", piece):
            clear.update(range(at, at + len(piece)))
        spread.append(piece)
    text = "".join(spread)
    assert parse(text) == parse(printed), text
    offset = data.draw(st.sampled_from(sorted(clear)))
    stray = text[:offset] + "@" + text[offset:]
    with pytest.raises(CDLSyntaxError) as info:
        parse(stray)
    assert "unexpected character '@'" in str(info.value), repr(stray)
    assert (info.value.line, info.value.column) == _position(
        stray, offset), repr(stray)


@settings(max_examples=60, deadline=None)
@given(_schemas, st.data())
def test_blanks_and_comments_between_tokens(schema, data):
    check_blanks_and_a_stray_character(schema, data)


@pytest.mark.slow
@settings(max_examples=2_000, deadline=None)
@given(_schemas, st.data())
def test_blanks_and_comments_between_tokens_at_length(schema, data):
    check_blanks_and_a_stray_character(schema, data)
