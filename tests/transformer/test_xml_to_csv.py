"""Tests for bottom-up schema inference and CSV artifacts."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SchemaInferenceError
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.xml_to_csv import (
    TypeLattice,
    XmlToCsvConverter,
    _coerce,
    infer_sql_type,
)
from repro.transformer.xmlmodel import LogRecord, XmlDocument
from repro.warehouse.db import MScopeDB


def make_doc(records):
    doc = XmlDocument("m", "src")
    for fields in records:
        doc.append(LogRecord(fields))
    return doc


# ----------------------------------------------------------------------
# type inference (the best-match principle)


def test_all_ints_narrowest_integer():
    assert infer_sql_type(["1", "-5", "+42"]) == "INTEGER"


def test_mixed_int_float_widens_to_real():
    assert infer_sql_type(["1", "2.5"]) == "REAL"


def test_any_text_widens_to_text():
    assert infer_sql_type(["1", "2.5", "sda"]) == "TEXT"


def test_empty_values_default_text():
    assert infer_sql_type([]) == "TEXT"
    assert infer_sql_type(["", ""]) == "TEXT"


def test_scientific_notation_is_real():
    assert infer_sql_type(["1e3"]) == "REAL"


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=30))
def test_integers_always_integer(values):
    assert infer_sql_type([str(v) for v in values]) == "INTEGER"


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=30,
    )
)
def test_floats_never_text(values):
    assert infer_sql_type([repr(v) for v in values]) in ("INTEGER", "REAL")


# ----------------------------------------------------------------------
# conversion


def test_columns_are_union_in_first_appearance_order():
    doc = make_doc([{"a": "1", "b": "x"}, {"b": "y", "c": "2.5"}])
    table = XmlToCsvConverter().convert(doc, "t")
    assert table.column_names == ["a", "b", "c"]
    assert dict(table.columns) == {"a": "INTEGER", "b": "TEXT", "c": "REAL"}


def test_missing_fields_become_none():
    doc = make_doc([{"a": "1"}, {"b": "2"}])
    table = XmlToCsvConverter().convert(doc, "t")
    assert table.rows == [(1, None), (None, 2)]


def test_values_coerced_to_inferred_types():
    doc = make_doc([{"n": "42", "x": "3.5", "s": "abc"}])
    table = XmlToCsvConverter().convert(doc, "t")
    row = table.rows[0]
    assert row == (42, 3.5, "abc")
    assert isinstance(row[0], int)
    assert isinstance(row[1], float)


def test_extra_columns_appended_as_text():
    doc = make_doc([{"a": "1"}])
    table = XmlToCsvConverter().convert(doc, "t", extra_columns={"hostname": "web1"})
    assert table.column_names == ["a", "hostname"]
    assert table.rows == [(1, "web1")]


def test_extra_column_does_not_override_parsed_field():
    doc = make_doc([{"hostname": "fromlog"}])
    table = XmlToCsvConverter().convert(
        doc, "t", extra_columns={"hostname": "fromdir"}
    )
    assert table.rows == [("fromlog",)]


def test_unicode_digit_loads_as_text():
    # "²" is a digit int() rejects: the column is TEXT, not a crash.
    doc = make_doc([{"a": "²"}, {"a": "1.5"}])
    table = XmlToCsvConverter().convert(doc, "t")
    assert table.columns == [("a", "TEXT")]
    assert table.rows == [("²",), ("1.5",)]
    with MScopeDB() as db:
        MScopeDataImporter(db).import_table(table, "web1", "p")
        assert db.query("SELECT a, typeof(a) FROM t ORDER BY rowid") == [
            ("²", "text"),
            ("1.5", "text"),
        ]


def test_unicode_decimal_loads_as_integer():
    table = XmlToCsvConverter().convert(make_doc([{"a": "١٢"}]), "t")
    assert table.columns == [("a", "INTEGER")]
    assert table.rows == [(12,)]


def test_empty_document_rejected():
    doc = make_doc([])
    with pytest.raises(SchemaInferenceError):
        XmlToCsvConverter().convert(doc, "t")


# ----------------------------------------------------------------------
# CSV artifacts


def test_csv_write_read_round_trip(tmp_path):
    converter = XmlToCsvConverter()
    doc = make_doc([{"a": "1", "b": "2.5"}, {"a": "3", "b": "x"}])
    table = converter.convert(doc, "t")
    path = converter.write_csv(table, tmp_path / "t.csv")
    assert path.with_suffix(".schema").exists()
    loaded = converter.read_csv(path, monitor="m")
    assert loaded.columns == table.columns
    assert loaded.rows == table.rows


def test_csv_round_trip_preserves_nulls(tmp_path):
    converter = XmlToCsvConverter()
    doc = make_doc([{"a": "1"}, {"b": "2"}])
    table = converter.convert(doc, "t")
    path = converter.write_csv(table, tmp_path / "t.csv")
    loaded = converter.read_csv(path)
    assert loaded.rows == [(1, None), (None, 2)]


def test_read_csv_missing_schema_raises(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("a\n1\n")
    with pytest.raises(SchemaInferenceError):
        XmlToCsvConverter().read_csv(path)


def test_read_csv_header_mismatch_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    path.with_suffix(".schema").write_text("b INTEGER\n")
    with pytest.raises(SchemaInferenceError):
        XmlToCsvConverter().read_csv(path)


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(
                st.integers(-1000, 1000).map(str),
                st.floats(0, 100, allow_nan=False).map(lambda f: f"{f:.3f}"),
                st.sampled_from(["alpha", "beta"]),
            ),
            min_size=1,
        ),
        min_size=1,
        max_size=20,
    )
)
def test_schema_always_narrowest(record_dicts):
    """Property: no column is wider than its values require."""
    doc = make_doc(record_dicts)
    table = XmlToCsvConverter().convert(doc, "t")
    for (column, sql_type) in table.columns:
        index = table.column_names.index(column)
        values = [r[index] for r in table.rows if r[index] is not None]
        raw = [str(v) for v in values]
        assert sql_type == infer_sql_type(raw)


def per_cell_convert(doc, extra_columns):
    """The cell-at-a-time conversion, as the oracle: one lattice per
    tag fed in record order, then :func:`_coerce` on every cell."""
    lattices: dict[str, TypeLattice] = {}
    for record in doc:
        for tag, value in record.items():
            lattices.setdefault(tag, TypeLattice()).observe(value)
    types = {tag: lattice.result() for tag, lattice in lattices.items()}
    columns = list(types.items())
    constants = [(c, v) for c, v in extra_columns.items() if c not in types]
    columns += [(c, "TEXT") for c, _ in constants]
    rows = [
        tuple(_coerce(record.get(tag), types[tag]) for tag in types)
        + tuple(v for _, v in constants)
        for record in doc
    ]
    return columns, rows


_CELL_VALUES = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["nan", "-inf", "Infinity", "1_0", " 5", "5 ", "+", "-", "", "+7",
         "1.", ".5", "1e3", "²", "١٢", "٣.٥", "0x10", "sda", "ViewStory"]
    ),
    st.text(alphabet="05.+-eE_ \n²١٣nafix", max_size=4),
    st.text(alphabet="05.", max_size=4),
)


@given(
    st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), _CELL_VALUES),
        max_size=25,
    )
)
def test_column_wise_convert_equals_per_cell(record_dicts):
    """Property: column-at-a-time typing and coercion give exactly the
    columns and rows of the per-cell lattice + coerce."""
    doc = make_doc(record_dicts)
    extra = {"hostname": "web1", "c": "dir"}
    table = XmlToCsvConverter().convert(doc, "t", extra_columns=extra)
    columns, rows = per_cell_convert(doc, extra)
    assert table.columns == columns
    # repr tells 1 from 1.0 and matches nan with nan.
    assert repr(table.rows) == repr(rows)
