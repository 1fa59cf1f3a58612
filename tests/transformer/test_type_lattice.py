"""Unit tests for the single-pass type lattice behind schema inference.

The lattice must agree exactly with the best-match principle the
three-pass inference implemented: the narrowest of
INTEGER ⊂ REAL ⊂ TEXT that stores every non-empty value.
"""

import pytest

from repro.transformer.xml_to_csv import TypeLattice, infer_sql_type


def reference_infer(values):
    """The original three-full-pass implementation, as the oracle."""

    def is_int(v):
        body = v[1:] if v and v[0] in "+-" else v
        return bool(v) and body.isdecimal()

    def is_real(v):
        try:
            float(v)
        except ValueError:
            return False
        return True

    non_null = [v for v in values if v != ""]
    if not non_null:
        return "TEXT"
    if all(is_int(v) for v in non_null):
        return "INTEGER"
    if all(is_real(v) for v in non_null):
        return "REAL"
    return "TEXT"


CASES = [
    ["1", "-5", "+42"],
    ["1", "2.5"],
    ["1", "2.5", "sda"],
    [],
    ["", ""],
    ["1e3"],
    ["1E-3", "2"],
    ["+", "-"],
    ["+"],
    ["-", "3"],
    ["nan"],
    ["inf", "-inf"],
    ["NaN", "Infinity"],
    ["nan", "1"],
    ["0", "00", "007"],
    ["1", "", "2"],
    ["", "x", ""],
    ["1.", ".5"],
    ["--1"],
    ["++1"],
    ["1_000"],
    ["0x10"],
    [" 1"],
    ["9" * 40],
    ["-0"],
    ["1", "2", "3", "banana", "4.0"],
    ["²"],
    ["²", "1.5"],
    ["١٢"],
]


@pytest.mark.parametrize("values", CASES, ids=repr)
def test_matches_reference_implementation(values):
    assert infer_sql_type(values) == reference_infer(values)


def test_sign_prefixed_integers():
    assert infer_sql_type(["+1", "-2", "3"]) == "INTEGER"


def test_sign_only_tokens_are_text():
    # "+" and "-" have no digits: not INTEGER, and float() rejects
    # them, so the lattice must fall all the way to TEXT.
    assert infer_sql_type(["+"]) == "TEXT"
    assert infer_sql_type(["-"]) == "TEXT"
    assert infer_sql_type(["1", "-"]) == "TEXT"


def test_nan_and_inf_are_real():
    # float() accepts them, int parsing does not.
    assert infer_sql_type(["nan"]) == "REAL"
    assert infer_sql_type(["inf", "-inf"]) == "REAL"
    assert infer_sql_type(["1", "nan"]) == "REAL"


def test_exponent_notation_is_real():
    assert infer_sql_type(["1e3", "2E-5"]) == "REAL"


def test_empty_and_all_empty_are_text():
    assert infer_sql_type([]) == "TEXT"
    assert infer_sql_type(["", "", ""]) == "TEXT"


def test_empty_values_are_skipped_not_observed():
    assert infer_sql_type(["", "7", ""]) == "INTEGER"


def test_lattice_only_widens():
    lattice = TypeLattice()
    lattice.observe("1")
    assert lattice.result() == "INTEGER"
    lattice.observe("2.5")
    assert lattice.result() == "REAL"
    lattice.observe("3")  # an integer cannot re-narrow the state
    assert lattice.result() == "REAL"
    lattice.observe("sda")
    assert lattice.result() == "TEXT"
    lattice.observe("4")
    assert lattice.result() == "TEXT"


def test_lattice_no_values_is_text():
    assert TypeLattice().result() == "TEXT"


def test_lattice_none_is_ignored():
    lattice = TypeLattice()
    lattice.observe(None)
    assert lattice.result() == "TEXT"
    lattice.observe("5")
    assert lattice.result() == "INTEGER"
