"""Tests for the exception hierarchy."""

import pytest

import repro.common.errors as errors


def test_all_errors_share_the_base():
    for name in errors.__all__:
        if name == "MilliScopeError":
            continue
        cls = getattr(errors, name)
        assert issubclass(cls, errors.MilliScopeError), name


def test_query_error_is_warehouse_error():
    assert issubclass(errors.QueryError, errors.WarehouseError)


def test_parse_error_location_formatting():
    exc = errors.ParseError("bad line", path="/logs/web1/sar.log", line_number=42)
    assert str(exc) == "bad line [/logs/web1/sar.log:42]"
    assert exc.path == "/logs/web1/sar.log"
    assert exc.line_number == 42


def test_parse_error_path_only():
    exc = errors.ParseError("bad file", path="x.log")
    assert str(exc) == "bad file [x.log]"
    assert exc.line_number is None


def test_parse_error_bare():
    exc = errors.ParseError("oops")
    assert str(exc) == "oops"


def test_catching_the_family():
    with pytest.raises(errors.MilliScopeError):
        raise errors.SchemaInferenceError("nope")
