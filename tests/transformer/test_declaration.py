"""Tests for parsing declarations and bindings."""

import pytest

from repro.common.errors import DeclarationError
from repro.transformer.declaration import (
    ParserBinding,
    ParserRule,
    ParsingDeclaration,
    RULE_REGEX_TOKEN,
    default_declaration,
)


def test_rule_kind_validated():
    with pytest.raises(DeclarationError):
        ParserRule("magic")


def test_rule_regex_validated():
    with pytest.raises(DeclarationError):
        ParserRule(RULE_REGEX_TOKEN, {"pattern": "(unclosed"})
    ParserRule(RULE_REGEX_TOKEN, {"pattern": r"ID=(\w+)", "tag": "request_id"})


def test_binding_matches_by_name():
    binding = ParserBinding("access_log.log", "apache", "apache_events")
    assert binding.matches("/var/log/web1/access_log.log")
    assert not binding.matches("/var/log/web1/error_log.log")


def test_binding_glob_patterns():
    binding = ParserBinding("sar*.log", "sar_text", "sar")
    assert binding.matches("sar.log")
    assert binding.matches("sar_xml.log")


def test_first_match_wins():
    declaration = ParsingDeclaration()
    declaration.register(ParserBinding("sar_xml.log", "sar_xml", "sar_xml"))
    declaration.register(ParserBinding("sar*.log", "sar_text", "sar"))
    assert declaration.resolve("sar_xml.log").parser_name == "sar_xml"
    assert declaration.resolve("sar.log").parser_name == "sar_text"


def test_resolve_unknown_raises():
    declaration = ParsingDeclaration()
    with pytest.raises(DeclarationError):
        declaration.resolve("mystery.log")
    assert declaration.try_resolve("mystery.log") is None


def test_default_declaration_covers_all_streams():
    declaration = default_declaration()
    streams = {
        "access_log.log": "apache",
        "catalina_log.log": "tomcat",
        "controller_log.log": "cjdbc",
        "mysql_log.log": "mysql",
        "sar.log": "sar_text",
        "sar_xml.log": "sar_xml",
        "iostat.log": "iostat",
        "collectl_csv.log": "collectl_csv",
        "collectl.log": "collectl_text",
    }
    for filename, parser in streams.items():
        assert declaration.resolve(filename).parser_name == parser


def test_default_declaration_id_rules_match_generated_ids():
    import re

    from repro.common.ids import RequestIdGenerator

    declaration = default_declaration()
    apache = declaration.resolve("access_log.log")
    pattern = apache.rules[0].params["pattern"]
    request_id = RequestIdGenerator("0A").next_id()
    assert re.search(pattern, f"GET /x?ID={request_id} HTTP")
    mysql = declaration.resolve("mysql_log.log")
    pattern = mysql.rules[0].params["pattern"]
    assert re.search(pattern, f"SELECT 1 /*ID={request_id}*/")
