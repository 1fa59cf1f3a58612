"""Tests for the serve-state counters."""

import json

from repro.serve.state import ServeState


def test_state_to_dict_is_json_serializable():
    state = ServeState(cycles=3, rows=100)
    document = json.loads(json.dumps(state.to_dict()))
    assert document["cycles"] == 3
    assert document["rows"] == 100
    assert document["draining"] is False
