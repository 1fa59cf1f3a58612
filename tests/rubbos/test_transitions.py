"""Tests for the RUBBoS Markov session model."""

import random
from collections import Counter

import pytest

from repro.common.errors import ConfigError
from repro.rubbos.transitions import (
    START_STATE,
    TransitionModel,
    default_transition_table,
)


def test_default_table_valid():
    TransitionModel()  # no exception


def test_probabilities_must_sum_to_one():
    table = default_transition_table()
    table["Home"] = [("StoriesOfTheDay", 0.5), ("Search", 0.3)]
    with pytest.raises(ConfigError):
        TransitionModel(table)


def test_unknown_state_rejected():
    table = default_transition_table()
    table["BuyItemNow"] = [("Home", 1.0)]
    with pytest.raises(ConfigError):
        TransitionModel(table)


def test_unknown_successor_rejected():
    table = default_transition_table()
    table["Home"] = [("NotAPage", 1.0)]
    with pytest.raises(ConfigError):
        TransitionModel(table)


def test_missing_start_rejected():
    table = default_transition_table()
    del table[START_STATE]
    with pytest.raises(ConfigError):
        TransitionModel(table)


def test_session_starts_at_hub():
    model = TransitionModel()
    rng = random.Random(1)
    firsts = Counter(
        model.advance(model.new_session(), rng).name for _ in range(200)
    )
    assert set(firsts) == {"Home", "StoriesOfTheDay"}


def test_writes_follow_their_setup_pages():
    """StoreComment can only ever follow SubmitComment."""
    model = TransitionModel()
    rng = random.Random(2)
    session = model.new_session()
    previous = None
    for _ in range(5_000):
        interaction = model.advance(session, rng)
        if interaction.name == "StoreComment":
            assert previous == "SubmitComment"
        if interaction.name == "StoreStory":
            assert previous == "SubmitStory"
        previous = interaction.name


def test_all_interactions_reachable():
    model = TransitionModel()
    reachable = model.reachable_states()
    from repro.rubbos.interactions import default_interactions

    names = {p.name for p in default_interactions()}
    # Register/RegisterUser hang off an entry page we do not route to
    # from the hubs; everything else must be reachable.
    assert names - reachable <= {"Register", "RegisterUser"}


def test_stationary_mix_is_read_heavy():
    model = TransitionModel()
    share = model.stationary_write_share(random.Random(3), steps=20_000)
    assert 0.01 < share < 0.15


def test_walk_deterministic_per_seed():
    model = TransitionModel()
    a = [
        model.advance(s, random.Random(9)).name
        for s in [model.new_session()]
        for _ in range(20)
    ]
    b = [
        model.advance(s, random.Random(9)).name
        for s in [model.new_session()]
        for _ in range(20)
    ]
    assert a == b


def test_client_emulator_markov_mode():
    from repro.common.timebase import ms, seconds
    from repro.ntier.system import NTierSystem, SystemConfig
    from repro.rubbos.workload import WorkloadSpec

    config = SystemConfig(
        workload=WorkloadSpec(
            users=40,
            think_time_us=ms(200),
            ramp_up_us=ms(100),
            session_model="markov",
        ),
        seed=6,
    )
    result = NTierSystem(config).run(seconds(2))
    names = Counter(t.interaction for t in result.traces)
    assert len(result.traces) > 50
    # Hub pages dominate a Markov walk.
    assert names["Home"] > 0
    assert names["ViewStory"] > 0


def test_invalid_session_model_rejected():
    from repro.rubbos.workload import WorkloadSpec

    with pytest.raises(ConfigError):
        WorkloadSpec(users=1, session_model="quantum").validate()
