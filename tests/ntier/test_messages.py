"""Tests for the inter-tier network bus and taps."""

import pytest

from repro.common.errors import SimulationError
from repro.common.records import RequestTrace
from repro.ntier.messages import NetworkBus
from repro.ntier.request import Request
from repro.rubbos.interactions import interaction_by_name
from repro.sim.engine import Engine


def make_request(request_id="R0A000000001"):
    interaction = interaction_by_name("ViewStory")
    trace = RequestTrace(request_id, interaction.name, client_send=0)
    return Request(request_id, interaction, trace, created_at=0)


def test_register_and_duplicate_rejected():
    bus = NetworkBus(Engine())
    bus.register("apache")
    with pytest.raises(SimulationError):
        bus.register("apache")


def test_unknown_tier_rejected():
    bus = NetworkBus(Engine())
    with pytest.raises(SimulationError):
        bus.inbox("nowhere")


def test_send_delivers_after_latency():
    engine = Engine()
    bus = NetworkBus(engine, latency_us=250)
    inbox = bus.register("apache")
    request = make_request()
    received = []

    def listener():
        message = yield inbox.get()
        received.append((engine.now, message))

    engine.process(listener())
    bus.send(request, "client", "apache")
    engine.run()
    assert received[0][0] == 250
    assert received[0][1].delivered_at == 250
    assert received[0][1].sent_at == 0


def test_reply_fires_event_after_latency():
    engine = Engine()
    bus = NetworkBus(engine, latency_us=100)
    inbox = bus.register("apache")
    request = make_request()
    outcome = []

    def listener():
        message = yield inbox.get()
        yield engine.timeout(1_000)
        bus.reply(message, payload="done")

    def caller():
        reply = bus.send(request, "client", "apache")
        value = yield reply
        outcome.append((engine.now, value))

    engine.process(listener())
    engine.process(caller())
    engine.run()
    # 100 out + 1000 service + 100 back.
    assert outcome == [(1_200, "done")]


def test_reply_without_channel_rejected():
    engine = Engine()
    bus = NetworkBus(engine)
    bus.register("apache")
    request = make_request()

    from repro.ntier.messages import Message

    orphan = Message(kind="request", request=request, src="a", dst="b")
    with pytest.raises(SimulationError):
        bus.reply(orphan)


def test_taps_see_both_directions():
    engine = Engine()
    bus = NetworkBus(engine, latency_us=50)
    inbox = bus.register("apache")
    request = make_request()
    seen = []

    class Tap:
        def on_message(self, message):
            seen.append((message.kind, message.src, message.dst))

    bus.add_tap(Tap())

    def listener():
        message = yield inbox.get()
        bus.reply(message)

    engine.process(listener())
    bus.send(request, "client", "apache")
    engine.run()
    assert seen == [
        ("request", "client", "apache"),
        ("reply", "apache", "client"),
    ]


def test_messages_have_increasing_serials():
    engine = Engine()
    bus = NetworkBus(engine)
    inbox = bus.register("apache")
    serials = []

    class Tap:
        def on_message(self, message):
            serials.append(message.serial)

    bus.add_tap(Tap())

    def listener():
        while True:
            message = yield inbox.get()
            bus.reply(message)

    engine.process(listener())
    for i in range(3):
        bus.send(make_request(f"R0A00000000{i}"), "client", "apache")
    engine.run()
    assert serials == sorted(serials)
    assert len(set(serials)) == len(serials)


def test_negative_latency_rejected():
    with pytest.raises(SimulationError):
        NetworkBus(Engine(), latency_us=-1)
