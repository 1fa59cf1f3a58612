"""Tests for the serve event broker and SSE rendering."""

import asyncio
import json

import repro.serve.events as ev
from repro.serve.events import EventBroker, ServeEvent


def test_sse_wire_format():
    event = ServeEvent(event_id=7, kind="heartbeat", data={"b": 2, "a": 1})
    wire = event.to_sse().decode()
    assert wire == 'id: 7\nevent: heartbeat\ndata: {"a": 1, "b": 2}\n\n'


def test_publish_increments_ids_and_counts():
    broker = EventBroker()
    first = broker.publish(ev.HEARTBEAT, {})
    second = broker.publish(ev.FLOOR_BREACH, {})
    assert (first.event_id, second.event_id) == (1, 2)
    assert broker.counts[ev.HEARTBEAT] == 1
    assert broker.counts[ev.FLOOR_BREACH] == 1


def test_subscriber_receives_events():
    async def scenario():
        broker = EventBroker()
        broker.attach_loop(asyncio.get_running_loop())
        queue = broker.subscribe()
        broker.publish(ev.HEARTBEAT, {"cycle": 1})
        # call_soon_threadsafe schedules; yield once to deliver.
        await asyncio.sleep(0)
        event = queue.get_nowait()
        assert event.kind == ev.HEARTBEAT
        assert event.data == {"cycle": 1}
        broker.unsubscribe(queue)
        assert broker.subscriber_count == 0

    asyncio.run(scenario())


def test_publish_from_thread_lands_on_loop():
    async def scenario():
        broker = EventBroker()
        broker.attach_loop(asyncio.get_running_loop())
        queue = broker.subscribe()
        await asyncio.to_thread(broker.publish, ev.INGEST_ERROR, {"f": "x"})
        event = await asyncio.wait_for(queue.get(), timeout=2.0)
        assert event.kind == ev.INGEST_ERROR

    asyncio.run(scenario())


def test_replay_subscription_gets_history_first():
    async def scenario():
        broker = EventBroker()
        broker.attach_loop(asyncio.get_running_loop())
        broker.publish(ev.HEARTBEAT, {"cycle": 1})
        broker.publish(ev.FLOOR_BREACH, {})
        queue = broker.subscribe(replay=True)
        kinds = [queue.get_nowait().kind, queue.get_nowait().kind]
        assert kinds == [ev.HEARTBEAT, ev.FLOOR_BREACH]

    asyncio.run(scenario())


def test_history_ring_is_bounded_and_filterable():
    broker = EventBroker(history=3)
    for cycle in range(5):
        broker.publish(ev.HEARTBEAT, {"cycle": cycle})
    broker.publish(ev.INGEST_ERROR, {})
    assert len(broker.history()) == 3
    beats = broker.history(ev.HEARTBEAT)
    assert [event.data["cycle"] for event in beats] == [3, 4]


def test_publish_without_loop_still_records():
    broker = EventBroker()
    queue = broker.subscribe()
    broker.publish(ev.SHUTDOWN, {"rows": 1})
    event = queue.get_nowait()
    assert json.loads(event.to_sse().decode().split("data: ")[1]) == {
        "rows": 1
    }
