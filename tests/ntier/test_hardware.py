"""Tests for node hardware models: CPU, disk, page cache, counters."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.ntier.hardware import Cpu, CumulativeCounter, Disk, PageCache
from repro.sim import Engine


# ----------------------------------------------------------------------
# CumulativeCounter


def test_counter_accumulates():
    c = CumulativeCounter()
    c.add(10, 5)
    c.add(20, 7)
    assert c.total == 12
    assert c.total_at(15) == 5
    assert c.between(10, 20) == 7


def test_counter_same_time_merges():
    c = CumulativeCounter()
    c.add(10, 1)
    c.add(10, 2)
    assert c.total_at(10) == 3


def test_counter_rejects_negative_and_backwards():
    c = CumulativeCounter()
    c.add(10, 1)
    with pytest.raises(SimulationError):
        c.add(5, 1)
    with pytest.raises(SimulationError):
        c.add(20, -1)


def test_counter_window_semantics():
    c = CumulativeCounter()
    c.add(100, 10)
    # (start, stop]: amount at exactly `stop` is included, at `start` excluded.
    assert c.between(99, 100) == 10
    assert c.between(100, 200) == 0


@given(st.lists(st.tuples(st.integers(1, 100), st.integers(0, 50)), max_size=40))
def test_counter_total_is_sum(increments):
    c = CumulativeCounter()
    t = 0
    total = 0
    for dt, amount in increments:
        t += dt
        c.add(t, amount)
        total += amount
    assert c.total == total
    assert c.between(0, t + 1) == total


# ----------------------------------------------------------------------
# Cpu


def test_cpu_consume_accounts_and_occupies():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)

    def work():
        yield from cpu.consume(3_500, category="user")

    engine.process(work())
    engine.run()
    assert engine.now == 3_500
    assert cpu.accounting["user"].total == 3_500


def test_cpu_contention_serializes():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    done = []

    def work(name):
        yield from cpu.consume(2_000)
        done.append((name, engine.now))

    engine.process(work("a"))
    engine.process(work("b"))
    engine.run()
    # Two 2 ms jobs on one core, 1 ms quanta: both finish by 4 ms,
    # interleaved, with the total time exactly the sum of demands.
    assert engine.now == 4_000
    assert {n for n, _ in done} == {"a", "b"}


def test_cpu_unknown_category_rejected():
    engine = Engine()
    cpu = Cpu(engine, cores=1)
    with pytest.raises(SimulationError):
        list(cpu.consume(100, category="nonsense"))
    with pytest.raises(SimulationError):
        cpu.charge("nonsense", 100)


def test_cpu_kernel_priority_wins():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    order = []

    def user_work():
        yield engine.timeout(10)
        yield from cpu.consume(1_000, category="user", priority=Cpu.USER_PRIORITY)
        order.append("user")

    def kernel_work():
        yield engine.timeout(20)  # arrives later but jumps the queue
        yield from cpu.consume(1_000, category="system", priority=Cpu.KERNEL_PRIORITY)
        order.append("kernel")

    def hog():
        yield from cpu.consume(1_000, category="user")
        order.append("hog")

    engine.process(hog())
    engine.process(user_work())
    engine.process(kernel_work())
    engine.run()
    assert order == ["hog", "kernel", "user"]


def test_cpu_category_pct():
    engine = Engine()
    cpu = Cpu(engine, cores=2, quantum=1_000)

    def work():
        yield from cpu.consume(1_000_000, category="user")

    engine.process(work())
    engine.run(until=1_000_000)
    # 1 core-second of user work on 2 cores over 1 s -> 50%.
    assert cpu.category_pct("user", 0, 1_000_000) == pytest.approx(50.0)


def test_cpu_iowait_capped_at_idle():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    # Charge absurd iowait (many threads blocked at once) plus real user work.
    def work():
        yield from cpu.consume(600_000, category="user")

    engine.process(work())
    engine.run(until=1_000_000)
    cpu.charge("iowait", 5_000_000)
    # Raw iowait would be 500%; the cap limits it to the idle share (40%).
    assert cpu.category_pct("iowait", 0, 1_000_000) == pytest.approx(40.0)
    assert cpu.aggregate_pct(0, 1_000_000) == pytest.approx(100.0)


def test_cpu_seize_blocks_everyone():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    events = []

    def kernel():
        claim = cpu.seize()
        yield claim
        yield engine.timeout(5_000)
        cpu.release(claim)
        events.append(("kernel_done", engine.now))

    def user():
        yield engine.timeout(10)
        yield from cpu.consume(500, category="user")
        events.append(("user_done", engine.now))

    engine.process(kernel())
    engine.process(user())
    engine.run()
    assert events == [("kernel_done", 5_000), ("user_done", 5_500)]


def test_cpu_zero_duration_consume_is_noop():
    engine = Engine()
    cpu = Cpu(engine, cores=1)

    def work():
        yield from cpu.consume(0)
        return engine.now

    p = engine.process(work())
    engine.run()
    assert p.value == 0


def test_cpu_zero_duration_consume_yields_nothing():
    engine = Engine()
    cpu = Cpu(engine, cores=1)
    assert list(cpu.consume(0)) == []
    assert engine.peek() is None


@pytest.mark.parametrize("quantum", [0, -5])
def test_cpu_consume_rejects_non_positive_quantum(quantum):
    # A zero per-call quantum used to slice the demand into empty
    # pieces forever, at one timestamp.
    cpu = Cpu(Engine(), cores=1)
    with pytest.raises(SimulationError, match="quantum"):
        next(cpu.consume(10, quantum=quantum))


def test_cpu_consume_rejects_negative_wait():
    cpu = Cpu(Engine(), cores=1)
    with pytest.raises(SimulationError, match="wait"):
        next(cpu.consume(10, wait=-1))


def test_cpu_consume_orders_like_agenda_sequence():
    """Same-timestamp ties follow sequence order, and the consumer
    resumes the instant its last quantum is released."""
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    order = []

    def early():
        # Scheduled at t=0, before the consumer's quantum timeout.
        yield engine.timeout(1_000)
        order.append(("early", engine.now))

    def consumer():
        yield from cpu.consume(1_000)
        order.append(("consumer", engine.now))

    def late():
        # Scheduled at t=500, after the quantum timeout: it fires at
        # the same instant but must not overtake the consumer.
        yield engine.timeout(500)
        yield engine.timeout(500)
        order.append(("late", engine.now))

    engine.process(early())
    engine.process(consumer())
    engine.process(late())
    engine.run()
    assert order == [("early", 1_000), ("consumer", 1_000), ("late", 1_000)]


def test_cpu_consume_preempted_between_quanta_by_kernel_seize():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    seen = {}

    def user():
        yield from cpu.consume(3_000, category="user")
        seen["user_done"] = engine.now

    def kernel():
        yield engine.timeout(500)
        claim = cpu.seize()
        yield claim
        seen["kernel_granted"] = engine.now
        yield engine.timeout(2_000)
        cpu.charge("system", 2_000)
        cpu.release(claim)

    engine.process(user())
    engine.process(kernel())
    engine.run()
    # The seize waits out the first quantum only; the user demand's
    # remaining two quanta queue behind the kernel's hold.
    assert seen == {"kernel_granted": 1_000, "user_done": 5_000}
    assert cpu.accounting["user"].total == 3_000
    assert cpu.accounting["user"].total_at(2_999) == 1_000
    assert cpu.accounting["user"].total_at(4_000) == 2_000


def test_cpu_consume_reads_dvfs_speed_at_each_grant():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    done = []

    def user():
        yield from cpu.consume(3_000)
        done.append(engine.now)

    def governor():
        # Mid-quantum: the running quantum keeps its wall time; the
        # next grant (t=2000) sees the lowered clock.
        yield engine.timeout(1_500)
        cpu.speed = 0.5

    engine.process(user())
    engine.process(governor())
    engine.run()
    assert done == [1_000 + 1_000 + 2_000]
    assert cpu.accounting["user"].total == 4_000


def test_cpu_consume_failure_in_chain_fails_the_process():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    caught = []

    def user():
        yield from cpu.consume(2_000)

    def breaker():
        yield engine.timeout(500)
        cpu.speed = -1.0  # the next grant computes a negative wall time

    proc = engine.process(user())

    def watcher():
        try:
            yield proc
        except SimulationError as exc:
            caught.append((engine.now, str(exc)))

    engine.process(breaker())
    engine.process(watcher())
    engine.run()
    assert not proc.ok
    assert isinstance(proc.exception, SimulationError)
    assert caught == [(1_000, "negative timeout delay: -1000")]


def test_cpu_consume_failure_in_chain_is_catchable_at_the_call():
    engine = Engine()
    cpu = Cpu(engine, cores=1, quantum=1_000)
    caught = []

    def user():
        try:
            yield from cpu.consume(2_000)
        except SimulationError:
            caught.append(engine.now)
        return "recovered"

    def breaker():
        yield engine.timeout(500)
        cpu.speed = -1.0

    proc = engine.process(user())
    engine.process(breaker())
    engine.run()
    assert caught == [1_000]
    assert proc.value == "recovered"


# ----------------------------------------------------------------------
# Disk


def test_disk_transfer_duration():
    engine = Engine()
    disk = Disk(engine, bandwidth_bytes_per_sec=1_000_000, seek_us=100)
    # 1 MB at 1 MB/s = 1 s + seek.
    assert disk.transfer_duration(1_000_000) == 1_000_100


def test_disk_read_write_counters():
    engine = Engine()
    disk = Disk(engine)

    def io():
        yield from disk.read(4096)
        yield from disk.write(8192)

    engine.process(io())
    engine.run()
    assert disk.read_bytes.total == 4096
    assert disk.write_bytes.total == 8192
    assert disk.read_ops.total == 1
    assert disk.write_ops.total == 1


def test_disk_serializes_io():
    engine = Engine()
    disk = Disk(engine, bandwidth_bytes_per_sec=1_000_000, seek_us=0)
    done = []

    def io(name):
        yield from disk.write(500_000)  # 0.5 s each
        done.append((name, engine.now))

    engine.process(io("first"))
    engine.process(io("second"))
    engine.run()
    assert done == [("first", 500_000), ("second", 1_000_000)]


def test_disk_utilization():
    engine = Engine()
    disk = Disk(engine, bandwidth_bytes_per_sec=1_000_000, seek_us=0)

    def io():
        yield from disk.write(250_000)

    engine.process(io())
    engine.run(until=1_000_000)
    assert disk.utilization(0, 1_000_000) == pytest.approx(0.25)


def test_disk_negative_io_rejected():
    engine = Engine()
    disk = Disk(engine)
    with pytest.raises(SimulationError):
        disk.transfer_duration(-1)


# ----------------------------------------------------------------------
# PageCache


def test_page_cache_dirty_and_clean():
    engine = Engine()
    cache = PageCache(engine)
    cache.dirty(1000)
    assert cache.dirty_bytes == 1000
    assert cache.clean(400) == 400
    assert cache.dirty_bytes == 600


def test_page_cache_clean_caps_at_level():
    engine = Engine()
    cache = PageCache(engine)
    cache.dirty(100)
    assert cache.clean(1_000) == 100
    assert cache.dirty_bytes == 0


def test_page_cache_rejects_negative():
    engine = Engine()
    cache = PageCache(engine)
    with pytest.raises(SimulationError):
        cache.dirty(-1)
    with pytest.raises(SimulationError):
        cache.clean(-1)


def test_page_cache_series_tracks_history():
    engine = Engine()
    cache = PageCache(engine)

    def evolve():
        cache.dirty(500)
        yield engine.timeout(100)
        cache.clean(200)

    engine.process(evolve())
    engine.run()
    assert cache.dirty_series.value_at(50) == 500
    assert cache.dirty_series.value_at(150) == 300
