import json

import pytest
from hypothesis import given, strategies as st

from tlmforge.kernel import (
    QuantumKeeper,
    Scheduler,
    SimulationError,
    Wait,
)
from tlmforge.simtime import TimeOverflowError, U64_MAX
from tlmforge.sysdesc import elaborate, parse_description
from tlmforge.trace import write_trace


def note(log, label):
    def activity():
        log.append((label,))
        return
        yield  # pragma: no cover

    return activity()


def waiter(log, label, delays):
    def activity():
        for d in delays:
            yield Wait(d)
            log.append((label, d))

    return activity()


def test_equal_time_dispatch_is_fifo():
    s = Scheduler()
    log = []
    s.schedule(note(log, "A"), 5)
    s.schedule(note(log, "B"), 5)
    s.run()
    assert log == [("A",), ("B",)]


def test_time_order_beats_insertion_order():
    s = Scheduler()
    log = []
    s.schedule(note(log, "A"), 5)
    s.schedule(note(log, "B"), 3)
    s.run()
    assert log == [("B",), ("A",)]


def test_zero_delay_runs_before_time_advances():
    s = Scheduler()
    log = []

    def spawner():
        s.schedule(note(log, "child"), 0)
        yield Wait(1)
        log.append(("after",))

    s.schedule(spawner(), 0)
    s.run()
    assert log == [("child",), ("after",)]


def test_run_returns_final_time():
    s = Scheduler()
    s.schedule(waiter([], "w", [7, 3]), 0)
    assert s.run() == 10


def test_empty_run_returns_zero():
    assert Scheduler().run() == 0


def test_now_is_monotonic_and_matches_waits():
    s = Scheduler()
    seen = []

    def activity():
        for d in (4, 0, 6):
            yield Wait(d)
            seen.append(s.now)

    s.schedule(activity(), 0)
    s.run()
    assert seen == [4, 4, 10]


def test_event_limit_trips():
    s = Scheduler(event_limit=100)

    def forever():
        while True:
            yield Wait(1)

    s.schedule(forever(), 0)
    with pytest.raises(SimulationError) as info:
        s.run()
    assert info.value.code == "E-EVENT-LIMIT"


def test_schedule_overflow_is_hard_error():
    s = Scheduler()

    def far():
        yield Wait(U64_MAX)
        yield Wait(1)

    s.schedule(far(), 0)
    with pytest.raises(TimeOverflowError):
        s.run()


def test_a_request_other_than_wait_is_refused_by_name():
    s = Scheduler()

    def sleeper():
        yield 5

    s.schedule(sleeper(), 0, name="Sleeper")
    with pytest.raises(TypeError, match="activity 'Sleeper' yielded 5; expected Wait"):
        s.run()


def test_dispatch_sequence_is_deterministic():
    def build_and_run():
        s = Scheduler()
        log = []
        for i, delay in enumerate([5, 3, 5, 0, 9]):
            def activity(i=i, delay=delay):
                yield Wait(delay)
                log.append((s.now, i))
                yield Wait(i)
                log.append((s.now, i))

            s.schedule(activity(), delay)
        s.run()
        return log

    assert build_and_run() == build_and_run()


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=30))
def test_dispatch_times_never_decrease(delays):
    s = Scheduler()
    observed = []

    def activity(d):
        yield Wait(d)
        observed.append(s.now)

    for d in delays:
        s.schedule(activity(d), 0)
    s.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


# -- quantum keeper -----------------------------------------------------------


def test_advance_accumulates():
    qk = QuantumKeeper(1000)
    qk.advance(500)
    assert qk.local_offset == 500
    qk.advance(500)
    assert qk.local_offset == 1000
    qk.advance(0)
    assert qk.local_offset == 1000


def test_need_sync_boundary():
    qk = QuantumKeeper(1000)
    qk.advance(999)
    assert not qk.need_sync()
    qk.advance(1)
    assert qk.need_sync()


def test_zero_quantum_always_needs_sync():
    qk = QuantumKeeper(0)
    assert qk.need_sync()
    qk.advance(1)
    assert qk.need_sync()


def test_sync_waits_offset_then_resets():
    s = Scheduler()
    qk = QuantumKeeper(0)
    log = []

    def activity():
        yield Wait(100)
        qk.advance(300)
        yield from qk.sync()
        log.append((s.now, qk.local_offset))

    s.schedule(activity(), 0)
    s.run()
    assert log == [(400, 0)]


def test_sync_with_zero_offset_stays_in_timestamp():
    s = Scheduler()
    qk = QuantumKeeper(0)
    log = []

    def activity():
        yield Wait(9)
        yield from qk.sync()
        log.append(s.now)

    s.schedule(activity(), 0)
    s.run()
    assert log == [9]


def test_two_decoupled_activities_agree_with_kernel_after_sync():
    s = Scheduler()
    log = []

    def activity(label, ahead):
        qk = QuantumKeeper(10**6)
        qk.advance(ahead)
        assert not qk.need_sync()
        yield from qk.sync()
        # after syncing, local view equals kernel time exactly
        log.append((label, s.now, qk.local_offset))

    s.schedule(activity("a", 300), 0)
    s.schedule(activity("b", 500), 0)
    s.run()
    assert log == [("a", 300, 0), ("b", 500, 0)]


def test_offset_stays_within_quantum_plus_one_annotation():
    quantum, max_annotation = 1000, 400
    qk = QuantumKeeper(quantum)
    s = Scheduler()
    worst = 0

    def activity():
        nonlocal worst
        for step in [100, 400, 200, 399, 400, 50, 400, 400, 1, 400]:
            qk.advance(step)
            if qk.need_sync():
                worst = max(worst, qk.local_offset)
                yield from qk.sync()

    s.schedule(activity(), 0)
    s.run()
    assert worst <= quantum + max_annotation


# -- dispatched-event count -------------------------------------------------------


def test_dispatched_counts_events_and_only_the_quantum_moves_it(abs_text):
    """An ABS stream of 50 Brake WRITEs: a 1 us quantum batches the
    initiator's syncs, so it dispatches fewer events for the same trace."""
    doc = json.loads(abs_text)
    doc["modules"][0]["workload"][0]["repeat"] = 50
    desc, diags = parse_description(json.dumps(doc))
    assert diags == []
    traces, counts = [], []
    for quantum_ps in (0, 1_000_000):
        model = elaborate(desc, quantum_ps=quantum_ps)
        assert model.scheduler.dispatched == 0
        model.run()
        traces.append(write_trace(model.records))
        counts.append(model.scheduler.dispatched)
    assert traces[0] == traces[1]
    assert counts[0] == 2 * 50 + 1  # a start, then two syncs per activation
    assert counts[1] < counts[0]
    with pytest.raises(AttributeError):
        model.scheduler.dispatched = 0


@pytest.mark.parametrize("quantum_ps", [0, 10**6, 10**12])
def test_run_ends_at_the_last_trace_end_under_any_quantum(abs_description, quantum_ps):
    """The initiator gives the time its quantum keeper still holds back to the kernel."""
    model = elaborate(abs_description, quantum_ps=quantum_ps)
    final = model.run()
    assert final == model.scheduler.now == max(r.end for r in model.records) == 16_000
