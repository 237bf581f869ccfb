"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_simultaneous_events_run_in_insertion_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(2.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "late")
    sim.run(until=3.0)
    assert seen == ["early"]
    assert sim.now == 3.0   # clock advanced to the horizon
    sim.run()
    assert seen == ["early", "late"]


def test_max_events_stop_leaves_the_clock_at_the_last_event():
    """A run cut short by ``max_events`` must not jump the clock past
    events still due before ``until``: the next run would execute them in
    the past."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.now))
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=1)
    assert seen == [1.0] and sim.now == 1.0
    sim.run()
    assert seen == [1.0, 2.0] and sim.now == 2.0


def test_max_events_stop_with_nothing_due_advances_to_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(12.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0          # the 12.0 event is past the horizon
    sim.schedule(0.0, lambda: None)
    sim.run(until=11.0, max_events=1)
    assert sim.now == 11.0          # the heap drained exactly at the cap


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert seen == [1, 2, 3]
    assert sim.now == 3.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.schedule_cancellable(1.0, seen.append, "cancelled")
    sim.schedule(2.0, seen.append, "kept")
    handle.cancel()
    sim.run()
    assert seen == ["kept"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule_cancellable(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_schedule_returns_no_handle():
    """The fire-and-forget fast path allocates no handle."""
    sim = Simulator()
    assert sim.schedule(1.0, lambda: None) is None
    assert sim.schedule_at(2.0, lambda: None) is None
    sim.run()
    assert sim.events_processed == 2


def test_cancellable_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_cancellable(-0.1, lambda: None)


def test_max_events_bounds_execution():
    sim = Simulator()
    seen = []

    def forever():
        seen.append(sim.now)
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    sim.run(max_events=10)
    assert len(seen) == 10


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


#: delays/offsets on a half-second grid, so ties are common
_STEPS = st.integers(0, 8).map(lambda k: k / 2)

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _STEPS),
    st.tuples(st.just("schedule_at"), _STEPS),
    st.tuples(st.just("schedule_cancellable"), _STEPS),
    st.tuples(st.just("schedule_at_cancellable"), _STEPS),
    st.tuples(st.just("chain"), _STEPS),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("run"), st.none() | _STEPS,
              st.none() | st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_clock_never_goes_back_under_any_interleaving(ops):
    """Random interleavings of every scheduling call, cancellation and
    ``run(until, max_events)``: the clock, read after every call and inside
    every event, never decreases; each event fires at its own time, once;
    a cancelled event never fires."""
    sim = Simulator()
    clock = []              # every reading of sim.now, in order
    fired = []              # event ids, in firing order
    due = {}                # event id -> scheduled time
    handles = []            # (event id, handle)
    cancelled = set()       # ids cancelled before they fired

    def fire(event_id):
        assert sim.now == due[event_id]
        clock.append(sim.now)
        fired.append(event_id)

    def fire_and_chain(event_id, delay):
        fire(event_id)
        follow_up = len(due)
        due[follow_up] = sim.now + delay
        sim.schedule(delay, fire, follow_up)

    for op in ops:
        kind = op[0]
        event_id = len(due)
        if kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            sim.run(until=until, max_events=op[2])
        elif kind == "cancel":
            if handles:
                cancel_id, handle = handles[op[1] % len(handles)]
                handle.cancel()
                if cancel_id not in fired:
                    cancelled.add(cancel_id)
        else:
            due[event_id] = sim.now + op[1]
            if kind == "schedule":
                sim.schedule(op[1], fire, event_id)
            elif kind == "schedule_at":
                sim.schedule_at(due[event_id], fire, event_id)
            elif kind == "chain":
                sim.schedule(op[1], fire_and_chain, event_id, op[1])
            else:
                handles.append((event_id, getattr(sim, kind)(
                    *((op[1],) if kind == "schedule_cancellable"
                      else (due[event_id],)), fire, event_id)))
        clock.append(sim.now)
    sim.run()
    clock.append(sim.now)

    assert clock == sorted(clock)
    assert sorted(fired) == sorted(set(due) - cancelled)
