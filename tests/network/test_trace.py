"""Tests for the membership trace."""

import bisect

import numpy as np
import pytest

from repro.network.trace import NetworkTrace, TraceEventKind


def test_online_at_replays_history():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.join(1.0, 2)
    t.leave(2.0, 1)
    t.join(3.0, 3)
    t.depart(4.0, 2)
    assert t.online_at(0.5) == frozenset({1})
    assert t.online_at(1.5) == frozenset({1, 2})
    assert t.online_at(2.5) == frozenset({2})
    assert t.online_at(3.5) == frozenset({2, 3})
    assert t.online_at(10.0) == frozenset({3})


def test_online_at_is_inclusive_of_event_time():
    t = NetworkTrace()
    t.join(5.0, 1)
    assert t.online_at(5.0) == frozenset({1})
    assert t.online_at(4.999) == frozenset()


def test_out_of_order_rejected():
    t = NetworkTrace()
    t.join(5.0, 1)
    with pytest.raises(ValueError):
        t.leave(4.0, 1)


def test_same_time_events_allowed():
    t = NetworkTrace()
    t.join(1.0, 1)
    t.join(1.0, 2)
    assert t.online_at(1.0) == frozenset({1, 2})


def test_session_counts():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.leave(1.0, 1)
    t.join(2.0, 1)
    t.join(3.0, 2)
    assert t.session_counts() == {1: 2, 2: 1}


def test_len_counts_events():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.leave(1.0, 1)
    assert len(t) == 2


def test_empty_trace_online_empty():
    assert NetworkTrace().online_at(100.0) == frozenset()


def test_event_kinds_recorded():
    t = NetworkTrace()
    t.join(0.0, 1)
    t.depart(1.0, 1)
    assert [e.kind for e in t.events] == [TraceEventKind.JOIN, TraceEventKind.DEPART]


def replay_online_at(trace, time):
    """``online_at`` as it was: rebuild the times list on every call."""
    times = [e.time for e in trace.events]
    online = set()
    for e in trace.events[: bisect.bisect_right(times, time)]:
        if e.kind is TraceEventKind.JOIN:
            online.add(e.node_id)
        else:
            online.discard(e.node_id)
    return frozenset(online)


def random_trace(seed, n_events=300):
    rng = np.random.default_rng(seed)
    t, now, online = NetworkTrace(), 0.0, set()
    for _ in range(n_events):
        # Repeated timestamps exercise the inclusive boundary.
        now += float(rng.choice([0.0, 0.5, 1.25]))
        nid = int(rng.integers(0, 20))
        if nid in online:
            online.discard(nid)
            (t.leave if rng.random() < 0.8 else t.depart)(now, nid)
        else:
            online.add(nid)
            t.join(now, nid)
    return t


@pytest.mark.parametrize("seed", range(4))
def test_online_at_matches_full_replay(seed):
    t = random_trace(seed)
    times = [e.time for e in t.events]
    probes = sorted(set(times)) + [-1.0, times[-1] + 1.0] + [x + 0.25 for x in times[::7]]
    for time in probes:
        assert t.online_at(time) == replay_online_at(t, time)
    # A trace built from an existing event list answers the same way.
    rebuilt = NetworkTrace(events=list(t.events))
    for time in probes:
        assert rebuilt.online_at(time) == replay_online_at(t, time)
    rebuilt.join(times[-1] + 2.0, 99)
    assert 99 in rebuilt.online_at(times[-1] + 2.0)
