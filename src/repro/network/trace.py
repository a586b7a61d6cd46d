"""Time-stamped record of overlay membership events.

The intersection-attack analysis (§2.1, [27]) observes *which nodes were
online* at the times a recurring connection was active and intersects those
sets.  :class:`NetworkTrace` is the ground-truth event log that makes this
observable: every join/leave/departure is appended with its simulation
time, and :meth:`online_at` reconstructs the active set at any instant.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set


class TraceEventKind(enum.Enum):
    JOIN = "join"
    LEAVE = "leave"
    DEPART = "depart"


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: TraceEventKind
    node_id: int


@dataclass
class NetworkTrace:
    """Append-only membership log with point-in-time reconstruction."""

    events: List[TraceEvent] = field(default_factory=list)
    #: ``events[i].time`` for every event, kept beside the log so
    #: :meth:`online_at` bisects it without rebuilding it per call.
    _times: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._times = [e.time for e in self.events]

    def record(self, time: float, kind: TraceEventKind, node_id: int) -> None:
        if self.events and time < self.events[-1].time:
            raise ValueError(
                f"events must be recorded in time order "
                f"({time} < {self.events[-1].time})"
            )
        self.events.append(TraceEvent(time, kind, node_id))
        self._times.append(time)

    def join(self, time: float, node_id: int) -> None:
        self.record(time, TraceEventKind.JOIN, node_id)

    def leave(self, time: float, node_id: int) -> None:
        self.record(time, TraceEventKind.LEAVE, node_id)

    def depart(self, time: float, node_id: int) -> None:
        self.record(time, TraceEventKind.DEPART, node_id)

    def online_at(self, time: float) -> FrozenSet[int]:
        """The set of node ids online at ``time`` (inclusive of events at t)."""
        # Events are time-ordered; replay the prefix up to `time`.
        end = bisect.bisect_right(self._times, time)
        online: Set[int] = set()
        for e in self.events[:end]:
            if e.kind is TraceEventKind.JOIN:
                online.add(e.node_id)
            else:
                online.discard(e.node_id)
        return frozenset(online)

    def session_counts(self) -> Dict[int, int]:
        """Number of sessions (joins) per node."""
        counts: Dict[int, int] = {}
        for e in self.events:
            if e.kind is TraceEventKind.JOIN:
                counts[e.node_id] = counts.get(e.node_id, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.events)
