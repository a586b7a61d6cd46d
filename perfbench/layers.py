"""Per-layer tracing from outside the program.

:func:`traced` patches the public entry points of each layer (class
attributes and module globals) with wrappers that record one span per
call — name, layer, start, end, parent — into a :class:`SpanRecorder`
kept in memory, and restores every original on exit.  Nothing under
``src/`` knows it is being traced.

``run_scenario`` imports its classes by name, so methods are patched on
the classes; ``ActiveProber.run`` calls the sweep functions through the
``repro.network.probing`` module globals, so those are patched there.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import repro.network.probing as probing
from repro.core.kernels import BatchPlanner, WorldArrays
from repro.core.protocol import ConnectionSeries, PathBuilder
from repro.core.routing import RandomRouting, UtilityModelI, UtilityModelII
from repro.network.overlay import Overlay
from repro.payment.escrow import SeriesEscrow
from repro.sim.engine import Environment
from repro.sim.process import Process

#: Pseudo-layer of the spans around process resumption: the bodies of
#: ``run_scenario``'s closures and the churn/probe generators.  Their
#: self time is what no layer accounts for (``scenario.untraced_s``).
PROCESS_LAYER = "scenario"

#: (owner, attribute, layer, argument recorded as the span key).
TARGETS: Tuple[Tuple[object, str, str, Optional[str]], ...] = (
    (Environment, "step", "sim.engine", None),
    (Process, "_resume", PROCESS_LAYER, None),
    (PathBuilder, "build_round", "core.protocol", None),
    (ConnectionSeries, "retry_round", "core.protocol", None),
    (UtilityModelI, "select_next_hop", "core.routing", None),
    (UtilityModelII, "select_next_hop", "core.routing", None),
    (RandomRouting, "select_next_hop", "core.routing", None),
    (BatchPlanner, "decide_model2", "core.kernels", None),
    (BatchPlanner, "decide_model1", "core.kernels", None),
    (BatchPlanner, "prepare", "core.kernels", None),
    (WorldArrays, "ensure_fresh", "core.kernels", None),
    # ``now`` tells probe periods apart: one sim time per period.
    (probing, "fast_full_sweep", "network.probing", "now"),
    (probing, "run_probe_round", "network.probing", "now"),
    (Overlay, "bootstrap", "network.overlay", None),
    (Overlay, "join", "network.overlay", None),
    (Overlay, "leave", "network.overlay", None),
    (Overlay, "depart", "network.overlay", None),
    (ConnectionSeries, "settlement", "payment", None),
    (SeriesEscrow, "open", "payment", None),
    (SeriesEscrow, "settle", "payment", None),
    (SeriesEscrow, "abort", "payment", None),
)


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float
    end: float = 0.0
    #: The call returned a value other than None (False if it raised).
    ok: bool = False
    key: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    spans: List[Span] = field(default_factory=list)
    _open: List[int] = field(default_factory=list)

    def open(self, name: str, layer: str, key: object = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, layer, parent, time.perf_counter(), key=key))
        self._open.append(index)
        return index

    def close(self, index: int, ok: bool) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.ok = ok
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        self.spans.clear()


def _wrap(fn, name: str, layer: str, recorder: SpanRecorder, key_arg: Optional[str]):
    key_pos = None
    if key_arg is not None:
        key_pos = list(inspect.signature(fn).parameters).index(key_arg)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        key = None
        if key_pos is not None:
            key = kwargs[key_arg] if key_arg in kwargs else args[key_pos]
        index = recorder.open(name, layer, key)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = out is not None
            return out
        finally:
            recorder.close(index, ok)

    traced_call.__wrapped_original__ = fn
    return traced_call


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every target for the duration of the block, then restore
    each original attribute exactly (even if the block raises)."""
    saved = []
    try:
        for owner, attr, layer, key_arg in TARGETS:
            original = owner.__dict__[attr]
            name = f"{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{attr}"
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, layer, recorder, key_arg))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals_restored() -> bool:
    """True when no target is still a tracing wrapper."""
    return all(
        not hasattr(owner.__dict__[attr], "__wrapped_original__")
        for owner, attr, _layer, _key in TARGETS
    )


# -- analysis --------------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _pct(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scenario_layers(spans: List[Span], result) -> Dict[str, float]:
    """Per-layer figures for one traced scenario.

    Layer times count only spans of the simulate phase, which starts
    with the first event the engine processes; ``scenario.untraced_s``
    is the traced simulate wall minus every layer's self time, so the
    layer self times and it sum to ``scenario.simulate_s`` exactly.
    """
    own = self_times(spans)
    sim_start = next(
        (i for i, s in enumerate(spans) if s.name == "Environment.step"), len(spans)
    )
    layer_self: Dict[str, float] = {}
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
        if i >= sim_start and span.layer != PROCESS_LAYER:
            layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own[i]

    def calls(name: str) -> List[int]:
        return by_name.get(name, [])

    def self_of(name: str) -> float:
        return sum(own[i] for i in calls(name))

    simulate = result.phase_timings["simulate"]
    perf = result.perf_counters
    deg = result.degradation
    builds = calls("PathBuilder.build_round")
    fast = calls("probing.fast_full_sweep")
    decisions = sum(
        len(calls(f"{cls}.select_next_hop"))
        for cls in ("UtilityModelI", "UtilityModelII", "RandomRouting")
    )
    periods = {spans[i].key for i in fast + calls("probing.run_probe_round")}
    # Bootstrap, and every join inside it, runs during setup: the
    # overlay calls of the simulate phase are churn.
    churn = [
        i
        for n in ("Overlay.join", "Overlay.leave", "Overlay.depart")
        for i in calls(n)
        if i >= sim_start
    ]
    settled = len(result.series_settlements) - deg.get("settlements_failed", 0)
    return {
        "sim.engine.events": len(calls("Environment.step")),
        "sim.engine.self_s": layer_self.get("sim.engine", 0.0),
        "core.protocol.build_round.calls": len(builds),
        "core.protocol.build_round.self_s": self_of("PathBuilder.build_round"),
        "core.protocol.self_s": layer_self.get("core.protocol", 0.0),
        "core.protocol.attempt_yield": _ratio(
            sum(spans[i].ok for i in builds), len(builds)
        ),
        "core.routing.decisions": decisions,
        "core.routing.self_s": layer_self.get("core.routing", 0.0),
        "core.routing.edges_per_decision": _ratio(perf["edges_scored"], decisions),
        "core.kernels.decide_model2.calls": len(calls("BatchPlanner.decide_model2")),
        "core.kernels.decide_model2.self_s": self_of("BatchPlanner.decide_model2"),
        "core.kernels.ensure_fresh.self_s": self_of("WorldArrays.ensure_fresh"),
        "core.kernels.self_s": layer_self.get("core.kernels", 0.0),
        "core.kernels.calls": perf["kernel_calls"],
        "core.kernels.batch_elements": perf["kernel_batch_elements"],
        "core.kernels.array_rebuilds": perf["array_rebuilds"],
        "network.probing.self_s": layer_self.get("network.probing", 0.0),
        "network.probing.fast_sweeps": sum(spans[i].ok for i in fast),
        "network.probing.probe_rounds": len(calls("probing.run_probe_round")),
        "network.probing.fast_sweep_share": _ratio(
            sum(spans[i].ok for i in fast), len(periods)
        ),
        "network.overlay.bootstrap_s": sum(
            spans[i].duration for i in calls("Overlay.bootstrap")
        ),
        "network.overlay.churn_calls": len(churn),
        "network.overlay.churn_self_s": layer_self.get("network.overlay", 0.0),
        "payment.settle.calls": len(calls("ConnectionSeries.settlement")),
        "payment.settle.self_s": layer_self.get("payment", 0.0),
        "payment.settle_yield": _ratio(
            settled, len(calls("ConnectionSeries.settlement"))
        ),
        "sim.faults.path_retries": deg.get("path_retries", 0),
        "sim.faults.probe_retries": deg.get("probe_retries", 0),
        "sim.faults.settlement_retries": deg.get("settlement_retries", 0),
        "scenario.simulate_s": simulate,
        "scenario.untraced_s": simulate - sum(layer_self.values()),
    }


#: Span names whose per-call latency percentiles are reported.
LATENCY_SPANS = {
    "core.protocol.build_round": "PathBuilder.build_round",
    "core.kernels.decide_model2": "BatchPlanner.decide_model2",
}


def call_latencies_ms(spans: List[Span], name: str) -> List[float]:
    return [s.duration * 1e3 for s in spans if s.name == name]


def latency_metrics(durations_ms: Dict[str, List[float]]) -> Dict[str, float]:
    out = {}
    for prefix, values in durations_ms.items():
        out[f"{prefix}.p50_ms"] = _pct(values, 50)
        out[f"{prefix}.p90_ms"] = _pct(values, 90)
    return out
