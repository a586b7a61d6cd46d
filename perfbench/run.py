#!/usr/bin/env python3
"""Repo benchmark: time-to-result of seeded scenarios, and a traced
per-layer ledger.

Run from the repository root (see perfbench/README.md)::

    python3 perfbench/run.py --workload paper-u2l3 --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole ``run_scenario`` calls with nothing patched and
prints the end-to-end metrics.  ``--trace 1`` pairs each untraced call
with a traced one, adds observability off/on pairs and a
scalar-reference run, and prints the per-layer metrics.  Every run's result must match
its committed fingerprint; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: program source not found under {SRC}")
sys.path.insert(0, str(SRC))

from gate import (  # noqa: E402
    GateFailure,
    check_invariants,
    fail_ratio,
    fingerprint,
    load_digests,
    round_counts,
)
from layers import (  # noqa: E402
    LATENCY_SPANS,
    SpanRecorder,
    call_latencies_ms,
    latency_metrics,
    originals_restored,
    scenario_layers,
    traced,
)
from workloads import TRACED_WORLDS, WORKLOADS, config_for, scenario_seeds  # noqa: E402

from repro.experiments.scenario import run_scenario  # noqa: E402
from repro.obs import ObsConfig  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "rounds/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


#: Iterations of the host-speed probe, about 0.1-0.2 s.  On churn-chaos,
#: a probe this long taken only before each scenario tracked it as
#: closely as a 0.3M-iteration probe on each side of it; shorter probes
#: taken only before added noise.
PROBE_LOOPS = 1_500_000

#: The probe's time on the reference host (a shared 2-core 2.1 GHz Xeon
#: VM; the fastest of 216 probes; Python 3.11).  Timings are scaled to it.
PROBE_REF_S = 0.110


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs the
    interpreter at this moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed_scenario(config):
    t0 = time.perf_counter()
    result = run_scenario(config)
    return time.perf_counter() - t0, result


class Checker:
    """Collects each run's fingerprint and invariant failures, and checks
    the fingerprints against the committed digest table."""

    def __init__(self, name: str, digests: Dict[int, str]):
        self.name = name
        self.expected = dict(digests)
        self.runs: List[tuple] = []  # (scenario seed, fingerprint, problems)
        self.counts: Dict[int, Dict[str, int]] = {}

    def record(self, seed: int, result, invariants: bool = True) -> None:
        problems = []
        if invariants:
            try:
                check_invariants(self.name, result)
            except GateFailure as exc:
                problems.append(str(exc))
            self.counts[seed] = round_counts(result)
        self.runs.append((seed, fingerprint(result), problems))

    def failures(self) -> int:
        failed = 0
        for seed, fp, problems in self.runs:
            want = self.expected.get(seed)
            if fp != want:
                problems = problems + [
                    f"scenario seed {seed}: fingerprint {fp}, expected {want}"
                ]
            for problem in problems:
                print(f"GATE {self.name}: {problem}", file=sys.stderr)
            failed += bool(problems)
        return failed

    def fail_ratio(self) -> float:
        totals: Dict[str, int] = {}
        for counts in self.counts.values():
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        return fail_ratio(totals)


def passes(worlds: List[int], seconds: float):
    """The run's worlds in turn: one full pass, then on until ``seconds``
    have passed.  Every world is visited whatever the host's speed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(worlds) or time.perf_counter() < deadline:
        yield worlds[i % len(worlds)]
        i += 1


def median_over_worlds(samples: Dict[int, List[float]]) -> float:
    """Median over the worlds of each world's median: every world weighs
    the same, however many passes reached it."""
    return statistics.median(statistics.median(v) for v in samples.values())


def end_to_end(name: str, worlds: List[int], seconds: float, checker: Checker) -> Dict[str, float]:
    """Median time-to-result, set-up time and round rate, each scaled to
    the reference host speed.

    On a shared host the interpreter's speed swings by up to 1.9x over
    minutes as neighbours load the machine, which no median within a
    run removes.  So a probe times a fixed loop, independent of the
    program, just before each scenario, and the scenario's sample is
    scaled by ``PROBE_REF_S`` / probe.  The probe runs before the
    scenario it scales, so nothing that scenario does can move its
    divisor.  A change to the program moves the scaled figures as it
    moves the raw ones; the raw medians are printed too, on a JSON line
    of their own above the result.
    """
    # Warm-up: first-call costs a long-lived process pays once.
    probe_s()
    _wall, result = timed_scenario(config_for(name, worlds[0]))
    checker.record(worlds[0], result)
    labels = ("wall_s", "setup_s", "rounds_per_s")
    raw: Dict[str, Dict[int, List[float]]] = {label: {} for label in labels}
    scaled: Dict[str, Dict[int, List[float]]] = {label: {} for label in labels}
    slowdowns = []
    for seed in passes(worlds, seconds):
        slowdown = probe_s() / PROBE_REF_S
        wall, result = timed_scenario(config_for(name, seed))
        checker.record(seed, result)
        slowdowns.append(slowdown)
        rate = round_counts(result)["completed"] / result.phase_timings["simulate"]
        for label, value, factor in (
            ("wall_s", wall, slowdown),
            ("setup_s", result.phase_timings["setup"], slowdown),
            ("rounds_per_s", rate, 1.0 / slowdown),
        ):
            raw[label].setdefault(seed, []).append(value)
            scaled[label].setdefault(seed, []).append(value / factor)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {label: median_over_worlds(scaled[label]) for label in labels}
    raw_medians = {label: median_over_worlds(raw[label]) for label in labels}
    print(f"{name}: {len(slowdowns)} timed scenario runs over {len(worlds)} worlds; "
          f"medians over worlds of per-world medians; host slowdown vs reference: "
          f"median {statistics.median(slowdowns):.3f}, max {max(slowdowns):.3f}")
    for label in labels:
        print(f"  {label}: scaled {metrics[label]:.6g}  raw {raw_medians[label]:.6g}")
    print(json.dumps({"raw": raw_medians, "host_slowdown": statistics.median(slowdowns),
                      "samples": len(slowdowns), "worlds": len(worlds)}))
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["success_ratio"] = 1.0 - checker.fail_ratio()
    return metrics


#: Back-to-back obs-off/obs-on pairs behind ``obs.overhead_s``.
OBS_PAIRS = 3


def per_layer(name: str, worlds: List[int], seconds: float, checker: Checker) -> Dict[str, float]:
    """Observability off/on pairs and a scalar-reference run of the first
    world, then traced/untraced pairs over ``worlds`` until ``seconds``
    have passed since the start (at least one pass).

    Per-world figures are averaged over each world's passes, then over
    the worlds, so every world weighs the same; a mean keeps the layer
    self times summing to the simulate wall.  Call latencies pool the
    first traced pass of each world.
    """
    recorder = SpanRecorder()
    untraced: Dict[int, List[float]] = {}
    raw_walls: Dict[int, List[float]] = {}
    slowdowns: List[float] = []
    edges: Dict[int, int] = {}
    overheads: List[float] = []
    rows: Dict[int, List[Dict[str, float]]] = {}
    latencies: Dict[str, List[float]] = {prefix: [] for prefix in LATENCY_SPANS}
    start = time.perf_counter()
    probe_s()
    first = worlds[0]
    _wall, result = timed_scenario(config_for(name, first))  # warm-up
    checker.record(first, result)
    obs_overheads = []
    for _ in range(OBS_PAIRS):
        wall_off, result = timed_scenario(config_for(name, first))
        checker.record(first, result)
        wall_on, obs_result = timed_scenario(config_for(name, first, obs=ObsConfig()))
        checker.record(first, obs_result, invariants=False)
        obs_overheads.append(wall_on - wall_off)
    scalar_wall, scalar = timed_scenario(config_for(name, first, backend="python"))
    checker.record(first, scalar, invariants=False)

    for seed in passes(worlds, seconds - (time.perf_counter() - start)):
        slowdowns.append(probe_s() / PROBE_REF_S)
        wall_u, result = timed_scenario(config_for(name, seed))
        checker.record(seed, result)
        untraced.setdefault(seed, []).append(result.phase_timings["simulate"])
        raw_walls.setdefault(seed, []).append(wall_u)
        edges[seed] = result.perf_counters["edges_scored"]
        recorder.clear()
        with traced(recorder):
            wall_t, result = timed_scenario(config_for(name, seed))
        checker.record(seed, result)
        overheads.append(wall_t - wall_u)
        if seed not in rows:
            for prefix, span in LATENCY_SPANS.items():
                latencies[prefix].extend(call_latencies_ms(recorder.spans, span))
        rows.setdefault(seed, []).append(scenario_layers(recorder.spans, result))
    if not originals_restored():
        raise RuntimeError("tracing wrappers left in place")

    per_world = [
        {key: statistics.fmean(r[key] for r in world_rows) for key in world_rows[0]}
        for world_rows in rows.values()
    ]
    metrics = {key: statistics.fmean(w[key] for w in per_world) for key in per_world[0]}
    metrics.update(latency_metrics(latencies))
    metrics.update({
        "core.routing.edges_scored_vs_scalar": edges[first] / scalar.perf_counters["edges_scored"],
        "core.kernels.speedup_vs_scalar": (
            scalar.phase_timings["simulate"] / statistics.median(untraced[first])
        ),
        "obs.overhead_s": statistics.median(obs_overheads),
        "obs.events": len(obs_result.trace.events),
        "obs.spans": len(obs_result.trace.spans),
        "bench.trace_overhead_s": statistics.median(overheads),
        "bench.raw_wall_s": median_over_worlds(raw_walls),
        "bench.host_slowdown": statistics.median(slowdowns),
        "scenario.fail_ratio": checker.fail_ratio(),
    })
    layer_sum = sum(v for k, v in metrics.items() if k in SELF_TIME_KEYS)
    print(f"{name}: {len(overheads)} traced/untraced pairs over {len(worlds)} worlds; "
          f"scalar reference wall {scalar_wall:.3f}s (world {first})")
    print(f"  layer self times {layer_sum:.6f}s + untraced "
          f"{metrics['scenario.untraced_s']:.6f}s = traced simulate "
          f"{metrics['scenario.simulate_s']:.6f}s")
    return metrics


#: The layer self times that, with ``scenario.untraced_s``, partition the
#: traced simulate wall.
SELF_TIME_KEYS = (
    "sim.engine.self_s",
    "core.protocol.self_s",
    "core.routing.self_s",
    "core.kernels.self_s",
    "network.probing.self_s",
    "network.overlay.churn_self_s",
    "payment.settle.self_s",
)


def layer_problems(metrics: Dict[str, float]) -> List[str]:
    """Span bookkeeping that cannot hold unless nesting was recorded right."""
    problems = [f"{k} is negative" for k in SELF_TIME_KEYS if metrics[k] < -1e-9]
    if metrics["scenario.untraced_s"] < -1e-9:
        problems.append("layer self times exceed the traced simulate wall")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    name = args.workload
    worlds = scenario_seeds(name, args.seed)
    checker = Checker(name, load_digests().get(name, {}))
    if args.trace:
        metrics = per_layer(name, worlds[: TRACED_WORLDS[name]], args.seconds, checker)
        units = {k: _layer_unit(k) for k in metrics}
        problems = layer_problems(metrics)
    else:
        metrics = end_to_end(name, worlds, args.seconds, checker)
        units = END_TO_END_UNITS
        problems = []
    for problem in problems:
        print(f"GATE {name}: {problem}", file=sys.stderr)
    failed = checker.failures()
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(checker.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith(("_yield", "_share", "_ratio", "_per_decision", "_vs_scalar", "_slowdown")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
