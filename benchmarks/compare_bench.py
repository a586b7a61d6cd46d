#!/usr/bin/env python
"""Compare a benchmark report against a stored baseline, compact reports
to a stats-only schema, and maintain the repo-root trajectory file.

Usage::

    REPRO_BENCH_JSON=/tmp/bench.json \
        python -m pytest benchmarks/test_perf_routing_hotpath.py benchmarks/test_perf_scenario.py
    python benchmarks/compare_bench.py /tmp/bench.json \
        --baseline benchmarks/BENCH_routing.baseline.json --threshold 0.20 \
        --compact-out benchmarks/BENCH_routing.baseline.json \
        --trajectory BENCH_routing.json

Reports are accepted in either format:

- the full pytest-benchmark JSON (per-round ``data`` arrays, ~1 MB), or
- the compact schema this script writes (summary stats only, a few KB),
  recognisable by ``"schema": "repro-bench/compact-v1"``.

A benchmark's ``extra_info`` (e.g. the scale ladder's simulate wall and
work counters) is kept in the compact form and recorded in the
trajectory entry under ``"extra"``.

``--compact-out`` re-writes the report in the compact schema (this is
how the committed baseline is produced).  ``--trajectory`` merges the
compact snapshot into a history file keyed by commit id, so the repo
root carries a small per-commit record of hot-path timings.

Exit status 1 if any benchmark shared with the baseline is more than
``threshold`` slower (by mean time).  When both reports carry a host
probe (``machine.host_probe_s``: the best-of-three time of a fixed
pure-Python loop, recorded by ``benchmarks/conftest.py``), each wall
ratio is first divided by the current/baseline probe ratio, so a host
that runs the interpreter 1.3x slower does not read as a 1.3x code
regression.  A report or baseline without a probe compares unscaled.
Benchmarks present on only one side are reported but never fail the
gate (machines differ; the baseline is refreshed whenever the hot path
intentionally changes).
``--no-gate`` skips the comparison (e.g. when only compacting).

The deterministic work counters in ``extra_info`` (``WORK_COUNTERS``)
are gated exactly: for every benchmark shared with the baseline, a
counter the baseline records must appear in the report with the same
value, or the gate fails (exit 1) whatever the time threshold and
``--gate-match``.  Machine noise cannot move these counters, so any
difference is a change in how much work the code does.

``--gate-match REGEX`` (repeatable) narrows which benchmarks can *fail*
the gate: names matching any pattern gate as usual, the rest are
compared and printed but reported as informational.  CI uses this to
gate the numpy-default scenario variants while keeping the pinned
scalar-spec lanes advisory (the scalar path is an executable spec, not
a performance product).  No ``--gate-match`` flag means every shared
benchmark gates.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

COMPACT_SCHEMA = "repro-bench/compact-v1"
TRAJECTORY_SCHEMA = "repro-bench/trajectory-v1"

#: Summary statistics carried into the compact schema (the full report's
#: per-round ``data`` arrays are what make it two orders of magnitude
#: larger, and nothing downstream reads them).
_KEPT_STATS = ("min", "max", "mean", "stddev", "median", "rounds", "iterations")

#: Integer work counters a benchmark may carry in ``extra_info``; gated
#: exactly against the baseline (see the module docstring).
WORK_COUNTERS = ("edges_scored", "spne_states_swept")


def load_report(path: Path) -> dict:
    """Parse either report format into the compact representation."""
    return to_compact(json.loads(path.read_text()))


def to_compact(data: dict) -> dict:
    """Compact form of a report (idempotent on already-compact input)."""
    if data.get("schema") == COMPACT_SCHEMA:
        return data
    machine = data.get("machine_info", {})
    cpu = machine.get("cpu", {})
    return {
        "schema": COMPACT_SCHEMA,
        "commit": (data.get("commit_info") or {}).get("id"),
        "datetime": data.get("datetime"),
        "machine": {
            "python_version": machine.get("python_version"),
            "cpu": cpu.get("brand_raw"),
            "count": cpu.get("count"),
            "host_probe_s": machine.get("host_probe_s"),
        },
        "benchmarks": {b["fullname"]: _compact_stats(b) for b in data["benchmarks"]},
    }


def _compact_stats(bench: dict) -> dict:
    stats = {k: bench["stats"][k] for k in _KEPT_STATS}
    if bench.get("extra_info"):
        stats["extra_info"] = bench["extra_info"]
    return stats


def means(report: dict) -> Dict[str, float]:
    """benchmark fullname -> mean seconds (from a compact report)."""
    return {name: stats["mean"] for name, stats in report["benchmarks"].items()}


def host_scale(report: dict, baseline: dict) -> float:
    """Current/baseline host probe ratio, or 1.0 unless both have a probe."""
    probes = [(r.get("machine") or {}).get("host_probe_s") for r in (report, baseline)]
    if None in probes or probes[1] <= 0:
        return 1.0
    return probes[0] / probes[1]


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    threshold: float,
    gate_patterns: Optional[List[str]] = None,
    scale: float = 1.0,
) -> int:
    """Wall-time gate; ``scale`` (see :func:`host_scale`) divides every
    current/baseline ratio before it meets the threshold."""
    gates = [re.compile(p) for p in gate_patterns or []]

    def is_gated(name: str) -> bool:
        return not gates or any(g.search(name) for g in gates)

    regressions = []
    width = max((len(n) for n in current), default=0)
    if scale != 1.0:
        print(f"host probe: current/baseline = {scale:.3f}; wall ratios divided by it")
    for name in sorted(current):
        mean = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"NEW      {name.ljust(width)}  {mean * 1e3:9.3f} ms (no baseline)")
            continue
        ratio = mean / base / scale if base > 0 else float("inf")
        status = "OK"
        if ratio > 1.0 + threshold:
            if is_gated(name):
                status = "REGRESSED"
                regressions.append((name, base, mean, ratio))
            else:
                status = "INFO"  # slower, but outside the gated set
        print(
            f"{status:<8} {name.ljust(width)}  {base * 1e3:9.3f} -> "
            f"{mean * 1e3:9.3f} ms  ({ratio:5.2f}x)"
        )
    for name in sorted(set(baseline) - set(current)):
        print(f"MISSING  {name} (in baseline, not in report)")
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{threshold:.0%} vs. baseline:",
            file=sys.stderr,
        )
        for name, base, mean, ratio in regressions:
            print(
                f"  {name}: {base * 1e3:.3f} ms -> {mean * 1e3:.3f} ms "
                f"({ratio:.2f}x)",
                file=sys.stderr,
            )
        return 1
    print("\nAll shared benchmarks within threshold.")
    return 0


def work_counters(report: dict) -> Dict[str, Dict[str, int]]:
    """benchmark fullname -> its recorded ``WORK_COUNTERS`` (from a compact report)."""
    out = {}
    for name, stats in report["benchmarks"].items():
        extra = stats.get("extra_info") or {}
        out[name] = {c: extra[c] for c in WORK_COUNTERS if c in extra}
    return out


def compare_work(
    current: Dict[str, Dict[str, int]], baseline: Dict[str, Dict[str, int]]
) -> int:
    """Exact gate: 1 if any shared benchmark's counter differs or is missing."""
    mismatches = [
        (name, counter, expected, current[name].get(counter))
        for name in sorted(set(current) & set(baseline))
        for counter, expected in sorted(baseline[name].items())
        if current[name].get(counter) != expected
    ]
    if not mismatches:
        print("All shared work counters match the baseline exactly.")
        return 0
    print(f"\n{len(mismatches)} work counter(s) differ from the baseline:", file=sys.stderr)
    for name, counter, expected, got in mismatches:
        shown = "missing" if got is None else got
        print(f"  {name}: {counter} {expected} -> {shown}", file=sys.stderr)
    return 1


def resolve_commit(report: dict) -> str:
    """Commit id for the trajectory key: the report's own, else git HEAD."""
    if report.get("commit"):
        return str(report["commit"])[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def update_trajectory(path: Path, report: dict) -> None:
    """Merge ``report`` into the trajectory file under its commit id.

    Re-running on the same commit overwrites that commit's entry, so the
    file stays one snapshot per commit (mean seconds per benchmark, plus
    each benchmark's ``extra_info`` under ``"extra"``).
    """
    if path.exists():
        trajectory = json.loads(path.read_text())
        if trajectory.get("schema") != TRAJECTORY_SCHEMA:
            raise SystemExit(f"{path} is not a {TRAJECTORY_SCHEMA} file")
    else:
        trajectory = {"schema": TRAJECTORY_SCHEMA, "runs": {}}
    commit = resolve_commit(report)
    benchmarks = sorted(report["benchmarks"].items())
    entry = {
        "datetime": report.get("datetime"),
        "machine": report.get("machine"),
        "benchmarks": {name: round(stats["mean"], 9) for name, stats in benchmarks},
    }
    extra = {name: stats["extra_info"] for name, stats in benchmarks if "extra_info" in stats}
    if extra:
        entry["extra"] = extra
    trajectory["runs"][commit] = entry
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=False) + "\n")
    print(f"trajectory: recorded {commit} in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="benchmark JSON report (either format)")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "BENCH_routing.baseline.json",
        help="stored baseline JSON (default: benchmarks/BENCH_routing.baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed slowdown fraction before failing (default 0.20 = +20%%)",
    )
    parser.add_argument(
        "--compact-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the report in the compact stats-only schema to PATH",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        default=None,
        metavar="PATH",
        help="merge the report into this trajectory file, keyed by commit",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="skip the baseline comparison (compact/trajectory only)",
    )
    parser.add_argument(
        "--gate-match",
        action="append",
        default=None,
        metavar="REGEX",
        help="only benchmarks matching REGEX (searched, repeatable) can "
             "fail the gate; others compare as informational.  Omit to "
             "gate everything.",
    )
    args = parser.parse_args(argv)
    if not args.report.exists():
        print(f"report not found: {args.report}", file=sys.stderr)
        return 2
    report = load_report(args.report)
    if args.compact_out is not None:
        args.compact_out.write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n"
        )
        print(f"compact report written to {args.compact_out}")
    if args.trajectory is not None:
        update_trajectory(args.trajectory, report)
    if args.no_gate:
        return 0
    if not args.baseline.exists():
        print(f"baseline not found: {args.baseline}", file=sys.stderr)
        return 2
    baseline = load_report(args.baseline)
    timing = compare(
        means(report),
        means(baseline),
        args.threshold,
        gate_patterns=args.gate_match,
        scale=host_scale(report, baseline),
    )
    work = compare_work(work_counters(report), work_counters(baseline))
    return max(timing, work)


if __name__ == "__main__":
    raise SystemExit(main())
