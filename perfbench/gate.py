"""Output-correctness gate: result fingerprints, the committed digest
table, and the per-workload invariants every timed run must pass."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from workloads import KERNEL_WORKLOADS

DIGESTS_PATH = Path(__file__).with_name("digests.json")


class GateFailure(AssertionError):
    """A run produced output that does not match its reference."""


def fingerprint(result) -> str:
    """Digest of what a run decided and paid: every path of every
    series, payoffs, earnings, per-series settlements and degradation.

    Floats are serialised by ``repr`` (via JSON), so two results share
    a fingerprint only when they are bit-identical.
    """
    doc = {
        "paths": [
            [log.cid, [[p.round_index, list(p.nodes)] for p in log.paths]]
            for log in result.series_logs
        ],
        "payoffs": sorted(result.payoffs.items()),
        "earnings": sorted(result.earnings.items()),
        "settlements": sorted(
            (cid, sorted(paid.items()))
            for cid, paid in result.series_settlements.items()
        ),
        "degradation": sorted(result.degradation.items()),
    }
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def round_counts(result) -> Dict[str, int]:
    """Rounds attempted/completed, series settled and settlements failed."""
    completed = sum(s.rounds_completed for s in result.series_stats)
    failed = sum(s.failed_rounds for s in result.series_stats)
    return {
        "attempted": completed + failed,
        "completed": completed,
        "series": len(result.series_settlements),
        "settlements_failed": result.degradation.get("settlements_failed", 0),
    }


def fail_ratio(counts: Dict[str, int]) -> float:
    """(rounds attempted - rounds completed + settlements failed) /
    (rounds attempted + series settled), from :func:`round_counts`
    (summed over any number of results)."""
    failures = counts["attempted"] - counts["completed"] + counts["settlements_failed"]
    return failures / (counts["attempted"] + counts["series"])


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, Dict[int, str]]:
    """Committed ``{workload: {scenario_seed: fingerprint}}``."""
    raw = json.loads(path.read_text())
    return {name: {int(s): d for s, d in table.items()} for name, table in raw.items()}


def check_invariants(name: str, result) -> None:
    """Checks that hold for every run of ``name`` whatever the seed."""
    if result.config.use_bank and result.bank_audit_ok is not True:
        raise GateFailure(f"{name}: bank audit failed")
    kernel_calls = result.perf_counters["kernel_calls"]
    if name in KERNEL_WORKLOADS and kernel_calls <= 0:
        raise GateFailure(f"{name}: decisions never reached the kernels")
    if name not in KERNEL_WORKLOADS and kernel_calls != 0:
        raise GateFailure(f"{name}: {kernel_calls} kernel calls, expected none")
    if round_counts(result)["completed"] <= 0:
        raise GateFailure(f"{name}: no round completed")

