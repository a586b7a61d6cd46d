#!/usr/bin/env python3
"""Regenerate perfbench/digests.json: the fingerprint of every world in
each workload's pool (see ``workloads.POOL``), held-out pool included.

    python3 perfbench/record_digests.py

Re-record only when a workload's definition changes, or when a change
alters results on purpose (and say so where the change is described).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gate import DIGESTS_PATH, fingerprint  # noqa: E402
from workloads import WORKLOADS, config_for, pool  # noqa: E402

from repro.experiments.scenario import run_scenario  # noqa: E402


def main() -> int:
    table = {}
    for name in sorted(WORKLOADS):
        table[name] = {
            str(seed): fingerprint(run_scenario(config_for(name, seed)))
            for seed in pool(name)
        }
        print(f"{name}: {len(table[name])} worlds recorded", flush=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
