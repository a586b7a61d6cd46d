"""Shared configuration for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure from the paper's §3 and
prints the same rows/series the paper reports, then asserts the
*qualitative shape* (who wins, directions of trends).  Absolute numbers
are not expected to match: the substrate is our simulator, not the
authors' (unreleased) one.

Scale is controlled by the ``REPRO_PRESET`` environment variable:
``quick`` (default; ~10x smaller workload, same shapes) or ``paper``
(N=40, 100 pairs, 2000 transmissions as in §3).

Two more knobs:

- ``REPRO_JOBS`` — process-pool width for the multi-seed sweeps.  It is
  read by :func:`repro.experiments.runner.default_n_jobs`, so every
  ``run_replicates`` / ``sweep`` call in the suite fans out over a
  process pool without per-benchmark plumbing (replicate results are
  bit-identical to the serial ones).
- ``REPRO_BENCH_JSON`` — when set (e.g. to ``BENCH_routing.json``), the
  pytest-benchmark machine-readable report is written there, for
  ``benchmarks/compare_bench.py`` to gate regressions against a stored
  baseline.

The report's ``machine_info`` also carries ``host_probe_s``: the best of
three timings of a fixed pure-Python loop, taken once per session.
``compare_bench.py`` divides wall-time ratios by the current/baseline
probe ratio, so a slower host does not read as a code regression.
"""

import os
import time

import pytest

#: Iterations of the host speed probe loop.
HOST_PROBE_LOOPS = 1_000_000


def preset() -> str:
    value = os.environ.get("REPRO_PRESET", "quick")
    if value not in ("quick", "paper"):
        raise ValueError(f"REPRO_PRESET must be 'quick' or 'paper', got {value!r}")
    return value


def n_seeds() -> int:
    return int(os.environ.get("REPRO_SEEDS", "3" if preset() == "quick" else "2"))


def n_jobs() -> int:
    from repro.experiments.runner import default_n_jobs

    return default_n_jobs()


def pytest_configure(config):
    # Route the pytest-benchmark JSON report to REPRO_BENCH_JSON unless
    # --benchmark-json was given explicitly on the command line.  The
    # plugin expects an open binary file (argparse FileType), not a path.
    path = os.environ.get("REPRO_BENCH_JSON")
    if path and not getattr(config.option, "benchmark_json", None):
        config.option.benchmark_json = open(path, "wb")


def host_probe_s() -> float:
    """Best-of-three wall seconds of a fixed pure-Python loop: how fast
    this host runs the interpreter."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(HOST_PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.hookimpl(optionalhook=True)
def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["host_probe_s"] = host_probe_s()


@pytest.fixture(scope="session")
def bench_preset():
    return preset()


@pytest.fixture(scope="session")
def bench_seeds():
    return n_seeds()


@pytest.fixture(scope="session")
def bench_jobs():
    """Replicate-sweep parallelism (``REPRO_JOBS``, default 1)."""
    return n_jobs()
