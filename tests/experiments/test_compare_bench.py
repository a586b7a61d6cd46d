"""Exact work-counter gate and host-relative wall-time gate of
``benchmarks/compare_bench.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _PATH)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

LADDER = "benchmarks/test_perf_scenario.py::test_perf_scale_ladder[5000-numpy]"
THROUGHPUT = "benchmarks/test_perf_scenario.py::test_perf_scenario_throughput[utility-I]"


def report(mean=1.0, probe=None, **extra):
    stats = dict(min=mean, max=mean, mean=mean, stddev=0.0, median=mean, rounds=2, iterations=1)
    ladder = dict(stats, extra_info=dict(simulate_s=mean, **extra))
    data = {
        "schema": compare_bench.COMPACT_SCHEMA,
        "benchmarks": {LADDER: ladder, THROUGHPUT: dict(stats)},
    }
    if probe is not None:
        data["machine"] = {"host_probe_s": probe}
    return data


BASE = dict(edges_scored=165385, spne_states_swept=40591)


def gate(tmp_path, current, baseline=None, *flags):
    paths = []
    for name, data in (("report", current), ("baseline", baseline or report(**BASE))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(path)
    return compare_bench.main([str(paths[0]), "--baseline", str(paths[1]), *flags])


def test_matching_counters_pass(tmp_path, capsys):
    # Timings and simulate_s may move freely within the threshold.
    assert gate(tmp_path, report(mean=1.1, **BASE)) == 0
    assert "work counters match" in capsys.readouterr().out


@pytest.mark.parametrize("counter", sorted(BASE))
def test_mismatching_counter_fails_whatever_the_threshold(tmp_path, capsys, counter):
    changed = dict(BASE, **{counter: BASE[counter] - 1})
    # Faster, a generous threshold, and the ladder outside --gate-match:
    # the exact gate still fails.
    flags = ("--threshold", "10", "--gate-match", "throughput")
    assert gate(tmp_path, report(mean=0.5, **changed), None, *flags) == 1
    err = capsys.readouterr().err
    assert f"{counter} {BASE[counter]} -> {BASE[counter] - 1}" in err


def test_missing_counter_fails(tmp_path, capsys):
    assert gate(tmp_path, report(edges_scored=BASE["edges_scored"])) == 1
    assert "spne_states_swept 40591 -> missing" in capsys.readouterr().err


def test_counter_absent_from_baseline_is_not_gated(tmp_path):
    # A benchmark newly recording a counter has nothing to match yet.
    assert gate(tmp_path, report(**BASE), report()) == 0


def test_work_counters_survive_compaction():
    full = {
        "benchmarks": [
            {
                "fullname": LADDER,
                "stats": report()["benchmarks"][THROUGHPUT],
                "extra_info": dict(setup_s=0.2, **BASE),
            }
        ]
    }
    compact = compare_bench.to_compact(full)
    assert compare_bench.work_counters(compact) == {LADDER: BASE}


def test_slower_host_probe_scales_the_wall_gate(tmp_path, capsys):
    # 1.3x slower code on a host whose probe is 1.3x slower: no regression.
    current = report(mean=1.3, probe=0.13, **BASE)
    assert gate(tmp_path, current, report(probe=0.10, **BASE)) == 0
    assert "host probe: current/baseline = 1.300" in capsys.readouterr().out


def test_equal_host_probe_still_fails_a_slowdown(tmp_path, capsys):
    current = report(mean=1.3, probe=0.10, **BASE)
    assert gate(tmp_path, current, report(probe=0.10, **BASE)) == 1
    assert "regressed more than 20%" in capsys.readouterr().err


def test_baseline_without_probe_compares_unscaled(tmp_path, capsys):
    current = report(mean=1.3, probe=0.13, **BASE)
    assert gate(tmp_path, current, report(**BASE)) == 1
    out = capsys.readouterr().out
    assert "host probe" not in out
    assert "( 1.30x)" in out
    assert gate(tmp_path, report(mean=1.1, probe=0.13, **BASE), report(**BASE)) == 0


def test_host_probe_survives_compaction():
    full = {
        "machine_info": {"host_probe_s": 0.12},
        "benchmarks": [{"fullname": THROUGHPUT, "stats": report()["benchmarks"][THROUGHPUT]}],
    }
    compact = compare_bench.to_compact(full)
    assert compare_bench.host_scale(compact, report(probe=0.10)) == pytest.approx(1.2)
    assert compare_bench.host_scale(compact, report()) == 1.0
