"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest -q perfbench/test_harness.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from gate import fail_ratio, fingerprint, load_digests, round_counts  # noqa: E402
from layers import (  # noqa: E402
    TARGETS,
    Span,
    SpanRecorder,
    originals_restored,
    scenario_layers,
    self_times,
    traced,
)
from run import median_over_worlds, passes  # noqa: E402
from workloads import (  # noqa: E402
    HELD_OUT_SEED,
    WORKLOADS,
    WORLDS,
    config_for,
    pool,
    scenario_seeds,
)

from repro.experiments.scenario import run_scenario  # noqa: E402

#: Scaled-down paper-u2l3: same layers, a fraction of the work.
SMALL = dict(n_pairs=6, total_transmissions=60)


def small_run(seed=0):
    return run_scenario(config_for("paper-u2l3", seed, **SMALL))


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  c [11, 12]
    spans = [
        Span("root", "L1", -1, 0.0, 10.0),
        Span("a", "L2", 0, 1.0, 4.0),
        Span("a1", "L3", 1, 2.0, 3.0),
        Span("b", "L2", 0, 5.0, 9.0),
        Span("c", "L1", -1, 11.0, 12.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times partition the time the root spans cover.
    assert sum(self_times(spans)) == 11.0


def test_recorder_nests_by_call_order():
    rec = SpanRecorder()
    outer = rec.open("outer", "L1")
    inner = rec.open("inner", "L2")
    rec.close(inner, ok=True)
    rec.close(outer, ok=False)
    assert [s.parent for s in rec.spans] == [-1, outer]
    assert [s.ok for s in rec.spans] == [False, True]
    own = self_times(rec.spans)
    assert own[0] == pytest.approx(rec.spans[0].duration - rec.spans[1].duration)


def test_traced_run_restores_every_attribute():
    originals = [owner.__dict__[attr] for owner, attr, _l, _k in TARGETS]
    before = fingerprint(small_run())
    rec = SpanRecorder()
    with traced(rec):
        assert not originals_restored()
        traced_result = small_run()
    assert [owner.__dict__[attr] for owner, attr, _l, _k in TARGETS] == originals
    assert originals_restored()
    assert fingerprint(traced_result) == before
    assert fingerprint(small_run()) == before
    layers = scenario_layers(rec.spans, traced_result)
    assert layers["core.protocol.build_round.calls"] > 0
    assert layers["scenario.untraced_s"] >= 0.0


def test_tracing_is_undone_when_the_run_raises():
    with pytest.raises(ZeroDivisionError):
        with traced(SpanRecorder()):
            1 / 0
    assert originals_restored()


def test_seed_argument_changes_the_fingerprint():
    assert scenario_seeds("paper-u2l3", 1) != scenario_seeds("paper-u2l3", 2)
    first = fingerprint(small_run(scenario_seeds("paper-u2l3", 1)[0]))
    again = fingerprint(small_run(scenario_seeds("paper-u2l3", 1)[0]))
    other = fingerprint(small_run(scenario_seeds("paper-u2l3", 2)[0]))
    assert first == again
    assert first != other


def test_every_world_a_run_can_visit_has_a_digest():
    digests = load_digests()
    for name in WORKLOADS:
        assert set(digests[name]) == set(pool(name))
        for seed in (0, 1, 2, 1000, HELD_OUT_SEED):
            assert set(scenario_seeds(name, seed)) <= set(pool(name))
        held_out = set(scenario_seeds(name, HELD_OUT_SEED))
        assert held_out.isdisjoint(scenario_seeds(name, 0))


def test_a_run_times_a_fixed_world_set_whatever_the_speed():
    for name in WORKLOADS:
        worlds = scenario_seeds(name, 5)
        assert len(set(worlds)) == WORLDS[name]
        assert scenario_seeds(name, 5) == worlds
    # No time left still visits every world once; more time only repeats them.
    assert list(passes([3, 1, 4], 0.0)) == [3, 1, 4]
    # Each world weighs the same, however many passes reached it.
    assert median_over_worlds({1: [1.0, 2.0, 3.0], 2: [10.0], 3: [4.0, 5.0]}) == 4.5


def test_fail_ratio_from_hand_built_result():
    series = [
        SimpleNamespace(rounds_completed=9, failed_rounds=1),
        SimpleNamespace(rounds_completed=7, failed_rounds=3),
        SimpleNamespace(rounds_completed=10, failed_rounds=0),
    ]
    result = SimpleNamespace(
        series_stats=series,
        series_settlements={1: {4: 2.0}, 2: {}, 3: {5: 1.0}},
        degradation={"settlements_failed": 1},
    )
    counts = round_counts(result)
    assert counts == {
        "attempted": 30,
        "completed": 26,
        "series": 3,
        "settlements_failed": 1,
    }
    # (30 - 26 + 1) / (30 + 3)
    assert fail_ratio(counts) == 5 / 33
    no_faults = SimpleNamespace(
        series_stats=series, series_settlements={1: {}}, degradation={}
    )
    assert fail_ratio(round_counts(no_faults)) == 4 / 31
