"""Performance benchmark: simulator throughput.

Unlike the figure/table regenerators (which use ``pedantic`` single
runs), this benchmark times a standard scenario properly over several
rounds, so regressions in the routing hot path (edge scoring, probing,
heap churn) show up in CI history.  The workload is a mid-size slice of
the §3 configuration, timed under each routing strategy — ``utility-II``
is the one the fast-path caches (indexed selectivity, cached
availability, shared SPNE memo) accelerate the most.
"""


import pytest

from repro.core.kernels import BACKENDS, default_backend
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.scenario import run_scenario

CFG = ExperimentConfig(
    seed=123,
    n_nodes=40,
    n_pairs=25,
    total_transmissions=500,
    strategy="utility-I",
    use_bank=False,  # time the simulation core, not RSA
)

#: Unpinned variants run on the resolved default — numpy since the flip —
#: so "utility-II-L3" now *is* the batched-kernel number the trajectory
#: gate watches.  The ``-python`` lane pins the scalar executable spec
#: for the ratio (informational, not gated in CI).
STRATEGY_OVERRIDES = {
    "utility-I": {},
    "utility-II": {"strategy": "utility-II", "lookahead": 2},
    "utility-II-L3": {"strategy": "utility-II", "lookahead": 3},
    "utility-II-L3-python": {
        "strategy": "utility-II", "lookahead": 3, "backend": "python",
    },
}


@pytest.mark.parametrize("variant", sorted(STRATEGY_OVERRIDES))
def test_perf_scenario_throughput(benchmark, variant):
    overrides = STRATEGY_OVERRIDES[variant]
    cfg = CFG.with_overrides(**overrides)
    result = benchmark(run_scenario, cfg)
    # Guard against silent workload shrinkage making the timing
    # meaningless: the run must actually have done the work.
    completed = sum(s.rounds_completed for s in result.series_stats)
    assert completed >= 0.9 * CFG.n_pairs * CFG.rounds_per_pair
    # And the intended scoring machinery must actually be in play.  On
    # the numpy lanes what that means depends on the small-world
    # crossover: utility-II at n=40 batches through the kernels, while
    # utility-I's degree-5 candidate sets stay on the scalar path by
    # design (the heuristic's whole point) — so the former must tick
    # kernel counters and the latter must not.
    backend = overrides.get("backend") or default_backend()
    strategy = overrides.get("strategy", CFG.strategy)
    if backend == "numpy" and strategy == "utility-II":
        assert result.perf_counters["kernel_calls"] > 0
    else:
        assert result.perf_counters["kernel_calls"] == 0
        assert result.perf_counters["selectivity_queries"] > 0
        if strategy != "utility-I":
            assert result.perf_counters["edge_quality_cache_hits"] > 0


def test_perf_scenario_with_bank(benchmark):
    cfg = CFG.with_overrides(use_bank=True)
    result = benchmark.pedantic(run_scenario, args=(cfg,), rounds=3, iterations=1)
    assert result.bank_audit_ok


# ---------------------------------------------------------------------------
# Scale ladder: utility-II L3 at 40, 500 and 5000 nodes, both backends
# ---------------------------------------------------------------------------

#: One workload, three overlay sizes.  Churn and the bank are off so the
#: simulate phase is routing plus probing; the pair count stays fixed, so
#: a decision's cost is what changes with the rung.
LADDER_CFG = ExperimentConfig(
    seed=123,
    n_pairs=8,
    total_transmissions=80,
    strategy="utility-II",
    lookahead=3,
    use_bank=False,
    churn=ChurnConfig(enabled=False),
)

#: Exact work per (rung, backend): (edges_scored, spne_states_swept).
#: Deterministic, so any change to how much either backend scores or
#: solves shows here, whatever the host's speed.
LADDER_WORK = {
    (40, "python"): (14009, 28227),
    (40, "numpy"): (15200, 45600),
    (500, "python"): (90996, 37703),
    (500, "numpy"): (91310, 32044),
    (5000, "python"): (165352, 41181),
    (5000, "numpy"): (165385, 40591),
}

_ladder_paths = {}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_nodes", [40, 500, 5000])
def test_perf_scale_ladder(benchmark, n_nodes, backend):
    cfg = LADDER_CFG.with_overrides(n_nodes=n_nodes, backend=backend)
    simulate, setup = [], []

    def run():
        result = run_scenario(cfg)
        simulate.append(result.phase_timings["simulate"])
        setup.append(result.phase_timings["setup"])
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    perf = result.perf_counters
    work = (perf["edges_scored"], perf["spne_states_swept"])
    benchmark.extra_info.update(
        simulate_s=min(simulate),
        # Informational (overlay bootstrap dominates it at 5000 nodes);
        # not gated.
        setup_s=min(setup),
        edges_scored=work[0],
        spne_states_swept=work[1],
    )
    assert work == LADDER_WORK[(n_nodes, backend)]
    assert (perf["kernel_calls"] > 0) == (backend == "numpy")
    # Both backends must route every rung identically.
    paths = [tuple(p.nodes) for log in result.series_logs for p in log.paths]
    other = _ladder_paths.setdefault(n_nodes, paths)
    assert paths == other
