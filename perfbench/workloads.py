"""Benchmark workloads and the scenario seeds each run derives from ``--seed``.

Each workload is a batch: a fixed scenario run to completion through
``repro.experiments.scenario.run_scenario``.  There is no arrival
process, so neither an open nor a closed loop applies.

A workload has a pool of ``POOL[name]`` worlds, the scenario seeds
``0 .. POOL[name] - 1``.  A run with ``--seed s`` times a fixed set of
``WORLDS[name]`` of them, drawn from ``s``, so its figures are a median
over many worlds rather than resting on one world's path lengths and
churn draws.  The set does not depend on how fast the host or the
program is, so two builds are compared on the same inputs.  Every world
a run can visit has a committed fingerprint.  The held-out seed draws
from a second pool that no other seed reaches.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.experiments.config import ChurnConfig, ExperimentConfig, FaultConfig

WORKLOADS: Dict[str, ExperimentConfig] = {
    # Paper defaults: N=40, d=5, f=0.1, 100 pairs, 2000 transmissions,
    # churn on, bank on.
    "paper-u2l3": ExperimentConfig(strategy="utility-II", lookahead=3),
    "overlay-5k": ExperimentConfig(
        n_nodes=5000,
        n_pairs=8,
        total_transmissions=80,
        strategy="utility-II",
        lookahead=3,
        churn=ChurnConfig(enabled=False),
        use_bank=False,
    ),
    # The outage window (220, 300) covers the minutes in which the
    # 40-round series finish, so settlements defer and some fail.
    "churn-chaos": ExperimentConfig(
        n_nodes=200,
        n_pairs=100,
        total_transmissions=4000,
        strategy="utility-I",
        churn=ChurnConfig(session_median=20.0),
        faults=FaultConfig(
            hop_loss=0.05,
            forwarder_crash=0.02,
            probe_timeout=0.05,
            bank_outages=((220.0, 300.0),),
        ),
    ),
}

#: Worlds per workload pool.  Where worlds differ most from each other,
#: the pool is small next to a run's set, so that runs of different
#: seeds share most of their worlds: churn-chaos runs share at least 8
#: of 12.  On overlay-5k, one world's round rate is up to 1.7x
#: another's and a run holds only about 11 scenarios, so every
#: overlay-5k run times the whole pool and the seed sets the order.
POOL = {"paper-u2l3": 32, "overlay-5k": 8, "churn-chaos": 16}

#: Worlds one ``--trace 0`` run times.  One pass over them takes about
#: 17-19 s on the reference host, probes included, so a 30 s run
#: completes a pass on time on a host up to 1.5x slower.
WORLDS = {"paper-u2l3": 16, "overlay-5k": 8, "churn-chaos": 12}

#: Worlds one ``--trace 1`` run traces: the first of the run's worlds.
#: Each is run untraced and traced, after the observability pairs and
#: the scalar-reference run of the first world.
TRACED_WORLDS = {"paper-u2l3": 5, "overlay-5k": 2, "churn-chaos": 4}

#: The seed later claims must also hold on.  It draws its worlds from
#: ``POOL .. 2 * POOL - 1``, which no other seed visits.
HELD_OUT_SEED = 97

#: Workloads whose decisions must reach the batched kernels
#: (``kernel_calls > 0``); the rest must bypass them (``== 0``).
KERNEL_WORKLOADS = frozenset({"paper-u2l3", "overlay-5k"})


def scenario_seeds(name: str, seed: int) -> List[int]:
    """The scenario seeds one run of ``name`` with ``--seed seed`` times,
    in order: ``WORLDS[name]`` distinct worlds of the workload's pool."""
    size = POOL[name]
    base = size if seed == HELD_OUT_SEED else 0
    return [base + k for k in random.Random(seed).sample(range(size), WORLDS[name])]


def pool(name: str) -> List[int]:
    """Every scenario seed of ``name`` that some run can visit."""
    return list(range(2 * POOL[name]))


def config_for(name: str, scenario_seed: int, **overrides) -> ExperimentConfig:
    """The workload's config at one scenario seed."""
    return WORKLOADS[name].with_overrides(seed=scenario_seed, **overrides)
