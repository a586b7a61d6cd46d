"""Differential property suite: cone-local Model II kernels vs the scalar spec.

``BatchPlanner.decide_model2`` solves only the deciding node's L-hop
cone (or the whole state axis, when the cone would cover most of it)
and keeps every solved state for the later hops of the round.  Over
random worlds — N in [20, 400], degree 3-8, lookahead 1-4, with and
without position-aware selectivity, forced cone or forced whole-axis
sweeps — every decision must match the scalar reference, including
when the responder sits inside the cone, when liveness flips between
formation attempts, when availability moves between rounds and when
the topology changes under the shared array world.

Every example asserts ``kernel_calls > 0``, so the suite provably
reaches the kernels rather than the scalar fallback.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.contracts import Contract
from repro.core.costs import CostModel
from repro.core.edge_quality import QualityWeights
from repro.core.history import HistoryProfile
from repro.core.protocol import PathBuilder, PathFailure, TerminationPolicy
from repro.core.routing import ForwardingContext, UtilityModelII
from repro.network.bandwidth import BandwidthModel
from repro.network.overlay import Overlay
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.monitoring import PERF

#: ``CONE_WHOLE_AXIS_SHARE`` values drawn per example: always walk the
#: cone, the shipped rule, always sweep the whole axis.
SHARES = (0, kernels.CONE_WHOLE_AXIS_SHARE, 10**9)


@contextmanager
def whole_axis_share(share):
    saved = kernels.CONE_WHOLE_AXIS_SHARE
    kernels.CONE_WHOLE_AXIS_SHARE = share
    try:
        yield
    finally:
        kernels.CONE_WHOLE_AXIS_SHARE = saved


def make_world(seed, n, degree, history_rounds=6):
    rng = np.random.default_rng(seed)
    ov = Overlay(rng=rng, degree=degree)
    ov.bootstrap(n)
    histories = {nid: HistoryProfile(nid) for nid in ov.nodes}
    for _, node in sorted(ov.nodes.items()):
        for _, view in sorted(node.neighbors.items()):
            view.session_time = float(rng.uniform(0.0, 60.0))
    for nid, history in sorted(histories.items()):
        nbrs = ov.nodes[nid].neighbor_ids()
        if not nbrs:
            continue
        for rnd in range(1, history_rounds + 1):
            if rng.random() < 0.6:
                # Predecessors drawn from the neighbour set, so the
                # position-aware columns see real (pred, succ) hits.
                history.record(
                    1,
                    rnd,
                    predecessor=int(rng.choice(nbrs)),
                    successor=int(rng.choice(nbrs)),
                )
    return ov, histories


def responder_in_cone(ov, initiator):
    """A node two hops from the initiator: inside every L>=2 cone of the
    first decision, so the responder exclusion shapes the induction."""
    for nbr in ov.nodes[initiator].neighbor_ids():
        for far in ov.nodes[nbr].neighbor_ids():
            if far != initiator:
                return far
    return max(i for i in ov.nodes if i != initiator)


def context(ov, histories, backend, responder, round_index, position_aware, seed):
    return ForwardingContext(
        cid=1,
        round_index=round_index,
        contract=Contract.from_tau(60.0, 2.0),
        responder=responder,
        overlay=ov,
        cost_model=CostModel(bandwidth=BandwidthModel(rng=np.random.default_rng(seed))),
        histories=histories,
        rng=np.random.default_rng(0),
        weights=QualityWeights(),
        backend=backend,
        position_aware_selectivity=position_aware,
        kernel_crossover=False,
    )


def walk(strategy, ov, ctx, initiator, hops):
    """Greedy hop-by-hop walk through one context: every hop is one
    decision, and later hops reuse the round's solved cones."""
    node, pred, out = initiator, None, []
    for _ in range(hops):
        nxt = strategy.select_next_hop(ov.nodes[node], pred, ctx)
        out.append(nxt)
        if nxt is None:
            break
        node, pred = nxt, node
    return out


WORLD = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=20, max_value=400),
    degree=st.integers(min_value=3, max_value=8),
    lookahead=st.integers(min_value=1, max_value=4),
    position_aware=st.booleans(),
    share=st.sampled_from(SHARES),
)


@settings(max_examples=30, deadline=None)
@given(**WORLD)
def test_cone_decisions_match_scalar(seed, n, degree, lookahead, position_aware, share):
    """Decision by decision through one round's context, with a
    liveness flip between two formation attempts of the round."""
    if degree**lookahead > 1500:
        lookahead -= 1  # keep the scalar reference's tree affordable
    ov, histories = make_world(seed, n, degree)
    initiator = min(ov.nodes)
    responder = responder_in_cone(ov, initiator)
    strategy = UtilityModelII(lookahead=lookahead)
    ctxs = {
        backend: context(ov, histories, backend, responder, 7, position_aware, seed)
        for backend in ("python", "numpy")
    }
    before = PERF.snapshot()
    with whole_axis_share(share):
        walks = {}
        for backend, ctx in ctxs.items():
            ctx.begin_attempt()
            walks[backend] = walk(strategy, ov, ctx, initiator, hops=3)
        assert walks["python"] == walks["numpy"]
        # The first hop crashes: the next attempt re-plans without it.
        victim = walks["python"][0]
        if victim is not None:
            ov.leave(victim, now=1.0)
        for backend, ctx in ctxs.items():
            ctx.begin_attempt()
            walks[backend] = walk(strategy, ov, ctx, initiator, hops=3)
        assert walks["python"] == walks["numpy"]
        assert victim is None or victim not in walks["numpy"]
    assert PERF.delta_since(before)["kernel_calls"] > 0


def build_rounds(backend, seed, n, degree, lookahead, position_aware):
    """Rounds through one builder per backend: crashes flip liveness
    between attempts, and between rounds one node's availability moves
    and another gains a neighbour (a topology change).  Round 3 is built
    twice, with the initiator's availability moved in between, as a
    retry after a failure would."""
    ov, histories = make_world(seed, n, degree)
    initiator = min(ov.nodes)
    responder = responder_in_cone(ov, initiator)
    fault_rng = np.random.default_rng(seed + 2)
    injector = FaultInjector(plan=FaultPlan(forwarder_crash=0.15), rng=fault_rng)
    # The initiator stays up, so every round reaches a decision (and the
    # world notices the topology change below).
    injector.on_crash = (
        lambda nid: ov.leave(nid, now=1.0)
        if ov.is_online(nid) and nid != initiator
        else None
    )
    builder = PathBuilder(
        overlay=ov,
        cost_model=CostModel(bandwidth=BandwidthModel(rng=np.random.default_rng(seed))),
        histories=histories,
        rng=np.random.default_rng(seed + 1),
        good_strategy=UtilityModelII(lookahead=lookahead),
        termination=TerminationPolicy.crowds(0.6),
        backend=backend,
        position_aware=position_aware,
        kernel_crossover=False,
        fault_injector=injector,
    )
    events = np.random.default_rng(seed + 3)
    built = []
    for rnd in (1, 2, 3, 3, 4, 5):
        try:
            path = builder.build_round(
                cid=1,
                round_index=rnd,
                initiator=initiator,
                responder=responder,
                contract=Contract.from_tau(60.0, 2.0),
            )
            built.append(path.forwarders)
        except PathFailure as exc:
            built.append(repr(exc))
        ids = sorted(ov.nodes)
        node = ov.nodes[ids[int(events.integers(len(ids)))]]
        if node.neighbors:
            node.credit_session_time(node.neighbor_ids()[0], 45.0)
        if rnd == 3:
            start = ov.nodes[initiator]
            start.credit_session_time(start.neighbor_ids()[-1], 500.0)
        if rnd == 2:
            grower = ov.nodes[initiator]
            new = next(i for i in ids if i not in grower.neighbors and i != initiator)
            grower.add_neighbor(new, initial_session_time=20.0)
    return built, builder


@settings(max_examples=15, deadline=None)
@given(**WORLD)
def test_cone_rounds_match_scalar(seed, n, degree, lookahead, position_aware, share):
    if degree**lookahead > 1500:
        lookahead -= 1
    with whole_axis_share(share):
        scalar, _ = build_rounds("python", seed, n, degree, lookahead, position_aware)
        before = PERF.snapshot()
        batched, builder = build_rounds("numpy", seed, n, degree, lookahead, position_aware)
        kernel_calls = PERF.delta_since(before)["kernel_calls"]
    assert scalar == batched
    assert kernel_calls > 0
    # The neighbour added after round 2 rebuilt the shared array world.
    assert builder._world.generation >= 2
