"""Differential suite: lazy probe credits vs crediting at sweep time.

A steady-state probe sweep (:func:`fast_full_sweep`) appends one
``(period, now)`` entry to the overlay's credit log and writes no view.
Each node replays its pending entries the first time one of its counters
is read or written, and :class:`WorldArrays` applies them to its session
mirror without touching the nodes.  ``eager_full_sweep`` below is the
sweep as it was before the log: it writes every view at sweep time.
``eager_probe_round`` is the per-node round as it was before block draws:
one fault-stream draw per probe attempt and one credit per live probe.

Driven over random histories on twin overlays with the same seed, every
counter, ``last_seen`` stamp, availability vector and refreshed
``alpha_flat`` slice must be bit-identical, and the fault, probe and
discovery streams must end in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.sybil import SybilColony
from repro.core.kernels import WorldArrays
from repro.network.node import NodeState
from repro.network.overlay import Overlay
from repro.network.probing import fast_full_sweep, run_probe_round
from repro.obs.events import EventBus
from repro.sim.faults import FaultInjector, FaultPlan, RetryPolicy

PERIOD = 5.0


def eager_full_sweep(overlay, period, now):
    """The fast sweep before the credit log: every view written now."""
    nodes = overlay.nodes
    if not nodes or overlay.online_count() != len(nodes):
        return None
    for node in nodes.values():
        if len(node.neighbors) < node.degree:
            return None
    alive = 0
    for node in nodes.values():
        views = node.neighbors.values()
        for view in views:
            view._session_time += period
            view._last_seen = now
        alive += len(views)
        node._invalidate_availability()
    return {"alive": alive, "dead": 0, "replaced": 0, "timed_out": 0,
            "probed": len(nodes)}


def eager_probe_alive(injector, retry, bus, prober_id, neighbor):
    if not injector.probe_times_out():
        return True
    if retry is not None:
        for _ in range(retry.max_retries):
            injector.stats.probe_retries += 1
            if bus is not None:
                bus.emit("probe.retry", node=neighbor, prober=prober_id)
            if not injector.probe_times_out():
                return True
    if bus is not None:
        bus.emit("probe.timeout", node=neighbor, prober=prober_id)
    return False


def eager_probe_round(overlay, node_id, period, rng, now, injector, retry, bus):
    """The per-node round before block draws (either fault setting)."""
    node = overlay.nodes[node_id]

    def replace_one(nbr_id):
        node.remove_neighbor(nbr_id)
        candidate = overlay.random_online_peer(exclude=(node_id, *node.neighbors))
        if candidate is None:
            return 0
        node.add_neighbor(candidate, initial_session_time=float(rng.uniform(0.0, period)))
        return 1

    alive = dead = replaced = timed_out = 0
    for nbr_id in list(node.neighbors):
        if overlay.is_online(nbr_id) and (
            injector is None
            or eager_probe_alive(injector, retry, bus, node_id, nbr_id)
        ):
            node.credit_session_time(nbr_id, period, now=now)
            alive += 1
        else:
            if overlay.is_online(nbr_id):
                timed_out += 1
            dead += 1
            replaced += replace_one(nbr_id)
    while len(node.neighbors) < node.degree:
        candidate = overlay.random_online_peer(exclude=(node_id, *node.neighbors))
        if candidate is None:
            break
        node.add_neighbor(candidate, initial_session_time=float(rng.uniform(0.0, period)))
        replaced += 1
    return {"alive": alive, "dead": dead, "replaced": replaced, "timed_out": timed_out}


def lazy_round(overlay, node_id, period, rng, now, injector, retry, bus):
    return run_probe_round(
        overlay, node_id, period, rng, now,
        fault_injector=injector, retry=retry, bus=bus,
    )


class Side:
    """One twin: overlay, streams, fault injector, bus and Sybil colony."""

    def __init__(self, seed, n, degree, timeout):
        self.overlay = Overlay(rng=np.random.default_rng(seed), degree=degree)
        self.overlay.bootstrap(n)
        self.probe_rng = np.random.default_rng(seed + 1)
        self.bus = EventBus()
        self.injector = FaultInjector(
            plan=FaultPlan(probe_timeout=timeout),
            rng=np.random.default_rng(seed + 2),
            bus=self.bus,
        )
        self.colony = SybilColony(overlay=self.overlay, histories={})

    def streams(self):
        return (
            self.overlay.rng.bit_generator.state,
            self.probe_rng.bit_generator.state,
            self.injector.rng.bit_generator.state,
            self.injector.stats.probe_timeouts,
            self.injector.stats.probe_retries,
            [(e.kind, e.node, dict(e.data)) for e in self.bus.events],
        )


def bits(values):
    return [float(v).hex() for v in values]


def views_of(overlay):
    """Every view's state, read through the public properties."""
    return {
        nid: [(v.node_id, float(v.session_time).hex(), v.last_seen)
              for v in node.neighbors.values()]
        for nid, node in overlay.nodes.items()
    }


def expected_alpha(node):
    av = node.availability_vector()
    return bits(av[j] for j in sorted(node.neighbors))


def check_alpha(world, eager, node_ids):
    for nid in node_ids:
        start = world.starts[nid]
        got = world.alpha_flat[start : start + len(world.nbr_lists[nid])]
        assert bits(got) == expected_alpha(eager.nodes[nid])


OPS = ("sweep", "sweep", "round", "leave", "join", "add", "remove", "set",
       "write", "stamp", "last_seen", "sybil", "refresh", "refresh_whole", "check")


def test_lazy_credits_match_eager_crediting():
    reached = {"fast_sweeps": 0, "gathers": 0, "resyncs": 0, "settled_reads": 0,
               "cold_pending": 0}

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(3, 14),
        degree=st.integers(1, 4),
        timeout=st.sampled_from((0.0, 0.3, 0.7)),
        data=st.data(),
    )
    def run(seed, n, degree, timeout, data):
        lazy, eager = (Side(seed, n, degree, timeout) for _ in range(2))
        world = WorldArrays(lazy.overlay)
        retry = RetryPolicy(max_retries=data.draw(st.integers(0, 3), label="retries"))
        now = 0.0
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            now += PERIOD
            op = data.draw(st.sampled_from(OPS), label="op")
            ids = sorted(lazy.overlay.nodes)
            nid = data.draw(st.sampled_from(ids), label="node")
            lnode, enode = lazy.overlay.nodes[nid], eager.overlay.nodes[nid]
            nbrs = list(enode.neighbors)
            if op == "sweep":
                got = fast_full_sweep(lazy.overlay, PERIOD, now)
                assert got == eager_full_sweep(eager.overlay, PERIOD, now)
                reached["fast_sweeps"] += got is not None
            elif op == "round":
                faulty = data.draw(st.booleans(), label="faulty")
                stats = [
                    probe(side.overlay, nid, PERIOD, side.probe_rng, now,
                          side.injector if faulty else None, retry, side.bus)
                    for probe, side in ((lazy_round, lazy), (eager_probe_round, eager))
                ]
                assert stats[0] == stats[1]
            elif op in ("leave", "join"):
                want = NodeState.ONLINE if op == "leave" else NodeState.OFFLINE
                if enode.state is want:
                    for side in (lazy, eager):
                        getattr(side.overlay, op)(nid, now)
            elif op == "add":
                new = data.draw(st.integers(0, max(ids) + 2), label="new")
                if new != nid and new not in enode.neighbors:
                    t = data.draw(st.floats(0.0, PERIOD), label="t0")
                    for node in (lnode, enode):
                        node.add_neighbor(new, initial_session_time=t)
            elif op == "remove" and nbrs:
                gone = data.draw(st.sampled_from(nbrs), label="gone")
                for node in (lnode, enode):
                    node.remove_neighbor(gone)
            elif op == "set":
                fresh = data.draw(
                    st.lists(st.sampled_from(ids), unique=True, max_size=degree + 1),
                    label="fresh",
                )
                fresh = [j for j in fresh if j != nid]
                for node in (lnode, enode):
                    node.set_neighbors(fresh)
            elif op == "write" and nbrs:
                j = data.draw(st.sampled_from(nbrs), label="written")
                value = data.draw(st.floats(0.0, 500.0), label="value")
                for node in (lnode, enode):
                    node.neighbors[j].session_time = value
            elif op == "stamp" and nbrs:
                j = data.draw(st.sampled_from(nbrs), label="stamped")
                for node in (lnode, enode):
                    node.neighbors[j].last_seen = now - 1.0
            elif op == "last_seen" and nbrs:
                j = data.draw(st.sampled_from(nbrs), label="seen")
                pending = lnode._credit_mark != len(lnode._credit_log)
                assert lnode.neighbors[j].last_seen == enode.neighbors[j].last_seen
                reached["settled_reads"] += pending
            elif op == "sybil":
                count = data.draw(st.integers(1, 3), label="cohort")
                for side in (lazy, eager):
                    side.colony.spawn_cohort(count, now)
            elif op == "refresh":
                world.ensure_fresh()
                owners = world.owners.tolist()
                if owners:
                    chosen = data.draw(
                        st.lists(st.sampled_from(owners), min_size=1, unique=True),
                        label="refreshed",
                    )
                    world.refresh_alpha(chosen)
                    check_alpha(world, eager.overlay, chosen)
            elif op == "refresh_whole":
                # A cold mirror built now: its rows come from nodes whose
                # credit-log entries may still be pending.
                reached["cold_pending"] += any(
                    node._credit_mark != len(node._credit_log)
                    for node in lazy.overlay.nodes.values()
                )
                cold = WorldArrays(lazy.overlay)
                cold.ensure_fresh()
                owners = cold.owners.tolist()
                if owners:
                    cold.refresh_alpha(owners)
                    check_alpha(cold, eager.overlay, owners)
                reached["gathers"] += cold.alpha_gathers
                reached["resyncs"] += cold.row_resyncs
            elif op == "check":
                assert views_of(lazy.overlay) == views_of(eager.overlay)
            # The drawn node's slice, refreshed before its counters are
            # read on the lazy side, so the mirror sees it unsettled.
            world.ensure_fresh()
            if nid < world.size and world.deg[nid]:
                world.refresh_alpha([nid])
                check_alpha(world, eager.overlay, [nid])
            assert lnode.availability_vector() == enode.availability_vector()
            assert lazy.streams() == eager.streams()
        assert views_of(lazy.overlay) == views_of(eager.overlay)
        for lnode in lazy.overlay.nodes.values():
            enode = eager.overlay.nodes[lnode.node_id]
            assert bits(lnode.availability_vector().values()) == bits(
                enode.availability_vector().values()
            )
        world.ensure_fresh()
        world.refresh_alpha(world.owners.tolist())
        check_alpha(world, eager.overlay, world.owners.tolist())
        reached["gathers"] += world.alpha_gathers
        reached["resyncs"] += world.row_resyncs

    run()
    assert all(count > 0 for count in reached.values()), reached


def test_sweep_settles_no_node_until_read():
    overlay = Overlay(rng=np.random.default_rng(7), degree=3)
    overlay.bootstrap(20)
    before = {nid: [v._session_time for v in node.neighbors.values()]
              for nid, node in overlay.nodes.items()}
    for k in range(3):
        assert fast_full_sweep(overlay, PERIOD, PERIOD * (k + 1)) is not None
    assert len(overlay._credit_log) == 3
    for nid, node in overlay.nodes.items():
        assert node._credit_mark == 0
        assert [v._session_time for v in node.neighbors.values()] == before[nid]
    reader = overlay.nodes[4]
    view = next(iter(reader.neighbors.values()))
    assert view.session_time == before[4][0] + PERIOD + PERIOD + PERIOD
    assert view.last_seen == 3 * PERIOD
    assert reader._credit_mark == 3
    assert all(node._credit_mark == 0 for nid, node in overlay.nodes.items() if nid != 4)


def test_sweep_moves_every_version_once_and_keeps_cache_stamps():
    overlay = Overlay(rng=np.random.default_rng(3), degree=2)
    overlay.bootstrap(6)
    node = overlay.nodes[0]
    first = node.availability_vector()
    version = node.availability_version
    assert node.availability_vector() is first
    fast_full_sweep(overlay, PERIOD, PERIOD)
    assert all(n.availability_version == n._avail_mutations + 1
               for n in overlay.nodes.values())
    assert node.availability_version == version + 1
    assert node.availability_vector() is not first


def test_sweep_declines_node_not_sharing_the_log():
    overlay = Overlay(rng=np.random.default_rng(5), degree=2)
    overlay.bootstrap(5)
    stranger = overlay.nodes[2]
    stranger._credit_log = []
    assert fast_full_sweep(overlay, PERIOD, PERIOD) is None
    assert overlay._credit_log == []
