"""Differential suite: the sorted membership index vs the pool-array sampler.

``Overlay`` keeps its online ids sorted as membership changes, and
``sample_peers`` draws pool *positions* with ``rng.choice(pool_size)``
and maps each past the excluded ids.  ``ReferenceOverlay`` below is the
earlier discovery service: it rebuilds the sorted online pool from the
online set on every call, masks the excluded ids out and draws from the
pool array itself, and its ``bootstrap`` joins every node (installing
the join-time neighbour draw) before rewiring them all.

Driven over random membership histories on twin overlays with the same
seed, the two must pick the same peers, raise the same errors, wire the
same neighbour sets and leave the generator in the same state.

A single pick draws one bounded integer instead of calling
``Generator.choice``; ``ChoiceOverlay`` keeps ``choice`` for every ``k``
so the two can be compared on pools far too large to build.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.sybil import SybilColony
from repro.network.node import NodeState
from repro.network.overlay import Overlay


class ReferenceOverlay(Overlay):
    """Overlay whose discovery rebuilds and masks the whole online pool."""

    def sample_peers(self, k, exclude=None):
        banned = set(exclude or ())
        pool = np.fromiter(self._online, dtype=np.int64, count=len(self._online))
        pool.sort()
        if banned:
            ban = np.fromiter(sorted(banned), dtype=np.int64, count=len(banned))
            pos = np.searchsorted(pool, ban)
            in_range = pos < pool.size
            pos = pos[in_range]
            present = pool[pos] == ban[in_range]
            if present.any():
                keep = np.ones(pool.size, dtype=bool)
                keep[pos[present]] = False
                pool = pool[keep]
        if pool.size < k:
            raise ValueError(f"cannot sample {k} peers from pool of {pool.size}")
        return self.rng.choice(pool, size=k, replace=False).tolist()

    def online_ids(self):
        return sorted(self._online)

    def bootstrap(self, n, now=0.0, malicious_fraction=0.0, participation_cost=1.0):
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        created = [
            self.spawn_node(participation_cost=participation_cost) for _ in range(n)
        ]
        n_bad = int(round(malicious_fraction * n))
        for node in self.rng.choice(created, size=n_bad, replace=False):
            node.malicious = True
        for node in created:
            self.join(node.node_id, now)
        wanted = min(self.degree, len(self._online) - 1)
        for node in created:
            node.set_neighbors(self.sample_peers(wanted, exclude={node.node_id}))
        return created


class ChoiceOverlay(Overlay):
    """Overlay whose discovery draws every pick with ``Generator.choice``,
    single picks included (the index, mapping and errors are shared)."""

    def sample_peers(self, k, exclude=None):
        ids = self._online_sorted
        skips = sorted(
            bisect.bisect_left(ids, x) for x in set(exclude or ()) if x in self._online
        )
        pool = len(ids) - len(skips)
        if pool < k:
            raise ValueError(f"cannot sample {k} peers from pool of {pool}")
        shifted = [pos - j for j, pos in enumerate(skips)]
        picks = self.rng.choice(pool, size=k, replace=False).tolist()
        return [ids[p + bisect.bisect_right(shifted, p)] for p in picks]


class CountingOverlay(Overlay):
    """The overlay under test, counting how often its sampler ran."""

    def __post_init__(self):
        super().__post_init__()
        self.sampled = 0

    def sample_peers(self, k, exclude=None):
        self.sampled += 1
        return super().sample_peers(k, exclude=exclude)


def twins(seed, degree):
    return (
        CountingOverlay(rng=np.random.default_rng(seed), degree=degree),
        ReferenceOverlay(rng=np.random.default_rng(seed), degree=degree),
    )


def outcome(fn):
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("error", str(exc))


def snapshot(ov):
    return (
        ov.online_ids(),
        {nid: (node.state, node.malicious, sorted(node.neighbors))
         for nid, node in ov.nodes.items()},
        [(e.time, e.kind, e.node_id) for e in ov.trace.events],
        ov.rng.bit_generator.state,
    )


def assert_twins_agree(new, ref):
    assert new._online_sorted == sorted(new._online)
    assert snapshot(new) == snapshot(ref)


OPS = ("bootstrap", "join", "leave", "depart", "spawn_join", "sybil", "sample", "one")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, 8),
    data=st.data(),
)
def test_index_and_sampler_match_pool_array_reference(seed, degree, data):
    new, ref = twins(seed, degree)
    colonies = (SybilColony(overlay=new, histories={}), SybilColony(overlay=ref, histories={}))
    now = 0.0
    bootstrapped = False
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        now += 1.0
        op = data.draw(st.sampled_from(OPS), label="op")
        by_state = {
            state: sorted(nid for nid, n in new.nodes.items() if n.state is state)
            for state in NodeState
        }
        if op == "bootstrap":
            n = data.draw(st.integers(2, 30), label="n")
            frac = data.draw(st.sampled_from((0.0, 0.1, 0.5)), label="frac")
            before = new.sampled
            for ov in (new, ref):
                ov.bootstrap(n, now=now, malicious_fraction=frac)
            # At least the final rewire of every new node went through it.
            assert new.sampled - before >= n
            bootstrapped = True
        elif op in ("join", "leave", "depart"):
            pool = {
                "join": by_state[NodeState.OFFLINE],
                "leave": by_state[NodeState.ONLINE],
                "depart": by_state[NodeState.ONLINE] + by_state[NodeState.OFFLINE],
            }[op]
            if not pool:
                continue
            nid = data.draw(st.sampled_from(pool), label=op)
            for ov in (new, ref):
                getattr(ov, op)(nid, now)
        elif op == "spawn_join":
            for ov in (new, ref):
                ov.join(ov.spawn_node().node_id, now)
        elif op == "sybil":
            if not bootstrapped:
                continue
            count = data.draw(st.integers(1, 4), label="cohort")
            for colony in colonies:
                colony.spawn_cohort(count, now)
        else:
            issued = new.id_space()
            exclude = data.draw(
                st.lists(
                    st.one_of(
                        st.sampled_from(by_state[NodeState.ONLINE] or [0]),
                        st.integers(0, max(issued - 1, 0)),
                        st.integers(issued, issued + 5),
                        st.integers(-3, -1),
                    ),
                    max_size=8,
                ),
                label="exclude",
            )
            if op == "sample":
                k = data.draw(st.integers(0, 6), label="k")
                got = [outcome(lambda ov=ov: ov.sample_peers(k, exclude=exclude))
                       for ov in (new, ref)]
            else:
                got = [ov.random_online_peer(exclude=exclude) for ov in (new, ref)]
            assert got[0] == got[1]
        assert_twins_agree(new, ref)
    assert outcome(lambda: new.sample_peers(1)) == outcome(lambda: ref.sample_peers(1))
    assert_twins_agree(new, ref)
    assert new.sampled > 0


def test_sampler_raises_same_error_when_pool_too_small():
    new, ref = twins(3, 5)
    for ov in (new, ref):
        ov.bootstrap(4)
    for ov in (new, ref):
        with pytest.raises(ValueError, match="cannot sample 4 peers from pool of 3"):
            ov.sample_peers(4, exclude={0, 99})
    assert_twins_agree(new, ref)


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("n", [2, 3, 5, 6, 40, 500])
def test_bootstrap_matches_join_then_rewire(n, degree):
    """One join-time draw per node, then the final rewire: same stream."""
    for frac in (0.0, 0.3):
        new, ref = twins(n * 31 + degree, degree)
        for ov in (new, ref):
            ov.bootstrap(n, malicious_fraction=frac)
        assert_twins_agree(new, ref)
        wanted = min(degree, n - 1)
        assert all(len(node.neighbors) == wanted for node in new.nodes.values())
        # A second bootstrap on the populated overlay joins into it.
        for ov in (new, ref):
            ov.bootstrap(3, now=1.0)
        assert_twins_agree(new, ref)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.one_of(
        st.integers(1, 64),
        st.integers(2**32 - 4, 2**32 + 4),
        st.just(2**33),
    ),
    data=st.data(),
)
def test_single_pick_matches_choice_on_both_sides_of_2_32(seed, size, data):
    """``sample_peers(1)`` draws one bounded integer; ``choice(pool, 1,
    replace=False)`` picks the same position and leaves the generator in
    the same state, for pools below, at and above 2**32.  The online
    index is a ``range``, so a pool of 2**33 ids costs no memory."""
    new = Overlay(rng=np.random.default_rng(seed))
    ref = ChoiceOverlay(rng=np.random.default_rng(seed))
    for ov in (new, ref):
        ov._online = ov._online_sorted = range(size)
    exclude = data.draw(
        st.lists(
            st.one_of(
                st.integers(0, min(size, 8) - 1),
                st.integers(max(size - 8, 0), size - 1),
                st.integers(0, size - 1),
                st.integers(size, size + 3),
            ),
            max_size=6,
        ),
        label="exclude",
    )
    for _ in range(20):
        got = [outcome(lambda ov=ov: ov.sample_peers(1, exclude=exclude)) for ov in (new, ref)]
        assert got[0] == got[1]
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
