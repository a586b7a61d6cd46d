"""The overlay population: membership, neighbour assignment, discovery.

The overlay is the shared ground truth the per-node processes act on.  It
owns the id space, the online set and the membership trace; it also
provides the *discovery service* a real P2P system would implement with a
bootstrap/rendezvous mechanism: sampling random online peers to (re)fill a
neighbour set.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.network.node import NodeState, PeerNode
from repro.network.trace import NetworkTrace


@dataclass
class Overlay:
    """Population of :class:`PeerNode` with join/leave bookkeeping.

    Parameters
    ----------
    rng:
        Source of randomness for neighbour sampling and discovery.
    degree:
        Neighbour-set size ``d`` each node maintains (paper default 5).
    """

    rng: np.random.Generator
    degree: int = 5
    nodes: Dict[int, PeerNode] = field(default_factory=dict)
    trace: NetworkTrace = field(default_factory=NetworkTrace)
    _online: Set[int] = field(default_factory=set)
    #: The ids of ``_online``, kept sorted as membership changes so
    #: discovery and :meth:`online_ids` never re-sort the whole set.
    _online_sorted: List[int] = field(default_factory=list, repr=False, compare=False)
    _next_id: int = 0
    #: Monotonic counter advanced on every online-set change (join /
    #: leave / depart).  Array-backed views
    #: (:class:`repro.core.kernels.WorldArrays`) and per-attempt liveness
    #: snapshots compare a remembered value against this to detect
    #: mid-round churn (e.g. an injected forwarder crash) without
    #: re-reading the whole online set.
    liveness_version: int = field(default=0, repr=False)
    #: Monotonic counter advanced whenever *any* member node's neighbour
    #: set changes (pushed by ``PeerNode._topology_listener``, wired at
    #: :meth:`spawn_node`).  Lets array-backed views answer "is my CSR
    #: topology stale?" in O(1); nodes inserted into ``nodes`` without
    #: going through :meth:`spawn_node` are not wired, which observers
    #: must detect (:meth:`repro.core.kernels.WorldArrays` falls back to
    #: the per-node version scan unless every snapshot node was wired).
    topology_version: int = field(default=0, repr=False)
    #: One ``(period, now)`` entry per steady-state probe sweep, shared
    #: with every node made by :meth:`spawn_node`; each node settles the
    #: entries lazily (see :mod:`repro.network.node`).
    _credit_log: List[Tuple[float, float]] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")

    def _on_topology_change(self) -> None:
        self.topology_version += 1

    # -- population construction ----------------------------------------
    def spawn_node(
        self,
        malicious: bool = False,
        participation_cost: float = 1.0,
    ) -> PeerNode:
        """Create (but do not yet join) a new node with a fresh id."""
        node = PeerNode(
            node_id=self._next_id,
            degree=self.degree,
            malicious=malicious,
            participation_cost=participation_cost,
        )
        node._topology_listener = self._on_topology_change
        node._credit_log = self._credit_log
        node._credit_mark = len(self._credit_log)
        self._next_id += 1
        self.nodes[node.node_id] = node
        return node

    def bootstrap(
        self,
        n: int,
        now: float = 0.0,
        malicious_fraction: float = 0.0,
        participation_cost: float = 1.0,
    ) -> List[PeerNode]:
        """Create ``n`` nodes, bring them online and wire neighbour sets.

        A fraction ``malicious_fraction`` of the nodes (chosen uniformly at
        random) is flagged as adversarial.  Each node gets ``degree``
        distinct random neighbours (fewer only if the population is too
        small).
        """
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        if not 0.0 <= malicious_fraction <= 1.0:
            raise ValueError(f"malicious_fraction out of range: {malicious_fraction}")
        created = [
            self.spawn_node(participation_cost=participation_cost) for _ in range(n)
        ]
        n_bad = int(round(malicious_fraction * n))
        for node in self.rng.choice(created, size=n_bad, replace=False):
            node.malicious = True
        for node in created:
            self._go_online(node, now)
            if len(self._online) > 1:
                # The join-time draw is discarded, but later discovery
                # reads the same stream, so it must still be made.
                self._join_draw(node.node_id)
        wanted = min(self.degree, len(self._online) - 1)
        for node in created:
            node.set_neighbors(self.sample_peers(wanted, exclude={node.node_id}))
        return created

    # -- membership -------------------------------------------------------
    def join(self, node_id: int, now: float) -> None:
        """Bring a node online (start of a session)."""
        node = self.nodes[node_id]
        self._go_online(node, now)
        if not node.neighbors and len(self._online) > 1:
            node.set_neighbors(self._join_draw(node_id))

    def _go_online(self, node: PeerNode, now: float) -> None:
        node.go_online(now)
        self._online.add(node.node_id)
        bisect.insort(self._online_sorted, node.node_id)
        self.liveness_version += 1
        self.trace.join(now, node.node_id)

    def _join_draw(self, node_id: int) -> List[int]:
        wanted = min(self.degree, len(self._online) - 1)
        return self.sample_peers(wanted, exclude={node_id})

    def _drop_online(self, node_id: int) -> None:
        if node_id in self._online:
            self._online.remove(node_id)
            del self._online_sorted[bisect.bisect_left(self._online_sorted, node_id)]

    def leave(self, node_id: int, now: float) -> None:
        """Take a node offline (end of a session; may rejoin later)."""
        node = self.nodes[node_id]
        node.go_offline(now)
        self._drop_online(node_id)
        self.liveness_version += 1
        self.trace.leave(now, node_id)

    def depart(self, node_id: int, now: float) -> None:
        """Remove a node permanently (final departure)."""
        node = self.nodes[node_id]
        was_online = node.is_online
        node.depart(now)
        self._drop_online(node_id)
        self.liveness_version += 1
        if was_online:
            self.trace.depart(now, node_id)

    # -- queries -----------------------------------------------------------
    def is_online(self, node_id: int) -> bool:
        return node_id in self._online

    def online_ids(self) -> List[int]:
        """Ids of all online nodes, sorted for determinism."""
        return list(self._online_sorted)

    def online_count(self) -> int:
        return len(self._online)

    def id_space(self) -> int:
        """Size of the id space: every node id ever issued is strictly
        below this.  The right ``size`` for :meth:`online_mask` when the
        mask must cover arbitrary neighbour references."""
        return self._next_id

    def online_mask(self, size: int) -> np.ndarray:
        """Boolean liveness vector indexed by node id (``mask[i]`` iff node
        ``i`` is online).  ``size`` must cover the id space the caller
        indexes with; ids at or beyond ``size`` are ignored.  Used by the
        array-backed scoring kernels to vectorise the liveness filter."""
        mask = np.zeros(size, dtype=bool)
        if self._online:
            ids = np.fromiter(
                self._online, dtype=np.int64, count=len(self._online)
            )
            mask[ids[ids < size]] = True
        return mask

    def good_nodes(self) -> List[PeerNode]:
        """All non-malicious nodes ever created."""
        return [n for n in self.nodes.values() if not n.malicious]

    def malicious_nodes(self) -> List[PeerNode]:
        return [n for n in self.nodes.values() if n.malicious]

    # -- discovery -----------------------------------------------------------
    def sample_peers(self, k: int, exclude: Optional[Iterable[int]] = None) -> List[int]:
        """``k`` distinct random online peers, excluding ``exclude``.

        Raises if fewer than ``k`` candidates exist — callers decide how to
        degrade (the prober retries next round).
        """
        ids = self._online_sorted
        skips = sorted(
            bisect.bisect_left(ids, x) for x in set(exclude or ()) if x in self._online
        )
        pool = len(ids) - len(skips)
        if pool < k:
            raise ValueError(f"cannot sample {k} peers from pool of {pool}")
        # Generator.choice draws positions from the population size alone,
        # so drawing from ``pool`` consumes the entropy and picks the
        # positions that drawing from the pool array itself would.  Pool
        # position p is sorted position p + #{j : skips[j] - j <= p}.
        shifted = [pos - j for j, pos in enumerate(skips)]
        if k == 1:
            # One bounded integer: the same pick and generator state as
            # ``choice(pool, 1, replace=False)``, without its setup cost.
            picks = [int(self.rng.integers(pool))]
        else:
            picks = self.rng.choice(pool, size=k, replace=False).tolist()
        return [ids[p + bisect.bisect_right(shifted, p)] for p in picks]

    def random_online_peer(self, exclude: Optional[Iterable[int]] = None) -> Optional[int]:
        """One random online peer, or None if no candidate exists."""
        try:
            return self.sample_peers(1, exclude=exclude)[0]
        except ValueError:
            return None

    def __len__(self) -> int:
        return len(self.nodes)
