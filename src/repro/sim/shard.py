"""Sharded scenario engine: shared-memory world state + process-parallel
shard workers for 10k-100k-node overlays.

One scenario, K worker processes, zero pickled node objects.  The
authoritative hot-path state — topology CSR, SPNE gather tables, the
availability vector, the overlay liveness mask, per-cid selectivity hit
tables, SPNE level planes and (when a bank runs) the ledger balances —
lives in ``multiprocessing.shared_memory`` segments.  The object layer
(:class:`~repro.network.node.PeerNode`,
:class:`~repro.core.history.HistoryProfile`,
:class:`~repro.payment.ledger.Account`) stays the API surface but
becomes a *view*: histories mirror into the shared hit table through
their write-through ``sink`` hook, accounts serve their balance from a
slot in the shared balances array, and availability is maintained in a
shared per-edge vector refreshed from a session-time matrix.

**Division of labour (the bit-identity design).**  The coordinator
process runs the entire event loop: every RNG draw, every Model I and
root Model II decision, cost vectors, candidate sets, argmaxes and
settlements execute on the coordinator in exactly the order the
single-process engine executes them — so the decision *structure* is
identical for any shard count by construction.  Shard workers execute
only the state-axis range computation of the backward-induction level
sweep (:func:`repro.core.kernels.spne_state_validity` +
:func:`repro.core.kernels.spne_level_step` over a contiguous state
range), which is bitwise range-decomposable: the arithmetic is
element-wise, the segment reductions are order-insensitive, and
segments never straddle a range boundary.  Seed -> result therefore
stays bit-identical for any ``n_shards``, pinned by the differential
property suite.

**Shard partition.**  The state axis (directed edges) is split into K
contiguous ranges by bisecting the *unclipped* per-state child offsets
(``WorldArrays.st_offsets``) at balanced child counts — shard k owns
states ``[s_k, s_{k+1})`` and exactly the flat children
``[st_offsets[s_k], st_offsets[s_{k+1}])``.  Deterministic in the
topology and K alone.

**Protocol.**  One duplex pipe per worker, strict command/ack lockstep
(the coordinator never writes a shared segment while a command is in
flight, so no locks are needed).  An entire backward-induction build is
one dispatch: ``("levels", epoch, responder, n_new)`` asks every worker
to compute ``n_new`` consecutive levels into the stacked level planes,
synchronising *between* levels on a shared ``multiprocessing.Barrier``
(each plane must be fully written before any worker gathers from it) —
the final ack round-trip is the build barrier.  Batching the build
into a single command matters on few-core hosts, where per-level pipe
round-trips would otherwise dominate: the futex wait inside the
barrier is an order of magnitude cheaper than a pickled pipe
round-trip through a blocked coordinator.  Workers never touch the
RNG; their per-shard streams (:func:`repro.sim.rng.shard_stream`,
keyed by the root seed and the shard *index*, never by K) exist for
the handshake canary that pins the derivation.

**Drain semantics.**  SIGINT is latched (the idiom the fleet executor
uses): the first interrupt lets the in-flight command batch complete,
then tears the engine down — workers stopped, their PERF counters
folded into the coordinator's, every segment unlinked — and re-raises
``KeyboardInterrupt``.  A second SIGINT falls through to the default
handler.  Workers themselves ignore SIGINT; the coordinator owns their
lifecycle.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels import (
    BatchPlanner,
    WorldArrays,
    spne_level_step,
    spne_state_validity,
)
from repro.sim.monitoring import PERF, DegradationCounters
from repro.sim.rng import shard_stream

__all__ = [
    "ShardCapacityError",
    "ShardConfig",
    "ShardEngine",
    "ShardPlanner",
    "ShardWorld",
    "shard_worker_main",
]


class ShardCapacityError(RuntimeError):
    """The overlay outgrew the shared-memory capacity reserved at
    engine start (sized with ``ShardConfig.slack`` headroom)."""


@dataclass(frozen=True)
class ShardConfig:
    """Sharded-engine knobs carried on :class:`ExperimentConfig`.

    ``n_shards`` worker processes are spawned for the run;
    ``slack`` multiplies the bootstrap-time array sizes into shared
    segment capacities (churn may grow the overlay — exceeding the
    reserve raises :class:`ShardCapacityError` rather than corrupting
    state); ``max_cids`` bounds the shared selectivity hit table
    (``None`` derives ``2 * n_pairs + 16`` at engine start).
    """

    n_shards: int = 2
    slack: float = 2.0
    max_cids: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_shards, int) or self.n_shards < 1:
            raise ValueError(f"n_shards must be a positive int, got {self.n_shards}")
        if self.n_shards > 64:
            raise ValueError(f"n_shards unreasonably large: {self.n_shards}")
        if self.slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {self.slack}")
        if self.max_cids is not None and self.max_cids < 1:
            raise ValueError(f"max_cids must be >= 1 or None, got {self.max_cids}")


class _SigintLatch:
    """First SIGINT sets a flag (the engine drains and tears down at the
    next command boundary); a second falls through to the previous
    handler.  Same drain idiom as the fleet executor's interrupt flag —
    re-implemented here because nothing below ``repro.fleet`` may
    import it."""

    def __init__(self) -> None:
        self.tripped = False
        self._previous = None
        self._installed = False

    def install(self) -> None:
        if threading.current_thread() is threading.main_thread():
            self._previous = signal.signal(signal.SIGINT, self._handle)
            self._installed = True

    def restore(self) -> None:
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)
            self._installed = False

    def _handle(self, signum, frame) -> None:
        if self.tripped:
            signal.signal(signal.SIGINT, self._previous)
            raise KeyboardInterrupt
        self.tripped = True


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------


def _release_segments(segments: List[shared_memory.SharedMemory]) -> None:
    """Close and unlink every segment; idempotent and exception-proof
    (also used as the engine's ``weakref.finalize`` safety net)."""
    for shm in segments:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach a worker-side attachment from the resource tracker: the
    coordinator owns create/unlink, so the tracker must not unlink the
    segment again when a worker exits."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _attach_segments(
    spec: List[Tuple[str, str, str, Tuple[int, ...]]],
    untrack: bool,
) -> Tuple[List[shared_memory.SharedMemory], Dict[str, np.ndarray]]:
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    for key, name, dtype, shape in spec:
        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            # Spawned workers have their own resource tracker, which
            # would otherwise unlink the coordinator's segments when the
            # worker exits.  Forked workers share the coordinator's
            # tracker (registration is an idempotent set add there), so
            # untracking would strip the coordinator's own entry.
            _untrack(shm)
        segments.append(shm)
        views[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    return segments, views


def _merge_counts(dst: Dict[str, int], src: Dict[str, int]) -> None:
    for key, value in src.items():
        dst[key] = dst.get(key, 0) + int(value)


# ---------------------------------------------------------------------------
# Shared selectivity hit table
# ---------------------------------------------------------------------------


class HitTable:
    """Shared-memory per-(cid, edge) selectivity hit counts.

    ``buf[slot, e]`` is the number of history entries node
    ``owner(e)`` stores for ``(cid(slot), successor=head(e))`` — exactly
    the ``bisect_left`` numerator :meth:`HistoryProfile.
    selectivity_hits_block` computes at query time, because histories on
    the hot path are append-only (capacity-bounded profiles are rejected
    at bind time) and every stored entry's round index is strictly below
    the round any frontier queries with (records commit after the round;
    frontiers query the *next* round).

    Rows are materialised lazily from the profiles' own sorted indices
    (the ground truth) and then kept incrementally fresh through the
    profiles' write-through ``sink`` hooks; a topology rebuild
    invalidates every row's edge layout, detected per row via a stored
    ``WorldArrays.generation`` stamp.  The cid -> slot map evicts in
    insertion order when ``max_cids`` is exceeded — evicted rows simply
    re-materialise on the next query.
    """

    def __init__(self, world: WorldArrays, buf: np.ndarray, max_cids: int) -> None:
        self.world = world
        self.buf = buf
        self.max_cids = max_cids
        self.slots: Dict[int, int] = {}
        self.slot_gen = np.full(max_cids, -1, dtype=np.int64)
        self.profiles: Optional[Dict[int, object]] = None
        #: Which nodes have ever recorded for each cid — materialising a
        #: row only needs to read those profiles (the rest contribute
        #: all-zero segments, which the row reset already provides).
        self.recorded: Dict[int, set] = {}

    def bind(self, histories: Dict[int, object]) -> None:
        """Install this table as every profile's write-through sink."""
        for profile in histories.values():
            if profile.capacity is not None:  # type: ignore[attr-defined]
                raise ValueError(
                    "the shared hit table requires append-only histories "
                    "(HistoryProfile.capacity=None); eviction would "
                    "silently diverge the counts"
                )
            profile.sink = self  # type: ignore[attr-defined]
        for nid, profile in histories.items():
            for cid in profile._edge_rounds:  # type: ignore[attr-defined]
                self.recorded.setdefault(cid, set()).add(nid)
        self.profiles = histories

    # -- sink protocol (called by HistoryProfile) -----------------------
    def on_record(
        self, node_id: int, cid: int, round_index: int, predecessor: int, successor: int
    ) -> None:
        rec = self.recorded.get(cid)
        if rec is None:
            rec = self.recorded[cid] = set()
        rec.add(node_id)
        slot = self.slots.get(cid)
        if slot is None or self.slot_gen[slot] != self.world.generation:
            # Row not materialised (or stale layout): the next query
            # rebuilds it from the profiles, which already include this
            # record.
            return
        world = self.world
        lst = world.nbr_lists.get(node_id)
        if not lst:
            return
        j = bisect_left(lst, successor)
        if j < len(lst) and lst[j] == successor:
            self.buf[slot, int(world.indptr[node_id]) + j] += 1

    def on_forget(self, node_id: int, cid: int) -> None:
        rec = self.recorded.get(cid)
        if rec is not None:
            rec.discard(node_id)
        slot = self.slots.get(cid)
        if slot is None or self.slot_gen[slot] != self.world.generation:
            return
        world = self.world
        start = int(world.indptr[node_id])
        end = int(world.indptr[node_id + 1])
        self.buf[slot, start:end] = 0

    # -- queries --------------------------------------------------------
    def row(self, cid: int) -> np.ndarray:
        """The cid's per-edge hit counts under the current topology
        (length ``world.n_edges``), materialising or refreshing the row
        if needed."""
        world = self.world
        slot = self.slots.get(cid)
        if slot is not None and self.slot_gen[slot] == world.generation:
            return self.buf[slot, : world.n_edges]
        if slot is None:
            slot = self._allocate_slot()
            self.slots[cid] = slot
        return self._materialise(cid, slot)

    def _allocate_slot(self) -> int:
        used = set(self.slots.values())
        if len(used) < self.max_cids:
            for candidate in range(self.max_cids):
                if candidate not in used:
                    return candidate
        # Evict the oldest-inserted cid (deterministic dict order).
        oldest = next(iter(self.slots))
        return self.slots.pop(oldest)

    def _materialise(self, cid: int, slot: int) -> np.ndarray:
        world = self.world
        assert self.profiles is not None, "HitTable.bind was never called"
        row = self.buf[slot]
        row[:] = 0
        horizon = 1 << 60  # counts *every* stored entry (all rounds < horizon)
        profiles = self.profiles
        indptr = world.indptr
        nbr_lists = world.nbr_lists
        # Only nodes that ever recorded for this cid can contribute
        # non-zero counts; everyone else's segment stays at the reset
        # zeros.  Iteration order is irrelevant — segments are disjoint.
        for nid in self.recorded.get(cid, ()):
            lst = nbr_lists.get(nid)
            if lst:
                start = int(indptr[nid])
                row[start : start + len(lst)] = profiles[
                    nid
                ].selectivity_hits_block(  # type: ignore[attr-defined]
                    cid, lst, horizon
                )
        self.slot_gen[slot] = world.generation
        return row[: world.n_edges]


# ---------------------------------------------------------------------------
# Shared-memory world view
# ---------------------------------------------------------------------------


class ShardWorld(WorldArrays):
    """:class:`WorldArrays` whose availability vector lives in shared
    memory and is refreshed from a vectorised session-time matrix.

    The matrix mirrors every node's per-neighbour session counters
    (columns in each node's *dict* order — the order the scalar
    normalisation sums in), kept in sync two ways: the prober's
    :func:`~repro.network.probing.fast_full_sweep` notifies
    :meth:`on_fast_sweep` (one uniform ``+= period`` over occupied
    cells, no object re-reads), and any other mutation is detected per
    node through ``availability_version`` and resynced from the node's
    views.  The alpha recomputation then replays the scalar expression
    tree — sequential left-to-right column accumulation for the
    normaliser, element-wise division, zeros when the total is zero —
    so the shared vector is bit-identical to what the base class reads
    out of each node's cached normalisation.
    """

    def __init__(self, overlay, engine: "Optional[ShardEngine]" = None) -> None:
        super().__init__(overlay)
        self.engine = engine
        self._sess_mat = np.zeros((0, 0), dtype=np.float64)
        self._sess_occ = np.zeros((0, 0), dtype=np.float64)
        self._sess_ver = np.zeros(0, dtype=np.int64)
        self._edge_col = np.zeros(0, dtype=np.int64)
        self._alpha_dirty = False
        self._activity_sources: List[Any] = []
        self._scan_key: Optional[Tuple] = None

    def attach_activity_source(self, fn) -> None:
        """Register a zero-arg callable returning a monotone counter
        that moves whenever availability counters might have changed
        outside the fast-sweep mirror (e.g. ``lambda:
        prober.rounds_run``).  With at least one source attached, the
        per-node version scan in :meth:`_refresh_alpha` runs only when
        a source, the liveness version or the topology generation
        moved — between those events no code path touches the
        counters, so skipping the scan is exact, not approximate."""
        self._activity_sources.append(fn)
        self._scan_key = None

    def ensure_fresh(self) -> None:
        """Topology, then the whole availability vector from the
        session-time mirror: the sharded planner scores full rows, so
        it refreshes every slice at once instead of per scored node."""
        super().ensure_fresh()
        self._refresh_alpha()

    # -- topology -------------------------------------------------------
    def _rebuild_topology(self) -> None:
        super()._rebuild_topology()
        self._build_session_state()
        engine = self.engine
        if engine is not None and engine.started:
            engine.publish_topology()

    def _build_session_state(self) -> None:
        nodes = self.overlay.nodes
        size = self.size
        max_deg = 0
        for node in nodes.values():
            if len(node.neighbors) > max_deg:
                max_deg = len(node.neighbors)
        self._sess_mat = np.zeros((size, max_deg), dtype=np.float64)
        self._sess_occ = np.zeros((size, max_deg), dtype=np.float64)
        self._sess_ver = np.full(size, -1, dtype=np.int64)
        edge_col = np.zeros(self.n_edges, dtype=np.int64)
        indptr = self.indptr
        for nid, lst in self.nbr_lists.items():
            if not lst:
                continue
            # Column j of row nid is the node's j-th neighbour in dict
            # (insertion) order — the order the scalar normaliser sums.
            cols = {v: j for j, v in enumerate(nodes[nid].neighbors)}
            start = int(indptr[nid])
            for i, v in enumerate(lst):
                edge_col[start + i] = cols[v]
        self._edge_col = edge_col
        self._alpha_dirty = True

    # -- session-time mirror --------------------------------------------
    def on_fast_sweep(self, period: float) -> None:
        """Mirror a :func:`fast_full_sweep` (uniform ``+= period`` on
        every neighbour view, one invalidation per node) into the
        matrix without re-reading any object.  The version array moves
        in lockstep with each node's ``availability_version`` bump, so
        rows that were already out of sync stay out of sync (their
        delta is preserved) and get resynced on the next refresh."""
        if self._sess_mat.size:
            self._sess_mat += period * self._sess_occ
        self._sess_ver += 1
        self._alpha_dirty = True

    def _resync_row(self, nid: int, node) -> None:
        row = self._sess_mat[nid]
        occ = self._sess_occ[nid]
        row[:] = 0.0
        occ[:] = 0.0
        for j, view in enumerate(node.neighbors.values()):
            row[j] = view._session_time
            occ[j] = 1.0
        self._sess_ver[nid] = node.availability_version

    def _refresh_alpha(self) -> None:
        dirty = self._alpha_dirty
        scan = True
        if self._activity_sources:
            key = (
                self.overlay.liveness_version,
                self.generation,
                tuple(fn() for fn in self._activity_sources),
            )
            scan = key != self._scan_key
            self._scan_key = key
        if scan:
            nodes = self.overlay.nodes
            ver = self._sess_ver
            for nid, node in nodes.items():
                if ver[nid] != node.availability_version:
                    self._resync_row(nid, node)
                    dirty = True
        if not dirty:
            return
        self._alpha_dirty = False
        mat = self._sess_mat
        if mat.size:
            # Scalar parity: total accumulates left to right over the
            # dict-ordered counters (float addition is order-sensitive),
            # padding cells contribute exact +0.0.
            tot = np.zeros(mat.shape[0], dtype=np.float64)
            for j in range(mat.shape[1]):
                tot = tot + mat[:, j]
            safe = np.where(tot > 0.0, tot, 1.0)
            alpha = np.where((tot > 0.0)[:, None], mat / safe[:, None], 0.0)
            if self.n_edges:
                self.alpha_flat[:] = alpha[self.owner_flat, self._edge_col]
        self._perf.array_rebuilds += 1


# ---------------------------------------------------------------------------
# Planner: hit-table quality rows + worker-dispatched level sweeps
# ---------------------------------------------------------------------------


class ShardPlanner(BatchPlanner):
    """:class:`BatchPlanner` whose full quality rows gather from the
    shared hit table (no per-edge bisects) and whose SPNE level sweeps
    fan out to the shard workers.  Both substitutions are bit-identical
    to the base planner: the hit table reproduces the bisect numerators
    exactly (see :class:`HitTable`), and the workers run the very same
    :func:`spne_state_validity`/:func:`spne_level_step` kernels over a
    range decomposition that is bitwise-exact by construction."""

    def __init__(self, world: ShardWorld, engine: "ShardEngine") -> None:
        super().__init__(world)
        self.engine = engine
        self._published_mask_key = None

    def _online_mask(self) -> np.ndarray:
        mask = super()._online_mask()
        if self._mask_key != self._published_mask_key:
            self.engine.publish_mask(mask)
            self._published_mask_key = self._mask_key
        return mask

    def _solve(self, fr, context, roots, depth, position_aware) -> None:
        """Whole-axis solve: the full quality row gathered from the
        shared hit table, every missing level swept by the workers.
        Position-aware runs are rejected at config validation; direct
        planner use falls back to the single-process cone solve."""
        if position_aware:
            super()._solve(fr, context, roots, depth, position_aware)
            return
        self._sync_levels(fr, depth, position_aware)
        if fr.levels_done[depth][roots].all():
            return
        self._ensure_full_row(fr, context)
        self._ensure_levels(fr, depth)

    def _ensure_full_row(self, fr, context) -> None:
        """Score every edge in one expression, with hit counts read from
        the shared table instead of one bisect per edge (the table
        reproduces the bisect numerators exactly)."""
        if fr.q_built.all():
            return
        hits = self.engine.hits.row(fr.cid)
        fr.q_flat = self._quality(context, fr.round_index, hits, self.world.alpha_flat)
        fr.q_built[:] = True

    def _ensure_levels(self, fr, depth) -> None:
        """Whole-build dispatch: every missing level goes to the workers
        in one ``levels`` command (they synchronise between levels on
        the shared barrier), instead of one pipe round-trip per level."""
        world = self.world
        base = depth
        while base > 0 and not fr.levels_done[base].all():
            base -= 1
        need = depth - base
        child_edge = world.st_child_edge
        if child_edge.size:
            self.engine.build_levels(fr, fr.q_flat, base, need)
        for d in range(base + 1, depth + 1):
            fr.levels_done[d][:] = True
        perf = self._perf
        perf.kernel_calls += need
        perf.kernel_batch_elements += need * int(child_edge.size)
        perf.spne_states_swept += need * world.n_edges


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _WorkerState:
    """One worker's slice of the published topology: local child-axis
    tables plus the shared planes it reads and writes."""

    def __init__(self, views: Dict[str, np.ndarray], meta: Tuple[int, ...]) -> None:
        size, n_edges, s0, s1, c0, c1 = meta
        self.size = size
        self.n_edges = n_edges
        self.s0, self.s1 = s0, s1
        self.nbr = views["nbr"][:n_edges]
        self.online = views["online"]
        self.q = views["q"][:n_edges]
        self.lvl_sum = views["lsum"]
        self.lvl_n = views["ln"]
        n_children = c1 - c0
        self.child_edge = np.asarray(views["che"][c0:c1])
        self.not_pred = np.asarray(views["cnp"][c0:c1])
        self.st_counts = np.asarray(views["stc"][s0:s1])
        # Locally-offset reduceat starts, clipped in-bounds exactly the
        # way the whole-axis build clips (empty trailing segments yield
        # garbage rows that the dead mask overwrites either way).
        self.red_idx = np.minimum(
            np.asarray(views["sto"][s0 : s1]) - c0, max(n_children - 1, 0)
        )
        self.child_pos = np.arange(n_children, dtype=np.int64)
        self._st_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._epoch = -1

    def levels(self, epoch: int, responder: int, n_new: int, barrier, perf) -> None:
        """Run ``n_new`` consecutive level steps over this shard's state
        range: plane ``i`` is computed from plane ``i-1``, with a
        barrier wait between levels so every shard's slice of a plane
        is complete before anyone gathers from it.  No barrier after
        the last level — the coordinator's ack collection is that
        barrier."""
        if epoch != self._epoch:
            self._st_cache.clear()
            self._epoch = epoch
        sv = self._st_cache.get(responder)
        if sv is None:
            # Same expression the coordinator's _ensure_liveness uses:
            # the gather through child_edge then sees identical bits.
            valid0 = self.online[self.nbr] & (self.nbr != responder)
            sv = spne_state_validity(
                valid0, self.child_edge, self.not_pred, self.st_counts, self.red_idx
            )
            if len(self._st_cache) >= 128:
                self._st_cache.pop(next(iter(self._st_cache)))
            self._st_cache[responder] = sv
        st_valid, st_dead = sv
        base_child = self.q[self.child_edge]
        s0, s1 = self.s0, self.s1
        for i in range(1, n_new + 1):
            spne_level_step(
                base_child,
                self.lvl_sum[i - 1],
                self.lvl_n[i - 1],
                self.child_edge,
                self.st_counts,
                self.red_idx,
                self.child_pos,
                st_valid,
                st_dead,
                self.lvl_sum[i, s0:s1],
                self.lvl_n[i, s0:s1],
            )
            if i < n_new and barrier is not None:
                barrier.wait(timeout=120)
        perf.kernel_calls += n_new
        perf.kernel_batch_elements += n_new * int(self.child_edge.size)


def shard_worker_main(
    spec: List[Tuple[str, str, str, Tuple[int, ...]]],
    shard_index: int,
    seed: int,
    conn,
    barrier=None,
    untrack: bool = False,
) -> None:
    """Shard worker entry point (``multiprocessing.Process`` target).

    Attaches the published segments, answers the handshake with a
    canary drawn from this shard's derived RNG stream (pinning the
    seed/shard-index derivation on both sides), then serves ``topo`` /
    ``levels`` / ``stop`` commands in strict lockstep.  ``barrier``
    synchronises the workers between the levels of one batched build.
    SIGINT is ignored — the coordinator latches the interrupt and
    drives the drain.  The final ``stopped`` reply carries this
    worker's PERF and degradation snapshots for coordinator-side
    aggregation.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    PERF.reset()  # a forked child inherits the parent's counts
    perf = PERF.counters
    degradation = DegradationCounters()
    segments, views = _attach_segments(spec, untrack)
    state: Optional[_WorkerState] = None
    try:
        canary = float(shard_stream(seed, shard_index).random())
        conn.send(("ready", shard_index, canary))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            try:
                if cmd == "topo":
                    state = _WorkerState(views, msg[1])
                    reply = ("ok",)
                elif cmd == "levels":
                    _, epoch, responder, n_new = msg
                    assert state is not None, "levels before topo"
                    state.levels(epoch, responder, n_new, barrier, perf)
                    reply = ("ok",)
                elif cmd == "stop":
                    conn.send(("stopped", perf.snapshot(), degradation.snapshot()))
                    break
                else:
                    reply = ("error", f"unknown command {cmd!r}")
            except Exception as exc:  # surface instead of deadlocking
                reply = ("error", repr(exc))
            conn.send(reply)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: Keys of the segments a worker attaches (the rest are coordinator-only).
_WORKER_KEYS = ("nbr", "stc", "sto", "che", "cnp", "online", "q", "lsum", "ln")


class ShardEngine:
    """Owns the shared segments, the worker pool and the sharded
    world/planner pair a :class:`PathBuilder` is pointed at.

    Lifecycle: construct, :meth:`start` (sizes capacity from the real
    bootstrap topology, allocates segments, spawns and handshakes
    workers, publishes the initial topology), run the scenario with
    ``builder._world = engine.world`` / ``builder._planner =
    engine.planner``, :meth:`close` (stop workers, fold their counters
    into :data:`PERF`, unlink every segment).  ``close`` is idempotent
    and also wired to a ``weakref.finalize`` safety net, so segments
    never outlive the process even on an unwound stack.
    """

    def __init__(
        self,
        overlay,
        n_shards: int,
        seed: int,
        *,
        slack: float = 2.0,
        max_cids: int = 64,
        max_levels: int = 8,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {max_levels}")
        self.overlay = overlay
        self.n_shards = n_shards
        self.seed = seed
        self.slack = float(slack)
        self.max_cids = int(max_cids)
        #: Level planes per build batch; builds needing more levels are
        #: chunked into several dispatches.
        self.max_levels = int(max_levels)
        self.world = ShardWorld(overlay, engine=self)
        self.planner = ShardPlanner(self.world, self)
        self.hits: Optional[HitTable] = None
        self.started = False
        self.closed = False
        #: Aggregated worker counter snapshots (populated by close()).
        self.worker_perf: Dict[str, int] = {}
        self.worker_degradation: Dict[str, int] = {}
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[str, np.ndarray] = {}
        self._conns: List[object] = []
        self._procs: List[object] = []
        self._latch = _SigintLatch()
        self._mask_epoch = 0
        self._barrier = None
        self._e_cap = 0
        self._c_cap = 0
        self._size_cap = 0
        self._finalizer = None
        self._ledger = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self.started:
            raise RuntimeError("ShardEngine.start called twice")
        world = self.world
        world.ensure_fresh()  # size capacities from the real topology
        self._e_cap = max(256, int(self.slack * max(world.n_edges, 1)))
        self._c_cap = max(256, int(self.slack * max(int(world.st_child_edge.size), 1)))
        self._size_cap = max(64, int(self.slack * max(self.overlay.id_space(), 1)))
        self._alloc("nbr", (self._e_cap,), np.int64)
        self._alloc("stc", (self._e_cap,), np.int64)
        self._alloc("sto", (self._e_cap + 1,), np.int64)
        self._alloc("che", (self._c_cap,), np.int64)
        self._alloc("cnp", (self._c_cap,), np.bool_)
        self._alloc("alpha", (self._e_cap,), np.float64)
        self._alloc("online", (self._size_cap,), np.bool_)
        self._alloc("q", (self._e_cap,), np.float64)
        n_planes = self.max_levels + 1  # plane 0 holds the previous level
        self._alloc("lsum", (n_planes, self._e_cap), np.float64)
        self._alloc("ln", (n_planes, self._e_cap), np.int64)
        self._alloc("hits", (self.max_cids, self._e_cap), np.int64)
        self._alloc("bal", (self._size_cap,), np.float64)
        self.hits = HitTable(world, self._views["hits"], self.max_cids)
        self._finalizer = weakref.finalize(
            self, _release_segments, list(self._segments.values())
        )
        spec = [
            (
                key,
                self._segments[key].name,
                np.dtype(self._views[key].dtype).str,
                self._views[key].shape,
            )
            for key in _WORKER_KEYS
        ]
        ctx = self._mp_context()
        untrack = ctx.get_start_method() != "fork"
        self._barrier = ctx.Barrier(self.n_shards)
        for k in range(self.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(spec, k, self.seed, child_conn, self._barrier, untrack),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        for k, conn in enumerate(self._conns):
            try:
                ready = conn.recv()
            except EOFError as exc:
                raise RuntimeError(f"shard worker {k} died during startup") from exc
            expected = float(shard_stream(self.seed, k).random())
            if ready[0] != "ready" or ready[1] != k or ready[2] != expected:
                raise RuntimeError(
                    f"shard worker {k} handshake mismatch: {ready!r} "
                    f"(expected canary {expected!r})"
                )
        self._latch.install()
        self.started = True
        self.publish_topology()

    @staticmethod
    def _mp_context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            return multiprocessing.get_context("spawn")

    def bind_histories(self, histories: Dict[int, object]) -> None:
        assert self.hits is not None, "start() must run before bind_histories"
        self.hits.bind(histories)

    def bind_ledger(self, ledger) -> None:
        """Move the ledger's balances into the shared balances array
        (indexed by owner id, with the engine's capacity slack)."""
        ledger.bind_balances(self._views["bal"])
        self._ledger = ledger

    @property
    def interrupted(self) -> bool:
        return self._latch.tripped

    def poll_interrupt(self) -> None:
        """Event-loop hook (``Environment.interrupt_check``): raise once
        the latch trips so a SIGINT drains promptly even between
        dispatches."""
        if self._latch.tripped:
            raise KeyboardInterrupt

    def close(self) -> None:
        if not self.started or self.closed:
            if self._finalizer is not None and not self.closed:
                self.closed = True
                self._finalizer()
            return
        self.closed = True
        perf_total: Dict[str, int] = {}
        degradation_total: Dict[str, int] = {}
        for conn in self._conns:
            try:
                conn.send(("stop",))
                if conn.poll(10):
                    reply = conn.recv()
                    if reply and reply[0] == "stopped":
                        _merge_counts(perf_total, reply[1])
                        _merge_counts(degradation_total, reply[2])
            except (BrokenPipeError, EOFError, OSError):
                pass
            finally:
                try:
                    conn.close()
                except Exception:
                    pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self.worker_perf = perf_total
        self.worker_degradation = degradation_total
        PERF.absorb(perf_total)
        self._latch.restore()
        self._detach_object_layer()
        if self._finalizer is not None:
            self._finalizer()

    def _detach_object_layer(self) -> None:
        """Copy every object-layer view out of shared memory before the
        segments are unlinked: bound ledger balances return to plain
        attributes, the world's alpha vector becomes a private array,
        and the history sinks are unhooked.  Without this, a post-run
        ``bank.audit()`` (or any later world access) would read through
        an unmapped buffer."""
        if self._ledger is not None:
            self._ledger.unbind_balances()
            self._ledger = None
        world = self.world
        if world.alpha_flat is not None:
            world.alpha_flat = np.array(world.alpha_flat, dtype=np.float64)
        hits = self.hits
        if hits is not None and hits.profiles is not None:
            for profile in hits.profiles.values():
                profile.sink = None  # type: ignore[attr-defined]
            hits.profiles = None
        self.hits = None
        self._views.clear()

    # -- shared-state publication ---------------------------------------
    def _alloc(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self._segments[key] = shm
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        view.fill(0)
        self._views[key] = view
        return view

    def publish_topology(self) -> None:
        """Copy the (re)built topology into the shared segments, rebind
        the world's alpha vector to its shared slot, partition the
        state axis and re-arm every worker."""
        world = self.world
        n_edges = world.n_edges
        n_children = int(world.st_child_edge.size)
        size = world.size
        if (
            n_edges > self._e_cap
            or n_children > self._c_cap
            or size > self._size_cap
        ):
            raise ShardCapacityError(
                f"overlay outgrew the shared-memory reserve: edges {n_edges}/"
                f"{self._e_cap}, children {n_children}/{self._c_cap}, "
                f"id space {size}/{self._size_cap} — raise ShardConfig.slack"
            )
        views = self._views
        views["nbr"][:n_edges] = world.nbr_flat
        views["stc"][:n_edges] = world.st_counts
        views["sto"][: world.st_offsets.size] = world.st_offsets
        views["che"][:n_children] = world.st_child_edge
        views["cnp"][:n_children] = world.st_child_not_pred
        alpha_view = views["alpha"][:n_edges]
        alpha_view[:] = world.alpha_flat
        world.alpha_flat = alpha_view
        bounds = self._partition(n_edges, n_children)
        for k, conn in enumerate(self._conns):
            s0, s1 = bounds[k], bounds[k + 1]
            c0 = int(world.st_offsets[s0]) if n_edges else 0
            c1 = int(world.st_offsets[s1]) if n_edges else 0
            conn.send(("topo", (size, n_edges, s0, s1, c0, c1)))
        self._collect_acks("topo")

    def _partition(self, n_edges: int, n_children: int) -> List[int]:
        """Contiguous state ranges with balanced child counts, found by
        bisecting the unclipped child offsets.  Deterministic in the
        topology and the shard count alone."""
        K = self.n_shards
        if n_edges == 0:
            return [0] * (K + 1)
        offsets = self.world.st_offsets
        bounds = [0]
        for k in range(1, K):
            target = (n_children * k) // K
            bounds.append(int(np.searchsorted(offsets, target, side="left")))
        bounds.append(n_edges)
        for i in range(1, len(bounds)):  # guard monotonicity on degenerate shapes
            if bounds[i] < bounds[i - 1]:
                bounds[i] = bounds[i - 1]
        return bounds

    def publish_mask(self, mask: np.ndarray) -> None:
        self._views["online"][: mask.size] = mask
        self._mask_epoch += 1

    # -- the sharded kernel call ----------------------------------------
    def build_levels(self, fr, base_q: np.ndarray, base: int, need: int) -> None:
        """Run one whole backward-induction build — levels ``base + 1
        .. base + need`` of the frontier's tables — as a single dispatch
        per plane-capacity chunk.  The coordinator publishes the base
        quality row and the previous level into plane 0, the workers
        compute planes ``1..n_new`` (synchronising between levels on
        the shared barrier), and the coordinator stores private copies
        so frontier state keeps the base planner's ownership semantics.
        """
        world = self.world
        n_edges = world.n_edges
        views = self._views
        lsum = views["lsum"]
        ln = views["ln"]
        views["q"][:n_edges] = base_q
        built = 0
        while built < need:
            n_new = min(need - built, self.max_levels)
            top = base + built
            lsum[0, :n_edges] = fr.levels_sum[top]
            ln[0, :n_edges] = fr.levels_n[top]
            for conn in self._conns:
                conn.send(("levels", self._mask_epoch, int(fr.responder), n_new))
            self._collect_acks("levels")
            for i in range(1, n_new + 1):
                fr.levels_sum[top + i] = lsum[i, :n_edges].copy()
                fr.levels_n[top + i] = ln[i, :n_edges].copy()
            built += n_new
        if self._latch.tripped:
            # Drain point: the in-flight build completed; unwind so the
            # scenario's finally-block tears the engine down cleanly.
            raise KeyboardInterrupt

    def _collect_acks(self, label: str) -> None:
        for k, conn in enumerate(self._conns):
            reply = conn.recv()
            if reply[0] != "ok":
                raise RuntimeError(
                    f"shard worker {k} failed during {label!r}: {reply[1:]}"
                )
