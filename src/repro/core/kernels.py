"""Array-backed scoring kernels: the ``numpy`` routing backend.

The scalar strategies in :mod:`repro.core.routing` walk Python data
structures edge by edge — dict lookups, per-candidate ``bisect`` calls,
a recursive backward induction.  This module re-expresses the same
decisions over flat arrays so the per-candidate work becomes a handful
of vectorised kernels:

- :class:`WorldArrays` — a struct-of-arrays (CSR) view of the overlay
  topology plus per-edge availability, shared by every round a
  :class:`~repro.core.protocol.PathBuilder` builds.  It is kept
  *incrementally* consistent: nodes and the overlay expose monotonic
  version counters (``neighbors_version``, ``availability_version``,
  ``liveness_version``) and the arrays are rebuilt or patched only when
  a remembered version no longer matches.
- :class:`BatchPlanner` — the decision planner.  It keeps one
  :class:`Frontier` per open connection: the round's derived state
  (per-node quality slices, liveness masks, SPNE value tables with a
  per-level "solved" mask), so every hop of a round reuses what an
  earlier hop already scored or solved.
- ``BatchPlanner.decide_model1`` / ``decide_model2`` — batched
  replacements for the scalar ``select_next_hop`` bodies.

**Bit-identity contract.**  The numpy backend must make *exactly* the
routing decisions the scalar backend makes — same hop choices, same
paths, same ``ScenarioResult`` — so either backend can serve as the
reference for the other.  Three rules keep the float streams and the
RNG stream aligned:

1. *Same scalar inputs.*  Availability values are read from each node's
   cached ``availability_vector()`` normalisation (never re-summed with
   numpy's pairwise summation); selectivity hit counts come from the
   same sorted-round-index bisects the scalar path uses
   (:meth:`HistoryProfile.selectivity_hits_block` and its
   position-aware sibling ``selectivity_hits_block_pos``).
2. *Same float expressions.*  Every arithmetic step mirrors the scalar
   expression tree op for op (``w_s*sigma + w_a*alpha`` then clamp;
   ``(q + tail_sum + 1.0) / (tail_n + 2)``; …) — numpy's float64 ufuncs
   round identically to CPython floats, so equal expressions give equal
   bits.  Batch rows are computed element-wise, so *what else* is in a
   batch can never change a row's bits.
3. *Same RNG order.*  The only RNG consumer on the scoring path is the
   lazy per-link bandwidth draw inside ``CostModel.decision_cost``.
   Cost vectors are therefore computed by a plain Python loop over the
   candidate ids in scalar candidate order, only for top-level
   decisions — never eagerly, never batched — so first-use draws happen
   at exactly the same points of the run.  Quality slices and SPNE
   tables touch no RNG at all, so the order in which a cone is scored
   and solved is free.

**Backward induction as edge states, over the decision's cone.**  A
memo state of the scalar Model II recursion is ``(node, predecessor,
depth)``; since the predecessor is always the node that forwarded here,
the states at each depth are *directed edges* of the overlay, and a
decision with lookahead ``L`` depends only on the edges within ``L``
hops of the deciding node — its cone.  ``decide_model2`` walks that
cone breadth-first from the candidate edges: level ``L`` holds the
candidate edges, and each lower level holds the valid children
(``st_child_edge``, filtered by the no-backtracking and liveness rule)
of the level above, minus the states the round has already solved.
Only the out-edges of cone nodes are scored, and the level step runs
bottom-up on each gathered subset: gather the previous level's values
through the local child table, form candidate means, and reduce per
state with ``np.maximum.reduceat`` (first-maximum index via a
positional ``np.minimum.reduceat``), reproducing the scalar loop's
strict-``>`` first-winner tie behaviour.  A full cone is exactly the
set of the scalar memo's keys, so a decision costs O(its cone), not
O(world):
about 100-150 states at degree 5 and ``L=3``, whatever the overlay
size.  Solved states stay in the frontier's level tables for the rest
of the round.  When the cone's estimated size times
:data:`CONE_WHOLE_AXIS_SHARE` reaches the edge count (small worlds),
the same level step sweeps the whole axis instead, once, and every
later hop of the round is a table lookup.

**Position-aware selectivity.**  ``position_aware_selectivity=True``
conditions ``sigma`` on the upstream hop.  In state space that is
natural: state ``e = (u -> v)`` already carries the predecessor ``u``,
so the induction's base quality becomes a per-(state, child) column
``q_child`` (edge ``v -> w`` scored against ``u``-conditioned
selectivity) instead of the shared per-edge row.  Root decisions score
the deciding node's own slice against the *actual* predecessor
directly (the edge ``predecessor -> node`` need not exist in the CSR —
neighbour sets are not symmetric), cached per ``(node, predecessor)``.

**Snapshot semantics.**  Quality and availability are snapshotted per
context and round index — exactly the lifetime of the scalar backend's
edge-quality cache (histories commit after the round; probe counters
advance between rounds).  A node's availability slice is re-read, if
its ``availability_version`` moved, when the node's edges are first
scored in that epoch; topology is checked once per context.  Liveness
is snapshotted per formation *attempt*:
``ForwardingContext.begin_attempt`` observes
``Overlay.liveness_version`` so a mid-round crash (fault injection)
refreshes the candidate world for the next attempt on both backends.

**Small-world crossover.**  Model II has none: a decision costs its
cone on every world size, and the numpy backend beats the scalar
reference on every rung of the scale ladder, 40 nodes included (see
docs/PERFORMANCE.md).  Model I scores one candidate row per decision,
and on tiny rows the array bookkeeping costs more than the scalar loop
(measured ~3x slower at degree 5), so its dispatch stays scalar below
:data:`MODEL1_KERNEL_MIN_CANDIDATES` candidates unless the context
disables the crossover.  Both branches are bit-identical, so mixing
them within one run is sound.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.sim.monitoring import PERF

if TYPE_CHECKING:  # typing only: no runtime dependency on the upper layers
    from repro.core.routing import ForwardingContext
    from repro.network.overlay import Overlay


#: Recognised backend names, in preference-documentation order.
BACKENDS: Tuple[str, ...] = ("python", "numpy")

#: Environment variable consulted by :func:`default_backend`.
BACKEND_ENV = "REPRO_BACKEND"

#: Model I stays scalar below this many neighbours at the deciding node:
#: a single tiny candidate row costs more to stage into arrays than to
#: loop over (measured crossover on the hotpath benchmarks).
MODEL1_KERNEL_MIN_CANDIDATES = 12

#: A Model II solve sweeps the whole state axis instead of the cone
#: when the cone's estimated size times this share reaches the edge
#: count.  A whole-axis level serves every later hop of the round, a
#: cone level only its own decision; on small worlds the cone covers
#: most of the axis anyway, so one sweep per round beats one cone walk
#: per hop.  Measured at degree 5, L=3 (scale-ladder workload, median
#: simulate of 7 runs, whole-axis time / cone time): 0.43 at 40 nodes,
#: 0.72 at 200, 0.85 at 300, 1.04 at 400, 1.07 at 500, 1.62 at 600 and
#: 2.04 at 800.  A cone estimate is ~125-155 states there, so 12
#: switches to the cone at ~300-370 nodes, just below that crossover.
#: Forcing the cone everywhere (share 0) cost ``paper-u2l3`` (40 nodes)
#: 66 % on ``wall_s`` and 40 % on ``rounds_per_s`` over 10 alternating
#: perfbench pairs, beyond the benchmark's 0.25 bound
#: (docs/PERFORMANCE.md, "The small-world crossover").
CONE_WHOLE_AXIS_SHARE = 12

#: Frontier cache bound per planner (oldest evicted first).  Generous:
#: a frontier is a handful of per-edge arrays, and scenarios keep well
#: under this many connections open at once.
MAX_FRONTIERS = 128


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend, else raise ``ValueError``."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {list(BACKENDS)}"
        )
    return name


def default_backend() -> str:
    """The process-wide default backend: ``$REPRO_BACKEND`` or ``numpy``.

    The batched numpy kernels are the default — the scalar backend is
    the executable specification, kept bit-identical by the
    differential suite and selectable with ``REPRO_BACKEND=python``
    (or an explicit ``backend=`` argument) when stepping through
    decisions matters more than throughput.
    """
    value = os.environ.get(BACKEND_ENV, "").strip()
    if not value:
        return "numpy"
    return validate_backend(value)


class WorldArrays:
    """Struct-of-arrays view of the overlay, shared across rounds.

    Layout (all arrays are index-aligned on the *directed edge* axis;
    ``indptr`` is indexed by node id, so edge ``e`` with
    ``indptr[u] <= e < indptr[u+1]`` is the edge ``u -> nbr_flat[e]``,
    neighbours sorted ascending — the scalar candidate order):

    ``indptr``         CSR row pointers per node id.
    ``nbr_flat``       Edge head (neighbour id) per edge.
    ``owner_flat``     Edge tail (owning node id) per edge.
    ``alpha_flat``     Cached availability ``alpha(owner -> head)``.

    SPNE structure (state ``e`` = edge, i.e. "standing at ``head(e)``
    having arrived from ``owner(e)``"; its children are the CSR entries
    of ``head(e)``):

    ``st_counts``         Children per state.
    ``st_red_idx``        Segment starts for ``reduceat`` (clipped).
    ``st_child_edge``     Flat child -> edge index gather table.
    ``st_child_not_pred`` Per child: head differs from the state's
                          predecessor (the no-backtracking filter).

    Invalidation: :meth:`ensure_fresh` rebuilds the topology (and bumps
    ``generation``) when any node's ``neighbors_version`` moved or the
    node population changed.  Availability is checked per node, not per
    world: :meth:`refresh_alpha` re-reads a node's ``alpha_flat`` slice
    when its ``availability_version`` moved, and the planner calls it
    only for the nodes whose edges it is about to score.  A probe sweep
    that touches every node therefore costs nothing until a decision's
    cone reaches the node.  Liveness is *not* stored here — it changes
    mid-round under fault injection and is masked per :class:`Frontier`.
    """

    def __init__(self, overlay: "Overlay") -> None:
        self.overlay = overlay
        #: Bumped on every topology rebuild; frontiers compare against it.
        self.generation = 0
        self.size = 0
        self.n_edges = 0
        self.indptr: Optional[np.ndarray] = None
        #: ``indptr`` as a Python list, for per-node slice offsets in
        #: Python loops (no numpy scalar boxing per lookup).
        self.starts: List[int] = []
        self.nbr_flat = np.zeros(0, dtype=np.int64)
        self.owner_flat = np.zeros(0, dtype=np.int64)
        self.alpha_flat = np.zeros(0, dtype=np.float64)
        self.nbr_lists: Dict[int, List[int]] = {}
        #: Out-degree per node id, and the ids with at least one edge.
        self.deg = np.zeros(0, dtype=np.int64)
        self.owners = np.zeros(0, dtype=np.int64)
        self.st_counts = np.zeros(0, dtype=np.int64)
        self.st_red_idx = np.zeros(0, dtype=np.int64)
        self.st_child_edge = np.zeros(0, dtype=np.int64)
        self.st_child_not_pred = np.zeros(0, dtype=bool)
        #: Unclipped per-state child offsets (``st_offsets[s]`` is the
        #: first flat-child index of state ``s``; length ``n_edges+1``).
        #: A cone walk gathers a state's children from here; the sharded
        #: engine bisects it for balanced per-worker child counts.
        self.st_offsets = np.zeros(1, dtype=np.int64)
        self._nbr_versions: Dict[int, int] = {}
        self._alpha_versions: Dict[int, int] = {}
        #: O(1) staleness token: (overlay.topology_version, overlay
        #: ``_next_id``, node count) at the last rebuild, trusted only
        #: when every snapshot node's ``_topology_listener`` was wired
        #: to this overlay (``_wired_snapshot``) — unwired nodes mutate
        #: without bumping the aggregate counter, so the per-node scan
        #: stays the authoritative fallback.
        self._topo_token: Optional[tuple] = None
        self._wired_snapshot = False
        self._perf = PERF.counters

    # -- freshness ---------------------------------------------------------
    def ensure_fresh(self) -> None:
        """Bring the topology arrays up to date (O(1) when nothing
        changed and every node is wired to the overlay's aggregate
        counter; one version compare per node otherwise)."""
        if self._topology_stale():
            self._rebuild_topology()

    def _topology_stale(self) -> bool:
        if self.indptr is None:
            return True
        overlay = self.overlay
        if self._wired_snapshot and self._topo_token == (
            getattr(overlay, "topology_version", None),
            getattr(overlay, "_next_id", None),
            len(overlay.nodes),
        ):
            # Every snapshot node pushes neighbour-set changes into the
            # overlay's aggregate counter, node creation bumps
            # ``_next_id`` and removal shrinks ``nodes`` — so three
            # O(1) compares cover everything the scan below detects.
            return False
        nodes = overlay.nodes
        vers = self._nbr_versions
        if len(nodes) != len(vers):
            return True
        get = vers.get
        for nid, node in nodes.items():
            if get(nid) != node.neighbors_version:
                return True
        return False

    def _rebuild_topology(self) -> None:
        nodes = self.overlay.nodes
        ids = sorted(nodes)
        nbr_lists: Dict[int, List[int]] = {}
        vers: Dict[int, int] = {}
        max_ref = ids[-1] if ids else -1
        for nid in ids:
            node = nodes[nid]
            lst = sorted(node.neighbors)
            nbr_lists[nid] = lst
            vers[nid] = node.neighbors_version
            if lst and lst[-1] > max_ref:
                max_ref = lst[-1]
        size = max_ref + 1
        indptr = np.zeros(size + 1, dtype=np.int64)
        for nid, lst in nbr_lists.items():
            indptr[nid + 1] = len(lst)
        np.cumsum(indptr, out=indptr)
        n_edges = int(indptr[-1]) if size else 0
        # nbr_lists iterates in ascending-id insertion order and absent
        # ids contribute empty segments, so concatenating the lists IS
        # the CSR payload.
        nbr_flat = np.fromiter(
            (j for lst in nbr_lists.values() for j in lst),
            dtype=np.int64,
            count=n_edges,
        )
        deg = np.diff(indptr)
        owner_flat = np.repeat(np.arange(size, dtype=np.int64), deg)

        self.size = size
        self.n_edges = n_edges
        self.deg = deg
        self.owners = np.flatnonzero(deg)
        self.indptr = indptr
        self.starts = indptr.tolist()
        self.nbr_flat = nbr_flat
        self.owner_flat = owner_flat
        self.nbr_lists = nbr_lists
        self._nbr_versions = vers
        cb = getattr(self.overlay, "_on_topology_change", None)
        self._wired_snapshot = cb is not None and all(
            node._topology_listener == cb for node in nodes.values()
        )
        self._topo_token = (
            getattr(self.overlay, "topology_version", None),
            getattr(self.overlay, "_next_id", None),
            len(nodes),
        )
        self._build_state_structure()
        # Alpha slices are laid out per edge; a new layout means every
        # slice must be re-read.
        self.alpha_flat = np.zeros(n_edges, dtype=np.float64)
        self._alpha_versions = {}
        self.generation += 1
        self._perf.array_rebuilds += 1

    def _build_state_structure(self) -> None:
        """Derive the SPNE gather tables from the CSR (pure topology)."""
        assert self.indptr is not None
        if self.n_edges == 0:
            self.st_counts = np.zeros(0, dtype=np.int64)
            self.st_red_idx = np.zeros(0, dtype=np.int64)
            self.st_child_edge = np.zeros(0, dtype=np.int64)
            self.st_child_not_pred = np.zeros(0, dtype=bool)
            self.st_offsets = np.zeros(1, dtype=np.int64)
            return
        head = self.nbr_flat
        st_counts = self.deg[head]
        offsets = np.concatenate(
            ([0], np.cumsum(st_counts))
        ).astype(np.int64, copy=False)
        total = int(offsets[-1])
        self.st_counts = st_counts
        self.st_offsets = offsets
        # reduceat needs in-bounds starts; empty trailing segments are
        # clipped here and their garbage results overwritten by the dead
        # mask downstream.
        self.st_red_idx = np.minimum(offsets[:-1], max(total - 1, 0))
        if total == 0:
            self.st_child_edge = np.zeros(0, dtype=np.int64)
            self.st_child_not_pred = np.zeros(0, dtype=bool)
            return
        # Segmented arange: child c of state e maps to CSR entry
        # indptr[head(e)] + (c's rank within the segment).
        pos = np.arange(total, dtype=np.int64)
        rank = pos - np.repeat(offsets[:-1], st_counts)
        child_edge = np.repeat(self.indptr[head], st_counts) + rank
        child_ids = self.nbr_flat[child_edge]
        pred_rep = np.repeat(self.owner_flat, st_counts)
        self.st_child_edge = child_edge
        self.st_child_not_pred = child_ids != pred_rep

    def refresh_alpha(self, node_ids: List[int]) -> None:
        """Re-read the ``alpha_flat`` slice of every listed node whose
        ``availability_version`` moved since its slice was last read.

        Callers pass only nodes that own at least one edge.  The values
        are each node's own cached normalisation: these are the exact
        floats the scalar backend scores with (re-summing in numpy would
        round differently).
        """
        nodes = self.overlay.nodes
        avers = self._alpha_versions
        starts = self.starts
        nbr_lists = self.nbr_lists
        alpha = self.alpha_flat
        refreshed = False
        for nid in node_ids:
            node = nodes[nid]
            ver = node.availability_version
            if avers.get(nid) == ver:
                continue
            lst = nbr_lists[nid]
            av = node.availability_vector()
            start = starts[nid]
            alpha[start : start + len(lst)] = [av[j] for j in lst]
            avers[nid] = ver
            refreshed = True
        if refreshed:
            self._perf.array_rebuilds += 1


def spne_state_validity(
    valid0: np.ndarray,
    child_edge: np.ndarray,
    not_pred_mask: np.ndarray,
    st_counts: np.ndarray,
    red_idx: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """State-level candidate validity for one contiguous state range.

    ``child_edge``/``not_pred_mask``/``red_idx`` describe the range's
    *local* child axis (``red_idx`` indexes into it); ``valid0`` is the
    full edge-axis liveness row the children gather from.  Returns the
    per-child ``st_valid`` mask and per-state ``st_dead`` mask.

    This is the single code path for both the whole-axis planner build
    and the sharded per-worker build: ``logical_or.reduceat`` is
    order-insensitive within a segment and segments never straddle a
    range boundary, so any partition of the state axis produces the
    same masks the whole-axis call produces.
    """
    if child_edge.size == 0:
        return np.zeros(0, dtype=bool), np.ones(st_counts.size, dtype=bool)
    v0c = valid0[child_edge]
    not_pred = v0c & not_pred_mask
    # Scalar fallback rule, per state: exclude the predecessor
    # unless that empties the candidate set.
    has_alt = np.logical_or.reduceat(not_pred, red_idx)
    use_filtered = np.repeat(has_alt, st_counts)
    st_valid = np.where(use_filtered, not_pred, v0c)
    has_any = np.logical_or.reduceat(st_valid, red_idx)
    has_any[st_counts == 0] = False
    return st_valid, ~has_any


def spne_level_step(
    base_child: np.ndarray,
    prev_sum: np.ndarray,
    prev_n: np.ndarray,
    child_edge: np.ndarray,
    st_counts: np.ndarray,
    red_idx: np.ndarray,
    child_pos: np.ndarray,
    st_valid: np.ndarray,
    st_dead: np.ndarray,
    out_sum: np.ndarray,
    out_n: np.ndarray,
) -> None:
    """One backward-induction level for one contiguous state range.

    ``prev_sum``/``prev_n`` are the *complete* previous level (children
    may live in any state range); everything else is local to the range
    (``base_child`` is the child-axis base quality, already gathered by
    the caller; ``red_idx``/``child_pos`` index the local child axis).
    Results are written into ``out_sum``/``out_n`` (length = states in
    the range) — for the sharded engine these are shared-memory views.

    Bitwise range-decomposition safety: the arithmetic is element-wise,
    ``maximum``/``minimum.reduceat`` are order-insensitive per segment,
    and segments never straddle a range boundary; the only range-
    dependent values are the garbage rows of empty trailing segments,
    which the ``st_dead`` overwrite zeroes either way.
    """
    if child_edge.size == 0:
        out_sum[:] = 0.0
        out_n[:] = 0
        return
    total_sum = base_child + prev_sum[child_edge]
    total_n = 1 + prev_n[child_edge]
    mean = total_sum / total_n
    # Invalid children get a sentinel below every reachable mean
    # (means are >= 0; the scalar loop's initial best is -1.0).
    masked = np.where(st_valid, mean, -2.0)
    seg_max = np.maximum.reduceat(masked, red_idx)
    # First index attaining the segment max == the scalar loop's
    # strict-`>` first winner (children are in ascending-id,
    # i.e. scalar candidate, order).
    at_max = masked == np.repeat(seg_max, st_counts)
    pos = np.where(at_max, child_pos, child_edge.size)
    first = np.minimum.reduceat(pos, red_idx)
    sel = np.minimum(first, child_edge.size - 1)
    out_sum[:] = total_sum[sel]
    out_n[:] = total_n[sel]
    out_sum[st_dead] = 0.0
    out_n[st_dead] = 0


def _refers_to(ref: Optional[weakref.ref], obj: object) -> bool:
    return ref is not None and ref() is obj


def _segments(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions of the concatenated segments ``[start, start +
    count)``, plus each segment's offset into that flat axis."""
    offs = np.cumsum(counts) - counts
    total = int(offs[-1] + counts[-1]) if counts.size else 0
    pos = np.repeat(starts - offs, counts) + np.arange(total, dtype=np.int64)
    return pos, offs


class _ConeLevel(NamedTuple):
    """One level of a backward-induction sweep: the states to solve with
    ``depth`` edges of lookahead left and their gathered child axis.

    ``states``/``slots`` are ``None`` for a whole-axis sweep (every
    state, the world's own child tables); otherwise ``states`` are edge
    ids and ``slots`` their children's positions on the world's flat
    child axis, with ``child_edge``, ``counts``, ``red_idx`` and the
    validity masks local to the gathered subset.
    """

    depth: int
    states: Optional[np.ndarray]
    slots: Optional[np.ndarray]
    child_edge: np.ndarray
    counts: np.ndarray
    red_idx: np.ndarray
    st_valid: np.ndarray
    st_dead: np.ndarray


class Frontier:
    """Per-connection derived state inside a :class:`BatchPlanner`.

    Two epochs, invalidated independently:

    - quality and SPNE values (``q_*``, ``pos_q_cache``, ``levels_*``):
      one :class:`~repro.core.routing.ForwardingContext` at one round
      index — exactly the lifetime of the scalar backend's per-round
      edge-quality cache.  Within the epoch every slice is scored once
      and every solved state is kept, so later hops of the round reuse
      whatever an earlier hop's cone already covered.  The level values
      additionally key on the liveness token and the position-aware flag;
    - liveness (``valid0``/``st_valid``/``st_dead`` and the cost cache):
      keyed ``Overlay.liveness_version`` and the responder.
    """

    __slots__ = (
        "cid",
        "responder",
        "generation",
        "epoch",
        "round_index",
        "q_flat",
        "q_built",
        "q_child",
        "q_child_built",
        "pos_q_cache",
        "valid0",
        "st_valid",
        "st_dead",
        "liveness_token",
        "levels_sum",
        "levels_n",
        "levels_done",
        "levels_key",
        "cost_cache",
    )

    def __init__(self, cid: int, responder: int) -> None:
        self.cid = cid
        self.responder = responder
        self.generation = -1
        #: Weak reference to the context the quality epoch belongs to
        #: (with ``round_index``).  Weak, so a finished round's context
        #: and its caches are freed as soon as the protocol drops it.
        self.epoch: Optional[weakref.ref] = None
        self.round_index = -1
        self.q_flat = np.zeros(0, dtype=np.float64)
        #: Per node id: its out-edge slice of ``q_flat`` is scored.
        self.q_built = np.zeros(0, dtype=bool)
        #: Position-aware base quality on the flat child axis, scored
        #: per state (``q_child_built`` is indexed by edge/state id).
        self.q_child: Optional[np.ndarray] = None
        self.q_child_built: Optional[np.ndarray] = None
        self.pos_q_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self.valid0: Optional[np.ndarray] = None
        self.st_valid: Optional[np.ndarray] = None
        self.st_dead: Optional[np.ndarray] = None
        self.liveness_token: Optional[int] = None
        #: ``levels_sum[d][e]``/``levels_n[d][e]``: the scalar memo's
        #: ``(best_sum, best_n)`` for state ``e`` with ``d`` edges of
        #: lookahead left, valid where ``levels_done[d][e]``.
        self.levels_sum: List[np.ndarray] = []
        self.levels_n: List[np.ndarray] = []
        self.levels_done: List[np.ndarray] = []
        self.levels_key: Optional[tuple] = None
        self.cost_cache: Dict[Tuple[int, Optional[int]], np.ndarray] = {}


class BatchPlanner:
    """Model I/II decisions over a shared :class:`WorldArrays`: one per
    :class:`PathBuilder` (or per bare context), holding one
    :class:`Frontier` per open connection.

    All contexts routed through one planner must share ``histories``
    and ``weights`` (true for every context a single ``PathBuilder``
    creates) — quality slices are built from them without re-reading
    per decision.  Contract payloads and responders may differ per
    connection; they live on the frontier.
    """

    def __init__(self, world: WorldArrays) -> None:
        self.world = world
        self.frontiers: Dict[int, Frontier] = {}
        self._mask: Optional[np.ndarray] = None
        self._mask_key: Optional[Tuple[int, int]] = None
        self._perf = PERF.counters

    # -- announcements -----------------------------------------------------
    def prepare(self, cid: int, round_index: int, responder: int) -> None:
        """Round-commit hook, called by the protocol layer right after
        connection ``cid`` commits a path; a no-op.

        Nothing can be pre-built: quality and SPNE values belong to the
        context of the round that scores them, and the next round's new
        context starts a new epoch in :meth:`_frontier` on its own.  The
        hook stays so the commit point remains a named, traceable call
        (``perfbench/layers.py`` wraps it).
        """

    # -- frontier bookkeeping ----------------------------------------------
    def _new_frontier(self, cid: int, responder: int) -> Frontier:
        if len(self.frontiers) >= MAX_FRONTIERS:
            self.frontiers.pop(next(iter(self.frontiers)))
        fr = Frontier(cid, responder)
        self.frontiers[cid] = fr
        return fr

    def _reset_frontier(self, fr: Frontier) -> None:
        """Re-size a frontier to a rebuilt topology."""
        world = self.world
        fr.generation = world.generation
        fr.epoch = None
        fr.q_flat = np.zeros(world.n_edges, dtype=np.float64)
        fr.q_built = np.zeros(world.size, dtype=bool)
        fr.q_child = None
        fr.q_child_built = None
        fr.pos_q_cache = {}
        fr.valid0 = None
        fr.st_valid = None
        fr.st_dead = None
        fr.liveness_token = None
        fr.levels_sum = []
        fr.levels_n = []
        fr.levels_done = []
        fr.levels_key = None
        fr.cost_cache = {}

    def _reset_quality(self, fr: Frontier) -> None:
        """Start a new quality epoch: nothing scored, nothing solved."""
        fr.q_built[:] = False
        if fr.q_child_built is not None:
            fr.q_child_built[:] = False
        fr.pos_q_cache.clear()
        fr.levels_key = None

    def _frontier(self, context: "ForwardingContext", node_id: int) -> Frontier:
        """The synced frontier for the context's connection.

        ``WorldArrays.ensure_fresh`` runs once per quality epoch —
        between decisions of one round only liveness can move, and that
        has its own token.
        """
        world = self.world
        fr = self.frontiers.get(context.cid)
        if fr is None:
            fr = self._new_frontier(context.cid, context.responder)
        new_epoch = (
            not _refers_to(fr.epoch, context) or fr.round_index != context.round_index
        )
        if new_epoch or world.indptr is None or node_id + 1 >= world.indptr.size:
            world.ensure_fresh()
        if fr.generation != world.generation:
            self._reset_frontier(fr)
        if fr.responder != context.responder:
            fr.responder = context.responder
            fr.valid0 = None
            fr.st_valid = None
            fr.st_dead = None
            fr.liveness_token = None
            fr.levels_key = None
            fr.cost_cache.clear()
        if new_epoch or fr.epoch is None:
            fr.epoch = weakref.ref(context)
            fr.round_index = context.round_index
            self._reset_quality(fr)
        return fr

    # -- liveness ----------------------------------------------------------
    def _online_mask(self) -> np.ndarray:
        """Overlay liveness as a bool vector, shared across frontiers
        within one ``(liveness_version, generation)`` epoch."""
        world = self.world
        key = (world.overlay.liveness_version, world.generation)
        if key != self._mask_key or self._mask is None:
            self._mask = world.overlay.online_mask(world.size)
            self._mask_key = key
        return self._mask

    def _ensure_liveness(self, fr: Frontier, context: "ForwardingContext") -> None:
        stamp = context.overlay.liveness_version
        if fr.liveness_token == stamp and fr.valid0 is not None:
            return
        world = self.world
        nbr = world.nbr_flat
        online = self._online_mask()
        fr.valid0 = online[nbr] & (nbr != fr.responder)
        # Whole-axis SPNE validity is derived lazily: Model I decisions
        # and cone sweeps never touch it, and it is ~branching-factor
        # times larger than the edge axis.
        fr.st_valid = None
        fr.st_dead = None
        fr.cost_cache.clear()
        fr.liveness_token = stamp
        perf = self._perf
        perf.kernel_calls += 1
        perf.kernel_batch_elements += int(nbr.size)

    def _ensure_state_valid(self, fr: Frontier) -> None:
        if fr.st_valid is not None:
            return
        world = self.world
        fr.st_valid, fr.st_dead = spne_state_validity(
            fr.valid0,
            world.st_child_edge,
            world.st_child_not_pred,
            world.st_counts,
            world.st_red_idx,
        )

    # -- quality -----------------------------------------------------------
    def _quality(
        self,
        context: "ForwardingContext",
        round_index: int,
        hits: "List[int] | np.ndarray",
        alpha: np.ndarray,
    ) -> np.ndarray:
        """``clamp(w_s*sigma + w_a*alpha)`` over a block of hit counts —
        the scalar ``edge_quality`` expression tree, element-wise."""
        max_entries = round_index - 1
        if max_entries == 0:
            sigma = np.zeros(alpha.size, dtype=np.float64)
        else:
            sigma = np.minimum(
                1.0, np.asarray(hits, dtype=np.float64) / max_entries
            )
        weights = context.weights
        q = weights.selectivity * sigma + weights.availability * alpha
        perf = self._perf
        perf.kernel_calls += 1
        perf.kernel_batch_elements += int(alpha.size)
        perf.edges_scored += int(alpha.size)
        return np.minimum(1.0, np.maximum(0.0, q))

    def _ensure_q_nodes(
        self, fr: Frontier, context: "ForwardingContext", node_ids: np.ndarray
    ) -> None:
        """Score the out-edge slices of the listed nodes that this epoch
        has not scored yet, in one vectorised expression.

        Hit counts stay a Python loop of per-node bisect blocks (rule 1
        of the bit-identity contract); availability is re-read per node
        just before its slice is scored.
        """
        world = self.world
        deg = world.deg
        todo = node_ids[~fr.q_built[node_ids]]
        todo = todo[deg[todo] > 0]
        if todo.size == 0:
            return
        ids = todo.tolist()
        world.refresh_alpha(ids)
        histories = context.histories
        nbr_lists = world.nbr_lists
        cid, rnd = fr.cid, fr.round_index
        hits: List[int] = []
        extend = hits.extend
        for nid in ids:
            extend(histories[nid].selectivity_hits_block(cid, nbr_lists[nid], rnd))
        if todo.size == world.owners.size:
            edges: "slice | np.ndarray" = slice(None)  # every slice, in CSR order
        else:
            edges = _segments(world.indptr[todo], deg[todo])[0]
        fr.q_flat[edges] = self._quality(context, rnd, hits, world.alpha_flat[edges])
        fr.q_built[todo] = True

    def _ensure_q_child(
        self, fr: Frontier, context: "ForwardingContext", states: np.ndarray
    ) -> None:
        """Position-aware base quality for the children of ``states``:
        the edge ``head(e) -> child`` scored against selectivity
        conditioned on ``owner(e)`` — the predecessor the SPNE state
        already encodes."""
        world = self.world
        q_child, built = fr.q_child, fr.q_child_built
        if q_child is None or built is None:
            q_child = fr.q_child = np.zeros(world.st_child_edge.size, dtype=np.float64)
            built = fr.q_child_built = np.zeros(world.n_edges, dtype=bool)
        todo = states[~built[states]]
        todo = todo[world.st_counts[todo] > 0]
        if todo.size == 0:
            return
        heads = world.nbr_flat[todo]
        world.refresh_alpha(np.unique(heads).tolist())
        histories = context.histories
        nbr_lists = world.nbr_lists
        cid, rnd = fr.cid, fr.round_index
        hits: List[int] = []
        extend = hits.extend
        for head, owner in zip(heads.tolist(), world.owner_flat[todo].tolist()):
            extend(
                histories[head].selectivity_hits_block_pos(
                    cid, owner, nbr_lists[head], rnd
                )
            )
        slots, _ = _segments(world.st_offsets[todo], world.st_counts[todo])
        alpha = world.alpha_flat[world.st_child_edge[slots]]
        q_child[slots] = self._quality(context, rnd, hits, alpha)
        built[todo] = True

    def _pos_q(
        self, fr: Frontier, context: "ForwardingContext", node_id: int, predecessor: int
    ) -> np.ndarray:
        """Root-decision quality slice for ``node_id`` conditioned on the
        actual ``predecessor``.  Computed directly from the node's own
        candidate list — the edge ``predecessor -> node`` need not exist
        in the CSR (neighbour sets are not symmetric), so this cannot be
        a ``q_child`` lookup."""
        key = (node_id, predecessor)
        cached = fr.pos_q_cache.get(key)
        if cached is not None:
            return cached
        world = self.world
        world.refresh_alpha([node_id])
        start = world.starts[node_id]
        end = world.starts[node_id + 1]
        hits = context.histories[node_id].selectivity_hits_block_pos(
            fr.cid, predecessor, world.nbr_lists[node_id], fr.round_index
        )
        q = self._quality(context, fr.round_index, hits, world.alpha_flat[start:end])
        fr.pos_q_cache[key] = q
        return q

    def _root_quality(
        self,
        fr: Frontier,
        context: "ForwardingContext",
        node_id: int,
        predecessor: Optional[int],
        cand_idx: np.ndarray,
    ) -> np.ndarray:
        """First-edge qualities of the candidate set."""
        sel_pred = context.selectivity_predecessor(predecessor)
        if sel_pred is None:
            if not fr.q_built[node_id]:
                self._ensure_q_nodes(fr, context, np.array([node_id], dtype=np.int64))
            return fr.q_flat[cand_idx]
        start = self.world.starts[node_id]
        return self._pos_q(fr, context, node_id, sel_pred)[cand_idx - start]

    # -- SPNE value tables ---------------------------------------------------
    def _sync_levels(self, fr: Frontier, depth: int, position_aware: bool) -> None:
        """Level tables up to ``depth`` for the current epoch.  Level 0
        is all zeros and always solved."""
        key = (fr.liveness_token, position_aware)
        if fr.levels_key != key:
            for done in fr.levels_done[1:]:
                done[:] = False
            fr.levels_key = key
        n_edges = self.world.n_edges
        while len(fr.levels_done) <= depth:
            level_zero = not fr.levels_done
            fr.levels_sum.append(np.zeros(n_edges, dtype=np.float64))
            fr.levels_n.append(np.zeros(n_edges, dtype=np.int64))
            fr.levels_done.append(np.full(n_edges, level_zero, dtype=bool))

    def _solve(
        self,
        fr: Frontier,
        context: "ForwardingContext",
        roots: np.ndarray,
        depth: int,
        position_aware: bool,
    ) -> None:
        """Solve ``levels[depth]`` for the ``roots`` states: walk their
        cone (or the whole axis, when the cone would cover most of it),
        score the cone's edges, then run the level steps bottom-up."""
        self._sync_levels(fr, depth, position_aware)
        if fr.levels_done[depth][roots].all():
            return
        if self._cone_bound(roots.size, depth) * CONE_WHOLE_AXIS_SHARE >= self.world.n_edges:
            plan = self._axis_plan(fr, depth)
        else:
            plan = self._cone_plan(fr, roots, depth)
        self._score_plan(fr, context, plan, position_aware)
        for level in reversed(plan):
            self._level_step(fr, level, position_aware)

    def _cone_bound(self, n_roots: int, depth: int) -> float:
        """Estimated state count of a cone, from the mean branching
        factor (children per state)."""
        world = self.world
        branching = world.st_child_edge.size / max(world.n_edges, 1)
        return n_roots * sum(branching**i for i in range(depth))

    def _axis_plan(self, fr: Frontier, depth: int) -> List[_ConeLevel]:
        """Every state of every unsolved level, top level first (a
        fully solved level needs nothing below it)."""
        world = self.world
        self._ensure_state_valid(fr)
        plan = []
        for d in range(depth, 0, -1):
            if fr.levels_done[d].all():
                break
            plan.append(
                _ConeLevel(
                    d,
                    None,
                    None,
                    world.st_child_edge,
                    world.st_counts,
                    world.st_red_idx,
                    fr.st_valid,
                    fr.st_dead,
                )
            )
        return plan

    def _cone_plan(self, fr: Frontier, roots: np.ndarray, depth: int) -> List[_ConeLevel]:
        """Breadth-first walk of the unsolved part of the roots' cone,
        top level first.  Only *valid* children descend a level: an
        invalid child's value is masked out of its parent's choice, so
        the walk visits exactly the scalar memo's keys."""
        world = self.world
        plan = []
        states = roots
        for d in range(depth, 0, -1):
            states = states[~fr.levels_done[d][states]]
            if states.size == 0:
                break
            counts = world.st_counts[states]
            slots, offs = _segments(world.st_offsets[states], counts)
            child_edge = world.st_child_edge[slots]
            red_idx = np.minimum(offs, max(slots.size - 1, 0))
            st_valid, st_dead = spne_state_validity(
                fr.valid0, child_edge, world.st_child_not_pred[slots], counts, red_idx
            )
            plan.append(
                _ConeLevel(d, states, slots, child_edge, counts, red_idx, st_valid, st_dead)
            )
            if d > 1:
                states = np.unique(child_edge[st_valid])
        return plan

    def _score_plan(
        self,
        fr: Frontier,
        context: "ForwardingContext",
        plan: List[_ConeLevel],
        position_aware: bool,
    ) -> None:
        """Base quality for every child the plan's level steps read."""
        world = self.world
        whole = plan[0].states is None
        if position_aware:
            if whole:
                states = np.arange(world.n_edges, dtype=np.int64)
            else:
                states = np.unique(np.concatenate([level.states for level in plan]))
            self._ensure_q_child(fr, context, states)
        elif whole:
            self._ensure_q_nodes(fr, context, world.owners)
        else:
            heads = [world.nbr_flat[level.states] for level in plan]
            self._ensure_q_nodes(fr, context, np.unique(np.concatenate(heads)))

    def _level_step(self, fr: Frontier, level: _ConeLevel, position_aware: bool) -> None:
        """Run :func:`spne_level_step` for one planned level and store
        the solved states."""
        d = level.depth
        child_edge = level.child_edge
        if position_aware:
            base_child = fr.q_child if level.slots is None else fr.q_child[level.slots]
        else:
            base_child = fr.q_flat[child_edge]
        n_states = level.counts.size
        out_sum = np.empty(n_states, dtype=np.float64)
        out_n = np.empty(n_states, dtype=np.int64)
        spne_level_step(
            base_child,
            fr.levels_sum[d - 1],
            fr.levels_n[d - 1],
            child_edge,
            level.counts,
            level.red_idx,
            np.arange(child_edge.size, dtype=np.int64),
            level.st_valid,
            level.st_dead,
            out_sum,
            out_n,
        )
        if level.states is None:
            fr.levels_sum[d] = out_sum
            fr.levels_n[d] = out_n
            fr.levels_done[d][:] = True
        else:
            fr.levels_sum[d][level.states] = out_sum
            fr.levels_n[d][level.states] = out_n
            fr.levels_done[d][level.states] = True
        perf = self._perf
        perf.kernel_calls += 1
        perf.kernel_batch_elements += int(child_edge.size)
        perf.spne_states_swept += n_states

    # -- candidates & costs -------------------------------------------------
    def _candidates(
        self, fr: Frontier, node_id: int, predecessor: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(flat edge indices, neighbour ids) of the candidate set, in
        ascending-id order — the scalar ``candidates()`` semantics."""
        world = self.world
        start = world.starts[node_id]
        end = world.starts[node_id + 1]
        ids = world.nbr_flat[start:end]
        valid = fr.valid0[start:end]
        if predecessor is not None:
            without_pred = valid & (ids != predecessor)
            if without_pred.any():
                valid = without_pred
        rel = np.nonzero(valid)[0]
        return rel + start, ids[rel]

    def _costs(
        self,
        fr: Frontier,
        context: "ForwardingContext",
        node_id: int,
        predecessor: Optional[int],
        participation_cost: float,
        cand_ids: np.ndarray,
    ) -> np.ndarray:
        """Decision costs in candidate order.

        Deliberately a Python loop: ``decision_cost`` may draw a lazy
        per-link bandwidth sample from the shared RNG on first use, so
        the call order must match the scalar backend exactly.  Cached
        per (node, predecessor) within a liveness epoch — repeat calls
        hit the bandwidth model's own pair cache and draw nothing, so
        skipping them cannot shift the RNG stream.
        """
        key = (node_id, predecessor)
        cached = fr.cost_cache.get(key)
        if cached is not None:
            return cached
        decision_cost = context.cost_model.decision_cost
        payload = context.contract.payload_size
        out = np.array(
            [
                decision_cost(participation_cost, node_id, nbr, payload)
                for nbr in cand_ids.tolist()
            ],
            dtype=np.float64,
        )
        fr.cost_cache[key] = out
        return out

    # -- decisions ----------------------------------------------------------
    def decide_model1(
        self, strategy, node, predecessor: Optional[int], context: "ForwardingContext"
    ) -> Optional[int]:
        """Batched Utility Model I: whole candidate set -> utility vector,
        arraywise argmax with the quality/id tie-break."""
        node_id = node.node_id
        fr = self._frontier(context, node_id)
        self._ensure_liveness(fr, context)
        cand_idx, cand_ids = self._candidates(fr, node_id, predecessor)
        if cand_ids.size == 0:
            return None
        q = self._root_quality(fr, context, node_id, predecessor, cand_idx)
        cost = self._costs(
            fr, context, node_id, predecessor, node.participation_cost, cand_ids
        )
        if q.min() < 0.0 or q.max() > 1.0:
            raise ValueError(f"edge quality out of [0,1]: {q}")
        if cost.min() < 0:
            raise ValueError(f"negative cost {cost.min()}")
        contract = context.contract
        utility = (
            contract.forwarding_benefit + q * contract.routing_benefit - cost
        )
        perf = self._perf
        perf.utility_evaluations += int(cand_ids.size)
        perf.kernel_calls += 1
        perf.kernel_batch_elements += int(cand_ids.size)
        pos = _argmax_lex(utility, q)
        if float(utility[pos]) < strategy.participation_threshold:
            return None
        return int(cand_ids[pos])

    def decide_model2(
        self, strategy, node, predecessor: Optional[int], context: "ForwardingContext"
    ) -> Optional[int]:
        """Batched Utility Model II: level-synchronous backward induction
        over the candidates' L-hop cone, then one vectorised root
        decision."""
        node_id = node.node_id
        fr = self._frontier(context, node_id)
        self._ensure_liveness(fr, context)
        cand_idx, cand_ids = self._candidates(fr, node_id, predecessor)
        if cand_ids.size == 0:
            return None
        depth = strategy.lookahead
        self._solve(fr, context, cand_idx, depth, context.position_aware_selectivity)
        tail_sum = fr.levels_sum[depth][cand_idx]
        tail_n = fr.levels_n[depth][cand_idx]
        q_root = self._root_quality(fr, context, node_id, predecessor, cand_idx)
        # Terminal delivery edge (quality 1) appended, then normalised —
        # same expression tree as the scalar path_quality_through.
        path_q = (q_root + tail_sum + 1.0) / (tail_n + 2)
        if path_q.min() < 0.0 or path_q.max() > 1.0:
            raise ValueError(f"path quality out of [0,1]: {path_q}")
        cost = self._costs(
            fr, context, node_id, predecessor, node.participation_cost, cand_ids
        )
        if cost.min() < 0:
            raise ValueError(f"negative cost {cost.min()}")
        contract = context.contract
        utility = (
            contract.forwarding_benefit + path_q * contract.routing_benefit - cost
        )
        perf = self._perf
        perf.utility_evaluations += int(cand_ids.size)
        perf.kernel_calls += 1
        perf.kernel_batch_elements += int(cand_ids.size)
        pos = _argmax_lex(utility, path_q)
        if float(utility[pos]) < strategy.participation_threshold:
            return None
        return int(cand_ids[pos])


def _argmax_lex(utility: np.ndarray, quality: np.ndarray) -> int:
    """First position maximising ``(utility, quality)``.

    Candidates arrive in ascending-id order, so the first position among
    full ties is the lowest id — exactly the scalar
    ``_argmax_with_quality_tiebreak`` ordering ``(u, q, -id)``.
    """
    ties = utility == utility.max()
    if int(ties.sum()) > 1:
        # Qualities are >= 0, so -1.0 can never win the masked max.
        masked_q = np.where(ties, quality, -1.0)
        ties = masked_q == masked_q.max()
    return int(np.argmax(ties))
