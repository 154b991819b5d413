"""Algorithm 1: the deterministic, time-optimal LOCAL-model algorithm (Section 4).

Every node ``u`` gossips its current approximation ``B̂(u, i)`` of its ``i``-hop
neighborhood.  It decides on the current round number ``i`` as its estimate of
``log n`` as soon as it either

* notices *structural inconsistencies* in the received topology information
  (a node with degree above the known bound Δ, conflicting incident-edge sets
  for the same node, or a mute neighbor -- Lines 5-7 and the
  ``inconsistent`` predicate), or
* finds a vertex subset of its view whose vertex expansion drops below the
  threshold α′ (Lines 9-13).

Theorem 1: on a bounded-degree graph with constant vertex expansion and up to
``n^(1-γ)`` adversarially placed Byzantine nodes, all ``n - o(n)`` nodes of the
``Good`` set (Lemma 1) decide a value between ``⌊(γ/2)·log_Δ n⌋`` and
``diam(G) + 1``, i.e. a constant-factor approximation of ``log n``, within
``O(log n)`` rounds.

Implementation notes (also summarized in DESIGN.md §2.3)
---------------------------------------------------------
* **Expansion check family.**  Line 9 of the pseudocode checks *every* subset
  of the local view -- exponential local computation, which the LOCAL model
  permits but a simulator cannot afford for views of thousands of vertices.
  The correctness argument only ever relies on two kinds of sets:

  1. the per-radius balls ``B̂(u, j)`` (Lemma 3's induction), and
  2. the honest part ``R`` of the view, whose out-boundary consists solely of
     the (few) Byzantine vertices because fake vertices can never be claimed
     adjacent to an honest vertex without contradicting that honest vertex's
     own edge report (Lemma 4/5).

  We therefore check (1) every BFS-layer prefix of the view, (2) the
  *interior set* of the view -- the settled vertices all of whose claimed
  neighbors are settled, which contains the honest region once the network
  has been fully explored and whose out-boundary is then exactly the set of
  vertices the adversary is still "growing" -- and (3) whether the view grew
  at all this round (the ``Out(B̂(u,i)) = ∅`` case that forces the Lemma 5
  decision at ``diam(G)+1``).  An exhaustive all-subsets check
  (``LocalParameters.exhaustive_subset_check``) is available for small views
  and is used by the unit tests to confirm the practical family triggers the
  same decisions there.  An unbounded adversary willing to fabricate a fake
  region whose *frontier* grows as Ω(α′·n) fresh vertices per round can evade
  the polynomial family (but not the exhaustive one); the experiment suite
  measures the shipped adversaries, which are caught (see EXPERIMENTS.md).
* **Delta gossip.**  Honest nodes broadcast only the part of their view that
  is new since the previous round; re-broadcasting the full view every round
  carries no additional information in a synchronous network and would make
  large simulations needlessly slow.  Message sizes still grow with the
  frontier (Θ(Δ^i) identifiers), preserving the paper's point that
  Algorithm 1 is *not* a small-message algorithm (experiment E10).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, KeysView, List, Optional, Sequence, Set, Tuple

from repro.core.parameters import LocalParameters
from repro.simulator.byzantine import Adversary
from repro.simulator.churn import ChurnSchedule
from repro.graphs.graph import Graph
from repro.simulator.messages import Message
from repro.simulator.node import Broadcast, NodeContext, Outbox, Protocol

if TYPE_CHECKING:
    from repro.scenarios.execute import ProtocolRun

__all__ = [
    "LocalView",
    "ClaimInterner",
    "LocalCountingProtocol",
    "run_local_counting",
]

#: Payload of a topology message: newly learned ``(node_id, incident_edge_ids)``
#: pairs plus newly learned frontier vertex ids.
TopologyDelta = Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], Tuple[int, ...]]


def _claim_accounting(node_id: int, edges: Sequence[int]) -> Tuple[int, int]:
    """Exact ``estimate_payload_bits`` cost and id count of one claim entry
    inside a delta payload (see ``LocalCountingProtocol._queue_delta``)."""
    inner = 0
    for v in edges:
        b = v.bit_length()
        inner += (b if b else 1) + 2
    if not inner:
        inner = 1
    b = node_id.bit_length()
    return (b if b else 1) + 2 + inner + 2 + 2, 1 + len(edges)


class _ClaimRecord:
    """Per-run shared parse of one ``(node_id, edge_ids)`` topology claim.

    Every receiver of a claim needs the same derived facts -- the frozenset
    of its edge ids, the canonical sorted tuple it forwards, whether the ids
    are well-typed, and the claim's exact delta-payload bit accounting.  All
    of them are pure functions of the claim, so they are computed once per
    run and shared by every :class:`LocalView` (see :class:`ClaimInterner`).
    """

    __slots__ = ("entry", "node_id", "edge_set", "canonical", "valid", "size", "bits", "num_ids")

    def __init__(self, node_id: int, edge_ids: Iterable[int]) -> None:
        edge_set = frozenset(edge_ids)
        self.node_id = node_id
        self.edge_set = edge_set
        self.size = len(edge_set)
        self.valid = (
            isinstance(node_id, int)
            and node_id not in edge_set
            and all(map(int.__instancecheck__, edge_set))
        )
        if self.valid:
            canonical = tuple(sorted(edge_set))
            self.canonical = canonical
            #: The singleton payload entry honest forwarders re-broadcast.
            self.entry = (node_id, canonical)
            self.bits, self.num_ids = _claim_accounting(node_id, canonical)
        else:
            # Malformed claims are never settled or forwarded; they only need
            # the ``valid`` verdict (sorting a mixed-type edge set may not
            # even be possible).
            self.canonical = None
            self.entry = None
            self.bits = 0
            self.num_ids = 0


class ClaimInterner:
    """Hash-consing table for topology claims, shared by one run's views.

    ``by_id`` maps ``id(record.entry)`` of the singleton payload entries to
    their records: honest nodes forward the singleton entry object itself, so
    a claim that already reached a view is recognized with a single identity
    lookup, and a claim's frozenset/canonical-tuple/bit-accounting is parsed
    once per *run* instead of once per (receiver, arrival).  The singleton
    entries are kept alive by the table, so the ids are stable for the
    interner's lifetime.  Byzantine payload entries that are not singletons
    fall back to the value-keyed table (and are interned on first sight when
    hashable), or to direct parsing when unhashable.
    """

    __slots__ = ("by_id", "by_value")

    def __init__(self) -> None:
        self.by_id: Dict[int, _ClaimRecord] = {}
        self.by_value: Dict[Tuple[int, Tuple[int, ...]], _ClaimRecord] = {}

    def intern(self, node_id: int, edge_ids: Iterable[int]) -> _ClaimRecord:
        """Record for a claim given by hashable components (build on miss)."""
        key = (node_id, tuple(edge_ids))
        record = self.by_value.get(key)
        if record is None:
            record = _ClaimRecord(node_id, key[1])
            self.by_value[key] = record
            if record.valid:
                # Invalid records have ``entry = None``; registering them
                # would plant ``id(None)`` in the identity table and break
                # raise-parity for payloads containing a literal None entry.
                self.by_value.setdefault(record.entry, record)
                self.by_id[id(record.entry)] = record
        return record


class LocalView:
    """A node's evolving approximation ``B̂(u, i)`` of the network.

    Tracks the vertices seen so far and, for the *settled* subset of them,
    their complete incident-edge sets (as first announced).

    The storage is *columnar*: node ids are interned into a contiguous index
    space on first sight and every per-vertex structure is a dense list slot
    -- the symmetric adjacency, the BFS layers from the owner, the interior
    set, and the interior's out-boundary are all Python-int bitmasks over
    those slots.  :meth:`integrate` batches a whole delta's edge insertions
    into mask OR-updates and runs a single distance-relaxation pass at the
    end, and the Algorithm 1 expansion check reads popcounts
    (``int.bit_count``) of the layer/interior masks instead of iterating
    sets.  The classic ``Dict``/``Set``-of-ids views (``adjacency()``,
    ``layer_prefixes()``, ``interior_set()``) are materialized lazily behind
    an epoch-tagged cache, so callers of the old interface are untouched;
    :class:`repro.core.local_view_reference.SetBasedLocalView` retains the
    set-based implementation for equivalence testing.
    """

    def __init__(
        self,
        own_id: int,
        neighbor_ids: Iterable[int],
        *,
        interner: Optional[ClaimInterner] = None,
    ) -> None:
        self.own_id = own_id
        # Claim interner (shared across a run's views when provided) and the
        # set of singleton claim entries this view has already integrated.
        self._interner = interner if interner is not None else ClaimInterner()
        self._seen_entries: Set[int] = set()
        # Interning: id -> slot, slot -> id, slot -> (1 << slot).
        self._index: Dict[int, int] = {}
        self._ids: List[int] = []
        self._bits: List[int] = []
        # Dense per-slot columns.
        self._adj: List[int] = []  # adjacency mask
        self._dist: List[int] = []  # BFS distance from owner (-1 unreachable)
        self._claim: List[Optional[Tuple[int, ...]]] = []  # canonical settled tuple
        # ``_layer_masks[d]``: mask of vertices at distance exactly d.
        self._layer_masks: List[int] = []
        self.edge_sets: Dict[int, FrozenSet[int]] = {}
        # Interior tracking: ``_missing[s]`` counts the claimed neighbors of
        # the settled slot s that are not settled yet; ``_waiting[w]`` lists
        # the settled slots whose interior membership is blocked on slot w.
        self._missing: Dict[int, int] = {}
        self._waiting: Dict[int, List[int]] = {}
        self._interior_mask = 0
        self._interior_out_mask = 0

        own_slot = self._intern(own_id)  # slot 0
        self._dist[own_slot] = 0
        self._layer_masks.append(self._bits[own_slot])
        own_edges = frozenset(neighbor_ids)
        self.edge_sets[own_id] = own_edges
        self._claim[own_slot] = tuple(sorted(own_edges))
        own_mask = 0
        layer1 = 0
        for v in own_edges:
            j = self._intern(v)
            jb = self._bits[j]
            own_mask |= jb
            layer1 |= jb
            self._adj[j] = self._bits[own_slot]
            self._dist[j] = 1
        self._adj[own_slot] = own_mask
        if layer1:
            self._layer_masks.append(layer1)
        self._settle(own_slot, own_edges)
        # Epoch counter: bumped whenever the view changed; the materialized
        # set/dict adapters below are rebuilt only when stale.
        self._epoch = 1
        self._prefix_cache_epoch = 0
        self._prefix_cache: List[FrozenSet[int]] = []
        self._adjacency_cache_epoch = 0
        self._adjacency_cache: Dict[int, Set[int]] = {}

    # -- interning ------------------------------------------------------- #
    def _intern(self, node_id: int) -> int:
        """Slot of ``node_id``, allocating a fresh one on first sight."""
        idx = self._index.get(node_id)
        if idx is None:
            idx = len(self._ids)
            self._index[node_id] = idx
            self._ids.append(node_id)
            self._bits.append(1 << idx)
            self._adj.append(0)
            self._dist.append(-1)
            self._claim.append(None)
        return idx

    def _mask_ids(self, mask: int) -> List[int]:
        """Materialize the node ids of the set bits of ``mask``."""
        ids = self._ids
        out: List[int] = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return out

    # -- incremental maintenance ---------------------------------------- #
    def _settle(self, slot: int, edge_set: FrozenSet[int]) -> None:
        """Register a newly settled slot with the interior tracker."""
        index = self._index
        claim = self._claim
        waiting = self._waiting
        missing = 0
        for w in edge_set:
            j = index[w]
            if claim[j] is None:
                missing += 1
                waiting.setdefault(j, []).append(slot)
        if missing:
            self._missing[slot] = missing
        else:
            self._add_interior(slot)
        blocked = waiting.pop(slot, None)
        if blocked:
            missing_of = self._missing
            for v in blocked:
                left = missing_of[v] - 1
                if left:
                    missing_of[v] = left
                else:
                    del missing_of[v]
                    self._add_interior(v)

    def _add_interior(self, slot: int) -> None:
        interior = self._interior_mask | self._bits[slot]
        self._interior_mask = interior
        self._interior_out_mask = (self._interior_out_mask | self._adj[slot]) & ~interior

    def _set_dist(self, slot: int, d: int) -> None:
        old = self._dist[slot]
        b = self._bits[slot]
        layers = self._layer_masks
        if old >= 0:
            layers[old] &= ~b
        self._dist[slot] = d
        while len(layers) <= d:
            layers.append(0)
        layers[d] |= b

    def _relax_batch(self, pending: List[Tuple[int, int]]) -> None:
        """One relaxation pass over a batch of ``(slot, new_edge_mask)`` pairs.

        Seeds the BFS-decrease propagation with every endpoint a new edge
        brought closer to the owner; distances only ever decrease, so the
        fixpoint equals a from-scratch BFS over the updated adjacency.
        """
        dist = self._dist
        queue: "deque[int]" = deque()
        for slot, mask in pending:
            ds = dist[slot]
            while mask:
                low = mask & -mask
                mask ^= low
                j = low.bit_length() - 1
                dj = dist[j]
                if ds >= 0 and (dj < 0 or dj > ds + 1):
                    self._set_dist(j, ds + 1)
                    queue.append(j)
                elif dj >= 0 and (ds < 0 or ds > dj + 1):
                    ds = dj + 1
                    self._set_dist(slot, ds)
                    queue.append(slot)
        adj = self._adj
        while queue:
            u = queue.popleft()
            du1 = dist[u] + 1
            mask = adj[u]
            while mask:
                low = mask & -mask
                mask ^= low
                w = low.bit_length() - 1
                dw = dist[w]
                if dw < 0 or dw > du1:
                    self._set_dist(w, du1)
                    queue.append(w)

    # -- mutation ------------------------------------------------------- #
    def integrate(
        self,
        reported_edges: Sequence[Tuple[int, Tuple[int, ...]]],
        reported_vertices: Sequence[int],
        *,
        max_degree: int,
        allow_updates: bool = False,
    ) -> Tuple[bool, List[Tuple[int, Tuple[int, ...]]], List[int]]:
        """Merge received topology information.

        Returns ``(inconsistent, new_edge_sets, new_vertices)``; the new items
        form next round's delta broadcast.

        With ``allow_updates=True`` (dynamic-topology runs) a claim that
        conflicts with the settled one is accepted as a *re-announcement*
        instead of flagged inconsistent, and the derived structures are
        rebuilt from the settled claims (see :meth:`_integrate_dynamic`).
        The default static path below is untouched by the dynamic feature.
        """
        if allow_updates:
            return self._integrate_dynamic(
                reported_edges, reported_vertices, max_degree=max_degree
            )
        inconsistent = False
        new_edge_sets: List[Tuple[int, Tuple[int, ...]]] = []
        new_vertices: List[int] = []
        index = self._index
        bits = self._bits
        adj = self._adj
        claim = self._claim
        intern = self._intern
        waiting = self._waiting
        by_id = self._interner.by_id
        by_value = self._interner.by_value
        seen = self._seen_entries
        pending: List[Tuple[int, int]] = []
        for entry in reported_edges:
            record = by_id.get(id(entry))
            if record is None:
                node_id, edge_ids = entry
                # Only *type-pure* entries (int id, tuple of ints) may touch
                # the value-keyed table: numerically equal but differently
                # typed claims (float ids) hash like the int claim and would
                # alias its record, dodging the malformed-payload check.
                if (
                    isinstance(node_id, int)
                    and type(edge_ids) is tuple
                    and all(map(int.__instancecheck__, edge_ids))
                ):
                    record = by_value.get(entry)
                    if record is None:
                        record = _ClaimRecord(node_id, edge_ids)
                        if record.valid:
                            # Reuse an equivalent singleton if one was
                            # interned already (the same claim may arrive in
                            # non-canonical element order).
                            existing = by_value.get(record.entry)
                            if existing is not None:
                                record = existing
                            else:
                                by_value[record.entry] = record
                                by_id[id(record.entry)] = record
                        by_value[entry] = record
                else:
                    # Malformed or exotically typed claim: parse directly
                    # (matching the pre-interning per-arrival cost and raise
                    # behavior for unhashable containers).  A claim that
                    # nevertheless parses as *valid* (e.g. int edges in a
                    # list container) must still be interned: ``seen`` stores
                    # ``id(record.entry)``, which is only stable while the
                    # interner pins the entry alive.
                    record = _ClaimRecord(node_id, edge_ids)
                    if record.valid:
                        existing = by_value.get(record.entry)
                        if existing is not None:
                            record = existing
                        else:
                            by_value[record.entry] = record
                            by_id[id(record.entry)] = record
            rid = id(record.entry)
            if rid in seen:
                # Re-announcement of an already-integrated claim: the common
                # case (every delta arrives once per neighbor), recognized by
                # the singleton entry's identity alone.
                continue
            # Identifiers are integers in the model; anything else (as well
            # as a self-loop claim) is malformed Byzantine data and counts as
            # an inconsistency rather than contaminating the view.
            if not record.valid or record.size > max_degree:
                inconsistent = True
                continue
            node_id = record.node_id
            slot = index.get(node_id)
            if slot is not None and claim[slot] is not None:
                if claim[slot] == record.canonical:
                    # Same edge set re-announced under a different payload
                    # object: silently deduplicate, like every later arrival.
                    seen.add(rid)
                else:
                    # Conflicting incident-edge claims for a node we already
                    # know about (Line 18 of Algorithm 1).
                    inconsistent = True
                continue
            seen.add(rid)
            if slot is None:
                slot = intern(node_id)
                new_vertices.append(node_id)
            edge_set = record.edge_set
            self.edge_sets[node_id] = edge_set
            claim[slot] = record.canonical
            new_edge_sets.append(record.entry)
            slot_bit = bits[slot]
            adj_slot = adj[slot]
            interior = self._interior_mask
            interior_out = self._interior_out_mask
            edge_mask = 0
            missing = 0
            for v in edge_set:
                j = index.get(v)
                if j is None:
                    j = intern(v)
                    new_vertices.append(v)
                if claim[j] is None:
                    missing += 1
                    waiting.setdefault(j, []).append(slot)
                jb = bits[j]
                if adj_slot & jb:
                    continue
                edge_mask |= jb
                adj[j] |= slot_bit
                # A fresh edge can attach a non-interior vertex to the
                # interior (claims about interior vertices arrive late).
                if interior & jb:
                    interior_out |= slot_bit
            adj[slot] = adj_slot | edge_mask
            self._interior_out_mask = interior_out
            if edge_mask:
                pending.append((slot, edge_mask))
            # Interior settlement (the mask analogue of the set-based
            # ``_settle``; the missing count was accumulated above).
            if missing:
                self._missing[slot] = missing
            else:
                self._add_interior(slot)
            blocked = waiting.pop(slot, None)
            if blocked:
                missing_of = self._missing
                for w in blocked:
                    left = missing_of[w] - 1
                    if left:
                        missing_of[w] = left
                    else:
                        del missing_of[w]
                        self._add_interior(w)
        for node_id in reported_vertices:
            if not isinstance(node_id, int):
                inconsistent = True
                continue
            if node_id not in index:
                intern(node_id)
                new_vertices.append(node_id)
        if pending:
            self._relax_batch(pending)
        if new_edge_sets or new_vertices:
            self._epoch += 1
        return inconsistent, new_edge_sets, new_vertices

    # -- dynamic topology (churn) ---------------------------------------- #
    def _resolve_record(self, entry) -> _ClaimRecord:
        """Interner resolution of one payload entry (the static path inlines
        this logic; the dynamic path shares it here)."""
        by_id = self._interner.by_id
        record = by_id.get(id(entry))
        if record is not None:
            return record
        by_value = self._interner.by_value
        node_id, edge_ids = entry
        if (
            isinstance(node_id, int)
            and type(edge_ids) is tuple
            and all(map(int.__instancecheck__, edge_ids))
        ):
            record = by_value.get(entry)
            if record is None:
                record = _ClaimRecord(node_id, edge_ids)
                if record.valid:
                    existing = by_value.get(record.entry)
                    if existing is not None:
                        record = existing
                    else:
                        by_value[record.entry] = record
                        by_id[id(record.entry)] = record
                by_value[entry] = record
        else:
            record = _ClaimRecord(node_id, edge_ids)
            if record.valid:
                existing = by_value.get(record.entry)
                if existing is not None:
                    record = existing
                else:
                    by_value[record.entry] = record
                    by_id[id(record.entry)] = record
        return record

    def _integrate_dynamic(
        self,
        reported_edges: Sequence[Tuple[int, Tuple[int, ...]]],
        reported_vertices: Sequence[int],
        *,
        max_degree: int,
    ) -> Tuple[bool, List[Tuple[int, Tuple[int, ...]]], List[int]]:
        """Integrate under churn semantics.

        Differences from the static path: a conflicting claim for an
        already-settled node is accepted as an update (nodes legitimately
        re-announce changed edge sets; equivocation detection via Line 18 is
        therefore downgraded in dynamic runs), and instead of incremental
        adjacency/interior/distance maintenance -- which is unsound once
        settled facts can be *retracted* mid-call -- every structure is
        rebuilt from the settled claims at the end when anything changed (the
        bounded rebuild-from-epoch fallback).

        Claim integration stays monotone per *value*: each distinct claim
        value is integrated at most once per view (the superseded value stays
        in the seen set), so stale echoes of an old claim can never flip a
        view back and re-propagate in waves.  The price is that a claim
        flipping back to an exact earlier value is ignored; schedules that
        need a node's claim restored re-spawn the node (see the engine's
        join path) rather than re-announcing an old value.
        """
        inconsistent = False
        new_edge_sets: List[Tuple[int, Tuple[int, ...]]] = []
        new_vertices: List[int] = []
        index = self._index
        claim = self._claim
        intern = self._intern
        seen = self._seen_entries
        changed = False
        for entry in reported_edges:
            record = self._resolve_record(entry)
            rid = id(record.entry)
            if rid in seen:
                continue
            if not record.valid or record.size > max_degree:
                inconsistent = True
                continue
            node_id = record.node_id
            slot = index.get(node_id)
            if slot is not None and claim[slot] is not None:
                if claim[slot] == record.canonical:
                    seen.add(rid)
                    continue
                # Changed claim: accept the newer announcement.  The old
                # canonical stays seen so replays of it are ignored.
                seen.add(rid)
            else:
                seen.add(rid)
                if slot is None:
                    slot = intern(node_id)
                    new_vertices.append(node_id)
            self.edge_sets[node_id] = record.edge_set
            claim[slot] = record.canonical
            new_edge_sets.append(record.entry)
            for v in record.edge_set:
                if v not in index:
                    intern(v)
                    new_vertices.append(v)
            changed = True
        for node_id in reported_vertices:
            if not isinstance(node_id, int):
                inconsistent = True
                continue
            if node_id not in index:
                intern(node_id)
                new_vertices.append(node_id)
                changed = True
        if changed:
            self._rebuild_all()
            self._epoch += 1
        return inconsistent, new_edge_sets, new_vertices

    def _rebuild_all(self) -> None:
        """Recompute every derived structure from the settled claims.

        Adjacency masks (symmetrized), BFS layers/distances from the owner,
        and the interior bookkeeping are all pure functions of the claims;
        after a retraction the incremental counters cannot be repaired
        soundly, so the dynamic paths pay one O(view) rebuild instead.
        """
        index = self._index
        bits = self._bits
        claim = self._claim
        nslots = len(self._ids)
        adj = [0] * nslots
        for slot in range(nslots):
            canonical = claim[slot]
            if canonical is None:
                continue
            sb = bits[slot]
            acc = adj[slot]
            for v in canonical:
                j = index[v]
                adj[j] |= sb
                acc |= bits[j]
            adj[slot] = acc
        self._adj = adj
        # BFS from the owner (slot 0) over the rebuilt adjacency.
        dist = [-1] * nslots
        dist[0] = 0
        visited = bits[0]
        layer_masks = [bits[0]]
        current = bits[0]
        d = 0
        while True:
            nxt = 0
            m = current
            while m:
                low = m & -m
                m ^= low
                nxt |= adj[low.bit_length() - 1]
            nxt &= ~visited
            if not nxt:
                break
            d += 1
            visited |= nxt
            layer_masks.append(nxt)
            m = nxt
            while m:
                low = m & -m
                m ^= low
                dist[low.bit_length() - 1] = d
            current = nxt
        self._dist = dist
        self._layer_masks = layer_masks
        # Interior bookkeeping from scratch.
        missing: Dict[int, int] = {}
        waiting: Dict[int, List[int]] = {}
        interior = 0
        for slot in range(nslots):
            canonical = claim[slot]
            if canonical is None:
                continue
            miss = 0
            for v in canonical:
                j = index[v]
                if claim[j] is None:
                    miss += 1
                    waiting.setdefault(j, []).append(slot)
            if miss:
                missing[slot] = miss
            else:
                interior |= bits[slot]
        self._missing = missing
        self._waiting = waiting
        self._interior_mask = interior
        out = 0
        m = interior
        while m:
            low = m & -m
            m ^= low
            out |= adj[low.bit_length() - 1]
        self._interior_out_mask = out & ~interior

    def delete_edge(self, a: int, b: int) -> bool:
        """Remove edge ``{a, b}`` from both endpoints' settled claims.

        Called when the owner *knows* the edge is gone (an engine-level
        topology change on an incident edge).  Each shrunk claim's canonical
        is marked seen, so a later announcement of the same shrunk set
        deduplicates; the old full canonicals also stay seen (stale echoes of
        the pre-deletion claims are ignored -- see :meth:`_integrate_dynamic`
        on monotone-per-value integration).  Returns whether anything changed.
        """
        changed = False
        index = self._index
        claim = self._claim
        for x, y in ((a, b), (b, a)):
            slot = index.get(x)
            if slot is None or claim[slot] is None:
                continue
            edge_set = self.edge_sets[x]
            if y not in edge_set:
                continue
            record = self._interner.intern(x, tuple(sorted(edge_set - {y})))
            self.edge_sets[x] = record.edge_set
            claim[slot] = record.canonical
            self._seen_entries.add(id(record.entry))
            changed = True
        if changed:
            self._rebuild_all()
            self._epoch += 1
        return changed

    def retract_claim(self, node_id: int) -> bool:
        """Unsettle ``node_id`` entirely: drop its claim and *unsee* it.

        Unlike an update, a retraction re-opens the slot -- a later
        announcement of the exact retracted value settles again.  The vertex
        itself stays known (vertices are never forgotten).  Returns whether
        a settled claim was dropped.
        """
        slot = self._index.get(node_id)
        if slot is None or self._claim[slot] is None:
            return False
        canonical = self._claim[slot]
        record = self._interner.by_value.get((node_id, canonical))
        if record is not None and record.entry is not None:
            self._seen_entries.discard(id(record.entry))
        self._claim[slot] = None
        del self.edge_sets[node_id]
        self._rebuild_all()
        self._epoch += 1
        return True

    def update_claim(self, node_id: int, edge_ids: Iterable[int]) -> bool:
        """Force-settle ``node_id``'s claim to ``edge_ids``.

        The owner's own claim must track engine-level topology changes even
        when the target value was seen before (e.g. an edge removed and later
        restored), so this bypasses the seen-set entirely.  Returns whether
        the settled claim changed.
        """
        record = self._interner.intern(node_id, tuple(sorted(edge_ids)))
        slot = self._index.get(node_id)
        if slot is None:
            slot = self._intern(node_id)
        self._seen_entries.add(id(record.entry))
        if self._claim[slot] == record.canonical:
            return False
        for v in record.edge_set:
            if v not in self._index:
                self._intern(v)
        self.edge_sets[node_id] = record.edge_set
        self._claim[slot] = record.canonical
        self._rebuild_all()
        self._epoch += 1
        return True

    def settled_entries(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Interned payload entries of every settled claim (bootstrap dump)."""
        intern = self._interner.intern
        claim = self._claim
        out: List[Tuple[int, Tuple[int, ...]]] = []
        for node_id, slot in self._index.items():
            canonical = claim[slot]
            if canonical is not None:
                out.append(intern(node_id, canonical).entry)
        return out

    # -- structure queries ---------------------------------------------- #
    @property
    def vertices(self) -> KeysView[int]:
        """All known vertex ids (a live, set-like view of the intern table)."""
        return self._index.keys()

    def adjacency(self) -> Dict[int, Set[int]]:
        """Symmetric adjacency over all known vertices (from known edge sets).

        Materialized lazily from the adjacency bitmasks behind an epoch-tagged
        cache; callers must treat the returned structure as read-only.
        """
        if self._adjacency_cache_epoch != self._epoch:
            mask_ids = self._mask_ids
            self._adjacency_cache = {
                node_id: set(mask_ids(self._adj[slot]))
                for node_id, slot in self._index.items()
            }
            self._adjacency_cache_epoch = self._epoch
        return self._adjacency_cache

    def layer_prefixes(self, adj: Optional[Dict[int, Set[int]]] = None) -> List[FrozenSet[int]]:
        """BFS-layer prefixes ``B̂(u, 0) ⊆ B̂(u, 1) ⊆ ...`` from the owner.

        The prefixes are served from an epoch-tagged cache that is rebuilt
        only when :meth:`integrate` actually changed the view; the ``adj``
        argument is retained for backwards compatibility and ignored (the
        prefixes always describe this view's own adjacency).
        """
        if self._prefix_cache_epoch != self._epoch:
            prefixes: List[FrozenSet[int]] = []
            running = 0
            for layer in self._layer_masks:
                if not layer:
                    break
                running |= layer
                prefixes.append(frozenset(self._mask_ids(running)))
            self._prefix_cache = prefixes
            self._prefix_cache_epoch = self._epoch
        return self._prefix_cache

    def layer_sizes(self) -> List[int]:
        """Sizes of the (contiguous, nonempty) BFS layers from the owner."""
        sizes: List[int] = []
        for layer in self._layer_masks:
            if not layer:
                break
            sizes.append(layer.bit_count())
        return sizes

    def interior_set(self) -> Set[int]:
        """Settled vertices all of whose claimed neighbors are settled.

        Once the honest part of the network has been fully explored, every
        honest vertex is interior, so the interior set contains the honest
        region ``R`` of Lemma 5; its out-boundary is then exactly the layer of
        vertices the adversary is still expanding.  Maintained incrementally
        (as a bitmask) by :meth:`integrate`; a materialized copy is returned.
        """
        return set(self._mask_ids(self._interior_mask))

    def expansion_check_candidates(self) -> List[Tuple[int, int]]:
        """``(|S|, |Out(S)|)`` for every subset the practical check inspects.

        Lists every BFS-layer prefix (whose out-boundary in the view graph is
        exactly the next BFS layer) followed by the interior set (whose
        out-boundary is maintained incrementally).  All counts are popcounts
        of live masks, so producing them is O(view depth) per round.
        """
        candidates: List[Tuple[int, int]] = []
        sizes = self.layer_sizes()
        prefix = 0
        last = len(sizes) - 1
        for j, layer_size in enumerate(sizes):
            prefix += layer_size
            candidates.append((prefix, sizes[j + 1] if j < last else 0))
        interior = self._interior_mask
        if interior:
            candidates.append(
                (interior.bit_count(), self._interior_out_mask.bit_count())
            )
        return candidates

    @staticmethod
    def expansion_of(adj: Dict[int, Set[int]], subset: Set[int]) -> float:
        """``|Out(S)| / |S|`` inside the view graph."""
        if not subset:
            return math.inf
        out: Set[int] = set()
        for u in subset:
            for v in adj.get(u, ()):
                if v not in subset:
                    out.add(v)
        return len(out) / len(subset)

    def size(self) -> int:
        """Number of known vertices."""
        return len(self._ids)


class LocalCountingProtocol(Protocol):
    """Per-node implementation of Algorithm 1."""

    def __init__(
        self,
        ctx: NodeContext,
        params: LocalParameters,
        *,
        interner: Optional[ClaimInterner] = None,
        dynamic: bool = False,
    ) -> None:
        self.params = params
        self._interner = interner if interner is not None else ClaimInterner()
        self.view = LocalView(
            ctx.node_id, ctx.neighbor_ids.values(), interner=self._interner
        )
        # Dynamic-topology mode (churn runs): claims may be re-announced, and
        # the mute check runs against the neighbors known to have been
        # present last round (a just-added neighbor cannot have spoken yet).
        self._dynamic = dynamic
        if dynamic:
            self._known_neighbors: Set[int] = set(ctx.neighbors)
            self._pending_neighbors: List[int] = []
        self._decided = False
        self._estimate: Optional[float] = None
        self._decision_round: Optional[int] = None
        # The delta broadcast is accumulated together with its exact
        # ``estimate_payload_bits`` size and id count, so building the message
        # never re-walks the payload (the per-round walk showed up in
        # profiles; deltas carry Θ(Δ^i) identifiers).
        self._pending_edges: List[Tuple[int, Tuple[int, ...]]] = []
        self._pending_vertices: List[int] = []
        self._pending_edge_bits = 0
        self._pending_edge_ids = 0
        self._pending_vertex_bits = 0
        # The initial delta is exactly B̂(u, 1): the node's own edge set and
        # its neighbor vertices (Line 1 of Algorithm 1).  The own claim is
        # interned so that every receiver recognizes its re-broadcasts by
        # identity.
        own_claim = self._interner.intern(
            ctx.node_id, tuple(sorted(ctx.neighbor_ids.values()))
        )
        self._queue_delta([own_claim.entry], sorted(ctx.neighbor_ids.values()))

    # -- Protocol interface --------------------------------------------- #
    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def estimate(self) -> Optional[float]:
        return self._estimate

    @property
    def decision_round(self) -> Optional[int]:
        return self._decision_round

    @property
    def halted(self) -> bool:
        # A decided node terminates and stops broadcasting; its neighbors
        # interpret the silence as muteness and decide themselves (Line 5).
        return self._decided

    # -- helpers ---------------------------------------------------------- #
    def _queue_delta(
        self,
        new_edges: Sequence[Tuple[int, Tuple[int, ...]]],
        new_vertices: Sequence[int],
    ) -> None:
        """Append to the pending delta, accumulating its exact size accounting.

        The running sums reproduce ``estimate_payload_bits`` over the final
        ``TopologyDelta`` payload term by term (each integer costs
        ``max(1, bit_length)`` bits, containers add 2 framing bits per
        element); ``tests/test_perf_equivalence.py`` locks the equivalence
        down.
        """
        edge_bits = 0
        edge_ids = 0
        by_id = self._interner.by_id
        for claim_entry in new_edges:
            record = by_id.get(id(claim_entry))
            if record is not None:
                # Interned claim: the accounting was computed once per run.
                edge_bits += record.bits
                edge_ids += record.num_ids
                continue
            node_id, edges = claim_entry
            bits, ids = _claim_accounting(node_id, edges)
            edge_bits += bits
            edge_ids += ids
        vertex_bits = 0
        for v in new_vertices:
            b = v.bit_length()
            vertex_bits += (b if b else 1) + 2
        self._pending_edges.extend(new_edges)
        self._pending_vertices.extend(new_vertices)
        self._pending_edge_bits += edge_bits
        self._pending_edge_ids += edge_ids
        self._pending_vertex_bits += vertex_bits

    def _delta_message(self) -> Message:
        payload: TopologyDelta = (
            tuple(self._pending_edges),
            tuple(self._pending_vertices),
        )
        num_ids = self._pending_edge_ids + len(self._pending_vertices)
        # ``size_bits`` follows the documented accounting
        # (``estimate_payload_bits`` over the payload), assembled from the
        # accumulators of ``_queue_delta`` instead of a second payload walk.
        edge_sum = self._pending_edge_bits
        vertex_sum = self._pending_vertex_bits
        size_bits = (edge_sum if edge_sum else 1) + 2 + (vertex_sum if vertex_sum else 1) + 2
        message = Message(
            kind="topology", payload=payload, size_bits=size_bits, num_ids=num_ids
        )
        self._pending_edges = []
        self._pending_vertices = []
        self._pending_edge_bits = 0
        self._pending_edge_ids = 0
        self._pending_vertex_bits = 0
        return message

    def _decide(self, round_number: int) -> None:
        self._decided = True
        self._estimate = float(round_number)
        self._decision_round = round_number

    def _expansion_check_fails(self, newly_added: int, round_number: int) -> bool:
        """Line 9-13: does some checked subset of the view fail to expand?"""
        view = self.view
        total = view.size()
        alpha_prime = self.params.alpha_prime

        # (3) Optional exhaustive check for tiny views (test cross-validation):
        # materializes the actual subsets, so it takes the slow path.
        if self.params.exhaustive_subset_check and total <= 16:
            adj = view.adjacency()
            candidates: List[Set[int]] = list(view.layer_prefixes())
            interior = view.interior_set()
            if interior:
                candidates.append(interior)
            vertices = list(adj.keys())
            for size in range(1, total):
                for combo in itertools.combinations(vertices, size):
                    candidates.append(set(combo))
            for subset in candidates:
                if not subset or len(subset) >= total:
                    continue
                if view.expansion_of(adj, subset) < alpha_prime:
                    return True
        else:
            # (1) BFS-layer prefixes (the sets of Lemma 3) and (2) the
            # interior set (the practical stand-in for Lemma 5's R), both
            # read off the view's incremental counters: ``|Out(S)|/|S|``
            # without touching a single edge.
            for size, out_size in view.expansion_check_candidates():
                if size >= total:
                    continue
                if out_size / size < alpha_prime:
                    return True

        # (4) The view stopped growing entirely: Out(B̂(u, i)) = ∅, which is
        # the situation that forces the decision at diam(G) + 1 in Lemma 5.
        if round_number >= 2 and newly_added == 0:
            return True
        return False

    # -- engine callbacks ------------------------------------------------ #
    def on_start(self, ctx: NodeContext) -> Outbox:
        return Broadcast(self._delta_message(), ctx.neighbors)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> Outbox:
        if self._decided:
            return {}
        round_number = ctx.round

        # Which neighbors spoke this round?  (Line 5: "some neighbor is mute".)
        speakers = {m.sender for m in inbox if m.kind == "topology"}
        if self._dynamic:
            known = self._known_neighbors
            mute_neighbor = any(v not in speakers for v in known)
            if self._pending_neighbors:
                # Neighbors added by churn this round start counting toward
                # the mute check from the *next* round (their first broadcast
                # is only delivered at the end of this one).
                known.update(self._pending_neighbors)
                self._pending_neighbors.clear()
                known.intersection_update(ctx.neighbors)
        else:
            mute_neighbor = any(v not in speakers for v in ctx.neighbors)

        inconsistent = False
        newly_added = 0
        for message in inbox:
            if message.kind != "topology":
                # Unexpected message kinds from a neighbor are malformed
                # information: treat as an inconsistency.
                inconsistent = True
                continue
            payload = message.payload
            if (
                not isinstance(payload, tuple)
                or len(payload) != 2
                or not isinstance(payload[0], tuple)
                or not isinstance(payload[1], tuple)
            ):
                inconsistent = True
                continue
            reported_edges, reported_vertices = payload
            try:
                bad, new_edges, new_vertices = self.view.integrate(
                    reported_edges,
                    reported_vertices,
                    max_degree=self.params.max_degree,
                    allow_updates=self._dynamic,
                )
            except (TypeError, ValueError):
                inconsistent = True
                continue
            inconsistent = inconsistent or bad
            self._queue_delta(new_edges, new_vertices)
            newly_added += len(new_vertices)

        if inconsistent or mute_neighbor:
            self._decide(round_number)
            return {}

        if self._expansion_check_fails(newly_added, round_number):
            self._decide(round_number)
            return {}

        return Broadcast(self._delta_message(), ctx.neighbors)

    def on_topology_change(
        self,
        ctx: NodeContext,
        added_neighbors: Dict[int, int],
        removed_neighbors: Dict[int, int],
    ) -> None:
        """React to engine-level churn on incident edges (dynamic runs only).

        Removed edges are excised from the view (both endpoints' claims
        shrink); added edges update the own claim and trigger a full-view
        re-broadcast so a (re)joining neighbor can bootstrap -- every other
        receiver deduplicates the dump by claim identity.
        """
        if self._decided:
            return
        view = self.view
        changed = False
        for idx in removed_neighbors:
            self._known_neighbors.discard(idx)
        for rid in removed_neighbors.values():
            changed = view.delete_edge(ctx.node_id, rid) or changed
        if added_neighbors:
            self._pending_neighbors.extend(added_neighbors)
            view.update_claim(ctx.node_id, ctx.neighbor_ids.values())
            self._queue_delta(view.settled_entries(), sorted(view.vertices))
        elif changed:
            record = self._interner.intern(
                ctx.node_id, tuple(sorted(ctx.neighbor_ids.values()))
            )
            self._queue_delta([record.entry], [])


def run_local_counting(
    graph: Graph,
    *,
    byzantine: Iterable[int] = (),
    adversary: Optional[Adversary] = None,
    params: Optional[LocalParameters] = None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    evaluation_set: Optional[Set[int]] = None,
    churn: Optional[ChurnSchedule] = None,
) -> "ProtocolRun":
    """Execute Algorithm 1 on ``graph`` and summarize the outcome.

    The registered ``local`` protocol run through
    :func:`repro.scenarios.execute.run_spec` with a ready adversary object.

    Parameters
    ----------
    graph:
        The network topology (honest nodes only ever see their local views).
    byzantine:
        Indices of Byzantine nodes.
    adversary:
        Byzantine behaviour; defaults to silence.
    params:
        Algorithm parameters; defaults to :class:`LocalParameters` with the
        graph's maximum degree as Δ.
    seed:
        Master seed (the algorithm is deterministic; the seed only affects
        adversary randomness).
    max_rounds:
        Safety cap; defaults to ``6·ceil(log2 n) + 20``, far above the
        ``diam(G)+1`` bound of Theorem 1 for the expander workloads.
    evaluation_set:
        Nodes over which the outcome statistics are computed (defaults to all
        honest nodes; experiments pass the Lemma 1 ``Good`` set).
    churn:
        Optional mid-run topology schedule.  Enables the protocol's dynamic
        mode (claim updates, churn-aware mute check); ``None`` takes the
        exact static code paths.
    """
    # Imported at call time: repro.scenarios itself builds on repro.core.
    from repro.scenarios.execute import run_spec
    from repro.scenarios.protocols import LOCAL

    return run_spec(
        LOCAL,
        graph,
        params,
        byzantine=byzantine,
        adversary=adversary,
        seed=seed,
        max_rounds=max_rounds,
        evaluation_set=evaluation_set,
        churn=churn,
    )
