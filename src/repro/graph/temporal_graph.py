"""The :class:`TemporalGraph` container (Definitions 1-2 of the paper).

A temporal graph is stored as parallel arrays of directed timestamped edges
``(src[i], dst[i], t[i])`` over integer node ids ``0..num_nodes-1`` and
integer timestamps ``0..num_timestamps-1``.  This columnar layout is the
format every sampler, generator, metric and baseline in the repro operates
on; conversions to per-timestamp snapshots and adjacency structures are
provided (and cached) here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError


_INT64_MAX = 2**63 - 1


def as_int64_array(values, name: str) -> np.ndarray:
    """``values`` as an ``int64`` array (same shape), refusing any lossy cast.

    ``np.asarray(values, dtype=np.int64)`` truncates ``1.7`` to ``1`` and
    turns ``NaN`` into ``-2**63``; this cast raises :class:`GraphFormatError`
    (naming ``name``) for non-finite, non-integral, non-numeric or
    out-of-int64 values instead.  Integer input passes through unchanged.
    """
    try:
        array = np.asarray(values)
    except ValueError:
        raise GraphFormatError(f"{name} is ragged; expected an array of integers") from None
    kind = array.dtype.kind
    if kind == "f":
        if not np.isfinite(array).all():
            problem = "non-finite"
        elif (array != np.trunc(array)).any():
            problem = "non-integral"
        elif array.size and np.abs(array).max() >= 2.0**63:
            problem = "out-of-int64"
        else:
            return array.astype(np.int64)
    elif kind in "iub":
        if array.dtype != np.uint64 or not array.size or int(array.max()) <= _INT64_MAX:
            return array.astype(np.int64)
        problem = "out-of-int64"
    else:
        problem = f"non-integer ({array.dtype})"
    raise GraphFormatError(f"{name} has {problem} values; expected integers within int64")


def _stable_merge_positions(keys_a: np.ndarray, keys_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Output positions of a stable two-way merge of sorted key arrays.

    Element ``i`` of ``a`` lands at ``pos_a[i]`` and element ``j`` of ``b`` at
    ``pos_b[j]`` in the merged order; on equal keys every ``a`` element
    precedes every ``b`` element (``side='left'`` / ``side='right'``), which
    is exactly the tie rule a stable sort applies to ``concatenate([a, b])``.
    """
    pos_a = np.arange(keys_a.size, dtype=np.int64) + np.searchsorted(keys_b, keys_a, side="left")
    pos_b = np.arange(keys_b.size, dtype=np.int64) + np.searchsorted(keys_a, keys_b, side="right")
    return pos_a, pos_b


class TemporalGraph:
    """A directed temporal graph as a set of timestamped edges.

    Parameters
    ----------
    num_nodes:
        Total number of nodes ``n``; node ids must lie in ``[0, n)``.
    src, dst, t:
        Parallel integer arrays of edge sources, destinations and timestamps.
    num_timestamps:
        Number of distinct timestamps ``T``; defaults to ``max(t) + 1``.
    validate:
        Whether to check id/timestamp ranges (disable only on trusted input).
    """

    __slots__ = (
        "num_nodes",
        "src",
        "dst",
        "t",
        "num_timestamps",
        "_incidence",
        "_time_order",
        "_time_bounds",
        "_partner_groups",
        "_snapshot_cache",
    )

    def __init__(
        self,
        num_nodes: int,
        src: Sequence[int],
        dst: Sequence[int],
        t: Sequence[int],
        num_timestamps: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.src = np.asarray(src, dtype=np.int64).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        self.t = np.asarray(t, dtype=np.int64).reshape(-1)
        if not (self.src.shape == self.dst.shape == self.t.shape):
            raise GraphFormatError(
                f"edge arrays must be parallel: src={self.src.shape}, "
                f"dst={self.dst.shape}, t={self.t.shape}"
            )
        if num_timestamps is None:
            num_timestamps = int(self.t.max()) + 1 if self.t.size else 1
        self.num_timestamps = int(num_timestamps)
        if validate:
            self._validate()
        self._incidence: Optional[Dict[str, np.ndarray]] = None
        self._time_order: Optional[np.ndarray] = None
        self._time_bounds: Optional[np.ndarray] = None
        self._partner_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._snapshot_cache: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Validation / basic properties
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.num_nodes <= 0:
            raise GraphFormatError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.num_timestamps <= 0:
            raise GraphFormatError(f"num_timestamps must be positive, got {self.num_timestamps}")
        if self.src.size:
            for name, arr, upper in (
                ("src", self.src, self.num_nodes),
                ("dst", self.dst, self.num_nodes),
                ("t", self.t, self.num_timestamps),
            ):
                low, high = int(arr.min()), int(arr.max())
                if low < 0 or high >= upper:
                    raise GraphFormatError(
                        f"{name} values must lie in [0, {upper}), found [{low}, {high}]"
                    )

    @property
    def num_edges(self) -> int:
        """Total number of temporal edges ``m``."""
        return int(self.src.size)

    @property
    def num_temporal_nodes(self) -> int:
        """Number of distinct (node, timestamp) occurrences."""
        if self.num_edges == 0:
            return 0
        pairs = np.concatenate(
            [self.src * self.num_timestamps + self.t, self.dst * self.num_timestamps + self.t]
        )
        return int(np.unique(pairs).size)

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"T={self.num_timestamps})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_timestamps == other.num_timestamps
            and self.num_edges == other.num_edges
            and bool(np.array_equal(self._sorted_triples(), other._sorted_triples()))
        )

    def _sorted_triples(self) -> np.ndarray:
        triples = np.stack([self.t, self.src, self.dst], axis=1)
        order = np.lexsort((self.dst, self.src, self.t))
        return triples[order]

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------
    def edges_at(self, timestamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` of edges whose timestamp equals ``timestamp``."""
        mask = self.t == timestamp
        return self.src[mask], self.dst[mask]

    def edges_until(self, timestamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` of edges with timestamp ``<= timestamp``.

        This is the accumulation the paper uses to build evaluation snapshots
        ("accumulate the nodes and edges generated from the initial timestamp
        to the current timestamp", Sec. III).
        """
        mask = self.t <= timestamp
        return self.src[mask], self.dst[mask]

    def _snapshot_order_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached stable time-sort of the edges plus per-timestamp bounds.

        One O(E log E) sort serves every per-timestamp consumer
        (:meth:`snapshots`, :meth:`snapshot_view`); within a timestamp the
        original edge order is preserved (stable sort).
        """
        if self._time_order is None:
            self._time_order = np.argsort(self.t, kind="stable")
        if self._time_bounds is None:
            self._time_bounds = np.searchsorted(
                self.t[self._time_order], np.arange(self.num_timestamps + 1)
            )
        return self._time_order, self._time_bounds

    def snapshots(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(t, src, dst)`` for every timestamp in order."""
        order, bounds = self._snapshot_order_bounds()
        for timestamp in range(self.num_timestamps):
            sel = order[bounds[timestamp] : bounds[timestamp + 1]]
            yield timestamp, self.src[sel], self.dst[sel]

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def temporal_degrees(self) -> np.ndarray:
        """Degree of every temporal node as a dense ``(n, T)`` array.

        The temporal degree of ``(u, t)`` counts the edges incident to ``u``
        at timestamp ``t`` in either direction -- the quantity used by the
        degree-weighted initial-node sampling of Eq. 2.
        """
        deg = np.zeros((self.num_nodes, self.num_timestamps), dtype=np.int64)
        np.add.at(deg, (self.src, self.t), 1)
        np.add.at(deg, (self.dst, self.t), 1)
        return deg

    def static_degrees(self) -> np.ndarray:
        """Total (time-aggregated) degree per node."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.src, 1)
        np.add.at(deg, self.dst, 1)
        return deg

    # ------------------------------------------------------------------
    # Incidence structure (cached) for fast temporal neighbour queries
    # ------------------------------------------------------------------
    def _build_incidence(self) -> Dict[str, np.ndarray]:
        """Build a CSR-like per-node incidence list sorted by (node, time).

        For every node ``u`` we store all incident temporal events
        ``(other_endpoint, timestamp)`` -- both out- and in-edges, because the
        temporal neighbourhood of Definition 3 is direction-agnostic.
        """
        n_entries = 2 * self.num_edges
        owner = np.concatenate([self.src, self.dst])
        other = np.concatenate([self.dst, self.src])
        times = np.concatenate([self.t, self.t])
        direction = np.concatenate(
            [np.zeros(self.num_edges, dtype=np.int8), np.ones(self.num_edges, dtype=np.int8)]
        )
        order = np.lexsort((times, owner))
        owner = owner[order]
        counts = np.bincount(owner, minlength=self.num_nodes) if n_entries else np.zeros(
            self.num_nodes, dtype=np.int64
        )
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return {
            "offsets": offsets,
            "other": other[order],
            "times": times[order],
            "direction": direction[order],
        }

    @property
    def incidence(self) -> Dict[str, np.ndarray]:
        """Cached incidence structure (see :meth:`_build_incidence`)."""
        if self._incidence is None:
            self._incidence = self._build_incidence()
        return self._incidence

    def incident_events(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """All ``(neighbour, timestamp)`` events incident to ``node``, time-sorted."""
        inc = self.incidence
        lo, hi = inc["offsets"][node], inc["offsets"][node + 1]
        return inc["other"][lo:hi], inc["times"][lo:hi]

    # ------------------------------------------------------------------
    # Sparse adjacency provider (shared by generation, metrics, baselines)
    # ------------------------------------------------------------------
    def out_partner_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-style slices of each node's distinct historical out-partners.

        Returns ``(offsets, partners)`` where
        ``partners[offsets[u]:offsets[u + 1]]`` are the sorted distinct
        targets ``v`` such that an edge ``u -> v`` exists at any timestamp.
        Built once in O(E log E) with a vectorised group-by over the sorted
        edge arrays and cached; this is the partner-pool structure the
        streaming generation engine's candidate assembly reads.
        """
        if self._partner_groups is None:
            if self.num_edges:
                pairs = np.unique(self.src * np.int64(self.num_nodes) + self.dst)
                owners = pairs // self.num_nodes
                partners = pairs % self.num_nodes
            else:
                owners = np.empty(0, dtype=np.int64)
                partners = np.empty(0, dtype=np.int64)
            counts = np.bincount(owners, minlength=self.num_nodes)
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._partner_groups = (offsets, partners.astype(np.int64))
        return self._partner_groups

    def snapshot_view(self, timestamp: int):
        """Cached :class:`~repro.graph.snapshot.Snapshot` of the edges at ``timestamp``.

        The snapshot (and thus its CSR adjacency) is built once per timestamp
        and shared by every consumer of this graph -- e.g. all per-snapshot
        baselines fitting on one observed graph slice the same objects.  The
        cache holds at most ``num_timestamps`` entries totalling O(E).
        """
        from .snapshot import Snapshot  # local import: snapshot.py imports this module

        timestamp = int(timestamp)
        if not 0 <= timestamp < self.num_timestamps:
            raise GraphFormatError(
                f"timestamp {timestamp} outside [0, {self.num_timestamps})"
            )
        if timestamp not in self._snapshot_cache:
            order, bounds = self._snapshot_order_bounds()
            sel = order[bounds[timestamp] : bounds[timestamp + 1]]
            self._snapshot_cache[timestamp] = Snapshot(
                self.num_nodes, self.src[sel], self.dst[sel]
            )
        return self._snapshot_cache[timestamp]

    def adjacency_at(self, timestamp: int, symmetric: bool = False):
        """Sparse CSR adjacency ``A^{(t)}`` of one snapshot, built lazily.

        The streaming replacement for the dense ``(T, n, n)`` tensor of
        Sec. IV-A: O(E_t) memory per timestamp, deduplicated binary entries,
        optionally symmetrised (self-loops dropped in the symmetric view).
        """
        snapshot = self.snapshot_view(timestamp)
        return snapshot.undirected_adjacency() if symmetric else snapshot.adjacency()

    # ------------------------------------------------------------------
    # Incremental append (the online-ingestion path)
    # ------------------------------------------------------------------
    def appended(
        self,
        new_src: Sequence[int],
        new_dst: Sequence[int],
        new_t: Sequence[int],
        num_timestamps: Optional[int] = None,
        validate: bool = True,
    ) -> "TemporalGraph":
        """New graph with ``(new_src, new_dst, new_t)`` edges appended.

        The returned graph has the appended edges *after* the existing ones
        (edge indices of the original graph are preserved), and every cache
        already materialised on ``self`` is carried over **incrementally** --
        merged in O(E + k log k) for ``k`` new edges instead of rebuilt in
        O(E log E) -- while staying bitwise-equal to the same cache built
        from scratch on the concatenated edge list.  Caches that were never
        built on ``self`` stay lazy on the result.

        ``num_timestamps`` defaults to growing the horizon just enough to
        accommodate the new timestamps; pass it explicitly (e.g. the current
        ``num_timestamps``) to reject out-of-universe appends instead.
        The node universe is always fixed: new endpoints must lie in
        ``[0, num_nodes)``.
        """
        new_src = as_int64_array(new_src, "new_src").reshape(-1)
        new_dst = as_int64_array(new_dst, "new_dst").reshape(-1)
        new_t = as_int64_array(new_t, "new_t").reshape(-1)
        if not (new_src.shape == new_dst.shape == new_t.shape):
            raise GraphFormatError(
                f"appended edge arrays must be parallel: new_src={new_src.shape}, "
                f"new_dst={new_dst.shape}, new_t={new_t.shape}"
            )
        if num_timestamps is None:
            num_timestamps = self.num_timestamps
            if new_t.size:
                num_timestamps = max(num_timestamps, int(new_t.max()) + 1)
        num_timestamps = int(num_timestamps)
        if num_timestamps < self.num_timestamps:
            raise GraphFormatError(
                f"appended() cannot shrink the horizon: num_timestamps={num_timestamps} "
                f"< existing {self.num_timestamps}"
            )
        if validate and new_src.size:
            for name, arr, upper in (
                ("new_src", new_src, self.num_nodes),
                ("new_dst", new_dst, self.num_nodes),
                ("new_t", new_t, num_timestamps),
            ):
                low, high = int(arr.min()), int(arr.max())
                if low < 0 or high >= upper:
                    raise GraphFormatError(
                        f"{name} values must lie in [0, {upper}), found [{low}, {high}]"
                    )
        result = TemporalGraph(
            self.num_nodes,
            np.concatenate([self.src, new_src]),
            np.concatenate([self.dst, new_dst]),
            np.concatenate([self.t, new_t]),
            num_timestamps=num_timestamps,
            validate=False,
        )
        if self._time_order is not None and self._time_bounds is not None:
            result._time_order, result._time_bounds = self._merged_time_order(
                new_t, num_timestamps
            )
        if self._partner_groups is not None:
            result._partner_groups = self._merged_partner_groups(new_src, new_dst)
        if self._incidence is not None:
            result._incidence = self._merged_incidence(new_src, new_dst, new_t, num_timestamps)
        if self._snapshot_cache:
            # Snapshots of untouched timestamps are immutable views shared
            # with self (same convention as snapshot_view sharing between
            # consumers); touched timestamps are dropped and rebuilt lazily.
            dirty = set(np.unique(new_t).tolist())
            for timestamp, snapshot in self._snapshot_cache.items():
                if timestamp not in dirty:
                    result._snapshot_cache[timestamp] = snapshot
        return result

    def _merged_time_order(
        self, new_t: np.ndarray, num_timestamps: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge the cached stable time-sort with ``new_t``.

        All existing edge indices precede the appended ones, so a stable
        merge that keeps old entries first on equal timestamps reproduces
        ``np.argsort(concatenate([t, new_t]), kind='stable')`` bitwise; the
        per-timestamp bounds are recomputed in O(T) against the result
        horizon ``num_timestamps``.
        """
        order_old = self._time_order
        keys_old = self.t[order_old]
        local = np.argsort(new_t, kind="stable")
        keys_new = new_t[local]
        pos_old, pos_new = _stable_merge_positions(keys_old, keys_new)
        total = keys_old.size + keys_new.size
        order = np.empty(total, dtype=order_old.dtype)
        order[pos_old] = order_old
        order[pos_new] = self.num_edges + local
        sorted_t = np.empty(total, dtype=np.int64)
        sorted_t[pos_old] = keys_old
        sorted_t[pos_new] = keys_new
        bounds = np.searchsorted(sorted_t, np.arange(num_timestamps + 1))
        return order, bounds

    def _merged_partner_groups(
        self, new_src: np.ndarray, new_dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Union-merge the cached out-partner CSR with the appended pairs.

        ``np.unique`` of the concatenated pair keys equals the sorted merge
        of the old (sorted, unique) keys with the genuinely new keys, so the
        incremental union is bitwise-identical to a from-scratch group-by.
        """
        offsets, partners = self._partner_groups
        n = np.int64(self.num_nodes)
        owners_old = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(offsets))
        keys_old = owners_old * n + partners
        if new_src.size:
            keys_new = np.unique(new_src * n + new_dst)
            fresh = np.setdiff1d(keys_new, keys_old, assume_unique=True)
        else:
            fresh = np.empty(0, dtype=np.int64)
        pos_old, pos_fresh = _stable_merge_positions(keys_old, fresh)
        merged = np.empty(keys_old.size + fresh.size, dtype=np.int64)
        merged[pos_old] = keys_old
        merged[pos_fresh] = fresh
        owners = merged // n
        counts = np.bincount(owners, minlength=self.num_nodes)
        new_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return new_offsets, (merged % n).astype(np.int64)

    def _merged_incidence(
        self,
        new_src: np.ndarray,
        new_dst: np.ndarray,
        new_t: np.ndarray,
        num_timestamps: int,
    ) -> Dict[str, np.ndarray]:
        """Merge the cached incidence structure with the appended edges.

        A from-scratch :meth:`_build_incidence` on the concatenated arrays
        lexsorts the entry layout ``[src_old, src_new, dst_old, dst_new]``,
        so within one ``(owner, time)`` group the order is out-edges before
        in-edges and old before new within each direction.  Reproducing that
        bitwise therefore needs a direction-split three-way stable merge:
        out_old with out_new, in_old with in_new, then out with in -- each
        step keeping the left operand first on equal ``(owner, time)`` keys.
        """
        inc = self._incidence
        n = self.num_nodes
        owners_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(inc["offsets"]))
        out_mask = inc["direction"] == 0
        in_mask = ~out_mask
        big = np.int64(num_timestamps)
        k = new_src.size

        def merge_groups(
            keys_a: np.ndarray,
            keys_b: np.ndarray,
            payloads_a: Tuple[np.ndarray, ...],
            payloads_b: Tuple[np.ndarray, ...],
        ) -> Tuple[np.ndarray, List[np.ndarray]]:
            pos_a, pos_b = _stable_merge_positions(keys_a, keys_b)
            keys = np.empty(keys_a.size + keys_b.size, dtype=np.int64)
            keys[pos_a] = keys_a
            keys[pos_b] = keys_b
            merged = []
            for arr_a, arr_b in zip(payloads_a, payloads_b):
                out = np.empty(keys.size, dtype=arr_a.dtype)
                out[pos_a] = arr_a
                out[pos_b] = arr_b
                merged.append(out)
            return keys, merged

        out_order = np.lexsort((new_t, new_src))
        in_order = np.lexsort((new_t, new_dst))
        keys_out, (owner_out, other_out, times_out, dir_out) = merge_groups(
            owners_all[out_mask] * big + inc["times"][out_mask],
            new_src[out_order] * big + new_t[out_order],
            (
                owners_all[out_mask],
                inc["other"][out_mask],
                inc["times"][out_mask],
                inc["direction"][out_mask],
            ),
            (
                new_src[out_order],
                new_dst[out_order],
                new_t[out_order],
                np.zeros(k, dtype=np.int8),
            ),
        )
        keys_in, (owner_in, other_in, times_in, dir_in) = merge_groups(
            owners_all[in_mask] * big + inc["times"][in_mask],
            new_dst[in_order] * big + new_t[in_order],
            (
                owners_all[in_mask],
                inc["other"][in_mask],
                inc["times"][in_mask],
                inc["direction"][in_mask],
            ),
            (
                new_dst[in_order],
                new_src[in_order],
                new_t[in_order],
                np.ones(k, dtype=np.int8),
            ),
        )
        _, (owner, other, times, direction) = merge_groups(
            keys_out,
            keys_in,
            (owner_out, other_out, times_out, dir_out),
            (owner_in, other_in, times_in, dir_in),
        )
        counts = np.bincount(owner, minlength=n) if owner.size else np.zeros(n, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return {"offsets": offsets, "other": other, "times": times, "direction": direction}

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self) -> "TemporalGraph":
        """Deep copy of the edge arrays.

        The copy starts with cold caches: sharing would be *correct* here
        (the edge set is identical) but copies are routinely handed to
        consumers that only ever touch a sliver of the graph, so the cheap
        contract -- every derived graph rebuilds lazily -- is kept uniform
        with :meth:`restricted_to` / :meth:`deduplicated`, where carrying
        parent caches would be stale and wrong.  Only :meth:`appended`
        carries caches, and it re-derives them incrementally.
        """
        return TemporalGraph(
            self.num_nodes,
            self.src.copy(),
            self.dst.copy(),
            self.t.copy(),
            num_timestamps=self.num_timestamps,
            validate=False,
        )

    def restricted_to(self, max_timestamp: int) -> "TemporalGraph":
        """Sub-temporal-graph containing only edges with ``t <= max_timestamp``."""
        mask = self.t <= max_timestamp
        return TemporalGraph(
            self.num_nodes,
            self.src[mask],
            self.dst[mask],
            self.t[mask],
            num_timestamps=min(self.num_timestamps, max_timestamp + 1),
            validate=False,
        )

    def deduplicated(self) -> "TemporalGraph":
        """Remove duplicate ``(src, dst, t)`` triples."""
        if self.num_edges == 0:
            return self.copy()
        triples = np.stack([self.src, self.dst, self.t], axis=1)
        unique = np.unique(triples, axis=0)
        return TemporalGraph(
            self.num_nodes,
            unique[:, 0],
            unique[:, 1],
            unique[:, 2],
            num_timestamps=self.num_timestamps,
            validate=False,
        )

    def without_self_loops(self) -> "TemporalGraph":
        """Drop edges whose endpoints coincide."""
        mask = self.src != self.dst
        return TemporalGraph(
            self.num_nodes,
            self.src[mask],
            self.dst[mask],
            self.t[mask],
            num_timestamps=self.num_timestamps,
            validate=False,
        )

def dense_temporal_adjacency(graph: "TemporalGraph") -> np.ndarray:
    """Dense ``(T, n, n)`` 0/1 adjacency tensor ``A_{t=1:T}`` (Sec. IV-A).

    **Test-only helper.**  Production paths never materialise a node x node
    array; they go through :meth:`TemporalGraph.adjacency_at` (sparse CSR per
    snapshot) and :meth:`TemporalGraph.out_partner_groups` instead.  This
    function exists so equivalence tests can check the sparse providers
    against the textbook dense tensor on small graphs.
    """
    adj = np.zeros(
        (graph.num_timestamps, graph.num_nodes, graph.num_nodes), dtype=np.int8
    )
    adj[graph.t, graph.src, graph.dst] = 1
    return adj


def merge(graphs: List[TemporalGraph]) -> TemporalGraph:
    """Union of several temporal graphs over the same node universe."""
    if not graphs:
        raise GraphFormatError("merge() requires at least one graph")
    n = max(g.num_nodes for g in graphs)
    big_t = max(g.num_timestamps for g in graphs)
    return TemporalGraph(
        n,
        np.concatenate([g.src for g in graphs]),
        np.concatenate([g.dst for g in graphs]),
        np.concatenate([g.t for g in graphs]),
        num_timestamps=big_t,
        validate=False,
    )
