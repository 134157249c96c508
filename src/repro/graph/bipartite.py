"""k-bipartite computation graphs (Fig. 4 of the paper).

An ego-graph of radius ``k`` becomes ``k`` bipartite graphs: level ``l``
connects source temporal nodes at hop ``l`` to target temporal nodes at hop
``l-1``, and the encoder runs one TGAT layer per level, so every target
representation in a level is computed concurrently -- the parallel training
strategy that reduces the number of sequential computation steps from
``O(nT)`` to ``O(nT / n_s)``.

Two layouts live here:

* :class:`PackedEgoBatch` (built by :func:`pack_ego_batch`) -- the layout
  every encoder call consumes.  Each ego-graph keeps its own level tables,
  padded ego-parallel, so encoding a batch equals encoding each ego-graph
  alone.
* :class:`BipartiteBatch` (built by :func:`build_bipartite_batch`) -- the
  merged layout of Fig. 4, deduplicating temporal nodes *across* ego-graphs.
  It is kept as the reference the packed sampler's tests canonicalise.

Two details matter for correctness in both:

* **Deduplication** -- a temporal node appearing several times in one
  ego-graph is stored once per level, so repeated work is eliminated
  exactly as Sec. IV-C describes.
* **Self-loops / nesting** -- every level-``l-1`` node is also injected into
  level ``l`` with a zero-offset self-edge ("we added self-loops to all
  temporal nodes to pass messages to themselves"), which guarantees each
  target can see its own previous representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphFormatError
from .ego_graph import EgoBatch, EgoGraph

TemporalNode = Tuple[int, int]


@dataclass
class PackedLevel:
    """Padded edge tensors of one bipartite level across a batch of egos.

    All arrays are ``(batch, max_edges)``; ``src_index[b, e]`` points into
    ego ``b``'s padded level-``l`` node table and ``dst_index[b, e]`` into
    its level-``l-1`` table.  Entries with ``edge_mask[b, e] == False`` are
    padding and must not contribute messages.
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    delta_t: np.ndarray
    edge_mask: np.ndarray

    @property
    def num_edges(self) -> int:
        """Total number of *real* (unmasked) edges in the level."""
        return int(self.edge_mask.sum())


@dataclass
class PackedEgoBatch:
    """A batch of layered ego-graphs in padded, ego-parallel bipartite form.

    Unlike :class:`BipartiteBatch` (which merges and deduplicates temporal
    nodes *across* ego-graphs, so a shared node aggregates messages from
    neighbours sampled in other egos), a packed batch keeps every ego-graph
    independent: encoding a packed batch is numerically equivalent to
    encoding each ego-graph on its own, just vectorised over the leading
    batch dimension.  Training minibatches and Sec. IV-G inference both
    encode this layout.

    Attributes
    ----------
    level_nodes:
        ``level_nodes[l]`` is ``(batch, n_l, 2)`` of padded
        ``(node_id, timestamp)`` pairs at hop ``l``; padding rows are zeros.
    node_mask:
        ``node_mask[l]`` is ``(batch, n_l)`` with ``True`` on real rows.
    levels:
        ``levels[l-1]`` holds the padded edges from level ``l`` sources to
        level ``l-1`` targets.
    center_index:
        ``(batch,)`` row of each ego's centre inside its level-0 table
        (always 0: level 0 holds exactly the centre).
    """

    level_nodes: List[np.ndarray]
    node_mask: List[np.ndarray]
    levels: List[PackedLevel]
    center_index: np.ndarray

    @property
    def radius(self) -> int:
        """Ego-graph radius ``k`` (number of bipartite levels)."""
        return len(self.levels)

    @property
    def batch_size(self) -> int:
        """Number of ego-graphs packed into the batch."""
        return int(self.level_nodes[0].shape[0])

    @property
    def num_centers(self) -> int:
        """Alias of :attr:`batch_size` (one centre per ego-graph)."""
        return self.batch_size

    @property
    def center_nodes(self) -> np.ndarray:
        """``(batch, 2)`` array of centre ``(node_id, timestamp)`` pairs."""
        return self.level_nodes[0][np.arange(self.batch_size), self.center_index]


def _scatter_rows(
    offsets: np.ndarray, start: int, stop: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(ego, slot)`` padded coordinates of the flat rows of egos ``start:stop``."""
    counts = np.diff(offsets[start : stop + 1])
    ego = np.repeat(np.arange(stop - start), counts)
    slot = np.arange(ego.size) - np.repeat(offsets[start:stop] - offsets[start], counts)
    return ego, slot, int(counts.max())


def pack_ego_batch(
    egos: EgoBatch, start: int = 0, stop: Optional[int] = None
) -> PackedEgoBatch:
    """Pad egos ``start:stop`` of a sampled group into one ego-parallel batch.

    Each ego-graph keeps its own (deduplicated, nested) node tables; tables
    and edge lists are right-padded to the *slice* maximum per level, so a
    slice's shapes depend only on the egos in it -- not on the rest of the
    group it was sampled with.  Encoding the result matches encoding each
    ego-graph on its own.  The rows are scattered straight from the flat
    :class:`~repro.graph.ego_graph.EgoBatch` arrays, one fancy-index
    assignment per level.
    """
    stop = len(egos) if stop is None else stop
    if not 0 <= start < stop <= len(egos):
        raise GraphFormatError(
            f"cannot pack egos [{start}, {stop}) of a batch of {len(egos)}"
        )
    batch = stop - start
    level_nodes: List[np.ndarray] = []
    node_mask: List[np.ndarray] = []
    for table, offsets in zip(egos.tables, egos.table_offsets):
        ego, slot, width = _scatter_rows(offsets, start, stop)
        nodes = np.zeros((batch, width, 2), dtype=np.int64)
        mask = np.zeros((batch, width), dtype=bool)
        nodes[ego, slot] = table[offsets[start] : offsets[stop]]
        mask[ego, slot] = True
        level_nodes.append(nodes)
        node_mask.append(mask)

    levels: List[PackedLevel] = []
    for level, offsets in enumerate(egos.edge_offsets, start=1):
        ego, slot, width = _scatter_rows(offsets, start, stop)
        rows = slice(offsets[start], offsets[stop])
        src_index = np.zeros((batch, width), dtype=np.int64)
        dst_index = np.zeros((batch, width), dtype=np.int64)
        delta_t = np.zeros((batch, width), dtype=np.float64)
        edge_mask = np.zeros((batch, width), dtype=bool)
        src_index[ego, slot] = egos.edge_src[level - 1][rows]
        dst_index[ego, slot] = egos.edge_dst[level - 1][rows]
        delta_t[ego, slot] = egos.edge_delta[level - 1][rows]
        edge_mask[ego, slot] = True
        levels.append(
            PackedLevel(
                src_index=src_index,
                dst_index=dst_index,
                delta_t=delta_t,
                edge_mask=edge_mask,
            )
        )
    return PackedEgoBatch(
        level_nodes=level_nodes,
        node_mask=node_mask,
        levels=levels,
        center_index=np.zeros(batch, dtype=np.int64),
    )


@dataclass
class BipartiteLevel:
    """Edges of one bipartite computation graph (hop ``l``).

    ``src_index[e]`` points into the level-``l`` node table and
    ``dst_index[e]`` into the level-``l-1`` table; ``delta_t[e]`` is the time
    offset ``t_dst - t_src`` fed to the temporal encoding.
    """

    src_index: np.ndarray
    dst_index: np.ndarray
    delta_t: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src_index.size)


@dataclass
class BipartiteBatch:
    """A merged mini-batch of ego-graphs in layered bipartite form.

    Attributes
    ----------
    level_nodes:
        ``level_nodes[l]`` is an ``(n_l, 2)`` array of distinct
        ``(node_id, timestamp)`` pairs at hop ``l`` (level 0 = centres).
        Levels are nested: every level-``l-1`` node also appears in level
        ``l``.
    levels:
        ``levels[l-1]`` holds the edges from level ``l`` sources to level
        ``l-1`` targets.
    center_index:
        For each ego-graph in the original batch, the row of its centre in
        ``level_nodes[0]``.
    """

    level_nodes: List[np.ndarray]
    levels: List[BipartiteLevel]
    center_index: np.ndarray

    @property
    def radius(self) -> int:
        return len(self.levels)

    @property
    def num_centers(self) -> int:
        return int(self.level_nodes[0].shape[0])


def build_bipartite_batch(ego_graphs: Sequence[EgoGraph]) -> BipartiteBatch:
    """Merge ego-graphs into the k-bipartite computation graphs of Fig. 4.

    The reference layout: no production path encodes it, and the tests
    canonicalise its single-ego form to check :func:`pack_ego_batch`.
    """
    if not ego_graphs:
        raise GraphFormatError("cannot build a bipartite batch from zero ego-graphs")
    radius = ego_graphs[0].radius
    if any(eg.radius != radius for eg in ego_graphs):
        raise GraphFormatError("all ego-graphs in a batch must share the same radius")

    # ------------------------------------------------------------------
    # Level 0: deduplicated centres.
    # ------------------------------------------------------------------
    index_maps: List[Dict[TemporalNode, int]] = [dict() for _ in range(radius + 1)]
    node_tables: List[List[TemporalNode]] = [[] for _ in range(radius + 1)]

    def intern(level: int, node: TemporalNode) -> int:
        idx = index_maps[level].get(node)
        if idx is None:
            idx = len(node_tables[level])
            index_maps[level][node] = idx
            node_tables[level].append(node)
        return idx

    center_index = np.array(
        [intern(0, (int(eg.center[0]), int(eg.center[1]))) for eg in ego_graphs],
        dtype=np.int64,
    )

    # ------------------------------------------------------------------
    # Levels 1..k: union of per-ego layers, then nesting self-loops.
    # ------------------------------------------------------------------
    edge_sets: List[set] = [set() for _ in range(radius)]
    for eg in ego_graphs:
        # Per-ego local-index -> batch-index maps, built level by level.
        local_maps: List[np.ndarray] = []
        layer0 = eg.layers[0]
        local_maps.append(
            np.array([index_maps[0][(int(layer0[0, 0]), int(layer0[0, 1]))]], dtype=np.int64)
        )
        for level in range(1, radius + 1):
            layer = eg.layers[level]
            mapped = np.array(
                [intern(level, (int(layer[i, 0]), int(layer[i, 1]))) for i in range(layer.shape[0])],
                dtype=np.int64,
            )
            local_maps.append(mapped)
            for child_local, parent_local in eg.edges[level - 1]:
                src_batch = int(mapped[child_local])
                dst_batch = int(local_maps[level - 1][parent_local])
                edge_sets[level - 1].add((src_batch, dst_batch))

    # Nesting: inject each level-(l-1) node into level l and add a self edge.
    self_edges: List[List[Tuple[int, int]]] = [[] for _ in range(radius)]
    for level in range(1, radius + 1):
        for node, dst_idx in list(index_maps[level - 1].items()):
            src_idx = intern(level, node)
            self_edges[level - 1].append((src_idx, dst_idx))

    level_nodes = [np.array(table, dtype=np.int64).reshape(-1, 2) for table in node_tables]
    levels: List[BipartiteLevel] = []
    for level in range(1, radius + 1):
        pairs = sorted(edge_sets[level - 1]) + self_edges[level - 1]
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        src_idx, dst_idx = arr[:, 0], arr[:, 1]
        t_src = level_nodes[level][src_idx, 1]
        t_dst = level_nodes[level - 1][dst_idx, 1]
        levels.append(
            BipartiteLevel(
                src_index=src_idx,
                dst_index=dst_idx,
                delta_t=(t_dst - t_src).astype(np.float64),
            )
        )
    return BipartiteBatch(level_nodes=level_nodes, levels=levels, center_index=center_index)
