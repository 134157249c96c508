"""k-radius temporal ego-graph sampling (Algorithm 1 + Eq. 2).

The sampler produces *layered* ego-graphs: the centre temporal node sits in
layer 0 and layer ``l`` holds the temporal nodes reached after ``l`` hops.
Each hop records the (child -> parent) edges actually used, together with
their time offsets, because those are exactly the message-passing edges of
the k-bipartite computation graphs (Fig. 4).

Two behaviours from the paper are implemented faithfully:

* **Neighbour truncation** -- once a temporal node has more than ``threshold``
  first-order neighbours, ``threshold`` of them are sampled *with
  replacement* (``NodeSampling`` in Alg. 1), bounding the ego-graph size even
  in dense regions.
* **Degree-weighted initial sampling** (Eq. 2) -- centre nodes are drawn with
  probability proportional to their temporal degree, focusing training on
  representative local structures.

Truncation draws are counter-based (:func:`repro.rng.counter_hash`): slot
``s`` of parent ``(v, t_v)`` at hop ``l`` of the ego-graph centred on
``(u, t)`` picks neighbour ``bounded(H(key, (u, t), l, (v, t_v), s))``.  An
ego-graph is therefore a pure function of ``(graph, config, key)`` and its
centre -- never of which other centres were sampled with it.  Two samplers
share that definition:

* :func:`ego_graph_batch` -- the production path.  It expands the frontiers
  of a whole group of centres at once through ``searchsorted`` into the
  incidence CSR (the batched temporal-CSR expansion of TGL, Zhou et al.,
  VLDB 2022), deduplicates per ego with one sort per level, and returns the
  nested node tables and edge lists :func:`repro.graph.pack_ego_batch`
  scatters into padded batches.
* :func:`sample_ego_graph` -- a slow per-centre loop kept as the test
  oracle the batched sampler is compared against bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError, GraphFormatError
from ..rng import bounded_draws, counter_hash
from .neighborhood import first_order_neighbors
from .temporal_graph import TemporalGraph

TemporalNode = Tuple[int, int]


@dataclass
class EgoGraph:
    """A layered k-radius temporal ego-graph (the per-centre oracle's output).

    Attributes
    ----------
    center:
        The centre temporal node ``(node_id, timestamp)``.
    layers:
        ``layers[l]`` is an ``(n_l, 2)`` array of ``(node_id, timestamp)``
        pairs at hop distance ``l``; ``layers[0]`` contains only the centre.
    edges:
        ``edges[l-1]`` (for hop ``l = 1..k``) is a ``(e_l, 2)`` array of
        local indices ``(child_idx_in_layer_l, parent_idx_in_layer_{l-1})``.
    """

    center: TemporalNode
    layers: List[np.ndarray] = field(default_factory=list)
    edges: List[np.ndarray] = field(default_factory=list)

    @property
    def radius(self) -> int:
        return len(self.layers) - 1

    @property
    def num_nodes(self) -> int:
        return int(sum(layer.shape[0] for layer in self.layers))

    def all_nodes(self) -> np.ndarray:
        """All ``(node_id, timestamp)`` pairs across layers (may repeat)."""
        return np.concatenate([layer for layer in self.layers], axis=0)


def node_words(nodes, times) -> np.ndarray:
    """Counter words of temporal nodes: ``node << 32 | t`` as ``uint64``.

    Independent of the horizon ``T``, so appending timestamps never remaps
    the draws of existing temporal nodes.  Ids at or above ``2**32`` only
    correlate draws; they never break sampling.
    """
    nodes = np.asarray(nodes, dtype=np.int64).astype(np.uint64)
    times = np.asarray(times, dtype=np.int64).astype(np.uint64)
    return (nodes << np.uint64(32)) | times


def sample_neighbors(
    neighbor_ids: np.ndarray,
    neighbor_times: np.ndarray,
    threshold: int,
    state,
) -> Tuple[np.ndarray, np.ndarray]:
    """``NodeSampling`` of Alg. 1: truncate a neighbour set to ``threshold``.

    When the set is small enough it is returned untouched; otherwise
    ``threshold`` entries are drawn *with replacement*, exactly as the paper
    specifies ("we sample several times with replacement and get a limited
    number of nodes").  Slot ``s`` picks entry
    ``bounded_draws(counter_hash(state, s), count)``, where ``state`` is the
    parent's 64-bit hash state.
    """
    if threshold <= 0:
        raise ConfigError(f"neighbor threshold must be positive, got {threshold}")
    count = neighbor_ids.shape[0]
    if count <= threshold:
        return neighbor_ids, neighbor_times
    words = counter_hash(state, np.arange(threshold, dtype=np.uint64))
    pick = bounded_draws(words, count)
    return neighbor_ids[pick], neighbor_times[pick]


def sample_ego_graph(
    graph: TemporalGraph,
    center: TemporalNode,
    radius: int,
    threshold: int,
    time_window: int,
    key: int,
) -> EgoGraph:
    """``k-EgoGraph`` of Alg. 1 for one centre, returned in layered form.

    The slow reference for :func:`ego_graph_batch`: same draws, one Python
    loop per parent.

    Parameters
    ----------
    graph:
        The observed temporal graph.
    center:
        Centre temporal node ``(node_id, timestamp)``.
    radius:
        Ego-graph radius ``k`` (number of stacked TGAT hops).
    threshold:
        Per-node neighbour truncation ``th``.
    time_window:
        Temporal window ``t_N`` of Definition 3.
    key:
        64-bit hash key of the truncation draws (see the module docstring).
    """
    if radius < 1:
        raise ConfigError(f"ego-graph radius must be >= 1, got {radius}")
    center_state = counter_hash(key, node_words(center[0], center[1]))
    layers: List[np.ndarray] = [np.array([center], dtype=np.int64)]
    edges: List[np.ndarray] = []
    for level in range(1, radius + 1):
        level_state = counter_hash(center_state, level)
        parent_layer = layers[-1]
        child_nodes: List[Tuple[int, int]] = []
        child_edges: List[Tuple[int, int]] = []
        seen: dict = {}
        for parent_idx in range(parent_layer.shape[0]):
            node, timestamp = int(parent_layer[parent_idx, 0]), int(parent_layer[parent_idx, 1])
            neigh, times = first_order_neighbors(graph, node, timestamp, time_window)
            state = counter_hash(level_state, node_words(node, timestamp))
            neigh, times = sample_neighbors(neigh, times, threshold, state)
            for v, t_v in zip(neigh.tolist(), times.tolist()):
                key_vt = (v, t_v)
                # Deduplicate within the layer ("ignore repeated nodes each
                # time a new node is inserted into S_k", Sec. IV-C) but keep
                # one edge per distinct (child, parent) pair.
                child_idx = seen.get(key_vt)
                if child_idx is None:
                    child_idx = len(child_nodes)
                    seen[key_vt] = child_idx
                    child_nodes.append(key_vt)
                child_edges.append((child_idx, parent_idx))
        if child_nodes:
            layer_arr = np.array(child_nodes, dtype=np.int64)
            edge_arr = np.unique(np.array(child_edges, dtype=np.int64), axis=0)
        else:
            layer_arr = np.zeros((0, 2), dtype=np.int64)
            edge_arr = np.zeros((0, 2), dtype=np.int64)
        layers.append(layer_arr)
        edges.append(edge_arr)
    return EgoGraph(center=center, layers=layers, edges=edges)


def initial_node_probabilities(graph: TemporalGraph, uniform: bool = False) -> np.ndarray:
    """Eq. 2 sampling distribution over temporal nodes, flattened to (n*T,).

    ``P(u^t) = deg(u^t) / sum_v deg(v^t)``; the ``uniform`` flag implements
    the TGAE-n ablation variant (uniform over *active* temporal nodes).
    """
    degrees = graph.temporal_degrees().astype(np.float64).reshape(-1)
    total = degrees.sum()
    if total == 0:
        raise ConfigError("graph has no edges; cannot build a sampling distribution")
    if uniform:
        active = (degrees > 0).astype(np.float64)
        return active / active.sum()
    return degrees / total


def sample_initial_nodes(
    graph: TemporalGraph,
    count: int,
    rng: np.random.Generator,
    uniform: bool = False,
) -> np.ndarray:
    """Draw ``count`` centre temporal nodes; returns an ``(count, 2)`` array.

    Sampling is with replacement from the Eq. 2 distribution (or the uniform
    variant), matching the per-epoch sampling of the set ``V_s``.
    """
    probs = initial_node_probabilities(graph, uniform=uniform)
    flat = rng.choice(probs.size, size=count, p=probs)
    nodes = flat // graph.num_timestamps
    times = flat % graph.num_timestamps
    return np.stack([nodes, times], axis=1).astype(np.int64)


@dataclass
class EgoBatch:
    """Ego-graphs of a group of centres as flat nested node tables and edges.

    The layout :func:`repro.graph.pack_ego_batch` pads from; ego ``b`` is
    independent of every other ego in the group.

    Attributes
    ----------
    centers:
        ``(batch, 2)`` centre temporal nodes, one ego-graph each.
    tables:
        ``tables[l]`` holds every ego's level-``l`` node table back to back:
        ego ``b``'s rows are ``tables[l][table_offsets[l][b]:table_offsets[l][b + 1]]``,
        its distinct ``(node_id, timestamp)`` pairs reached within ``l``
        hops, sorted lexicographically.  Levels are nested (every
        level-``l-1`` row is also a level-``l`` row); level 0 is the centre.
    edge_src, edge_dst, edge_delta, edge_offsets:
        Level ``l`` edges (``l = 1..k``) of ego ``b`` are
        ``edge_src[l-1][o:p]`` / ``edge_dst[l-1][o:p]`` with
        ``o, p = edge_offsets[l-1][b], edge_offsets[l-1][b + 1]``, as local
        rows of the ego's level-``l`` / level-``l-1`` tables: first its
        distinct sampled ``(child -> parent)`` edges sorted by
        ``(dst, src)``, then one nesting self-loop per level-``l-1`` row in
        table order.  ``edge_delta`` holds each edge's time offset
        ``t_dst - t_src`` as float64.
    """

    centers: np.ndarray
    tables: List[np.ndarray]
    table_offsets: List[np.ndarray]
    edge_src: List[np.ndarray]
    edge_dst: List[np.ndarray]
    edge_delta: List[np.ndarray]
    edge_offsets: List[np.ndarray]

    def __len__(self) -> int:
        return int(self.centers.shape[0])

    @property
    def radius(self) -> int:
        """Ego-graph radius ``k`` (number of bipartite levels)."""
        return len(self.edge_src)


def ego_graph_batch(
    graph: TemporalGraph,
    centers: np.ndarray,
    radius: int,
    threshold: int,
    time_window: int,
    key: int,
) -> EgoBatch:
    """Sample one ego-graph per centre row of ``centers``, all at once.

    Bitwise the ego-graphs of :func:`sample_ego_graph` with the same ``key``
    (repeated centres included), in the nested-table form of
    :class:`EgoBatch`.  Per hop, every frontier temporal node of every ego
    is expanded together: one ``searchsorted`` pair into the incidence CSR
    finds each window slice, slices longer than ``threshold`` are replaced
    by ``threshold`` counter-hash draws, and one ``np.unique`` over
    ``(ego, node, t)`` keys deduplicates and nests the level tables of all
    egos.  Cost is O(sampled rows * log) in NumPy, with no per-centre
    Python work.
    """
    if radius < 1:
        raise ConfigError(f"ego-graph radius must be >= 1, got {radius}")
    if threshold <= 0:
        raise ConfigError(f"neighbor threshold must be positive, got {threshold}")
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    batch = centers.shape[0]
    if batch == 0:
        raise GraphFormatError("cannot sample the ego-graphs of zero centres")
    T = graph.num_timestamps
    if (centers < 0).any() or (centers >= (graph.num_nodes, T)).any():
        raise GraphFormatError(
            f"centres must lie in [0, {graph.num_nodes}) x [0, {T}), got "
            f"nodes [{centers[:, 0].min()}, {centers[:, 0].max()}], "
            f"times [{centers[:, 1].min()}, {centers[:, 1].max()}]"
        )
    universe = graph.num_nodes * T
    inc = graph.incidence
    owner = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(inc["offsets"]))
    inc_keys = owner * T + inc["times"]
    egos = np.arange(batch, dtype=np.int64)
    center_state = counter_hash(key, node_words(centers[:, 0], centers[:, 1]))

    tables = [centers.copy()]
    table_offsets = [np.arange(batch + 1, dtype=np.int64)]
    table_keys = egos * universe + centers[:, 0] * T + centers[:, 1]
    edge_src: List[np.ndarray] = []
    edge_dst: List[np.ndarray] = []
    edge_delta: List[np.ndarray] = []
    edge_offsets: List[np.ndarray] = []
    # Frontier: the distinct temporal nodes first reached at the previous
    # hop, with their ego and their row in that ego's previous table.
    f_ego, f_node, f_t = egos, centers[:, 0], centers[:, 1]
    f_row = np.zeros(batch, dtype=np.int64)
    for level in range(1, radius + 1):
        level_state = counter_hash(center_state, level)
        lo = np.searchsorted(inc_keys, f_node * T + np.maximum(f_t - time_window, 0))
        hi = np.searchsorted(
            inc_keys, f_node * T + np.minimum(f_t + time_window, T - 1), side="right"
        )
        count = hi - lo
        take = np.minimum(count, threshold)
        starts = np.cumsum(take) - take
        parent_of = np.repeat(np.arange(f_ego.size), take)
        pos = lo[parent_of] + np.arange(parent_of.size) - starts[parent_of]
        cut = np.flatnonzero(count > threshold)
        if cut.size:
            slots = np.arange(threshold)
            state = counter_hash(level_state[f_ego[cut]], node_words(f_node[cut], f_t[cut]))
            words = counter_hash(state[:, None], slots[None, :].astype(np.uint64))
            pos[starts[cut][:, None] + slots] = lo[cut][:, None] + bounded_draws(
                words, count[cut][:, None]
            )
        c_ego = f_ego[parent_of]
        c_node = inc["other"][pos]
        c_t = inc["times"][pos]
        child_keys = c_ego * universe + c_node * T + c_t

        # Nested level table: sampled children united with the previous
        # table, deduplicated per ego by one sort over (ego, node, t).
        prev_offsets = table_offsets[-1]
        prev_ego = np.repeat(egos, np.diff(prev_offsets))
        merged, inverse = np.unique(
            np.concatenate([child_keys, table_keys]), return_inverse=True
        )
        offsets = np.append(np.searchsorted(merged // universe, egos), merged.size)
        local = inverse.reshape(-1) - offsets[np.concatenate([c_ego, prev_ego])]
        c_row, nest_row = local[: child_keys.size], local[child_keys.size:]
        rest = merged % universe
        tables.append(np.stack([rest // T, rest % T], axis=1))
        table_offsets.append(offsets)

        # Distinct sampled edges sorted by (ego, dst, src), then one
        # nesting self-loop per previous-table row, grouped by ego.
        src_span = int(np.diff(offsets).max())
        dst_span = int(np.diff(prev_offsets).max())
        pairs = np.unique((c_ego * dst_span + f_row[parent_of]) * src_span + c_row)
        s_ego = pairs // (dst_span * src_span)
        all_ego = np.concatenate([s_ego, prev_ego])
        order = np.argsort(all_ego, kind="stable")
        src = np.concatenate([pairs % src_span, nest_row])[order]
        dst = np.concatenate(
            [pairs // src_span % dst_span, np.arange(prev_ego.size) - prev_offsets[prev_ego]]
        )[order]
        ego = all_ego[order]
        t_src = tables[-1][offsets[ego] + src, 1]
        t_dst = tables[-2][prev_offsets[ego] + dst, 1]
        edge_src.append(src)
        edge_dst.append(dst)
        edge_delta.append((t_dst - t_src).astype(np.float64))
        edge_offsets.append(
            np.concatenate([[0], np.cumsum(np.bincount(all_ego, minlength=batch))])
        )

        first = np.unique(child_keys, return_index=True)[1]
        f_ego, f_node, f_t, f_row = c_ego[first], c_node[first], c_t[first], c_row[first]
        table_keys = merged
    return EgoBatch(
        centers=centers,
        tables=tables,
        table_offsets=table_offsets,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_delta=edge_delta,
        edge_offsets=edge_offsets,
    )
