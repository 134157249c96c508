"""Per-centre reference for the batched ego sampler and packer.

:func:`oracle_pack` samples each centre alone with the slow loop of
:func:`repro.graph.sample_ego_graph`, builds its single-ego k-bipartite
graph with :func:`repro.graph.build_bipartite_batch` (the Fig. 4 reference
layout), puts it in the canonical packed order -- level tables sorted by
``(node, t)``, distinct sampled edges sorted by ``(dst, src)``, then one
nesting self-loop per target row -- and pads the centres as one batch.
The production path (:func:`repro.graph.ego_graph_batch` +
:func:`repro.graph.pack_ego_batch`) must reproduce it bitwise.
"""

import numpy as np

from repro.graph import (
    PackedEgoBatch,
    PackedLevel,
    build_bipartite_batch,
    sample_ego_graph,
)


def _canonical(ego):
    merged = build_bipartite_batch([ego])
    tables, ranks = [], []
    for nodes in merged.level_nodes:
        order = np.lexsort((nodes[:, 1], nodes[:, 0]))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        tables.append(nodes[order])
        ranks.append(rank)
    edges = []
    for level, bip in enumerate(merged.levels, start=1):
        nest = merged.level_nodes[level - 1].shape[0]
        src = ranks[level][bip.src_index]
        dst = ranks[level - 1][bip.dst_index]
        sampled = np.lexsort((src[:-nest], dst[:-nest]))
        loops = np.argsort(dst[-nest:])
        edges.append(
            (
                np.concatenate([src[:-nest][sampled], src[-nest:][loops]]),
                np.concatenate([dst[:-nest][sampled], dst[-nest:][loops]]),
            )
        )
    return tables, edges


def oracle_pack(graph, centers, radius, threshold, time_window, key) -> PackedEgoBatch:
    """Reference :class:`PackedEgoBatch` of ``centers`` (one padded batch)."""
    egos = [
        _canonical(
            sample_ego_graph(
                graph, (int(u), int(t)), radius, threshold, time_window, key=key
            )
        )
        for u, t in np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    ]
    batch = len(egos)
    level_nodes, node_mask = [], []
    for level in range(radius + 1):
        width = max(tables[level].shape[0] for tables, _ in egos)
        nodes = np.zeros((batch, width, 2), dtype=np.int64)
        mask = np.zeros((batch, width), dtype=bool)
        for b, (tables, _) in enumerate(egos):
            nodes[b, : tables[level].shape[0]] = tables[level]
            mask[b, : tables[level].shape[0]] = True
        level_nodes.append(nodes)
        node_mask.append(mask)
    levels = []
    for level in range(1, radius + 1):
        width = max(edges[level - 1][0].size for _, edges in egos)
        src_index = np.zeros((batch, width), dtype=np.int64)
        dst_index = np.zeros((batch, width), dtype=np.int64)
        edge_mask = np.zeros((batch, width), dtype=bool)
        for b, (_, edges) in enumerate(egos):
            src, dst = edges[level - 1]
            src_index[b, : src.size] = src
            dst_index[b, : dst.size] = dst
            edge_mask[b, : src.size] = True
        t_src = np.take_along_axis(level_nodes[level][:, :, 1], src_index, axis=1)
        t_dst = np.take_along_axis(level_nodes[level - 1][:, :, 1], dst_index, axis=1)
        delta_t = np.where(edge_mask, (t_dst - t_src).astype(np.float64), 0.0)
        levels.append(PackedLevel(src_index, dst_index, delta_t, edge_mask))
    return PackedEgoBatch(level_nodes, node_mask, levels, np.zeros(batch, dtype=np.int64))


def assert_packed_equal(actual: PackedEgoBatch, expected: PackedEgoBatch) -> None:
    """Bitwise equality of every array of two packed batches (dtype included)."""
    pairs = [(actual.center_index, expected.center_index)]
    pairs += list(zip(actual.level_nodes, expected.level_nodes))
    pairs += list(zip(actual.node_mask, expected.node_mask))
    assert len(actual.levels) == len(expected.levels)
    for got, want in zip(actual.levels, expected.levels):
        pairs += [
            (got.src_index, want.src_index),
            (got.dst_index, want.dst_index),
            (got.delta_t, want.delta_t),
            (got.edge_mask, want.edge_mask),
        ]
    for got, want in pairs:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
