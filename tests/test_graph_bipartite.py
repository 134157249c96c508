"""Tests for the merged k-bipartite computation graphs (Fig. 4).

``build_bipartite_batch`` is the reference layout the packed sampler's
oracle (``tests/ego_oracle.py``) canonicalises, so its structure is pinned
here on ego-graphs from the per-centre sampler.
"""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import TemporalGraph, build_bipartite_batch, sample_ego_graph


def ego_graphs(graph, centers, radius, threshold, time_window, key=0):
    return [
        sample_ego_graph(graph, (int(u), int(t)), radius, threshold, time_window, key)
        for u, t in centers
    ]


def sample_batch(num_centers=4, radius=2, seed=0):
    g = TemporalGraph(
        8,
        [0, 1, 2, 3, 4, 5, 6, 0, 2, 4],
        [1, 2, 3, 4, 5, 6, 7, 3, 5, 7],
        [0, 0, 1, 1, 2, 2, 3, 1, 2, 3],
    )
    centers = np.array([[0, 0], [2, 1], [4, 2], [6, 3]])[:num_centers]
    egos = ego_graphs(g, centers, radius=radius, threshold=4, time_window=2, key=seed)
    return g, egos, build_bipartite_batch(egos)


class TestStructure:
    def test_radius_matches(self):
        _, _, batch = sample_batch(radius=2)
        assert batch.radius == 2
        assert len(batch.level_nodes) == 3

    def test_center_index_roundtrip(self):
        _, egos, batch = sample_batch()
        for i, ego in enumerate(egos):
            node = batch.level_nodes[0][batch.center_index[i]]
            assert (int(node[0]), int(node[1])) == ego.center

    def test_centers_deduplicated(self):
        g = TemporalGraph(3, [0, 1], [1, 2], [0, 0])
        centers = np.array([[0, 0], [0, 0], [1, 0]])
        egos = ego_graphs(g, centers, radius=1, threshold=4, time_window=1)
        batch = build_bipartite_batch(egos)
        assert batch.num_centers == 2
        assert batch.center_index[0] == batch.center_index[1]

    def test_levels_are_nested(self):
        """Every level-(l-1) node must also appear in level l (self-loops)."""
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            upper = {tuple(row) for row in batch.level_nodes[level].tolist()}
            lower = {tuple(row) for row in batch.level_nodes[level - 1].tolist()}
            assert lower <= upper

    def test_level_nodes_unique(self):
        _, _, batch = sample_batch()
        for nodes in batch.level_nodes:
            rows = [tuple(r) for r in nodes.tolist()]
            assert len(rows) == len(set(rows))

    def test_edges_reference_valid_indices(self):
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            edges = batch.levels[level - 1]
            assert edges.src_index.max() < batch.level_nodes[level].shape[0]
            assert edges.dst_index.max() < batch.level_nodes[level - 1].shape[0]

    def test_self_loops_present_for_every_target(self):
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            edges = batch.levels[level - 1]
            upper_nodes = batch.level_nodes[level]
            lower_nodes = batch.level_nodes[level - 1]
            targets_with_self = set()
            for s, d in zip(edges.src_index.tolist(), edges.dst_index.tolist()):
                if tuple(upper_nodes[s]) == tuple(lower_nodes[d]):
                    targets_with_self.add(d)
            assert targets_with_self == set(range(lower_nodes.shape[0]))

    def test_delta_t_matches_node_times(self):
        _, _, batch = sample_batch()
        for level in range(1, batch.radius + 1):
            edges = batch.levels[level - 1]
            t_src = batch.level_nodes[level][edges.src_index, 1]
            t_dst = batch.level_nodes[level - 1][edges.dst_index, 1]
            assert np.allclose(edges.delta_t, (t_dst - t_src).astype(float))

    def test_empty_batch_raises(self):
        with pytest.raises(GraphFormatError):
            build_bipartite_batch([])

    def test_mixed_radius_raises(self):
        g = TemporalGraph(3, [0, 1], [1, 2], [0, 0])
        e1 = sample_ego_graph(g, (0, 0), 1, 4, 1, key=0)
        e2 = sample_ego_graph(g, (1, 0), 2, 4, 1, key=0)
        with pytest.raises(GraphFormatError):
            build_bipartite_batch([e1, e2])


class TestDeduplicationAcrossEgos:
    def test_shared_neighbors_stored_once(self):
        """Two centres sharing neighbourhoods must not duplicate level nodes."""
        g = TemporalGraph(3, [0, 1], [2, 2], [0, 0])  # both 0 and 1 point at 2
        centers = np.array([[0, 0], [1, 0]])
        egos = ego_graphs(g, centers, radius=1, threshold=4, time_window=1)
        batch = build_bipartite_batch(egos)
        level1 = {tuple(r) for r in batch.level_nodes[1].tolist()}
        # (2, 0) appears in both ego-graphs but only once in the level table.
        count = sum(1 for r in batch.level_nodes[1].tolist() if tuple(r) == (2, 0))
        assert count == 1
        assert (2, 0) in level1
