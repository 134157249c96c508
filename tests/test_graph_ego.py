"""Tests for ego-graph sampling (Alg. 1) and initial-node sampling (Eq. 2).

The batched sampler (``ego_graph_batch`` + ``pack_ego_batch``) is checked
bitwise against the per-centre oracle (``sample_ego_graph``) in
``tests/ego_oracle.py``.
"""

import numpy as np
import pytest
from ego_oracle import assert_packed_equal, oracle_pack
from hypothesis import given
from hypothesis import strategies as st
from strategies import STANDARD_SETTINGS

from repro.core import NO_TRUNCATION
from repro.datasets import communication_network
from repro.errors import ConfigError, GraphFormatError
from repro.graph import (
    TemporalGraph,
    ego_graph_batch,
    pack_ego_batch,
    initial_node_probabilities,
    sample_ego_graph,
    sample_initial_nodes,
    sample_neighbors,
)


def star_graph(leaves=10):
    """Hub node 0 connected to `leaves` leaf nodes, all at t=0."""
    src = np.zeros(leaves, dtype=int)
    dst = np.arange(1, leaves + 1)
    return TemporalGraph(leaves + 1, src, dst, np.zeros(leaves, dtype=int), num_timestamps=2)


class TestNodeSampling:
    def test_below_threshold_untouched(self):
        ids = np.array([1, 2, 3])
        times = np.array([0, 0, 0])
        out_ids, out_times = sample_neighbors(ids, times, threshold=5, state=0)
        assert out_ids is ids

    def test_truncates_to_threshold(self):
        ids = np.arange(100)
        times = np.zeros(100, dtype=int)
        out_ids, _ = sample_neighbors(ids, times, threshold=7, state=0)
        assert out_ids.size == 7

    def test_sampling_is_with_replacement(self):
        """Above-threshold sampling may repeat entries (as Alg. 1 specifies)."""
        ids = np.arange(3)
        times = np.zeros(3, dtype=int)
        seen_repeat = False
        for seed in range(50):
            out_ids, _ = sample_neighbors(
                np.arange(10), np.zeros(10, dtype=int), threshold=8, state=seed
            )
            if np.unique(out_ids).size < out_ids.size:
                seen_repeat = True
                break
        assert seen_repeat

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            sample_neighbors(np.arange(3), np.zeros(3, dtype=int), 0, state=0)


class TestEgoGraph:
    def test_radius_and_layers(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=2, threshold=5, time_window=1, key=0)
        assert ego.radius == 2
        assert len(ego.layers) == 3
        assert ego.layers[0].shape == (1, 2)

    def test_layer1_nodes_are_neighbors(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=1, threshold=100, time_window=1, key=0)
        layer1_nodes = set(ego.layers[1][:, 0].tolist())
        assert layer1_nodes <= set(range(1, 11))
        assert len(layer1_nodes) == 10  # no truncation at threshold=100

    def test_threshold_bounds_layer_size(self):
        g = star_graph(leaves=50)
        ego = sample_ego_graph(g, (0, 0), radius=1, threshold=5, time_window=1, key=0)
        assert ego.layers[1].shape[0] <= 5

    def test_edges_reference_valid_indices(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=2, threshold=5, time_window=1, key=1)
        for level in range(1, ego.radius + 1):
            edges = ego.edges[level - 1]
            if edges.size == 0:
                continue
            assert edges[:, 0].max() < ego.layers[level].shape[0]
            assert edges[:, 1].max() < ego.layers[level - 1].shape[0]

    def test_chain_variant_threshold_one(self):
        """threshold=1 (TGAE-g) degenerates the ego-graph into a chain."""
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=3, threshold=1, time_window=1, key=2)
        for layer in ego.layers[1:]:
            assert layer.shape[0] <= 1

    def test_invalid_radius(self):
        with pytest.raises(ConfigError):
            sample_ego_graph(star_graph(), (0, 0), radius=0, threshold=5, time_window=1, key=0)

    def test_isolated_center_has_empty_layers(self):
        g = TemporalGraph(3, [0], [1], [0])
        ego = sample_ego_graph(g, (2, 0), radius=2, threshold=5, time_window=1, key=0)
        assert ego.layers[1].shape[0] == 0
        assert ego.num_nodes == 1

    def test_all_nodes_concatenation(self):
        g = star_graph()
        ego = sample_ego_graph(g, (0, 0), radius=1, threshold=100, time_window=1, key=0)
        assert ego.all_nodes().shape == (11, 2)


class TestInitialNodeSampling:
    def test_probabilities_sum_to_one(self):
        probs = initial_node_probabilities(star_graph())
        assert probs.sum() == pytest.approx(1.0)

    def test_degree_weighting_prefers_hub(self):
        g = star_graph()
        probs = initial_node_probabilities(g).reshape(g.num_nodes, g.num_timestamps)
        # Hub has degree 10, leaves degree 1, at t=0.
        assert probs[0, 0] == pytest.approx(10 / 20)
        assert probs[1, 0] == pytest.approx(1 / 20)

    def test_uniform_variant_over_active_nodes(self):
        g = star_graph()
        probs = initial_node_probabilities(g, uniform=True).reshape(
            g.num_nodes, g.num_timestamps
        )
        active = probs[probs > 0]
        assert np.allclose(active, active[0])
        assert probs[:, 1].sum() == 0  # nothing active at t=1

    def test_empty_graph_raises(self):
        g = TemporalGraph(3, [], [], [], num_timestamps=2)
        with pytest.raises(ConfigError):
            initial_node_probabilities(g)

    def test_sample_shape_and_ranges(self):
        g = star_graph()
        centers = sample_initial_nodes(g, 20, np.random.default_rng(0))
        assert centers.shape == (20, 2)
        assert centers[:, 0].max() < g.num_nodes
        assert centers[:, 1].max() < g.num_timestamps

    def test_hub_sampled_most_often(self):
        g = star_graph()
        centers = sample_initial_nodes(g, 500, np.random.default_rng(0))
        hub_frac = np.mean(centers[:, 0] == 0)
        assert hub_frac > 0.3  # expectation 0.5


class TestBatch:
    def test_batch_produces_one_ego_per_center(self):
        g = star_graph()
        centers = sample_initial_nodes(g, 5, np.random.default_rng(0))
        egos = ego_graph_batch(g, centers, radius=2, threshold=4, time_window=1, key=1)
        assert len(egos) == 5
        assert egos.radius == 2
        np.testing.assert_array_equal(egos.centers, centers)
        np.testing.assert_array_equal(egos.tables[0], centers)

    def test_invalid_radius_and_threshold(self):
        centers = np.array([[0, 0]])
        with pytest.raises(ConfigError):
            ego_graph_batch(star_graph(), centers, radius=0, threshold=5, time_window=1, key=0)
        with pytest.raises(ConfigError):
            ego_graph_batch(star_graph(), centers, radius=1, threshold=0, time_window=1, key=0)

    def test_out_of_universe_centres_rejected(self):
        g = star_graph()
        for center in ([[g.num_nodes, 0]], [[0, g.num_timestamps]], [[-1, 0]]):
            with pytest.raises(GraphFormatError):
                ego_graph_batch(g, np.array(center), radius=1, threshold=5, time_window=1, key=0)

    def test_edge_cases_match_oracle(self):
        """Isolated and repeated centres, window clipping at both ends of
        the horizon, TGAE-g chains and TGAE-t (no truncation)."""
        g = TemporalGraph(
            6,
            [0, 0, 0, 1, 2, 3, 0, 0],
            [1, 2, 3, 2, 3, 4, 1, 4],
            [0, 0, 1, 1, 2, 3, 3, 3],
            num_timestamps=4,
        )
        centers = np.array([[5, 0], [0, 0], [0, 3], [0, 0], [1, 1], [5, 3], [0, 3]])
        for radius in (1, 2, 3):
            for threshold in (1, 2, NO_TRUNCATION):
                for window in (0, 1, 5):
                    egos = ego_graph_batch(g, centers, radius, threshold, window, key=7)
                    assert_packed_equal(
                        pack_ego_batch(egos),
                        oracle_pack(g, centers, radius, threshold, window, key=7),
                    )

    def test_repeated_centres_share_one_ego_graph(self):
        g = star_graph(leaves=30)
        centers = np.array([[0, 0], [0, 0]])
        packed = pack_ego_batch(ego_graph_batch(g, centers, 2, 4, 1, key=3))
        for nodes in packed.level_nodes:
            np.testing.assert_array_equal(nodes[0], nodes[1])

    def test_packed_tables_do_not_depend_on_the_group(self):
        """Purity: a centre's packed tables are the same whichever group
        (and position in it) it was sampled in."""
        g = communication_network(20, 160, 6, seed=3)
        rng = np.random.default_rng(0)
        centers = np.stack([rng.integers(0, 20, 48), rng.integers(0, 6, 48)], axis=1)
        group = ego_graph_batch(g, centers, radius=2, threshold=3, time_window=1, key=11)
        shuffled = rng.permutation(48)
        regrouped = ego_graph_batch(g, centers[shuffled], 2, 3, 1, key=11)
        position = np.argsort(shuffled)
        for row in range(48):
            alone = pack_ego_batch(ego_graph_batch(g, centers[row : row + 1], 2, 3, 1, key=11))
            assert_packed_equal(pack_ego_batch(group, row, row + 1), alone)
            assert_packed_equal(
                pack_ego_batch(regrouped, position[row], position[row] + 1), alone
            )

    def test_key_changes_truncation_draws(self):
        g = star_graph(leaves=40)
        centers = np.array([[0, 0]])
        a = pack_ego_batch(ego_graph_batch(g, centers, 1, 5, 1, key=0))
        b = pack_ego_batch(ego_graph_batch(g, centers, 1, 5, 1, key=1))
        assert not np.array_equal(a.level_nodes[1], b.level_nodes[1])


@st.composite
def sampling_case(draw):
    num_nodes = draw(st.integers(1, 8))
    num_timestamps = draw(st.integers(1, 6))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.integers(0, num_timestamps - 1),
            ),
            max_size=40,
        )
    )
    edges.sort(key=lambda e: e[2])
    graph = TemporalGraph(
        num_nodes,
        [e[0] for e in edges],
        [e[1] for e in edges],
        [e[2] for e in edges],
        num_timestamps=num_timestamps,
    )
    centers = np.array(
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_nodes - 1), st.integers(0, num_timestamps - 1)
                ),
                min_size=1,
                max_size=12,
            )
        ),
        dtype=np.int64,
    )
    tile = draw(st.integers(1, len(centers)))
    return (
        graph,
        centers,
        draw(st.integers(1, 3)),
        draw(st.sampled_from([1, 2, 3, 5, NO_TRUNCATION])),
        draw(st.integers(0, 3)),
        draw(st.integers(0, 2**64 - 1)),
        tile,
    )


@given(sampling_case())
@STANDARD_SETTINGS
def test_batched_sampler_matches_per_centre_oracle(case):
    """The batched sampler + packer equal the per-centre oracle bitwise,
    tile by tile."""
    graph, centers, radius, threshold, window, key, tile = case
    egos = ego_graph_batch(graph, centers, radius, threshold, window, key)
    for start in range(0, len(centers), tile):
        stop = min(start + tile, len(centers))
        assert_packed_equal(
            pack_ego_batch(egos, start, stop),
            oracle_pack(graph, centers[start:stop], radius, threshold, window, key),
        )
