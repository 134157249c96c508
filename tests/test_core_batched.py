"""Batched-vs-sequential equivalence of the ego-graph encoding pipeline.

The padded ego-parallel hot path (``ego_graph_batch`` + ``pack_ego_batch``
+ ``encode_batch``) must be a pure vectorisation: same centre
representations as packing and encoding each ego-graph on its own, same sampling distribution as the per-row generation
path, and a guarded degenerate-row fallback that can never divide by zero
or emit a forbidden index.
"""

import numpy as np
import pytest
from ego_oracle import assert_packed_equal

from repro.core import EgoGraphSampler, TGAEEncoder, TGAEGenerator, TGAEModel, fast_config
from repro.core.generator import (
    _sample_rows_without_replacement,
    _sample_without_replacement,
)
from repro.errors import GraphFormatError
from repro.graph import (
    TemporalGraph,
    build_bipartite_batch,
    ego_graph_batch,
    pack_ego_batch,
    sample_ego_graph,
)
from repro.nn import TemporalGraphAttention


def toy_graph(num_nodes=15, num_edges=70, num_timestamps=5, seed=0):
    rng = np.random.default_rng(seed)
    return TemporalGraph(
        num_nodes,
        rng.integers(0, num_nodes, num_edges),
        rng.integers(0, num_nodes, num_edges),
        np.sort(rng.integers(0, num_timestamps, num_edges)),
        num_timestamps=num_timestamps,
    )


def sample_egos(graph, config, count=10, seed=1):
    sampler = EgoGraphSampler(graph, config, np.random.default_rng(seed))
    centers = sampler.sample_centers(count)
    egos = ego_graph_batch(
        graph,
        centers,
        radius=config.radius,
        threshold=config.neighbor_threshold,
        time_window=config.time_window,
        key=seed + 1,
    )
    return centers, egos


class TestPackEgoBatch:
    def test_structure(self):
        g = toy_graph()
        config = fast_config()
        centers, egos = sample_egos(g, config, count=8)
        packed = pack_ego_batch(egos)
        assert packed.radius == config.radius
        assert packed.batch_size == 8
        assert packed.num_centers == 8
        np.testing.assert_array_equal(packed.center_nodes, centers)
        for level in range(config.radius + 1):
            nodes = packed.level_nodes[level]
            mask = packed.node_mask[level]
            assert nodes.shape[:2] == mask.shape
            # Padding rows are zeroed.
            assert (nodes[~mask] == 0).all()
        for level in packed.levels:
            assert level.src_index.shape == level.dst_index.shape
            assert level.edge_mask.shape == level.src_index.shape
            assert level.num_edges == int(level.edge_mask.sum())
            # Real edges have zero-padded delta_t only where masked.
            assert (level.delta_t[~level.edge_mask] == 0).all()

    def test_matches_single_ego_bipartite_counts(self):
        g = toy_graph()
        config = fast_config()
        centers, egos = sample_egos(g, config, count=6)
        packed = pack_ego_batch(egos)
        for b, (u, t) in enumerate(centers):
            ego = sample_ego_graph(
                g, (int(u), int(t)), config.radius, config.neighbor_threshold,
                config.time_window, key=2,
            )
            merged = build_bipartite_batch([ego])
            for level in range(config.radius + 1):
                assert int(packed.node_mask[level][b].sum()) == merged.level_nodes[level].shape[0]
            for level in range(config.radius):
                assert int(packed.levels[level].edge_mask[b].sum()) == merged.levels[level].num_edges

    def test_empty_batch_rejected(self):
        g = toy_graph()
        config = fast_config()
        with pytest.raises(GraphFormatError):
            ego_graph_batch(g, np.zeros((0, 2), dtype=np.int64), config.radius, 5, 1, key=0)
        _, egos = sample_egos(g, config, count=3)
        with pytest.raises(GraphFormatError):
            pack_ego_batch(egos, 0, 0)

    def test_out_of_range_slice_rejected(self):
        g = toy_graph()
        _, egos = sample_egos(g, fast_config(), count=4)
        for start, stop in ((2, 2), (3, 1), (0, 5), (-1, 2)):
            with pytest.raises(GraphFormatError):
                pack_ego_batch(egos, start, stop)

    def test_slice_padding_depends_on_the_slice_only(self):
        g = toy_graph()
        config = fast_config()
        centers, egos = sample_egos(g, config, count=9)
        for start, stop in ((0, 3), (3, 9), (4, 5)):
            alone = pack_ego_batch(
                ego_graph_batch(
                    g, centers[start:stop], config.radius, config.neighbor_threshold,
                    config.time_window, key=2,
                )
            )
            assert_packed_equal(pack_ego_batch(egos, start, stop), alone)


def encode_alone(encoder_or_model, g, config, centers, key, **kwargs):
    """Encode every centre as its own one-ego packed batch."""
    rows = []
    for u, t in centers:
        single = pack_ego_batch(
            ego_graph_batch(
                g, np.array([[u, t]]), config.radius, config.neighbor_threshold,
                config.time_window, key=key,
            )
        )
        if isinstance(encoder_or_model, TGAEEncoder):
            rows.append(encoder_or_model.encode_batch(single).numpy()[0])
        else:
            rows.append(encoder_or_model(single, **kwargs).logits.numpy()[0])
    return np.stack(rows)


class TestBatchedEncodingEquivalence:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_encode_batch_matches_per_node_encode(self, radius):
        g = toy_graph(seed=radius)
        config = fast_config(radius=radius)
        centers, egos = sample_egos(g, config, count=12, seed=radius)
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        batched = encoder.encode_batch(pack_ego_batch(egos)).numpy()
        sequential = encode_alone(encoder, g, config, centers, key=radius + 1)
        assert batched.shape == (12, config.hidden_dim)
        np.testing.assert_allclose(batched, sequential, atol=1e-9)

    def test_model_forward_matches_per_node_forward(self):
        g = toy_graph()
        config = fast_config()
        centers, egos = sample_egos(g, config, count=6)
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        batched = model(pack_ego_batch(egos), sample=False).logits.numpy()
        sequential = encode_alone(model, g, config, centers, key=2, sample=False)
        np.testing.assert_allclose(batched, sequential, atol=1e-8)

    def test_gradients_flow_through_packed_path(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=6)
        sampler = EgoGraphSampler(g, config, np.random.default_rng(3))
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        batch = sampler.next_batch()
        out = model(batch.packed, sample=True)
        out.logits.sum().backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(np.isfinite(gr).all() for gr in grads)

    def test_training_batch_exposes_packed_view(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=5)
        sampler = EgoGraphSampler(g, config, np.random.default_rng(5))
        batch = sampler.next_batch()
        assert batch.packed.batch_size == 5
        np.testing.assert_array_equal(batch.packed.center_nodes, batch.centers)
        assert len(batch.target_rows) == 5


class TestBatchedAttentionMasking:
    def test_padding_edges_and_rows_do_not_leak(self):
        rng = np.random.default_rng(0)
        layer = TemporalGraphAttention(4, 4, num_heads=2, time_dim=3, rng=rng)
        # Two independent graphs with different sizes, padded to a batch.
        h_src = rng.standard_normal((2, 3, 4))
        h_dst = rng.standard_normal((2, 2, 4))
        src_index = np.array([[0, 1, 2], [0, 1, 0]])
        dst_index = np.array([[0, 1, 1], [0, 0, 0]])
        delta_t = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
        # Graph 1 has only two real edges; its third entry is padding that
        # points at real rows and must not contribute anything.
        edge_mask = np.array([[True, True, True], [True, True, False]])

        from repro.autograd import Tensor

        batched = layer(
            Tensor(h_src), Tensor(h_dst), src_index, dst_index,
            delta_t=delta_t, edge_mask=edge_mask,
        ).numpy()
        for b in range(2):
            keep = edge_mask[b]
            flat = layer(
                Tensor(h_src[b]), Tensor(h_dst[b]),
                src_index[b][keep], dst_index[b][keep], delta_t=delta_t[b][keep],
            ).numpy()
            np.testing.assert_allclose(batched[b], flat, atol=1e-10)


class TestLayerNormMasking:
    def test_masked_rows_are_zeroed(self):
        from repro.autograd import Tensor
        from repro.nn import LayerNorm

        rng = np.random.default_rng(0)
        norm = LayerNorm(4)
        x = rng.standard_normal((2, 3, 4))
        mask = np.array([[True, True, False], [True, False, False]])
        out = norm(Tensor(x), mask=mask).numpy()
        unmasked = norm(Tensor(x)).numpy()
        np.testing.assert_allclose(out[mask], unmasked[mask])
        assert (out[~mask] == 0).all()


class TestSamplingWithoutReplacement:
    def test_degenerate_row_all_mass_forbidden_falls_back_to_uniform(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.0, 0.0, 1.0])
        draws = [
            _sample_without_replacement(probs, 2, rng, forbid=2) for _ in range(200)
        ]
        for drawn in draws:
            assert 2 not in drawn  # the forbidden index never appears
            assert drawn.size == 2  # uniform fallback over {0, 1}
        counts = np.bincount(np.concatenate(draws), minlength=3)
        assert counts[0] == counts[1] == 200

    def test_degenerate_single_column_returns_empty(self):
        # Regression: all probability mass forbidden AND no allowed column
        # left -- previously divided by zero and could return the forbidden
        # index itself.
        rng = np.random.default_rng(0)
        drawn = _sample_without_replacement(np.array([0.7]), 3, rng, forbid=0)
        assert drawn.size == 0
        rows = _sample_rows_without_replacement(
            np.array([[0.7], [0.3]]), np.array([2, 2]), rng, forbid=np.array([0, 0])
        )
        assert all(r.size == 0 for r in rows)

    def test_zero_mass_rows_fall_back_uniformly(self):
        rng = np.random.default_rng(1)
        rows = _sample_rows_without_replacement(
            np.zeros((3, 4)), np.array([4, 2, 0]), rng
        )
        assert sorted(rows[0].tolist()) == [0, 1, 2, 3]
        assert rows[1].size == 2
        assert rows[2].size == 0

    def test_batched_matches_sequential_distribution(self):
        # The batched Gumbel top-k must reproduce the sequential per-row
        # sampler's edge multiset distributionally: same support, same
        # marginal inclusion frequencies within Monte-Carlo tolerance.
        probs = np.array([[0.5, 0.3, 0.15, 0.05], [0.05, 0.05, 0.45, 0.45]])
        counts = np.array([2, 2])
        trials = 3000
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(8)
        freq_batched = np.zeros_like(probs)
        freq_sequential = np.zeros_like(probs)
        for _ in range(trials):
            for row, drawn in enumerate(
                _sample_rows_without_replacement(probs, counts, rng_a)
            ):
                freq_batched[row, drawn] += 1
            for row in range(probs.shape[0]):
                drawn = _sample_without_replacement(probs[row], int(counts[row]), rng_b)
                freq_sequential[row, drawn] += 1
        np.testing.assert_allclose(
            freq_batched / trials, freq_sequential / trials, atol=0.035
        )

    def test_forbid_respected_in_every_row(self):
        rng = np.random.default_rng(2)
        probs = rng.random((6, 8))
        forbid = np.array([0, 1, 2, 3, 4, 5])
        rows = _sample_rows_without_replacement(
            probs, np.full(6, 5), rng, forbid=forbid
        )
        for row, drawn in enumerate(rows):
            assert forbid[row] not in drawn
            assert drawn.size == 5
            assert np.unique(drawn).size == drawn.size  # without replacement


class TestBatchedGeneration:
    def test_generation_reproduces_observed_budgets(self):
        # Generation reproduces the observed (src, t) out-degree budgets
        # exactly, so the generated edge multiset matches the observed one
        # on everything the budgets determine.
        g = toy_graph(num_nodes=12, num_edges=60, num_timestamps=4, seed=9)
        generated = TGAEGenerator(fast_config(epochs=2, num_initial_nodes=8)).fit(g).generate(
            seed=0
        )
        assert generated.num_edges == g.num_edges

        def src_time_multiset(graph):
            pairs, counts = np.unique(
                np.stack([graph.src, graph.t], axis=1), axis=0, return_counts=True
            )
            return {tuple(p): int(c) for p, c in zip(pairs, counts)}

        assert src_time_multiset(generated) == src_time_multiset(g)
        # Self-loops are forbidden.
        assert (generated.src != generated.dst).all()

    def test_generation_deterministic_under_packed_path(self):
        g = toy_graph(num_nodes=10, num_edges=40, num_timestamps=3, seed=4)
        gen = TGAEGenerator(fast_config(epochs=2, num_initial_nodes=8)).fit(g)
        a = gen.generate(seed=5)
        b = gen.generate(seed=5)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)
        np.testing.assert_array_equal(a.t, b.t)
