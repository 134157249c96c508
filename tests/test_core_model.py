"""Tests for TGAE encoder, decoder, and the combined model forward pass."""

import numpy as np

from repro.autograd import softmax
from repro.core import EgoGraphDecoder, EgoGraphSampler, TGAEEncoder, TGAEModel, fast_config
from repro.graph import TemporalGraph


def toy_graph():
    rng = np.random.default_rng(0)
    m = 40
    return TemporalGraph(
        12,
        rng.integers(0, 12, m),
        rng.integers(0, 12, m),
        np.sort(rng.integers(0, 4, m)),
        num_timestamps=4,
    )


def make_batch(graph, config, seed=0):
    sampler = EgoGraphSampler(graph, config, np.random.default_rng(seed))
    return sampler.next_batch()


class TestEncoder:
    def test_center_hidden_shape(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=8)
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        batch = make_batch(g, config)
        hidden = encoder.encode_batch(batch.packed)
        assert hidden.shape == (8, config.hidden_dim)

    def test_node_features_shape(self):
        g = toy_graph()
        config = fast_config()
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        nodes = np.array([[0, 0], [5, 3]])
        feats = encoder.node_features(nodes)
        assert feats.shape == (2, config.embed_dim)

    def test_same_temporal_node_same_features(self):
        g = toy_graph()
        config = fast_config()
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        feats = encoder.node_features(np.array([[3, 1], [3, 1]])).numpy()
        assert np.allclose(feats[0], feats[1])

    def test_time_distinguishes_occurrences(self):
        g = toy_graph()
        config = fast_config()
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        feats = encoder.node_features(np.array([[3, 0], [3, 2]])).numpy()
        assert not np.allclose(feats[0], feats[1])

    def test_stacks_radius_layers(self):
        config = fast_config(radius=3)
        g = toy_graph()
        encoder = TGAEEncoder(g.num_nodes, g.num_timestamps, config)
        assert len(encoder.layers) == 3


class TestDecoder:
    def test_output_shapes(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=6)
        decoder = EgoGraphDecoder(g.num_nodes, config)
        hidden = __import__("repro.autograd", fromlist=["tensor"]).tensor(
            np.random.default_rng(1).standard_normal((6, config.hidden_dim))
        )
        feats = __import__("repro.autograd", fromlist=["tensor"]).tensor(
            np.random.default_rng(2).standard_normal((6, config.embed_dim))
        )
        out = decoder(hidden, feats, sample=True)
        assert out.logits.shape == (6, g.num_nodes)
        assert out.mu.shape == (6, config.latent_dim)
        assert out.log_sigma.shape == (6, config.latent_dim)

    def test_probabilistic_sampling_varies(self):
        from repro.autograd import tensor

        g = toy_graph()
        config = fast_config()
        decoder = EgoGraphDecoder(g.num_nodes, config)
        hidden = tensor(np.ones((2, config.hidden_dim)))
        feats = tensor(np.ones((2, config.embed_dim)))
        a = decoder(hidden, feats, sample=True).logits.numpy()
        b = decoder(hidden, feats, sample=True).logits.numpy()
        assert not np.allclose(a, b)

    def test_inference_mode_deterministic(self):
        from repro.autograd import tensor

        g = toy_graph()
        config = fast_config()
        decoder = EgoGraphDecoder(g.num_nodes, config)
        hidden = tensor(np.ones((2, config.hidden_dim)))
        feats = tensor(np.ones((2, config.embed_dim)))
        a = decoder(hidden, feats, sample=False).logits.numpy()
        b = decoder(hidden, feats, sample=False).logits.numpy()
        assert np.allclose(a, b)

    def test_non_probabilistic_has_no_sigma(self):
        g = toy_graph()
        config = fast_config().as_non_probabilistic_variant()
        decoder = EgoGraphDecoder(g.num_nodes, config)
        assert decoder.mlp_sigma is None
        from repro.autograd import tensor

        out = decoder(
            tensor(np.ones((2, config.hidden_dim))),
            tensor(np.ones((2, config.embed_dim))),
            sample=True,
        )
        assert out.log_sigma is None


class TestModel:
    def test_forward_produces_distributions(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=8)
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        batch = make_batch(g, config)
        decoded = model(batch.packed, sample=False)
        probs = softmax(decoded.logits, axis=-1).numpy()
        assert probs.shape == (8, g.num_nodes)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_gradients_reach_every_parameter(self):
        g = toy_graph()
        config = fast_config(num_initial_nodes=8)
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        batch = make_batch(g, config)
        decoded = model(batch.packed, sample=True)
        from repro.core import tgae_loss

        loss = tgae_loss(decoded, batch.target_rows, kl_weight=config.kl_weight)
        loss.backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None)
        # All parameters except possibly unused heads must receive gradients.
        assert with_grad >= 0.9 * len(model.parameters())

    def test_parameter_count_reasonable(self):
        g = toy_graph()
        config = fast_config()
        model = TGAEModel(g.num_nodes, g.num_timestamps, config)
        assert 0 < model.num_parameters() < 200_000
