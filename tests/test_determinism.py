"""Cross-cutting determinism sweep.

A reproduction repository lives or dies by seeded reproducibility: every
generator, dataset loader and stochastic transform must return bit-identical
output for the same seed, and different output for different seeds (where
the algorithm is actually stochastic).  These tests sweep the entire public
surface rather than trusting each module's local tests.
"""

import numpy as np
import pytest

from repro.baselines import BASELINES, EXTRA_BASELINES
from repro.core import TGAEGenerator, fast_config
from repro.core.variants import VARIANTS
from repro.datasets import available_datasets, load_dataset
from repro.graph import (
    TemporalGraph,
    from_temporal_graph,
    perturb_edges,
    rewire_degree_preserving,
    ego_graph_batch,
    sample_ego_graph,
    shuffle_timestamps,
)


@pytest.fixture(scope="module")
def observed():
    rng = np.random.default_rng(2)
    n, m, T = 20, 120, 4
    src = rng.integers(0, n, m)
    dst = (src + 1 + rng.integers(0, n - 1, m)) % n
    t = rng.integers(0, T, m)
    return TemporalGraph(n, src, dst, t, num_timestamps=T)


@pytest.mark.parametrize("name", list(BASELINES) + list(EXTRA_BASELINES))
def test_baseline_generation_deterministic(observed, name):
    factory = {**BASELINES, **EXTRA_BASELINES}[name]
    generator = factory().fit(observed)
    assert generator.generate(seed=13) == generator.generate(seed=13)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_training_and_generation_deterministic(observed, name):
    config = fast_config(epochs=2, num_initial_nodes=8, seed=5)
    a = VARIANTS[name](config).fit(observed).generate(seed=3)
    b = VARIANTS[name](config).fit(observed).generate(seed=3)
    assert a == b


def test_tgae_different_seeds_differ(observed):
    config = fast_config(epochs=2, num_initial_nodes=8, seed=5)
    generator = TGAEGenerator(config).fit(observed)
    assert generator.generate(seed=1) != generator.generate(seed=2)


@pytest.mark.parametrize("name", available_datasets())
def test_dataset_loading_deterministic(name):
    assert load_dataset(name, scale="small") == load_dataset(name, scale="small")


def test_transforms_deterministic(observed):
    for transform in (
        lambda g, s: shuffle_timestamps(g, seed=s),
        lambda g, s: rewire_degree_preserving(g, seed=s),
        lambda g, s: perturb_edges(g, 0.5, seed=s),
    ):
        assert transform(observed, 9) == transform(observed, 9)


def test_event_smear_deterministic(observed):
    a = from_temporal_graph(observed, spread="uniform", seed=4)
    b = from_temporal_graph(observed, spread="uniform", seed=4)
    assert a == b
    assert a != from_temporal_graph(observed, spread="uniform", seed=5)


def test_ego_graph_sampling_deterministic(observed):
    ego_a = sample_ego_graph(observed, (0, 1), radius=2, threshold=5,
                             time_window=2, key=8)
    ego_b = sample_ego_graph(observed, (0, 1), radius=2, threshold=5,
                             time_window=2, key=8)
    assert len(ego_a.layers) == len(ego_b.layers)
    for layer_a, layer_b in zip(ego_a.layers, ego_b.layers):
        assert np.array_equal(layer_a, layer_b)
    batch_a = ego_graph_batch(observed, np.array([[0, 1]]), 2, 5, 2, key=8)
    batch_b = ego_graph_batch(observed, np.array([[0, 1]]), 2, 5, 2, key=8)
    for table_a, table_b in zip(batch_a.tables, batch_b.tables):
        assert np.array_equal(table_a, table_b)
