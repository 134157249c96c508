"""Property-based tests (hypothesis) over the graph substrate and generators."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from strategies import QUICK_SETTINGS

from repro.graph import (
    TemporalGraph,
    build_bipartite_batch,
    cumulative_snapshots,
    ego_graph_batch,
    initial_node_probabilities,
    sample_ego_graph,
    sample_initial_nodes,
)
from repro.metrics import compare_graphs, total_variation



@st.composite
def temporal_graphs(draw, max_nodes=15, max_edges=40, max_t=6):
    n = draw(st.integers(2, max_nodes))
    m = draw(st.integers(1, max_edges))
    t_max = draw(st.integers(1, max_t))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    t = rng.integers(0, t_max, m)
    return TemporalGraph(n, src, dst, t, num_timestamps=t_max)


@given(temporal_graphs())
@QUICK_SETTINGS
def test_snapshot_accumulation_monotone(graph):
    snaps = cumulative_snapshots(graph)
    counts = [s.num_edges for s in snaps]
    assert counts == sorted(counts)
    assert counts[-1] == graph.num_edges


@given(temporal_graphs())
@QUICK_SETTINGS
def test_temporal_degrees_sum_rule(graph):
    assert graph.temporal_degrees().sum() == 2 * graph.num_edges


@given(temporal_graphs())
@QUICK_SETTINGS
def test_initial_probabilities_valid(graph):
    probs = initial_node_probabilities(graph)
    assert np.all(probs >= 0)
    assert np.isclose(probs.sum(), 1.0)
    # Only temporal nodes with non-zero degree get mass.
    deg = graph.temporal_degrees().reshape(-1)
    assert np.all(probs[deg == 0] == 0)


@given(temporal_graphs(), st.integers(1, 3), st.integers(1, 8))
@QUICK_SETTINGS
def test_ego_batch_layer_sizes_bounded(graph, radius, threshold):
    rng = np.random.default_rng(0)
    centers = sample_initial_nodes(graph, 3, rng)
    egos = ego_graph_batch(graph, centers, radius, threshold, time_window=2, key=0)
    assert egos.radius == radius
    for level in range(radius + 1):
        # Each of at most th^(l-1) frontier nodes adds at most th children.
        bound = sum(threshold**hop for hop in range(level + 1))
        assert np.diff(egos.table_offsets[level]).max() <= bound


@given(temporal_graphs(), st.integers(1, 3))
@QUICK_SETTINGS
def test_bipartite_nesting_invariant(graph, radius):
    rng = np.random.default_rng(1)
    centers = sample_initial_nodes(graph, 4, rng)
    egos = [
        sample_ego_graph(graph, (int(u), int(t)), radius, 5, time_window=2, key=1)
        for u, t in centers
    ]
    batch = build_bipartite_batch(egos)
    for level in range(1, batch.radius + 1):
        upper = {tuple(r) for r in batch.level_nodes[level].tolist()}
        lower = {tuple(r) for r in batch.level_nodes[level - 1].tolist()}
        assert lower <= upper
        edges = batch.levels[level - 1]
        targets = set(edges.dst_index.tolist())
        # Every target row receives at least one edge (its self-loop).
        assert targets == set(range(batch.level_nodes[level - 1].shape[0]))


@given(temporal_graphs())
@QUICK_SETTINGS
def test_compare_identity_zero(graph):
    assert all(v == 0.0 for v in compare_graphs(graph, graph.copy()).values())


@given(temporal_graphs())
@QUICK_SETTINGS
def test_restriction_then_snapshot_consistency(graph):
    cut = graph.num_timestamps // 2
    restricted = graph.restricted_to(cut)
    full_snap = cumulative_snapshots(graph)[cut]
    assert restricted.num_edges == full_snap.num_edges


@given(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=6),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=6),
)
@QUICK_SETTINGS
def test_tv_bounded_by_one(a, b):
    n = min(len(a), len(b))
    p = np.asarray(a[:n]) + 1e-9
    q = np.asarray(b[:n]) + 1e-9
    p /= p.sum()
    q /= q.sum()
    assert 0.0 <= total_variation(p, q) <= 1.0 + 1e-12


@given(temporal_graphs(max_nodes=10, max_edges=25, max_t=4), st.integers(0, 99))
@QUICK_SETTINGS
def test_er_baseline_generation_invariants(graph, seed):
    """Generator-output contract holds for arbitrary observed graphs."""
    from repro.baselines import ErdosRenyiGenerator

    generated = ErdosRenyiGenerator().fit(graph).generate(seed=seed)
    assert generated.num_edges == graph.num_edges
    assert generated.num_nodes == graph.num_nodes
    assert generated.num_timestamps == graph.num_timestamps
    if generated.num_edges:
        assert generated.src.min() >= 0
        assert generated.dst.max() < graph.num_nodes
