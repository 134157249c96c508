"""Tests for the streaming O(E) generation engine.

Three layers of evidence that the engine refactors changed the memory
model, not the distribution:

* the dense decoding path reproduces pinned golden sha256 fingerprints at
  fixed training and generation seeds.  The fingerprints were recaptured
  when the RNG scheme moved to the named seed-sequence registry
  (``repro.rng``) with per-chunk spawned streams -- equivalence of the
  engine's draws to the pre-engine generator was certified by the previous
  generation of these constants before that migration; today's constants
  pin the registry-era draws, which are additionally bit-identical for
  every worker count (``tests/test_core_parallel.py``);
* within-candidate masked sampling is distribution-identical to the old
  scatter-into-full-rows path (empirical frequencies over thousands of
  vectorised trials);
* the under-fill degenerate case (candidate pool smaller than the distinct
  target count) is fixed: rows are padded with distinct negatives and the
  generated graph matches the observed distinct-target budget exactly.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import (
    GenerationEngine,
    TGAEGenerator,
    active_temporal_nodes,
    fast_config,
    sample_rows_without_replacement,
)
from repro.core.engine import distinct_allowed_mask, fold_duplicate_mass
from repro.datasets import communication_network
from repro.errors import GenerationError, NotFittedError
from repro.graph import TemporalGraph, validate_generated

# Dense-path fingerprints on communication_network(25, 150, 5, seed=17)
# with fast_config(epochs=3, num_initial_nodes=12): sha256 of the lexsorted
# (t, src, dst) triples.  Captured under the sharded-trainer RNG scheme
# (per-epoch centre streams + per-shard spawned children driving ego
# sampling, candidate negatives and decoder noise -- the scheme that makes
# training bit-identical for every worker count); recaptured when inference
# ego sampling moved off the per-chunk task stream onto named per-centre
# streams (``(seed, "tgae", "infer-ego", u, t)``) for the versioned
# embedding cache -- embeddings became pure functions of (weights, graph,
# config), so the chunk stream now drives only candidate negatives and
# Gumbel noise; recaptured again when ego sampling moved to the batched
# sampler with counter-hash truncation draws (``repro.rng.counter_hash``
# keyed on (key, centre, level, parent, slot); the key is one draw of the
# shard child in training and of the named stream ``(seed, "tgae",
# "infer-ego")`` at inference) and canonical packed edge order -- the
# batched sampler is pinned bitwise to the per-centre oracle by
# ``tests/test_graph_ego.py``.  Any unintended change to training draws, shard
# partitioning, chunking, or stream derivation shows up here as a
# mismatch, and the constants are additionally pinned cache-on == cache-off
# by ``tests/test_embed_cache.py``.
GOLDEN_DENSE = {
    0: "2d8c664253f7639166771a6833161222ac5cc16ccd9881517b37f4c7cb83430e",
    7: "61ff0e22f56f63c61037a6ec522a44d94e5d6ff356e51419cc7076b8bba7aeec",
}


def graph_fingerprint(graph: TemporalGraph) -> str:
    triples = np.stack([graph.t, graph.src, graph.dst], axis=1)
    order = np.lexsort((graph.dst, graph.src, graph.t))
    return hashlib.sha256(np.ascontiguousarray(triples[order]).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 150, 5, seed=17)


@pytest.fixture(scope="module")
def dense_fitted(observed):
    # dtype pinned: the GOLDEN_DENSE hashes certify the float64 golden path
    # and must hold even when REPRO_DTYPE sweeps the suite under float32.
    return TGAEGenerator(
        fast_config(epochs=3, num_initial_nodes=12, dtype="float64")
    ).fit(observed)


class TestDensePathGolden:
    """The dense path reproduces its pinned registry-era draws exactly."""

    @pytest.mark.parametrize("seed", sorted(GOLDEN_DENSE))
    def test_matches_pre_refactor_output(self, dense_fitted, seed):
        generated = dense_fitted.generate(seed=seed)
        assert graph_fingerprint(generated) == GOLDEN_DENSE[seed]

    def test_engine_accessor_requires_fit(self):
        with pytest.raises(NotFittedError):
            TGAEGenerator(fast_config()).engine()

    def test_score_topk_requires_fit(self):
        with pytest.raises(NotFittedError):
            TGAEGenerator(fast_config()).score_topk(3)


class TestActiveTemporalNodes:
    def test_matches_dense_reference(self):
        g = communication_network(18, 120, 4, seed=2)
        centers, degrees, distinct = active_temporal_nodes(g)
        # Dense reference: the (n, T) scatter the engine no longer builds.
        out_deg = np.zeros((g.num_nodes, g.num_timestamps), dtype=np.int64)
        np.add.at(out_deg, (g.src, g.t), 1)
        distinct_ref = np.zeros_like(out_deg)
        triples = np.unique(np.stack([g.src, g.t, g.dst], axis=1), axis=0)
        np.add.at(distinct_ref, (triples[:, 0], triples[:, 1]), 1)
        ref_u, ref_t = np.nonzero(out_deg)
        assert np.array_equal(centers, np.stack([ref_u, ref_t], axis=1))
        assert np.array_equal(degrees, out_deg[ref_u, ref_t])
        assert np.array_equal(distinct, distinct_ref[ref_u, ref_t])

    def test_empty_graph_raises(self):
        g = TemporalGraph(4, [], [], [], num_timestamps=2)
        with pytest.raises(GenerationError):
            active_temporal_nodes(g)


class TestDistinctAllowedMask:
    def test_first_occurrence_only(self):
        cand = np.array([[3, 5, 3, 5, 1]])
        mask = distinct_allowed_mask(cand)
        assert mask.tolist() == [[True, True, False, False, True]]

    def test_forbid_nodes_excluded(self):
        cand = np.array([[3, 5, 1], [2, 2, 4]])
        mask = distinct_allowed_mask(cand, forbid_nodes=np.array([5, 4]))
        assert mask.tolist() == [[True, False, True], [True, False, False]]


class TestMaskedSamplingEquivalence:
    """Sampling within candidate sets == scatter-to-full-rows, in distribution."""

    def test_within_candidate_matches_scatter(self):
        n, trials, draws = 12, 8000, 2
        cand_row = np.array([1, 3, 5, 7, 9])
        probs_row = np.array([0.05, 0.4, 0.1, 0.25, 0.2])
        counts = np.full(trials, draws, dtype=np.int64)

        # Streaming: draw column indices within the candidate set.
        cand = np.tile(cand_row, (trials, 1))
        probs_c = np.tile(probs_row, (trials, 1))
        allowed = distinct_allowed_mask(cand)
        cols = sample_rows_without_replacement(
            probs_c, counts, np.random.default_rng(11), allowed=allowed
        )
        stream_hits = np.bincount(
            np.concatenate([cand[i, c] for i, c in enumerate(cols)]), minlength=n
        )

        # Pre-refactor reference: scatter into full (trials, n) rows first.
        full = np.zeros((trials, n))
        full[:, cand_row] = probs_row
        drawn = sample_rows_without_replacement(
            full, counts, np.random.default_rng(12)
        )
        scatter_hits = np.bincount(np.concatenate(drawn), minlength=n)

        freq_stream = stream_hits / (trials * draws)
        freq_scatter = scatter_hits / (trials * draws)
        assert freq_stream[cand_row].sum() == pytest.approx(1.0)
        assert np.abs(freq_stream - freq_scatter).max() < 0.03

    def test_duplicate_candidates_match_scatter_sum(self):
        """With colliding slots, folded sampling == the old np.add.at scatter."""
        n, trials = 10, 8000
        cand_row = np.array([1, 3, 1, 7])  # node 1 holds mass in two slots
        probs_row = np.array([0.3, 0.25, 0.15, 0.3])
        counts = np.full(trials, 2, dtype=np.int64)

        cand = np.tile(cand_row, (trials, 1))
        probs = fold_duplicate_mass(cand, np.tile(probs_row, (trials, 1)))
        allowed = distinct_allowed_mask(cand)
        cols = sample_rows_without_replacement(
            probs, counts, np.random.default_rng(21), allowed=allowed
        )
        stream_hits = np.bincount(
            np.concatenate([cand[i, c] for i, c in enumerate(cols)]), minlength=n
        )

        full = np.zeros((trials, n))
        np.add.at(full, (np.repeat(np.arange(trials), 4), np.tile(cand_row, trials)),
                  np.tile(probs_row, trials))
        drawn = sample_rows_without_replacement(
            full, counts, np.random.default_rng(22)
        )
        scatter_hits = np.bincount(np.concatenate(drawn), minlength=n)

        diff = np.abs(stream_hits - scatter_hits) / (trials * 2)
        assert diff.max() < 0.03

    def test_fold_duplicate_mass_preserves_row_sums(self):
        rng = np.random.default_rng(13)
        cand = rng.integers(0, 6, size=(50, 8))
        probs = rng.random((50, 8))
        probs /= probs.sum(axis=1, keepdims=True)
        folded = fold_duplicate_mass(cand, probs)
        assert np.allclose(folded.sum(axis=1), 1.0)
        # Non-first duplicate slots carry zero; first occurrences carry sums.
        mask = distinct_allowed_mask(cand)
        assert np.all(folded[~mask] == 0.0)
        for row in range(50):
            for node in np.unique(cand[row]):
                expected = probs[row][cand[row] == node].sum()
                slot = np.nonzero(cand[row] == node)[0][0]
                assert folded[row, slot] == pytest.approx(expected)

    def test_duplicate_slots_never_drawn_twice(self):
        cand = np.tile(np.array([2, 4, 2, 6]), (500, 1))
        probs = np.full((500, 4), 0.25)
        allowed = distinct_allowed_mask(cand)
        cols = sample_rows_without_replacement(
            probs, np.full(500, 3, dtype=np.int64), np.random.default_rng(0),
            allowed=allowed,
        )
        for i, c in enumerate(cols):
            targets = cand[i, c]
            assert len(set(targets.tolist())) == targets.size == 3

    def test_zero_mass_falls_back_to_uniform_over_allowed(self):
        probs = np.zeros((2000, 4))
        allowed = np.tile(np.array([True, True, False, True]), (2000, 1))
        cols = sample_rows_without_replacement(
            probs, np.ones(2000, dtype=np.int64), np.random.default_rng(5),
            allowed=allowed,
        )
        picks = np.concatenate(cols)
        counts = np.bincount(picks, minlength=4)
        assert counts[2] == 0
        assert counts[[0, 1, 3]].min() > 500  # roughly uniform thirds

    def test_fully_masked_row_yields_empty(self):
        cols = sample_rows_without_replacement(
            np.ones((1, 3)), np.array([2]), np.random.default_rng(0),
            allowed=np.zeros((1, 3), dtype=bool),
        )
        assert cols[0].size == 0


class TestCandidateAssembly:
    """Vectorised candidate batches: partners first, negatives after, padded."""

    @pytest.fixture()
    def engine(self, observed):
        config = fast_config(epochs=1, num_initial_nodes=8, candidate_limit=6)
        generator = TGAEGenerator(config).fit(observed)
        return generator.engine()

    def test_partners_lead_each_row(self, engine, observed):
        offsets, partners = observed.out_partner_groups()
        centers = np.stack([np.arange(10), np.zeros(10, dtype=np.int64)], axis=1)
        cand = engine.candidate_batch(centers, np.random.default_rng(3))
        assert cand.shape == (10, 6)
        for row, node in enumerate(centers[:, 0]):
            pool = partners[offsets[node] : offsets[node + 1]]
            if pool.size <= 6:
                # Small pools: every partner present, in CSR order.
                assert np.array_equal(cand[row, : pool.size], pool)
            else:
                # Hub pools: a distinct subsample of the pool, not an
                # ascending-id prefix.
                assert np.all(np.isin(cand[row], pool))
                assert np.unique(cand[row]).size == 6

    def test_hub_pools_are_subsampled_without_id_bias(self):
        # One hub (node 0) with 20 distinct partners and candidate_limit=5:
        # over many assemblies every partner id must appear, not just 1..5.
        src = [0] * 20 + [1, 2]
        dst = list(range(1, 21)) + [2, 3]
        t = [0] * 22
        hub = TemporalGraph(25, src, dst, t, num_timestamps=1)
        config = fast_config(epochs=1, num_initial_nodes=4, candidate_limit=5)
        generator = TGAEGenerator(config).fit(hub)
        engine = generator.engine()
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            cand = engine.candidate_batch(np.array([[0, 0]]), rng)
            seen.update(cand[0].tolist())
        assert set(range(1, 21)) <= seen

    def test_width_expands_to_min_distinct(self, engine):
        centers = np.array([[0, 0], [1, 0]])
        needed = np.array([15, 2])
        cand = engine.candidate_batch(
            centers, np.random.default_rng(4), min_distinct=needed
        )
        assert cand.shape[1] == 16  # max(limit=6, 15 + 1)
        allowed = distinct_allowed_mask(cand, centers[:, 0])
        assert allowed[0].sum() >= 15
        assert allowed[1].sum() >= 2

    def test_min_distinct_clipped_to_universe(self, engine, observed):
        centers = np.array([[0, 0]])
        needed = np.array([observed.num_nodes + 40])
        cand = engine.candidate_batch(
            centers, np.random.default_rng(5), min_distinct=needed
        )
        allowed = distinct_allowed_mask(cand, centers[:, 0])
        assert allowed[0].sum() >= observed.num_nodes - 1

    def test_generator_delegate(self, observed):
        config = fast_config(epochs=1, num_initial_nodes=8, candidate_limit=6)
        generator = TGAEGenerator(config).fit(observed)
        centers = np.array([[2, 1], [3, 0]])
        cand = generator._generation_candidates(centers, np.random.default_rng(0))
        assert cand.shape == (2, 6)


class TestUnderFillRegression:
    """A pool smaller than the distinct target count no longer under-fills."""

    @pytest.fixture(scope="class")
    def bursty(self):
        # Node 0 emits 12 distinct targets at t=0 -- three times the
        # candidate limit used below.  Background edges keep training sane.
        rng = np.random.default_rng(8)
        src = [0] * 12
        dst = list(range(1, 13))
        t = [0] * 12
        for _ in range(60):
            u = int(rng.integers(0, 30))
            v = int(rng.integers(0, 30))
            if u != v:
                src.append(u)
                dst.append(v)
                t.append(int(rng.integers(0, 3)))
        return TemporalGraph(30, src, dst, t, num_timestamps=3)

    def test_distinct_targets_match_observed(self, bursty):
        config = fast_config(epochs=2, num_initial_nodes=8, candidate_limit=4)
        generator = TGAEGenerator(config).fit(bursty)
        generated = generator.generate(seed=1)
        _, obs_deg, obs_distinct = active_temporal_nodes(bursty)
        gen_centers, gen_deg, gen_distinct = active_temporal_nodes(generated)
        obs_centers, _, _ = active_temporal_nodes(bursty)
        assert np.array_equal(gen_centers, obs_centers)
        assert np.array_equal(gen_deg, obs_deg)
        assert np.array_equal(gen_distinct, obs_distinct)

    def test_generated_graph_valid(self, bursty):
        config = fast_config(epochs=2, num_initial_nodes=8, candidate_limit=4)
        generator = TGAEGenerator(config).fit(bursty)
        generated = generator.generate(seed=2)
        report = validate_generated(bursty, generated)
        assert report.ok, str(report)
        assert np.all(generated.src != generated.dst)


class TestScoreTopK:
    @pytest.fixture(scope="class")
    def small(self):
        return communication_network(15, 60, 3, seed=4)

    def test_dense_topk_matches_score_matrix(self, small):
        # A high neighbor threshold removes ego-sampling randomness, so the
        # chunked top-k and the dense matrix decode identical distributions.
        config = fast_config(epochs=2, num_initial_nodes=8, neighbor_threshold=500)
        generator = TGAEGenerator(config).fit(small)
        dense = generator.score_matrix(timestamps=[0, 1])
        topk = generator.score_topk(3, timestamps=[0, 1])
        assert topk.nnz == small.num_nodes * 2 * 3
        for i in range(topk.nnz):
            node, stamp = int(topk.node[i]), int(topk.timestamp[i])
            j = [0, 1].index(stamp)
            row = dense[node, j]
            assert topk.score[i] == pytest.approx(row[topk.target[i]])
        # Per centre, the triple scores are exactly the top-3 of the row.
        for node in range(small.num_nodes):
            for j, stamp in enumerate([0, 1]):
                sel = (topk.node == node) & (topk.timestamp == stamp)
                expected = np.sort(dense[node, j])[::-1][:3]
                assert np.allclose(np.sort(topk.score[sel])[::-1], expected)

    def test_streaming_topk_rows_are_subdistributions(self, small):
        """Folded scores: a full-width top-k of a row sums to exactly 1."""
        config = fast_config(epochs=2, num_initial_nodes=8, candidate_limit=5)
        generator = TGAEGenerator(config).fit(small)
        topk = generator.score_topk(5, timestamps=[0])  # k == candidate width
        for node in range(small.num_nodes):
            sel = topk.node == node
            assert topk.score[sel].sum() == pytest.approx(1.0)

    def test_streaming_topk_structure(self, small):
        config = fast_config(epochs=2, num_initial_nodes=8, candidate_limit=5)
        generator = TGAEGenerator(config).fit(small)
        topk = generator.score_topk(4)
        assert topk.nnz > 0
        assert topk.node.shape == topk.timestamp.shape == topk.target.shape == topk.score.shape
        assert topk.target.max() < small.num_nodes
        assert np.all(topk.score > 0.0) and np.all(topk.score <= 1.0)
        # No centre reports more than k targets, and no duplicates within one.
        keys = (topk.node * small.num_timestamps + topk.timestamp) * small.num_nodes
        _, counts = np.unique(keys, return_counts=True)
        assert counts.max() <= 4
        pair_keys = keys + topk.target
        assert np.unique(pair_keys).size == pair_keys.size

    def test_invalid_k_raises(self, small):
        config = fast_config(epochs=1, num_initial_nodes=8)
        generator = TGAEGenerator(config).fit(small)
        with pytest.raises(GenerationError):
            generator.score_topk(0)


class TestStreamingEndToEnd:
    def test_streaming_engine_reusable(self, observed):
        config = fast_config(epochs=2, num_initial_nodes=12, candidate_limit=8)
        generator = TGAEGenerator(config).fit(observed)
        engine = generator.engine()
        assert isinstance(engine, GenerationEngine)
        a = engine.generate(np.random.default_rng(9))
        b = engine.generate(np.random.default_rng(9))
        assert a == b  # same rng stream, same draws

    def test_streaming_respects_budgets_on_dense_config_graph(self, observed):
        dense_cfg = fast_config(epochs=2, num_initial_nodes=12)
        stream_cfg = dataclasses.replace(dense_cfg, candidate_limit=8)
        generated = TGAEGenerator(stream_cfg).fit(observed).generate(seed=3)
        assert generated.num_edges == observed.num_edges
        assert np.all(generated.src != generated.dst)
