"""Resume / warm-start lifecycle: trainer, checkpoint format v2, update().

The contract under test (docs/ARCHITECTURE.md, "Append / warm-start
lifecycle"): a training run split into 5+5 epochs via
``train_tgae(resume_from=...)`` -- in memory or through an on-disk format-v2
checkpoint -- is bit-identical in losses, gradient norms and final weights
to an uninterrupted 10-epoch run, for any worker count and both dtype
policies; ``TGAEGenerator.update()`` appends observed edges and continues
the same lineage; v1 (weights-only) archives still load.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import TGAEGenerator, fast_config, load_generator, save_generator
from repro.core.model import TGAEModel
from repro.core.parallel import WorkerPool, shared_memory_supported
from repro.core.trainer import TrainingState, train_tgae
from repro.datasets import communication_network
from repro.errors import ConfigError, GraphFormatError, NotFittedError
from repro.rng import seed_sequence


@pytest.fixture(scope="module")
def observed():
    return communication_network(25, 160, 5, seed=11)


def make_config(total_epochs, dtype="float64", **overrides):
    return fast_config(
        epochs=total_epochs,
        num_initial_nodes=16,
        candidate_limit=8,
        train_shard_size=4,
        seed=3,
        dtype=dtype,
        **overrides,
    )


def make_model(graph, config):
    return TGAEModel(
        graph.num_nodes, graph.num_timestamps, config,
        rng=np.random.default_rng(config.seed),
    )


def assert_same_weights(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


class TestResumeBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_five_plus_five_equals_straight_ten(self, observed, workers, dtype):
        backend = "thread"
        straight_cfg = make_config(10, dtype=dtype)
        straight = make_model(observed, straight_cfg)
        reference = train_tgae(
            straight, observed, straight_cfg, workers=workers, backend=backend
        )

        half_cfg = dataclasses.replace(straight_cfg, epochs=5)
        resumed = make_model(observed, half_cfg)
        first = train_tgae(resumed, observed, half_cfg, workers=workers, backend=backend)
        assert first.state is not None and first.state.epoch == 5
        second = train_tgae(
            resumed, observed, half_cfg,
            workers=workers, backend=backend, resume_from=first.state,
        )

        assert second.state.epoch == 10
        assert second.state.losses == reference.losses
        assert second.state.grad_norms == reference.grad_norms
        assert first.losses + second.losses == reference.losses
        assert_same_weights(straight, resumed)

    def test_resume_continues_optimizer_state(self, observed):
        config = make_config(3)
        model = make_model(observed, config)
        first = train_tgae(model, observed, config)
        assert first.state.optimizer["step"] == 3
        second = train_tgae(model, observed, config, resume_from=first.state)
        assert second.state.optimizer["step"] == 6

    def test_state_records_named_trainer_stream(self, observed):
        config = make_config(2)
        model = make_model(observed, config)
        history = train_tgae(model, observed, config)
        root = seed_sequence(config.seed, "tgae", "trainer")
        assert history.state.rng_entropy == root.entropy
        assert history.state.rng_spawn_key == tuple(root.spawn_key)

    def test_rng_and_resume_are_mutually_exclusive(self, observed):
        config = make_config(2)
        model = make_model(observed, config)
        history = train_tgae(model, observed, config)
        with pytest.raises(ConfigError, match="rng or resume_from"):
            train_tgae(
                model, observed, config,
                rng=np.random.default_rng(0), resume_from=history.state,
            )


class TestCheckpointV2:
    def test_roundtrip_preserves_train_state(self, observed, tmp_path):
        gen = TGAEGenerator(make_config(4)).fit(observed)
        path = tmp_path / "model.npz"
        save_generator(gen, path)
        restored = load_generator(path)
        state = restored.train_state
        assert isinstance(state, TrainingState)
        assert state.epoch == gen.train_state.epoch == 4
        assert state.losses == gen.train_state.losses
        assert state.grad_norms == gen.train_state.grad_norms
        assert state.rng_entropy == gen.train_state.rng_entropy
        assert state.rng_spawn_key == gen.train_state.rng_spawn_key
        assert state.optimizer["step"] == gen.train_state.optimizer["step"]
        for slot, per_param in gen.train_state.optimizer["slots"].items():
            for name, array in per_param.items():
                restored_array = state.optimizer["slots"][slot][name]
                assert restored_array.dtype == array.dtype
                np.testing.assert_array_equal(restored_array, array)

    def test_resume_through_checkpoint_bit_identical(self, observed, tmp_path):
        reference = TGAEGenerator(make_config(10)).fit(observed)

        half = TGAEGenerator(make_config(5)).fit(observed)
        path = tmp_path / "half.npz"
        save_generator(half, path)
        restored = load_generator(path)
        restored.update(epochs=5)

        assert restored.train_state.epoch == 10
        assert restored.train_state.losses == reference.history.losses
        assert_same_weights(restored.model, reference.model)
        assert restored.generate(seed=7) == reference.generate(seed=7)


def _downgrade_to_v1(src_path, out_path):
    """Rewrite a v2 archive as a faithful format-v1 (weights-only) archive."""
    with np.load(src_path, allow_pickle=False) as archive:
        arrays = {
            key: archive[key]
            for key in archive.files
            if not key.startswith(("optim:", "train:"))
        }
    meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode("utf-8"))
    meta["format_version"] = 1
    meta.pop("train_state", None)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(out_path, **arrays)


class TestFormatCompatibility:
    def test_v1_archive_loads_weights_only(self, observed, tmp_path):
        gen = TGAEGenerator(make_config(3)).fit(observed)
        v2_path, v1_path = tmp_path / "v2.npz", tmp_path / "v1.npz"
        save_generator(gen, v2_path)
        _downgrade_to_v1(v2_path, v1_path)
        legacy = load_generator(v1_path)
        assert legacy.train_state is None
        assert_same_weights(legacy.model, gen.model)
        assert legacy.observed == gen.observed
        assert legacy.generate(seed=5) == gen.generate(seed=5)

    def test_v1_archive_still_updates_cold(self, observed, tmp_path):
        gen = TGAEGenerator(make_config(3)).fit(observed)
        v2_path, v1_path = tmp_path / "v2.npz", tmp_path / "v1.npz"
        save_generator(gen, v2_path)
        _downgrade_to_v1(v2_path, v1_path)
        legacy = load_generator(v1_path)
        # warm weights, cold optimizer, fresh RNG lineage -- but it trains
        legacy.update(epochs=2)
        assert legacy.train_state is not None
        assert legacy.train_state.epoch == 2
        assert len(legacy.history.losses) == 2

    def test_unsupported_version_error_names_supported(self, observed, tmp_path):
        gen = TGAEGenerator(make_config(2)).fit(observed)
        path, bad = tmp_path / "ok.npz", tmp_path / "bad.npz"
        save_generator(gen, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode("utf-8"))
        meta["format_version"] = 99
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(bad, **arrays)
        with pytest.raises(ConfigError, match=r"version 99.*supported versions: 1, 2"):
            load_generator(bad)

    def test_unknown_config_keys_dropped_with_warning(self, observed, tmp_path):
        gen = TGAEGenerator(make_config(2)).fit(observed)
        path, future = tmp_path / "ok.npz", tmp_path / "future.npz"
        save_generator(gen, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode("utf-8"))
        meta["config"]["frobnication_level"] = 11
        meta["config"]["quantum_mode"] = "maximal"
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(future, **arrays)
        with pytest.warns(RuntimeWarning, match=r"frobnication_level.*quantum_mode"):
            restored = load_generator(future)
        assert restored.config == gen.config
        assert restored.generate(seed=3) == gen.generate(seed=3)


class TestUpdate:
    def _new_edges(self, observed, k, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.integers(0, observed.num_nodes, k),
            rng.integers(0, observed.num_nodes, k),
            rng.integers(0, observed.num_timestamps, k),
        )

    def test_append_grows_observed_and_generation(self, observed):
        gen = TGAEGenerator(make_config(3)).fit(observed)
        k = observed.num_edges // 5
        gen.update(self._new_edges(observed, k), epochs=2)
        assert gen.observed.num_edges == observed.num_edges + k
        assert gen.train_state.epoch == 5
        generated = gen.generate(seed=1)
        assert generated.num_edges == observed.num_edges + k
        assert generated.num_nodes == observed.num_nodes
        scores = gen.score_topk(4)
        assert scores.nnz > 0
        assert np.all(scores.score >= 0)

    def test_accepts_row_array_and_temporal_graph(self, observed):
        src, dst, t = self._new_edges(observed, 6)
        rows = np.stack([src, dst, t], axis=1)
        gen_a = TGAEGenerator(make_config(2)).fit(observed)
        gen_a.update(rows, epochs=1)
        from repro.graph import TemporalGraph

        batch = TemporalGraph(
            observed.num_nodes, src, dst, t,
            num_timestamps=observed.num_timestamps,
        )
        gen_b = TGAEGenerator(make_config(2)).fit(observed)
        gen_b.update(batch, epochs=1)
        assert gen_a.observed == gen_b.observed
        assert gen_a.history.losses == gen_b.history.losses

    def test_rejects_out_of_universe_edges(self, observed):
        gen = TGAEGenerator(make_config(2)).fit(observed)
        with pytest.raises(GraphFormatError):
            gen.update(([0], [1], [observed.num_timestamps]), epochs=1)
        with pytest.raises(GraphFormatError):
            gen.update(([observed.num_nodes], [0], [0]), epochs=1)

    def test_rejects_non_integral_and_non_finite_edges(self, observed):
        gen = TGAEGenerator(make_config(2)).fit(observed)
        before = gen.observed
        for edges in (
            ([1.7], [2], [0]),
            ([1], [float("nan")], [0]),
            ([1], [2], [float("inf")]),
            np.array([[1.5, 2.0, 0.0]]),
            [[1, 2], [3]],
        ):
            with pytest.raises(GraphFormatError):
                gen.update(edges, epochs=0)
        assert gen.observed == before

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            TGAEGenerator(make_config(2)).update(([0], [1], [0]))

    def test_pure_resume_matches_trainer_resume(self, observed):
        gen = TGAEGenerator(make_config(4)).fit(observed)
        gen.update(epochs=3)
        assert gen.train_state.epoch == 7
        assert len(gen.train_state.losses) == 7

    @pytest.mark.skipif(
        not shared_memory_supported(), reason="platform has no POSIX shared memory"
    )
    def test_shm_structure_republished_exactly_once(self, observed):
        config = make_config(2)
        gen = TGAEGenerator(config).fit(observed)
        pool = WorkerPool(2, backend="process", shm_dispatch=True, track_dispatch=True)
        with pool:
            engine = gen.engine()
            before_a = engine.generate(np.random.default_rng(1), pool=pool)
            engine.generate(np.random.default_rng(2), pool=pool)
            assert pool.dispatch_stats["payload_publishes"] == 1
            assert before_a == gen.engine().generate(np.random.default_rng(1), workers=1)

            k = observed.num_edges // 5
            gen.update(self._new_edges(observed, k), epochs=1)

            # The appended edge arrays change the structure fingerprint, so
            # the next dispatch republishes the graph segment -- exactly once.
            engine = gen.engine()
            after_a = engine.generate(np.random.default_rng(3), pool=pool)
            assert pool.dispatch_stats["payload_publishes"] == 2
            engine.generate(np.random.default_rng(4), pool=pool)
            assert pool.dispatch_stats["payload_publishes"] == 2
            assert after_a == gen.engine().generate(np.random.default_rng(3), workers=1)
            assert after_a.num_edges == gen.observed.num_edges
