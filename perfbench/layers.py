"""The traced run's layer map: which public functions are wrapped, and how
their spans and counters reduce to the per-layer metrics.

Modules import these names directly (``from .sampler import EgoGraphSampler``,
``from ..rng import stream``), so each wrapper is installed at the name's
lookup site -- the module attribute or class attribute the caller actually
reads -- and removed again when the traced pass ends.  Nothing under ``src/``
is edited.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from spans import Recorder, summarise


def _pack_fill(result, *args, **kwargs) -> Dict[str, float]:
    real = sum(int(mask.sum()) for mask in result.node_mask)
    padded = sum(int(mask.size) for mask in result.node_mask)
    return {"pack.real_rows": real, "pack.padded_rows": padded}


def _warm_rows_request(engine, keys, *args, **kwargs) -> Dict[str, float]:
    keys = np.unique(np.asarray(keys, dtype=np.int64))
    cache = engine.cache
    if cache is None or not cache.writable:
        missing = keys.size
    else:
        missing = int((~cache.valid[keys]).sum())
    return {"engine.rows_requested": keys.size, "engine.rows_missing": missing}


#: ``(span name, module, attribute path at the lookup site, pre, post)``.
PATCHES: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("datasets.load_dataset", "repro.datasets", "load_dataset", None, None),
    ("rng.stream", "repro.core.sampler", "stream", None, None),
    ("graph.sample_ego_graph", "repro.core.sampler", "sample_ego_graph", None, None),
    (
        "graph.ego_graph_batch", "repro.core.sampler", "ego_graph_batch", None,
        lambda result, *a, **k: {"graph.batch_egos": len(result)},
    ),
    ("graph.pack_ego_batch", "repro.core.sampler", "pack_ego_batch", None, _pack_fill),
    ("graph.appended", "repro.graph.temporal_graph", "TemporalGraph.appended", None, None),
    (
        "core.sampler.inference_batch", "repro.core.sampler",
        "EgoGraphSampler.inference_batch", None, None,
    ),
    (
        "core.sampler.batch_for_centers", "repro.core.sampler",
        "EgoGraphSampler.batch_for_centers", None, None,
    ),
    (
        "core.encoder.encode_inference", "repro.core.model", "TGAEModel.encode_inference",
        None, lambda result, *a, **k: {"encoder.rows": result.shape[0]},
    ),
    ("core.model.forward", "repro.core.model", "TGAEModel.forward", None, None),
    (
        "core.decoder.decode_from_embeddings", "repro.core.model",
        "TGAEModel.decode_from_embeddings", None,
        lambda result, model, embeddings, *a, **k: {"decoder.rows": len(embeddings)},
    ),
    (
        "core.engine.candidates_with_mask", "repro.core.engine",
        "GenerationEngine.candidates_with_mask", None, None,
    ),
    (
        "core.engine.chunk_embeddings", "repro.core.engine",
        "GenerationEngine.chunk_embeddings", None, None,
    ),
    (
        "core.engine.warm_rows", "repro.core.engine", "GenerationEngine.warm_rows",
        _warm_rows_request, None,
    ),
    (
        "core.engine.generate_chunk", "repro.core.engine",
        "GenerationEngine.generate_chunk", None, None,
    ),
    ("core.engine.topk_chunk", "repro.core.engine", "GenerationEngine.topk_chunk", None, None),
    (
        "core.engine.run_sharded", "repro.core.engine", "run_sharded", None,
        lambda result, engine, kind, tasks, *a, **k: {"engine.chunks": len(tasks)},
    ),
    ("core.embed_cache.ensure", "repro.core.embed_cache", "EmbeddingCache.ensure", None, None),
    ("core.embed_cache.fill", "repro.core.embed_cache", "EmbeddingCache.fill", None, None),
    ("core.embed_cache.store", "repro.core.embed_cache", "EmbeddingCache.store", None, None),
    (
        "core.embed_cache.invalidate_rows", "repro.core.embed_cache",
        "EmbeddingCache.invalidate_rows", None, None,
    ),
    (
        "core.embed_cache.dirty_temporal_nodes", "repro.core.generator",
        "dirty_temporal_nodes", None, None,
    ),
    ("core.embed_cache.weights_token", "repro.core.engine", "weights_token", None, None),
    ("core.embed_cache.graph_token", "repro.core.engine", "graph_token", None, None),
    ("core.embed_cache.graph_token", "repro.core.generator", "graph_token", None, None),
    ("core.loss.tgae_shard_loss", "repro.core.trainer", "tgae_shard_loss", None, None),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward", None, None),
    ("optim.adam_step", "repro.optim.adam", "Adam.step", None, None),
    ("optim.clip_grad_norm", "repro.core.trainer", "clip_grad_norm", None, None),
    ("optim.load_gradients", "repro.core.trainer", "load_gradients", None, None),
    ("core.trainer.run_train_shard", "repro.core.trainer", "run_train_shard", None, None),
    ("core.trainer.train_tgae", "repro.core.generator", "train_tgae", None, None),
    ("core.parallel.run", "repro.core.parallel", "WorkerPool.run", None, None),
    (
        "core.persistence.save_generator", "repro.core.persistence", "save_generator",
        None, None,
    ),
    (
        "core.persistence.load_generator", "repro.core.persistence", "load_generator",
        None, None,
    ),
    (
        "metrics.streaming_evaluate", "repro.metrics.streaming", "streaming_evaluate",
        None, None,
    ),
)


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every :data:`PATCHES` entry for the duration of the block."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for name, module_name, path, pre, post in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, pre=pre, post=post))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


#: Per-layer metrics with their units, in report order.  ``BENCHMARK.json``
#: lists exactly these names (``test_benchmark.py`` checks it).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.load_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.pool_start_s", "s"),
    ("setup.prefill_s", "s"),
    ("datasets.load_s", "s"),
    ("rng.stream_s", "s"),
    ("rng.streams", "count"),
    ("graph.ego_sample_s", "s"),
    ("graph.egos_sampled", "count"),
    ("graph.pack_s", "s"),
    ("graph.pack_fill_ratio", "ratio"),
    ("graph.append_s", "s"),
    ("core.sampler.inference_self_s", "s"),
    ("core.sampler.train_self_s", "s"),
    ("core.encoder.encode_s", "s"),
    ("core.encoder.rows_encoded", "count"),
    ("core.model.train_forward_s", "s"),
    ("core.decoder.decode_s", "s"),
    ("core.decoder.rows_decoded", "count"),
    ("core.engine.candidates_s", "s"),
    ("core.engine.warm_rows_s", "s"),
    ("core.engine.chunk_self_s", "s"),
    ("core.engine.chunks", "count"),
    ("core.engine.rows_requested", "count"),
    ("core.engine.tile_useful_ratio", "ratio"),
    ("core.embed_cache.lookup_s", "s"),
    ("core.embed_cache.token_s", "s"),
    ("core.embed_cache.dirty_s", "s"),
    ("core.embed_cache.invalidated_rows", "count"),
    ("core.embed_cache.reencode_amplification", "ratio"),
    ("core.embed_cache.served_rows", "count"),
    ("core.embed_cache.encoded_rows", "count"),
    ("core.embed_cache.hit_rows_raw", "count"),
    ("core.embed_cache.flushes", "count"),
    ("core.embed_cache.refill_rows", "count"),
    ("core.embed_cache.refill_s", "s"),
    ("core.loss.loss_s", "s"),
    ("autograd.backward_s", "s"),
    ("optim.step_s", "s"),
    ("optim.clip_s", "s"),
    ("optim.load_grads_s", "s"),
    ("core.trainer.shard_self_s", "s"),
    ("core.trainer.shards", "count"),
    ("core.trainer.epoch_s_p50", "s"),
    ("core.trainer.outside_shards_s", "s"),
    ("core.parallel.run_s", "s"),
    ("core.parallel.runs", "count"),
    ("core.parallel.task_bytes", "bytes"),
    ("core.parallel.payload_publishes", "count"),
    ("core.parallel.param_updates", "count"),
    ("core.parallel.embed_publishes", "count"),
    ("core.parallel.embed_updates", "count"),
    ("core.parallel.retries", "count"),
    ("core.parallel.degrades", "count"),
    ("core.persistence.save_s", "s"),
    ("core.persistence.load_s", "s"),
    ("metrics.eval_s", "s"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_share", "share"),
    ("trace.uncovered_share.fit", "share"),
    ("trace.uncovered_share.generate", "share"),
    ("trace.uncovered_share.score_topk", "share"),
    ("trace.uncovered_share.update", "share"),
    ("trace.uncovered_share.evaluate", "share"),
)

#: Operation kinds whose uncovered share is reported, by the ``op.<kind>``
#: span names the workloads open.
_OP_GROUPS = {
    "fit": ("op.fit",),
    "generate": ("op.cold_generate", "op.warm_generate", "op.regen_after_update"),
    "score_topk": ("op.cold_topk", "op.warm_topk", "op.refill_topk"),
    "update": ("op.update",),
    "evaluate": ("op.evaluate",),
}


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(recorder: Recorder, facts: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Reduce one traced pass to the :data:`PER_LAYER` values.

    ``facts`` carries what the workload read from the public surfaces
    (``cache_stats()`` deltas, ``pool.dispatch_stats``, ``pool.health``,
    ``history.epoch_seconds``, set-up phase times, untraced/traced op wall
    times).  Returns ``(values, absent)``: a metric that does not apply to
    the workload reads 0 and ``absent`` says why.
    """
    s = summarise(recorder.spans)
    c = recorder.counts

    def total(*names: str) -> float:
        return sum(s[n]["total"] for n in names if n in s)

    def own(*names: str) -> float:
        return sum(s[n]["self"] for n in names if n in s)

    def calls(*names: str) -> int:
        return sum(int(s[n]["calls"]) for n in names if n in s)

    cache = facts.get("cache", {})
    pool = facts.get("pool_stats")
    setup = facts.get("setup", {})
    epochs = facts.get("epoch_seconds", [])
    values: Dict[str, Optional[float]] = {
        "setup.load_s": setup.get("load"),
        "setup.fit_s": setup.get("fit"),
        "setup.pool_start_s": setup.get("pool_start"),
        "setup.prefill_s": setup.get("prefill"),
        "datasets.load_s": total("datasets.load_dataset"),
        "rng.stream_s": total("rng.stream"),
        "rng.streams": calls("rng.stream"),
        "graph.ego_sample_s": total("graph.sample_ego_graph", "graph.ego_graph_batch"),
        "graph.egos_sampled": calls("graph.sample_ego_graph") + c["graph.batch_egos"],
        "graph.pack_s": total("graph.pack_ego_batch"),
        "graph.pack_fill_ratio": _ratio(c["pack.real_rows"], c["pack.padded_rows"]),
        "graph.append_s": total("graph.appended"),
        "core.sampler.inference_self_s": own("core.sampler.inference_batch"),
        "core.sampler.train_self_s": own("core.sampler.batch_for_centers"),
        "core.encoder.encode_s": total("core.encoder.encode_inference"),
        "core.encoder.rows_encoded": c["encoder.rows"],
        "core.model.train_forward_s": total("core.model.forward"),
        "core.decoder.decode_s": total("core.decoder.decode_from_embeddings"),
        "core.decoder.rows_decoded": c["decoder.rows"],
        "core.engine.candidates_s": total("core.engine.candidates_with_mask"),
        "core.engine.warm_rows_s": total("core.engine.warm_rows"),
        "core.engine.chunk_self_s": own("core.engine.generate_chunk", "core.engine.topk_chunk"),
        "core.engine.chunks": c["engine.chunks"],
        "core.engine.rows_requested": c["engine.rows_requested"],
        "core.engine.tile_useful_ratio": _ratio(c["engine.rows_missing"], c["encoder.rows"]),
        "core.embed_cache.lookup_s": total(
            "core.embed_cache.ensure", "core.embed_cache.fill", "core.embed_cache.store"
        ),
        "core.embed_cache.token_s": total(
            "core.embed_cache.weights_token", "core.embed_cache.graph_token"
        ),
        "core.embed_cache.dirty_s": total(
            "core.embed_cache.dirty_temporal_nodes", "core.embed_cache.invalidate_rows"
        ),
        "core.embed_cache.invalidated_rows": cache.get("invalidated_rows"),
        "core.embed_cache.reencode_amplification": _ratio(
            facts.get("regen_encoded_rows", 0), facts.get("update_invalidated_rows", 0)
        ),
        "core.embed_cache.served_rows": (
            c["engine.rows_requested"] - c["engine.rows_missing"] if cache else None
        ),
        "core.embed_cache.encoded_rows": cache.get("encoded_rows"),
        "core.embed_cache.hit_rows_raw": cache.get("hit_rows"),
        "core.embed_cache.flushes": cache.get("flushes"),
        "core.embed_cache.refill_rows": facts.get("refill_encoded_rows"),
        "core.embed_cache.refill_s": total("op.refill_topk"),
        "core.loss.loss_s": total("core.loss.tgae_shard_loss"),
        "autograd.backward_s": total("autograd.backward"),
        "optim.step_s": total("optim.adam_step"),
        "optim.clip_s": total("optim.clip_grad_norm"),
        "optim.load_grads_s": total("optim.load_gradients"),
        "core.trainer.shard_self_s": own("core.trainer.run_train_shard"),
        "core.trainer.shards": calls("core.trainer.run_train_shard"),
        "core.trainer.epoch_s_p50": statistics.median(epochs) if epochs else None,
        "core.trainer.outside_shards_s": (
            total("core.trainer.train_tgae") - total("core.trainer.run_train_shard")
            if "core.trainer.train_tgae" in s else None
        ),
        "core.parallel.run_s": total("core.parallel.run") if pool else None,
        "core.parallel.runs": calls("core.parallel.run") if pool else None,
    }
    for key in ("task_bytes", "payload_publishes", "param_updates"):
        values[f"core.parallel.{key}"] = pool["dispatch"][key] if pool else None
    for key in ("embed_publishes", "embed_updates", "retries"):
        values[f"core.parallel.{key}"] = pool["health"][key] if pool else None
    values["core.parallel.degrades"] = len(pool["health"]["degrades"]) if pool else None
    values["core.persistence.save_s"] = total("core.persistence.save_generator")
    values["core.persistence.load_s"] = total("core.persistence.load_generator")
    values["metrics.eval_s"] = total("metrics.streaming_evaluate")

    op_names = [n for group in _OP_GROUPS.values() for n in group]
    values["trace.ops"] = calls(*op_names)
    values["trace.overhead_ratio"] = _ratio(facts["traced_wall"], facts["untraced_wall"])
    values["trace.uncovered_share"] = _ratio(own(*op_names), total(*op_names))
    for group, names in _OP_GROUPS.items():
        values[f"trace.uncovered_share.{group}"] = _ratio(own(*names), total(*names))

    reasons = {**ABSENT_REASONS, **facts.get("absent_reasons", {})}
    absent: Dict[str, str] = {}
    out: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        value = values.get(name)
        if not value and name in reasons:
            absent[name] = reasons[name]
        elif value is None:
            absent[name] = _default_reason(name, pool, cache)
        elif value == 0 and name.endswith("_s"):
            absent[name] = "layer not called by this workload"
        out[name] = float(value or 0)
    return out, absent


#: Why a per-layer metric reads 0 whatever the workload.
ABSENT_REASONS = {
    **{
        name: "the traced replay has no append, so no refill top-k"
        for name in ("core.embed_cache.refill_rows", "core.embed_cache.refill_s")
    },
    "core.engine.candidates_s": (
        "fast_config has candidate_limit=0: decoding is dense, no candidate sets are built"
    ),
}


def _default_reason(name: str, pool: Any, cache: Any) -> str:
    if name.startswith("core.parallel.") and not pool:
        return "no worker pool in this workload"
    if name.startswith("core.embed_cache.") and not cache:
        return "no inference call, so no embedding cache"
    if name.startswith("setup."):
        return "this set-up phase does not exist in this workload"
    if name.startswith("trace.uncovered_share."):
        return "no operation of this kind in this workload"
    return "no call reached this layer, so the ratio has no denominator"
