"""Ego-graph batches for training and inference: Alg. 1 sampling + packing.

One :class:`TrainingBatch` bundles everything a TGAE optimisation step
needs: the padded ego-parallel computation graphs of the shard's centre
nodes and the observed adjacency rows those centres must reconstruct.

Both paths run the batched sampler :func:`repro.graph.ego_graph_batch` and
pad with :func:`repro.graph.pack_ego_batch`; its truncation draws are
counter-hash words under one 64-bit key (:mod:`repro.rng`):

* **training** takes the key from one draw of the shard's spawned
  generator, so shards stay pure functions of their seed child;
* **inference** takes it from the named stream
  ``(seed, "tgae", "infer-ego")`` -- once per sampler -- so a temporal
  node's ego-graph, and hence its encoder embedding, is a pure function of
  ``(weights, graph, config)``, whichever call, chunk or tile group sampled
  it.  The inference embedding cache (:mod:`repro.core.embed_cache`) rests
  on that purity.

:func:`~repro.graph.sample_ego_graph` is re-exported here as the slow
per-centre oracle of the batched sampler (same key, same draws).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..graph.bipartite import PackedEgoBatch, pack_ego_batch
from ..graph.ego_graph import (
    EgoBatch,
    ego_graph_batch,
    sample_ego_graph,  # noqa: F401 -- re-exported per-centre oracle
    sample_initial_nodes,
)
from ..graph.temporal_graph import TemporalGraph
from ..rng import key_from, stream
from .config import TGAEConfig
from .loss import adjacency_target_rows


@dataclass
class TrainingBatch:
    """One mini-batch: packed ego-graphs + reconstruction targets.

    ``candidates`` is populated only in sampled-softmax mode
    (``config.candidate_limit > 0``): a ``(batch, C)`` array of node ids the
    decoder scores instead of the full universe.
    """

    centers: np.ndarray
    target_rows: List[np.ndarray]
    packed: PackedEgoBatch
    candidates: Optional[np.ndarray] = None


class EgoGraphSampler:
    """Stateful sampler producing :class:`TrainingBatch` objects.

    Parameters
    ----------
    graph:
        The observed temporal graph.
    config:
        TGAE hyper-parameters (radius, threshold, window, ``n_s`` and the
        TGAE-n uniform-sampling switch).
    rng:
        Random generator driving initial-node sampling, the training
        truncation key and candidate negatives.  May be ``None`` for
        inference-only samplers: :meth:`inference_batch` keys its draws on
        a named stream and never consumes it.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        config: TGAEConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.rng = rng

    def _sample(self, centers: np.ndarray, key: int) -> EgoBatch:
        config = self.config
        return ego_graph_batch(
            self.graph,
            centers,
            radius=config.radius,
            threshold=config.neighbor_threshold,
            time_window=config.time_window,
            key=key,
        )

    def sample_centers(self, count: int) -> np.ndarray:
        """Draw centre temporal nodes per Eq. 2 (or uniformly for TGAE-n)."""
        return sample_initial_nodes(
            self.graph,
            count,
            self.rng,
            uniform=self.config.uniform_initial_sampling,
        )

    def batch_for_centers(
        self, centers: np.ndarray, target_rows: Optional[List[np.ndarray]] = None
    ) -> TrainingBatch:
        """Build the training batch (packed ego-graphs + targets) for explicit centres.

        Draws the truncation key from :attr:`rng` first, then (in
        sampled-softmax mode) the candidate negatives.  ``target_rows`` may
        carry precomputed adjacency rows for the centres (the sharded
        trainer computes them once for the whole epoch batch); ``None``
        derives them here.
        """
        centers = np.asarray(centers, dtype=np.int64)
        packed = pack_ego_batch(self._sample(centers, key_from(self.rng)))
        targets = (
            list(target_rows)
            if target_rows is not None
            else adjacency_target_rows(
                self.graph.src, self.graph.dst, self.graph.t, centers
            )
        )
        candidates = None
        if self.config.candidate_limit > 0:
            candidates = self.build_candidates(centers, targets)
        return TrainingBatch(
            centers=centers, target_rows=targets, packed=packed, candidates=candidates
        )

    def build_candidates(
        self, centers: np.ndarray, target_rows: List[np.ndarray]
    ) -> np.ndarray:
        """Per-centre candidate sets for sampled-softmax decoding.

        Each row holds the centre's observed (positive) targets followed by
        uniform negative samples, padded/truncated to ``candidate_limit``.
        Positives always survive truncation so the reconstruction signal is
        never dropped.
        """
        limit = self.config.candidate_limit
        n = self.graph.num_nodes
        out = np.empty((centers.shape[0], limit), dtype=np.int64)
        for row, targets in enumerate(target_rows):
            positives = np.unique(np.asarray(targets, dtype=np.int64))[:limit]
            fill = limit - positives.size
            negatives = self.rng.integers(0, n, size=fill) if fill > 0 else np.array(
                [], dtype=np.int64
            )
            out[row, : positives.size] = positives
            out[row, positives.size :] = negatives
        return out

    @cached_property
    def inference_key(self) -> int:
        """Truncation key of inference ego-graphs (one named-stream draw)."""
        return key_from(stream(self.config.seed, "tgae", "infer-ego"))

    def inference_batch(
        self, centers: np.ndarray, bounds: Optional[Sequence[int]] = None
    ) -> Iterator[PackedEgoBatch]:
        """Packed inference ego-graphs of ``centers``, one batch per slice.

        The centres are sampled together in one batched pass; ``bounds``
        (``0 = b_0 < b_1 < ... = len(centers)``) cuts them into consecutive
        slices that are padded separately -- the engine passes its canonical
        encode tiles, so each tile's shapes depend on the tile alone.
        ``None`` packs everything as one batch.  Slices are padded lazily,
        as the returned iterator is consumed, so only one padded slice need
        be alive at a time.  No training targets or candidates are built,
        and :attr:`rng` is not consumed.
        """
        centers = np.asarray(centers, dtype=np.int64)
        if bounds is None:
            bounds = (0, centers.shape[0])
        egos = self._sample(centers, self.inference_key)
        return (
            pack_ego_batch(egos, start, stop)
            for start, stop in zip(bounds[:-1], bounds[1:])
        )

    def next_batch(self) -> TrainingBatch:
        """Sample a fresh training batch of ``n_s`` centres."""
        centers = self.sample_centers(self.config.num_initial_nodes)
        return self.batch_for_centers(centers)
