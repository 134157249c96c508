"""TGAE encoder: stacked temporal graph attention over packed ego-graphs.

Implements Sec. IV-C.  Node input features default to learned node-identity
embeddings plus a timestamp embedding; ``k`` TGAT layers then push messages
from the hop-``k`` periphery of each ego-graph down to its centre through
the k-bipartite computation graphs (Fig. 4), padded ego-parallel
(:class:`~repro.graph.PackedEgoBatch`), producing one hidden vector
``h_{u^t}`` per centre temporal node (Eq. 3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, checkpoint, is_grad_enabled
from ..graph.bipartite import PackedEgoBatch
from ..nn import (
    Embedding,
    Linear,
    Module,
    ModuleList,
    TemporalGraphAttention,
    embedding_lookup,
)
from .config import TGAEConfig


class TGAEEncoder(Module):
    """Encode centre temporal nodes of a :class:`~repro.graph.PackedEgoBatch`.

    Parameters
    ----------
    num_nodes, num_timestamps:
        Size of the node universe / timestamp range of the observed graph;
        the encoder learns one identity embedding per node and per timestamp.
    config:
        Model hyper-parameters.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        num_nodes: int,
        num_timestamps: int,
        config: TGAEConfig,
        rng: Optional[np.random.Generator] = None,
        feature_dim: int = 0,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.config = config
        self.num_nodes = num_nodes
        self.num_timestamps = num_timestamps
        self.node_embedding = Embedding(num_nodes, config.embed_dim, rng=rng)
        self.time_embedding = Embedding(num_timestamps, config.embed_dim, rng=rng)
        self.input_proj = Linear(config.embed_dim, config.hidden_dim, rng=rng)
        # Optional external node features X (Sec. III: "topology structure
        # with/w.o. node features"); projected into the embedding space and
        # added to the identity features.
        self.feature_dim = feature_dim
        self.feature_proj = (
            Linear(feature_dim, config.embed_dim, rng=rng) if feature_dim > 0 else None
        )
        self._external_features: Optional[np.ndarray] = None
        self.layers = ModuleList(
            [
                TemporalGraphAttention(
                    in_features=config.hidden_dim,
                    out_features=config.hidden_dim,
                    num_heads=config.num_heads,
                    time_dim=config.time_dim,
                    rng=rng,
                    checkpoint=config.checkpoint_attention,
                )
                for _ in range(config.radius)
            ]
        )

    # ------------------------------------------------------------------
    def set_external_features(self, features: Optional[np.ndarray]) -> None:
        """Attach an external feature matrix.

        ``features`` is either ``(num_nodes, feature_dim)`` (static) or
        ``(num_timestamps, num_nodes, feature_dim)`` (the per-snapshot
        ``X^{(t)}`` of Alg. 1).
        """
        if features is None:
            self._external_features = None
            return
        features = np.asarray(features, dtype=self.config.np_dtype)
        if self.feature_proj is None:
            raise ValueError("encoder was built without feature support (feature_dim=0)")
        if features.ndim == 2:
            expected = (self.num_nodes, self.feature_dim)
        elif features.ndim == 3:
            expected = (self.num_timestamps, self.num_nodes, self.feature_dim)
        else:
            raise ValueError(f"features must be 2-D or 3-D, got shape {features.shape}")
        if features.shape != expected:
            raise ValueError(f"features shape {features.shape} != expected {expected}")
        self._external_features = features

    def node_features(self, temporal_nodes: np.ndarray) -> Tensor:
        """Input features for ``(node_id, timestamp)`` rows (Sec. IV-B).

        The paper's default features are node identities; we add a timestamp
        embedding so occurrences of the same node at different times are
        distinguishable, which the snapshot-indexed feature matrix
        ``X^{(t)}`` of Alg. 1 provides in the original formulation.  When an
        external feature matrix is attached, its projection is added.

        ``temporal_nodes`` may carry leading batch dimensions -- ``(n, 2)``
        and the padded ``(batch, n, 2)`` layout are both supported.
        """
        feat_w = self.feature_proj.weight if self.feature_proj is not None else None
        feat_b = self.feature_proj.bias if self.feature_proj is not None else None
        return self._features_impl(
            temporal_nodes,
            self.node_embedding.weight,
            self.time_embedding.weight,
            feat_w,
            feat_b,
        )

    # ------------------------------------------------------------------
    # Per-level input pipeline (checkpointable)
    # ------------------------------------------------------------------
    def _input_params(self) -> list:
        params = [
            self.node_embedding.weight,
            self.time_embedding.weight,
            self.input_proj.weight,
            self.input_proj.bias,
        ]
        if self.feature_proj is not None:
            params += [self.feature_proj.weight, self.feature_proj.bias]
        return params

    def _features_impl(
        self,
        temporal_nodes: np.ndarray,
        node_w: Tensor,
        time_w: Tensor,
        feat_w: Optional[Tensor] = None,
        feat_b: Optional[Tensor] = None,
    ) -> Tensor:
        """The Sec. IV-B feature computation on explicit parameter tensors.

        The single kernel behind both :meth:`node_features` (module
        parameters) and the checkpointed input pipeline (leaf copies), so
        the two can never drift apart.
        """
        ids = temporal_nodes[..., 0]
        times = temporal_nodes[..., 1]
        out = embedding_lookup(node_w, ids) + embedding_lookup(time_w, times)
        if self._external_features is not None and feat_w is not None:
            if self._external_features.ndim == 2:
                rows = self._external_features[ids]
            else:
                rows = self._external_features[times, ids]
            out = out + (Tensor(rows) @ feat_w + feat_b)
        return out

    def _input_impl(
        self,
        temporal_nodes: np.ndarray,
        node_w: Tensor,
        time_w: Tensor,
        proj_w: Tensor,
        proj_b: Tensor,
        feat_w: Optional[Tensor] = None,
        feat_b: Optional[Tensor] = None,
    ) -> Tensor:
        """``input_proj(node_features(...))`` as a pure function of its parameters."""
        out = self._features_impl(temporal_nodes, node_w, time_w, feat_w, feat_b)
        return out @ proj_w + proj_b

    def _level_input(self, temporal_nodes: np.ndarray) -> Tensor:
        """Projected input features of one bipartite level's node table.

        With ``config.checkpoint_attention`` (and gradients recording), the
        whole pipeline -- two embedding gathers, the optional external
        feature projection, and ``input_proj`` -- becomes one
        recompute-in-backward unit, so only the final ``(rows, hidden)``
        tensor stays alive per level instead of the ~5 per-row
        intermediates.  Exact: same full-shape operations either way.
        """
        params = self._input_params()
        if (
            self.config.checkpoint_attention
            and is_grad_enabled()
            and any(p.requires_grad for p in params)
        ):
            return checkpoint(
                lambda *tensors: self._input_impl(temporal_nodes, *tensors), *params
            )
        return self._input_impl(temporal_nodes, *params)

    def encode_batch(self, packed: PackedEgoBatch) -> Tensor:
        """Encode a padded ego-parallel batch in one vectorised forward.

        Returns ``(batch, hidden)`` centre representations, one per packed
        ego-graph.  One TGAT layer is applied per bipartite level, from the
        outermost (hop ``k``) inward; level nesting guarantees every target
        also receives its own previous representation through its
        self-loop edge.  Each ego-graph stays independent (no cross-ego
        node merging), so the result matches packing and encoding every
        ego-graph on its own.
        """
        radius = packed.radius
        current = self._level_input(packed.level_nodes[radius])
        for level in range(radius, 0, -1):
            layer = self.layers[radius - level]
            edges = packed.levels[level - 1]
            target_feats = self._level_input(packed.level_nodes[level - 1])
            current = layer(
                h_src=current,
                h_dst=target_feats,
                src_index=edges.src_index,
                dst_index=edges.dst_index,
                delta_t=edges.delta_t,
                edge_mask=edges.edge_mask,
            )
        # Level 0 holds exactly the centre of each ego-graph.
        return current.reshape(packed.batch_size, self.config.hidden_dim)
