"""The Temporal Graph Auto-Encoder module: encoder + variational decoder."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, no_grad
from ..graph.bipartite import PackedEgoBatch
from ..nn import Module
from .config import TGAEConfig
from .decoder import DecoderOutput, EgoGraphDecoder
from .encoder import TGAEEncoder


class TGAEModel(Module):
    """End-to-end TGAE: packed ego-graph batch in, edge distributions out.

    The module owns the encoder (Sec. IV-C) and the decoder (Sec. IV-D);
    sampling and training logic live in :mod:`repro.core.sampler` and
    :mod:`repro.core.trainer`, generation in :mod:`repro.core.generator`.
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
        self.encoder = TGAEEncoder(
            num_nodes, num_timestamps, config, rng=rng, feature_dim=feature_dim
        )
        self.decoder = EgoGraphDecoder(num_nodes, config, rng=rng)
        # Apply the session dtype policy once, after all parameters exist:
        # init draws happen at float64 under every policy, then cast here
        # (a no-op for float64, keeping the golden path bit-identical).
        self.to_dtype(config.np_dtype)

    def forward(
        self,
        batch: PackedEgoBatch,
        sample: bool = True,
        candidates: Optional[np.ndarray] = None,
        noise_rng: Optional[np.random.Generator] = None,
    ) -> DecoderOutput:
        """Encode the batch's centres and decode their edge distributions.

        Parameters
        ----------
        batch:
            Padded ego-parallel k-bipartite graphs
            (:class:`~repro.graph.PackedEgoBatch`), as built by
            :mod:`repro.core.sampler` for training and generation.
        sample:
            Forwarded to the decoder: reparameterised latent (training) vs
            posterior mean (inference).
        candidates:
            Optional ``(batch, C)`` candidate sets; when given the decoder
            runs in sampled-softmax mode and the returned logits index into
            the candidate sets instead of the node universe.
        noise_rng:
            Explicit generator for the decoder's reparameterisation noise;
            the sharded trainer passes its per-shard stream here so draws
            never depend on worker scheduling.
        """
        center_hidden = self.encoder.encode_batch(batch)
        center_features = self.encoder.node_features(batch.center_nodes)
        if candidates is not None:
            return self.decoder.forward_candidates(
                center_hidden, center_features, candidates,
                sample=sample, noise_rng=noise_rng,
            )
        return self.decoder(
            center_hidden, center_features, sample=sample, noise_rng=noise_rng
        )

    # ------------------------------------------------------------------
    # Inference-path encode/decode split (embedding cache hot path)
    # ------------------------------------------------------------------
    def encode_inference(self, batch: PackedEgoBatch) -> np.ndarray:
        """Encoder half of the inference forward: centre embeddings as an array.

        Runs the same encoder invocation :meth:`forward` would under
        ``no_grad`` and returns the ``(batch, hidden)`` embedding matrix.  Composing it
        with :meth:`decode_from_embeddings` is bitwise-identical to
        ``self(batch, sample=False)`` — the split only exposes the seam the
        embedding cache stores rows across.
        """
        with no_grad():
            return self.encoder.encode_batch(batch).numpy()

    def decode_from_embeddings(
        self,
        embeddings: np.ndarray,
        centers: np.ndarray,
        candidates: Optional[np.ndarray] = None,
    ):
        """Decoder half of the inference forward, from cached embeddings.

        ``embeddings`` is a ``(batch, hidden)`` matrix as produced by
        :meth:`encode_inference` (possibly assembled row-by-row from the
        embedding cache), ``centers`` the matching ``(batch, 2)`` temporal
        nodes ``(u, t)`` whose identity/time features the decoder input
        concatenates, ``candidates`` the optional sampled-softmax sets.
        Always the deterministic posterior-mean path (``sample=False``) —
        cache hits must not consume RNG.
        """
        with no_grad():
            center_hidden = Tensor(np.asarray(embeddings))
            center_features = self.encoder.node_features(
                np.asarray(centers, dtype=np.int64)
            )
            if candidates is not None:
                return self.decoder.forward_candidates(
                    center_hidden, center_features, candidates, sample=False
                )
            return self.decoder(center_hidden, center_features, sample=False)
