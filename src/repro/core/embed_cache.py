"""Versioned per-``(node, t)`` inference embedding cache.

Encoder embeddings at inference time are pure functions of
``(model weights, observed graph, config)``: the decoder consumes the
posterior mean (``sample=False``, no RNG) and — since the inference
ego-graphs take their truncation draws from a counter hash keyed on
``(key, centre, level, parent, slot)``, with ``key`` one draw of the named
stream ``(seed, "tgae", "infer-ego")`` (see
:meth:`repro.core.sampler.EgoGraphSampler.inference_batch`) — the encoder
input is too, whichever group of centres a tile was sampled with.  This
module caches those embeddings across ``generate`` / ``score_topk`` /
``dense_score_rows`` calls so repeat inference against the same fitted
model skips the encoder entirely and becomes decode-only.

Three design rules make every cache hit *bitwise* equal to a cold encode:

* **Canonical encode tiles.**  The key universe ``key = u * T + t`` over
  ``[0, n*T)`` is partitioned into fixed consecutive-key tiles of
  :data:`EMBED_TILE` rows.  Any encoder invocation on the inference path
  always covers one whole tile (clipped at ``n*T``), regardless of which
  rows were requested — so the batch composition seen by the packed
  encoder (and by BLAS, whose kernels are *not* row-count invariant) is a
  pure function of the graph size and the tile index, never of the
  request.  Cache-off engines run the exact same tiles ephemerally.
* **Version tokens.**  The cache stores a weights fingerprint
  (:func:`weights_token`, the same digest as the shm layer's
  ``_state_token``) and a graph/config fingerprint (:func:`graph_token`).
  :meth:`EmbeddingCache.ensure` loudly flushes on any mismatch and counts
  the reason (``weight_flushes`` / ``graph_flushes``) — a hit can never be
  served across a version boundary.
* **Incremental invalidation.**  After an observed-edge append
  (:meth:`repro.core.generator.TGAEGenerator.update` with ``epochs=0``),
  :func:`dirty_temporal_nodes` walks the incidence CSR backwards from the
  new edges' windowed query points for ``radius - 1`` predecessor steps
  and only those rows are dropped (plus the rows sharing their tiles at
  re-encode time); the clean remainder keeps serving hits under the new
  graph token.

The cache doubles as a shared-memory segment: :meth:`EmbeddingCache.share_arrays`
exposes the row/valid/token arrays for a ``SharedArrayStore`` and
:meth:`EmbeddingCache.attached` wraps a worker's read-only views, with the
token *inside the segment* so a worker can cheaply detect a stale segment
and fall back to ephemeral tile encoding.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, Optional

import numpy as np

from ..graph.temporal_graph import TemporalGraph

#: Rows per canonical encode tile.  This is a determinism contract, not a
#: tuning knob: changing it changes the batch composition of every
#: inference encode and therefore (through BLAS kernel selection) the
#: low-order bits of cached embeddings, which would break the pinned
#: fingerprint corpus.  It is deliberately not configurable.
EMBED_TILE: int = 32

#: Two concatenated sha256 hexdigests: ``weights_token + graph_token``.
_TOKEN_BYTES = 128

_STAT_KEYS = (
    "hit_rows",
    "encoded_rows",
    "encode_calls",
    "flushes",
    "weight_flushes",
    "graph_flushes",
    "invalidated_rows",
    "stale_misses",
)


def weights_token(model: Any) -> str:
    """Fingerprint of the model's weight values (sorted-name sha256).

    Byte-for-byte the same digest the shm dispatch layer uses as its
    ``_state_token`` — the cache and the worker-pool republish logic agree
    on what "the weights changed" means.
    """
    digest = hashlib.sha256()
    for name, param in sorted(model.named_parameters()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def graph_token(
    graph: TemporalGraph,
    config: Any,
    external_features: Optional[np.ndarray] = None,
) -> str:
    """Fingerprint of everything besides the weights that embeddings see.

    Covers the edge arrays, the ``(n, T)`` universe, the full config repr
    (radius/threshold/window/seed shape the inference ego-graphs and their
    named truncation streams) and any external node features.
    """
    digest = hashlib.sha256()
    digest.update(repr(config).encode())
    digest.update(f"{graph.num_nodes}:{graph.num_timestamps}".encode())
    for arr in (graph.src, graph.dst, graph.t):
        digest.update(np.ascontiguousarray(arr).tobytes())
    if external_features is not None:
        digest.update(np.ascontiguousarray(external_features).tobytes())
    return digest.hexdigest()


def _token_array(weights: str, graph: str) -> np.ndarray:
    """Pack the two hexdigests into the 128-byte segment token array."""
    packed = (weights + graph).encode("ascii")
    if len(packed) != _TOKEN_BYTES:
        raise ValueError(f"expected two sha256 hexdigests, got {len(packed)} bytes")
    return np.frombuffer(packed, dtype=np.uint8).copy()


class EmbeddingCache:
    """Per-``(node, t)`` encoder embeddings, versioned by weights/graph tokens.

    Parameters
    ----------
    num_rows:
        Size of the temporal-node universe, ``num_nodes * num_timestamps``;
        row ``u * T + t`` holds the embedding of temporal node ``(u, t)``.
    hidden_dim:
        Encoder output width.
    dtype:
        The session dtype policy (``config.np_dtype``).

    A writable cache owns its arrays and is mutated by exactly one parent
    engine (`store`/`invalidate_rows`/`flush` serialise on an internal
    lock; concurrent thread-rung *reads* are safe because the owning
    engine prefills before fan-out).  :meth:`attached` builds the
    read-only worker-side flavour over shared-memory views: it never
    mutates the segment, and it validates the segment's embedded token
    pair before serving a single row, so a stale segment degrades to
    ephemeral re-encoding instead of wrong bits.
    """

    def __init__(self, num_rows: int, hidden_dim: int, dtype: Any) -> None:
        self.rows = np.zeros((int(num_rows), int(hidden_dim)), dtype=np.dtype(dtype))
        self.valid = np.zeros(int(num_rows), dtype=bool)
        self._token = np.zeros(_TOKEN_BYTES, dtype=np.uint8)
        self.writable = True
        #: Monotone mutation counter: the shm layer republishes / in-place
        #: updates the shared segment only when this moved since the last
        #: sync, so an all-hit dispatch costs zero segment copies.
        self.mutations = 0
        self.stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        self._lock = threading.Lock()

    @classmethod
    def attached(cls, views: Dict[str, np.ndarray]) -> "EmbeddingCache":
        """Wrap a worker's read-only shared-memory views of a parent cache."""
        cache = cls.__new__(cls)
        cache.rows = views["rows"]
        cache.valid = views["valid"]
        cache._token = views["token"]
        cache.writable = False
        cache.mutations = 0
        cache.stats = {key: 0 for key in _STAT_KEYS}
        cache._lock = threading.Lock()
        return cache

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def tokens_set(self) -> bool:
        """Whether the cache has ever been bound to a (weights, graph) pair."""
        return bool(self._token.any())

    def _matches(self, weights: str, graph: str) -> bool:
        return bool(np.array_equal(self._token, _token_array(weights, graph)))

    def ensure(self, weights: str, graph: str) -> bool:
        """Bind the cache to a token pair; ``True`` when rows may be served.

        A writable cache that holds a *different* pair is loudly flushed
        (every row invalidated, ``flushes`` plus the per-reason counter
        bumped) and rebound — it always returns ``True``.  A read-only
        attached cache cannot rebind: a mismatch (stale shared segment)
        returns ``False`` and the caller re-encodes ephemerally.
        """
        with self._lock:
            if self._matches(weights, graph):
                return True
            if not self.writable:
                self.stats["stale_misses"] += 1
                return False
            if self.tokens_set:
                self.stats["flushes"] += 1
                current = self._token.tobytes().decode("ascii")
                if current[:64] != weights:
                    self.stats["weight_flushes"] += 1
                if current[64:] != graph:
                    self.stats["graph_flushes"] += 1
                self.valid[:] = False
            self._token[:] = _token_array(weights, graph)
            self.mutations += 1
            return True

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def fill(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy cached rows for ``keys`` into ``out``; returns the hit mask."""
        hit = self.valid[keys]
        if hit.any():
            out[hit] = self.rows[keys[hit]]
            self.stats["hit_rows"] += int(hit.sum())
        return hit

    def store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert freshly encoded rows (no-op on a read-only attachment)."""
        if not self.writable:
            return
        with self._lock:
            self.rows[keys] = values
            self.valid[keys] = True
            self.stats["encoded_rows"] += int(keys.size)
            self.stats["encode_calls"] += 1
            self.mutations += 1

    def invalidate_rows(
        self, keys: np.ndarray, graph: Optional[str] = None
    ) -> int:
        """Drop specific rows, optionally rebinding the graph-token half.

        The incremental-ingest path: after an observed-edge append the
        dirty ego-neighbourhood rows are dropped and ``graph`` (the token
        of the *post-append* graph) replaces the stored graph fingerprint,
        so the surviving rows keep serving hits without a flush.  Returns
        the number of previously valid rows dropped.
        """
        if not self.writable:
            raise ValueError("cannot invalidate rows of a read-only attached cache")
        keys = np.asarray(keys, dtype=np.int64)
        with self._lock:
            dropped = int(self.valid[keys].sum())
            self.valid[keys] = False
            self.stats["invalidated_rows"] += dropped
            if graph is not None and self.tokens_set:
                self._token[64:] = np.frombuffer(
                    graph.encode("ascii"), dtype=np.uint8
                )
            self.mutations += 1
        return dropped

    def flush(self) -> None:
        """Drop every row and unbind the token pair (explicit full reset)."""
        if not self.writable:
            raise ValueError("cannot flush a read-only attached cache")
        with self._lock:
            self.valid[:] = False
            self._token[:] = 0
            self.stats["flushes"] += 1
            self.mutations += 1

    # ------------------------------------------------------------------
    # Shared-memory publication
    # ------------------------------------------------------------------
    def share_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays a ``SharedArrayStore`` segment publishes to workers.

        The token rides *inside* the segment so attached workers validate
        staleness against the segment contents themselves — a worker whose
        locally computed tokens disagree simply gets ``ensure() -> False``
        and re-encodes, never a silently wrong row.
        """
        return {"rows": self.rows, "valid": self.valid, "token": self._token}


def dirty_temporal_nodes(
    graph: TemporalGraph,
    new_src: np.ndarray,
    new_dst: np.ndarray,
    new_t: np.ndarray,
    radius: int,
    time_window: int,
) -> np.ndarray:
    """Universe keys whose inference embedding may change after an append.

    Walks backwards from the appended edges on the *post-append* graph's
    incidence CSR.  A centre ``(u, t)``'s ego-graph issues windowed
    neighbour queries at layer depths ``0 .. radius-1``; its embedding can
    only move if some reachable query point ``(x, s)`` sees a new edge —
    i.e. ``x`` is an endpoint of an appended edge at time ``te`` with
    ``|s - te| <= time_window`` (presence alone matters: it perturbs the
    truncation-sampling input even when the new edge is not drawn).  Level
    0 is exactly those windowed query points; each further level adds the
    predecessors ``(p, s_p)`` whose query could have produced a frontier
    node ``(x, s)`` as a child — ``p`` a partner of ``x`` at event time
    exactly ``s`` with ``|s - s_p| <= time_window``.  The union over all
    ``radius`` levels is a sound superset of the changed rows (append-only
    edits never un-reach a query point).  Returns sorted ``u * T + t``
    keys.
    """
    T = int(graph.num_timestamps)
    nodes = np.concatenate(
        [np.asarray(new_src, dtype=np.int64), np.asarray(new_dst, dtype=np.int64)]
    )
    times = np.concatenate(
        [np.asarray(new_t, dtype=np.int64), np.asarray(new_t, dtype=np.int64)]
    )
    frontier = set()
    for x, te in zip(nodes.tolist(), times.tolist()):
        for s in range(max(te - time_window, 0), min(te + time_window, T - 1) + 1):
            frontier.add((x, s))
    dirty = set(frontier)
    for _ in range(max(int(radius) - 1, 0)):
        next_frontier = set()
        for x, s in frontier:
            partners, event_times = graph.incident_events(int(x))
            preds = np.unique(partners[event_times == s])
            for p in preds.tolist():
                lo, hi = max(s - time_window, 0), min(s + time_window, T - 1)
                for s_p in range(lo, hi + 1):
                    key = (p, s_p)
                    if key not in dirty:
                        dirty.add(key)
                        next_frontier.add(key)
        if not next_frontier:
            break
        frontier = next_frontier
    keys = np.fromiter(
        (x * T + s for x, s in dirty), dtype=np.int64, count=len(dirty)
    )
    keys.sort()
    return keys
