"""Streaming O(E) generation engine (Sec. IV-G without the dense wall).

:class:`GenerationEngine` implements the paper's assembling procedure with a
memory model of O(E + n*C) instead of O(T * n^2):

* active temporal nodes, their out-degree budgets ``d(u, t)`` and distinct
  target counts ``k(u, t)`` come from one vectorised group-by over the edge
  arrays -- no ``(n, T)`` scratch tensors;
* candidate pools are assembled in batch from the graph's cached
  :meth:`~repro.graph.temporal_graph.TemporalGraph.out_partner_groups` CSR
  slices (historical partners + uniform negatives), padded with extra
  distinct negatives whenever a row's pool would under-fill its distinct
  target count;
* edges are sampled *within* the candidate sets (masked Gumbel top-k over
  the ``(chunk, C)`` decoded probabilities) -- the old scatter into full
  ``(chunk, num_nodes)`` rows is gone;
* :meth:`GenerationEngine.score_topk` replaces the dense score matrix with
  chunked sparse ``(row, col, score)`` triples;
* both :meth:`GenerationEngine.generate` and
  :meth:`GenerationEngine.score_topk` are *sharded*: the per-timestamp
  centre set is partitioned into chunks, every chunk owns a spawned
  :class:`~numpy.random.SeedSequence` child (:mod:`repro.rng`), and chunks
  run on a process/thread pool (:mod:`repro.core.parallel`) when
  ``workers > 1``.  Because chunk streams depend only on the root seed and
  the chunk index -- never on execution order -- output is bit-identical
  for every worker count and backend, and ``workers=1`` is a plain
  sequential loop over the same chunks;
* encoder embeddings flow through the versioned inference cache
  (:mod:`repro.core.embed_cache`): public entry points prefill every
  missing canonical tile once, chunks then decode straight from cached
  rows, and repeat calls against unchanged weights/graph skip the encoder
  entirely -- with outputs bitwise identical to the uncached path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..autograd import no_grad, softmax
from ..errors import ConfigError, GenerationError
from ..graph.temporal_graph import TemporalGraph
from ..rng import seed_sequence, spawn_streams
from .config import TGAEConfig
from .embed_cache import EMBED_TILE, EmbeddingCache, graph_token, weights_token
from .model import TGAEModel
from .parallel import WorkerPool, run_sharded
from .sampler import EgoGraphSampler

#: Rejection-sampling rounds before the exact set-difference fallback when
#: padding a deficient candidate row with distinct negatives.
_PAD_ATTEMPTS = 8

#: Rows per candidate-assembly tile.  The CSR gather, the partner-slot mask
#: and the distinct-mask scratch of one tile (~tile * width int64/bool) stay
#: L2-resident instead of streaming ``(rows, width)`` intermediates through
#: memory three times.  A batch of at most this many rows is assembled in a
#: single tile whose RNG call order is exactly the pre-tiling code's, so
#: every chunked caller (chunks default to ``num_initial_nodes`` rows) is
#: bit-identical to the historical path.
_CAND_TILE_ROWS = 256

#: Canonical encode tiles whose ego-graphs are sampled in one batched pass
#: (8 tiles = 256 centres).  Bounds the sampler's temporary arrays while
#: amortising its per-call overhead.  At the default config on MSG medium,
#: sampling the whole 28,440-centre universe at once peaks at about 70 MB
#: of traced allocations and one group at about 0.6 MB.  On the
#: serve-ingest benchmark workload (2-vCPU host), groups of 32 tiles raised
#: the process's peak RSS by about 9% and groups of 8 by about 2%, while
#: 32 sampled the MSG-medium universe only about 0.04 s faster.  Tiles are
#: still padded and encoded one by one, so outputs do not depend on this
#: constant.
_SAMPLE_GROUP_TILES = 8


def sample_rows_without_replacement(
    probs: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
    forbid: Optional[np.ndarray] = None,
    allowed: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Row-batched sampling without replacement via vectorised Gumbel top-k.

    Draws ``counts[i]`` distinct column indices from the categorical
    distribution ``probs[i]`` for every row ``i`` in one vectorised pass
    (one Gumbel perturbation + one argsort over the whole matrix), instead
    of one NumPy round-trip per row.

    Parameters
    ----------
    probs:
        ``(rows, n)`` non-negative weights; rows need not be normalised
        (Gumbel top-k is invariant to per-row scaling).
    counts:
        ``(rows,)`` number of distinct draws requested per row; clipped to
        the number of columns with positive allowed mass.
    forbid:
        Optional ``(rows,)`` column index excluded per row (no self-loop
        edges during generation).
    allowed:
        Optional ``(rows, n)`` boolean mask; ``False`` columns are excluded.
        This is how the streaming engine masks duplicate candidate slots
        and self-loops when sampling within candidate sets.

    A row whose entire mass sits on forbidden/zero entries falls back to
    uniform sampling over the allowed columns; if no allowed column remains
    at all (e.g. a single-node universe whose only column is forbidden) the
    row yields an empty draw rather than dividing by zero or returning the
    forbidden index.
    """
    p = np.asarray(probs, dtype=np.float64).copy()
    if p.ndim != 2:
        raise GenerationError(f"probs must be 2-D, got shape {p.shape}")
    rows, _ = p.shape
    row_ids = np.arange(rows)
    if forbid is not None:
        forbid = np.asarray(forbid, dtype=np.int64)
        p[row_ids, forbid] = 0.0
    if allowed is not None:
        p[~allowed] = 0.0
    totals = p.sum(axis=1)
    degenerate = totals <= 0
    if degenerate.any():
        # Degenerate rows: fall back to uniform over allowed entries.
        p[degenerate] = 1.0
        if forbid is not None:
            p[row_ids[degenerate], forbid[degenerate]] = 0.0
        if allowed is not None:
            p[~allowed] = 0.0
    positive = p > 0
    counts = np.minimum(
        np.asarray(counts, dtype=np.int64), positive.sum(axis=1)
    ).clip(min=0)
    gumbel = -np.log(-np.log(rng.random(p.shape) + 1e-300) + 1e-300)
    with np.errstate(divide="ignore"):
        keys = np.where(positive, np.log(np.where(positive, p, 1.0)) + gumbel, -np.inf)
    max_k = int(counts.max()) if counts.size else 0
    if max_k == 0:
        return [np.array([], dtype=np.int64) for _ in range(rows)]
    n = p.shape[1]
    if max_k < n:
        # Top-max_k per row in linear time, then sort only those columns so
        # each row's first counts[i] entries are its true top keys.
        top = np.argpartition(-keys, max_k - 1, axis=1)[:, :max_k]
        within = np.argsort(-np.take_along_axis(keys, top, axis=1), axis=1)
        order = np.take_along_axis(top, within, axis=1)
    else:
        order = np.argsort(-keys, axis=1)
    return [order[i, : counts[i]].astype(np.int64) for i in range(rows)]


def sample_without_replacement(
    probs: np.ndarray, count: int, rng: np.random.Generator, forbid: Optional[int] = None
) -> np.ndarray:
    """Draw ``count`` distinct indices from one categorical via Gumbel top-k.

    Single-row convenience wrapper around
    :func:`sample_rows_without_replacement`, inheriting its degenerate-row
    guarantees (uniform fallback; empty draw when every entry is forbidden).
    """
    rows = sample_rows_without_replacement(
        np.asarray(probs, dtype=np.float64)[None, :],
        np.array([count], dtype=np.int64),
        rng,
        forbid=None if forbid is None else np.array([forbid], dtype=np.int64),
    )
    return rows[0]


def distinct_allowed_mask(
    candidates: np.ndarray, forbid_nodes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of the usable slots in per-row candidate sets.

    A slot is usable when it holds the *first* occurrence of its node id in
    the row (duplicate negatives collapse to one slot, so a node can never
    be drawn twice through two slots) and, when ``forbid_nodes`` is given,
    the node differs from the row's centre (no self-loops).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    order = np.argsort(candidates, axis=1, kind="stable")
    sorted_c = np.take_along_axis(candidates, order, axis=1)
    dup_sorted = np.zeros(candidates.shape, dtype=bool)
    dup_sorted[:, 1:] = sorted_c[:, 1:] == sorted_c[:, :-1]
    dup = np.empty_like(dup_sorted)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    allowed = ~dup
    if forbid_nodes is not None:
        allowed &= candidates != np.asarray(forbid_nodes, dtype=np.int64)[:, None]
    return allowed


def fold_duplicate_mass(candidates: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Sum each row's duplicate-slot probabilities onto the first occurrence.

    The softmax over a candidate row normalises across *slots*; when uniform
    negatives collide with partners (or each other) the same node holds mass
    in several slots.  This folds that mass onto the node's first slot and
    zeroes the rest -- exactly the semantics of the old scatter-into-full-rows
    path, where ``np.add.at`` summed duplicate contributions -- so each row
    stays a proper distribution over its distinct candidates.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    rows, width = candidates.shape
    flat = np.asarray(probs, dtype=np.float64).reshape(-1)
    keys = (
        np.arange(rows, dtype=np.int64)[:, None] * np.int64(candidates.max() + 1)
        + candidates
    ).reshape(-1)
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=flat)
    first = np.full(uniq.size, flat.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(flat.size))
    folded = np.zeros_like(flat)
    folded[first] = sums
    return folded.reshape(rows, width)


def active_temporal_nodes(
    graph: TemporalGraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active centres with out-degree and distinct-target budgets, in O(E).

    Returns ``(centers, degrees, distinct_counts)`` where ``centers`` is the
    ``(rows, 2)`` array of active ``(u, t)`` pairs sorted ascending (the
    same order the dense ``np.nonzero`` scan used to produce), ``degrees``
    the observed out-degree ``d(u, t)`` and ``distinct_counts`` the number
    of distinct targets ``k(u, t)``.  No ``(n, T)`` scratch array is built.
    """
    if graph.num_edges == 0:
        raise GenerationError("observed graph has no edges to imitate")
    T = np.int64(graph.num_timestamps)
    pair_keys = graph.src * T + graph.t
    uniq_keys, degrees = np.unique(pair_keys, return_counts=True)
    unique_triples = np.unique(
        np.stack([graph.src, graph.t, graph.dst], axis=1), axis=0
    )
    distinct_keys = unique_triples[:, 0] * T + unique_triples[:, 1]
    _, distinct_counts = np.unique(distinct_keys, return_counts=True)
    centers = np.stack([uniq_keys // T, uniq_keys % T], axis=1)
    return centers, degrees.astype(np.int64), distinct_counts.astype(np.int64)


@dataclass
class TopKScores:
    """Sparse top-k decoded scores: parallel ``(node, timestamp, target, score)``.

    The streaming replacement for the dense ``(n, T, n)`` score matrix:
    entry ``i`` says the decoded edge distribution of centre
    ``(node[i], timestamp[i])`` puts probability ``score[i]`` on target
    ``target[i]``, and only the top ``k`` targets per centre are kept.
    """

    node: np.ndarray
    timestamp: np.ndarray
    target: np.ndarray
    score: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of stored triples."""
        return int(self.node.size)


@dataclass(frozen=True)
class GenerateChunkTask:
    """One shard of the generation fan-out.

    Carries only what a worker cannot derive itself: the chunk's centre
    rows with their edge budgets (index arrays, never graph objects) and
    the spawned seed-sequence child that makes the chunk's draws
    independent of execution order.
    """

    index: int
    centers: np.ndarray
    degrees: np.ndarray
    distinct: np.ndarray
    seed_seq: np.random.SeedSequence


@dataclass(frozen=True)
class TopKChunkTask:
    """One shard of the :meth:`GenerationEngine.score_topk` fan-out."""

    index: int
    node_ids: np.ndarray
    timestamp: int
    k: int
    seed_seq: np.random.SeedSequence


class GenerationEngine:
    """Streaming Sec. IV-G assembler over a fitted :class:`TGAEModel`.

    Parameters
    ----------
    model:
        The fitted TGAE model (encoder + decoder).
    graph:
        The observed temporal graph whose edge budgets are imitated.
    config:
        The generator's hyper-parameters; ``candidate_limit > 0`` selects
        the streaming sampled-softmax path, ``0`` the exact dense decoder.
    cache:
        Optional :class:`~repro.core.embed_cache.EmbeddingCache` holding
        per-``(u, t)`` encoder embeddings across calls (writable in the
        parent, a read-only shared-memory attachment in pooled workers).
        ``None`` disables persistence: the engine still encodes through
        the same canonical tiles, just chunk-scoped — outputs are bitwise
        identical either way.
    """

    def __init__(
        self,
        model: TGAEModel,
        graph: TemporalGraph,
        config: TGAEConfig,
        cache: Optional[EmbeddingCache] = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config
        self.cache = cache
        self._active: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._weights_token: Optional[str] = None
        self._graph_token: Optional[str] = None
        # One inference sampler per engine: its truncation key is one
        # named-stream draw, shared by every tile this engine encodes.
        self._sampler = EgoGraphSampler(graph, config)

    def active_nodes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached :func:`active_temporal_nodes` triple for this engine's graph.

        The graph is immutable for an engine's lifetime (appends build a
        new graph and a new engine), so the O(E log E) group-by runs once
        instead of on every ``generate`` call.
        """
        if self._active is None:
            self._active = active_temporal_nodes(self.graph)
        return self._active

    # ------------------------------------------------------------------
    # Inference embeddings (canonical tiles + versioned cache)
    # ------------------------------------------------------------------
    def _cache_tokens(self) -> Tuple[str, str]:
        """Current ``(weights, graph)`` fingerprints, memoised per call.

        Public entry points reset :attr:`_weights_token` before dispatch so
        in-place weight mutations are picked up once per call; per-chunk
        consults then reuse the memo (workers reset it on parameter-version
        reloads).  The graph token is constant for the engine's lifetime.
        """
        if self._weights_token is None:
            self._weights_token = weights_token(self.model)
        if self._graph_token is None:
            self._graph_token = graph_token(
                self.graph, self.config, self.model.encoder._external_features
            )
        return self._weights_token, self._graph_token

    def _encoded_tiles(self, tiles: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(tile_keys, rows)`` for each canonical tile index in ``tiles``.

        A tile is always a full run of consecutive universe keys
        (``u * T + t``, clipped only at the universe end), padded and
        encoded as its own batch, so its composition -- and therefore every
        BLAS kernel decision inside the packed encoder -- is a pure function
        of the graph size and the tile index, never of which rows a request
        needed.  Ego-graphs are sampled :data:`_SAMPLE_GROUP_TILES` tiles at
        a time; the counter-hash draws make each one independent of its
        group.  Together this makes tile encodes bitwise reproducible,
        which is what lets cache hits, cold encodes and cache-off runs
        agree exactly.
        """
        T = self.graph.num_timestamps
        num_rows = self.graph.num_nodes * T
        for first in range(0, tiles.size, _SAMPLE_GROUP_TILES):
            group = tiles[first : first + _SAMPLE_GROUP_TILES] * EMBED_TILE
            tile_keys = [
                np.arange(start, min(start + EMBED_TILE, num_rows), dtype=np.int64)
                for start in group.tolist()
            ]
            keys = np.concatenate(tile_keys)
            bounds = np.concatenate([[0], np.cumsum([k.size for k in tile_keys])])
            batches = self._sampler.inference_batch(
                np.stack([keys // T, keys % T], axis=1), bounds
            )
            for tile_rows, batch in zip(tile_keys, batches):
                yield tile_rows, self.model.encode_inference(batch)

    def chunk_embeddings(self, centers: np.ndarray) -> np.ndarray:
        """Embeddings for explicit ``(u, t)`` centres, cache-aware.

        Hits are copied straight out of the cache; misses (or a disabled /
        stale cache) encode the canonical tiles covering the missing keys
        and, when the cache is writable, persist every tile row for later
        calls.  Consumes no RNG.
        """
        centers = np.asarray(centers, dtype=np.int64)
        T = self.graph.num_timestamps
        keys = centers[:, 0] * np.int64(T) + centers[:, 1]
        out = np.empty((keys.size, self.config.hidden_dim), dtype=self.config.np_dtype)
        cache = self.cache
        usable = cache is not None and cache.ensure(*self._cache_tokens())
        if usable:
            need = ~cache.fill(keys, out)
        else:
            need = np.ones(keys.size, dtype=bool)
        if need.any():
            for tile_keys, rows in self._encoded_tiles(np.unique(keys[need] // EMBED_TILE)):
                if usable:
                    cache.store(tile_keys, rows)
                sel = need & (keys // EMBED_TILE == tile_keys[0] // EMBED_TILE)
                out[sel] = rows[keys[sel] - tile_keys[0]]
        return out

    def warm_rows(self, keys: np.ndarray) -> None:
        """Prefill the writable cache for ``keys`` before chunk fan-out.

        Called at the top of every public inference entry point so pooled
        dispatch is decode-only: the parent encodes each missing tile
        exactly once, the shm layer mirrors the segment, and workers (or
        threads) only ever *read*.  No-op without a writable cache.
        """
        cache = self.cache
        if cache is None or not cache.writable:
            return
        self._weights_token = None
        cache.ensure(*self._cache_tokens())
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        missing = keys[~cache.valid[keys]]
        for tile_keys, rows in self._encoded_tiles(np.unique(missing // EMBED_TILE)):
            cache.store(tile_keys, rows)

    # ------------------------------------------------------------------
    # Candidate assembly (vectorised)
    # ------------------------------------------------------------------
    def candidate_batch(
        self,
        centers: np.ndarray,
        rng: np.random.Generator,
        min_distinct: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched candidate sets: historical partners + uniform negatives.

        One vectorised gather from the graph's cached partner CSR replaces
        the old per-row python loop: every row starts with (up to ``width``)
        of its centre's distinct historical out-partners and is completed
        with uniform negatives drawn in a single batched call.

        When ``min_distinct`` is given, the row width grows to
        ``max(candidate_limit, min_distinct.max() + 1)`` and any row whose
        distinct usable slots (first occurrences, centre excluded) still
        fall short of its requirement is padded with extra *distinct*
        uniform negatives -- the fix for the silent under-fill degenerate
        case where a small pool produced fewer targets than observed.
        """
        return self.candidates_with_mask(centers, rng, min_distinct=min_distinct)[0]

    def candidates_with_mask(
        self,
        centers: np.ndarray,
        rng: np.random.Generator,
        min_distinct: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`candidate_batch` plus its usable-slot mask, computed once.

        Returns ``(candidates, allowed)`` where ``allowed`` is the
        :func:`distinct_allowed_mask` of the final candidate array with the
        centres forbidden -- the mask the sampler needs, produced as a
        by-product of the padding pass instead of being recomputed.
        """
        limit = max(self.config.candidate_limit, 1)
        n = self.graph.num_nodes
        nodes = np.asarray(centers[:, 0], dtype=np.int64)
        rows = nodes.size
        width = limit
        needed: Optional[np.ndarray] = None
        if min_distinct is not None:
            needed = np.minimum(np.asarray(min_distinct, dtype=np.int64), n - 1)
            width = max(limit, int(needed.max(initial=0)) + 1)
        offsets, partners = self.graph.out_partner_groups()
        # Cache-blocked assembly: fixed-size row tiles, each fully finished
        # (negatives, CSR gather, hub subsample, distinct mask, padding)
        # before the next starts, so the per-tile scratch stays hot.  A
        # single tile reproduces the untiled RNG call order exactly.
        out = np.empty((rows, width), dtype=np.int64)
        allowed = np.empty((rows, width), dtype=bool)
        cols = np.arange(width)
        for start in range(0, max(rows, 1), _CAND_TILE_ROWS):
            stop = min(start + _CAND_TILE_ROWS, rows)
            self._assemble_tile(
                out[start:stop],
                allowed[start:stop],
                nodes[start:stop],
                None if needed is None else needed[start:stop],
                offsets,
                partners,
                cols,
                rng,
            )
        return out, allowed

    def _assemble_tile(
        self,
        out: np.ndarray,
        allowed: np.ndarray,
        nodes: np.ndarray,
        needed: Optional[np.ndarray],
        offsets: np.ndarray,
        partners: np.ndarray,
        cols: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Assemble one tile of candidate rows in place.

        ``out``/``allowed`` are ``(tile, width)`` views into the batch
        arrays; ``nodes``/``needed`` the matching row slices.  Uniform
        negatives first, then historical partners gathered from the CSR
        prefix, then an unbiased without-replacement subsample for hub rows
        whose pool overflows the width, then the distinct-slot mask and
        deficient-row padding.
        """
        n = self.graph.num_nodes
        width = out.shape[1]
        pool_counts = offsets[nodes + 1] - offsets[nodes]
        take = np.minimum(pool_counts, width)
        out[...] = rng.integers(0, n, size=out.shape, dtype=np.int64)
        if partners.size:
            partner_slot = cols[None, :] < take[:, None]
            gather = np.where(partner_slot, offsets[nodes][:, None] + cols[None, :], 0)
            np.copyto(out, partners[gather], where=partner_slot)
            # Hubs with more partners than slots: an ascending-id prefix would
            # systematically exclude high-id partners, so overflowing rows
            # take an unbiased without-replacement subsample of their pool --
            # batched random keys per pool entry, the `width` smallest keys
            # per row form a uniform subset (no per-row Python round-trips).
            over = np.nonzero(pool_counts > width)[0]
            if over.size:
                over_counts = pool_counts[over]
                max_pool = int(over_counts.max())
                keys = rng.random((over.size, max_pool))
                keys[np.arange(max_pool)[None, :] >= over_counts[:, None]] = np.inf
                pick = np.argpartition(keys, width - 1, axis=1)[:, :width]
                out[over] = partners[offsets[nodes[over]][:, None] + pick]
        allowed[...] = distinct_allowed_mask(out, nodes)
        if needed is not None:
            self._pad_deficient_rows(out, nodes, needed, rng, allowed)

    def _pad_deficient_rows(
        self,
        candidates: np.ndarray,
        nodes: np.ndarray,
        needed: np.ndarray,
        rng: np.random.Generator,
        allowed: np.ndarray,
    ) -> None:
        """Top up rows whose distinct usable candidates fall short (in place).

        Duplicate slots are overwritten with fresh node ids not yet present
        in the row: a few rejection-sampling rounds of uniform negatives,
        then an exact set-difference fallback for tiny universes.  Row
        widths guarantee enough surplus slots (``width >= needed + 1``).
        Both ``candidates`` and its ``allowed`` mask are updated in place.
        """
        n = self.graph.num_nodes
        have = allowed.sum(axis=1)
        for row in np.nonzero(have < needed)[0]:
            missing = int(needed[row] - have[row])
            taken = set(candidates[row].tolist())
            taken.add(int(nodes[row]))
            fresh: List[int] = []
            for _ in range(_PAD_ATTEMPTS):
                if len(fresh) >= missing:
                    break
                for value in rng.integers(0, n, size=4 * missing).tolist():
                    if value not in taken:
                        taken.add(value)
                        fresh.append(value)
                        if len(fresh) == missing:
                            break
            if len(fresh) < missing:
                remaining = np.setdiff1d(
                    np.arange(n), np.fromiter(taken, dtype=np.int64, count=len(taken))
                )
                extra = rng.permutation(remaining)[: missing - len(fresh)]
                fresh.extend(extra.tolist())
            slots = np.nonzero(~allowed[row])[0][: len(fresh)]
            candidates[row, slots] = np.asarray(fresh, dtype=np.int64)
            allowed[row] = distinct_allowed_mask(
                candidates[row : row + 1], nodes[row : row + 1]
            )[0]

    # ------------------------------------------------------------------
    # Chunking / sharding knobs
    # ------------------------------------------------------------------
    def _resolve_chunk(self, override: Optional[int], total: int) -> int:
        """The chunk size to shard ``total`` centres into, validated.

        Precedence: explicit ``override`` argument, then
        ``config.chunk_size``, then ``config.num_initial_nodes``.  A
        non-positive value is a :class:`ConfigError` (the old code silently
        masked these with ``max(..., 16)``); a chunk larger than the centre
        count simply degrades to a single chunk.
        """
        size = override
        if size is None:
            size = self.config.chunk_size
        if size is None:
            size = self.config.num_initial_nodes
        size = int(size)
        if size < 1:
            raise ConfigError(f"chunk size must be >= 1, got {size}")
        if total > 0:
            size = min(size, total)
        return size

    def _resolve_workers(self, override: Optional[int]) -> int:
        workers = int(override if override is not None else self.config.workers)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        return workers

    # ------------------------------------------------------------------
    # Generation (Sec. IV-G)
    # ------------------------------------------------------------------
    def generate(
        self,
        rng: np.random.Generator,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        backend: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> TemporalGraph:
        """Assemble one synthetic graph matching the observed edge budgets.

        Every active temporal node ``(u, t)`` draws its observed number of
        distinct targets without replacement from its decoded distribution;
        the remaining ``d - k`` edge budget repeats those targets
        proportionally to their probabilities so multi-edge (bursty)
        structure survives.  In streaming mode the draw happens inside the
        candidate set -- probabilities are never scattered into full
        ``num_nodes``-wide rows.

        The centre set is sharded into chunks; one root seed drawn from
        ``rng`` spawns a seed-sequence child per chunk *before* dispatch,
        so the generated graph depends only on ``rng``'s state and the
        chunk partitioning -- never on ``workers`` or ``backend``.
        ``workers``/``chunk_size``/``backend`` default to the config knobs;
        ``pool`` dispatches through a persistent
        :class:`~repro.core.parallel.WorkerPool` instead of a throwaway
        executor (amortising startup over repeated calls).
        """
        graph = self.graph
        centers_all, degrees, distinct_counts = self.active_nodes()
        total = centers_all.shape[0]
        chunk = self._resolve_chunk(chunk_size, total)
        workers = self._resolve_workers(workers)
        backend = backend if backend is not None else self.config.parallel_backend
        root = np.random.SeedSequence(int(rng.integers(np.iinfo(np.int64).max)))
        starts = list(range(0, total, chunk))
        children = spawn_streams(root, len(starts))
        tasks = [
            GenerateChunkTask(
                index=i,
                centers=centers_all[start : start + chunk],
                degrees=degrees[start : start + chunk],
                distinct=distinct_counts[start : start + chunk],
                seed_seq=children[i],
            )
            for i, start in enumerate(starts)
        ]
        self.model.eval()
        self.warm_rows(
            centers_all[:, 0] * np.int64(graph.num_timestamps) + centers_all[:, 1]
        )
        results = run_sharded(
            self, "generate", tasks, workers=workers, backend=backend, pool=pool
        )
        src_out = [src for src, _, _ in results if src.size]
        dst_out = [dst for _, dst, _ in results if dst.size]
        t_out = [t for _, _, t in results if t.size]
        if not src_out:
            raise GenerationError("generation produced no edges")
        return TemporalGraph(
            graph.num_nodes,
            np.concatenate(src_out),
            np.concatenate(dst_out),
            np.concatenate(t_out),
            num_timestamps=graph.num_timestamps,
            validate=False,
        )

    def generate_chunk(
        self, task: GenerateChunkTask
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the edges of one centre chunk; pure given the task.

        Runs in the parent (``workers=1``), in a worker thread, or in a
        worker process against a rebuilt engine -- identically in all
        three, because its only randomness comes from the task's spawned
        seed-sequence child.  Returns ``(src, dst, t)`` arrays (possibly
        empty: an empty centre shard is an explicit no-op).
        """
        empty = np.array([], dtype=np.int64)
        if task.centers.shape[0] == 0:
            return empty, empty, empty
        rng = np.random.default_rng(task.seed_seq)
        streaming = self.config.candidate_limit > 0
        part = task.centers
        part_deg = task.degrees
        part_distinct = task.distinct
        with no_grad():
            # Canonical chunk stream: candidate assembly first, then the
            # RNG-free embedding lookup/encode, then the Gumbel draw -- the
            # order is identical whether every embedding row is a cache hit
            # or a cold tile encode, so outputs cannot depend on cache state.
            if streaming:
                cand, allowed = self.candidates_with_mask(
                    part, rng, min_distinct=part_distinct
                )
            else:
                cand = allowed = None
            embeddings = self.chunk_embeddings(part)
            decoded = self.model.decode_from_embeddings(
                embeddings, part, candidates=cand
            )
            probs = softmax(decoded.logits, axis=-1).numpy()
            if streaming:
                probs = fold_duplicate_mass(cand, probs)
                drawn = sample_rows_without_replacement(
                    probs, part_distinct, rng, allowed=allowed
                )
            else:
                drawn = sample_rows_without_replacement(
                    probs, part_distinct, rng, forbid=part[:, 0]
                )
        # Vectorised edge assembly: one pass collects the per-row target
        # pieces (preserving the historical per-row `rng.choice` call order
        # for multi-edge repeats), then src/t come from a single np.repeat
        # over the per-row counts instead of per-row np.full/concatenate.
        out_counts = np.zeros(len(drawn), dtype=np.int64)
        pieces: List[np.ndarray] = []
        for row, cols in enumerate(drawn):
            if cols.size == 0:
                continue
            targets = cand[row, cols] if cand is not None else cols
            extra = int(part_deg[row]) - targets.size
            pieces.append(targets)
            if extra > 0:
                # Multi-edges: repeat drawn targets proportionally to
                # their decoded probabilities.
                weight = probs[row][cols]
                weight = weight / weight.sum() if weight.sum() > 0 else None
                pieces.append(rng.choice(targets, size=extra, p=weight))
                out_counts[row] = targets.size + extra
            else:
                out_counts[row] = targets.size
        if not pieces:
            return empty, empty, empty
        return (
            np.repeat(part[:, 0].astype(np.int64), out_counts),
            np.concatenate(pieces).astype(np.int64),
            np.repeat(part[:, 1].astype(np.int64), out_counts),
        )

    # ------------------------------------------------------------------
    # Score inspection
    # ------------------------------------------------------------------
    def dense_score_rows(self, centers: np.ndarray) -> np.ndarray:
        """Full softmax rows for explicit centres (test/debug helper).

        Always decodes against the whole node universe regardless of
        ``candidate_limit``; used by the small-graph score-matrix helper.
        Embeddings come from the versioned cache when one is attached
        (populating it on miss).
        """
        centers = np.asarray(centers, dtype=np.int64)
        self._weights_token = None
        with no_grad():
            embeddings = self.chunk_embeddings(centers)
            decoded = self.model.decode_from_embeddings(embeddings, centers)
            return softmax(decoded.logits, axis=-1).numpy()

    def score_topk(
        self,
        k: int,
        timestamps: Optional[List[int]] = None,
        chunk: Optional[int] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> TopKScores:
        """Chunked top-``k`` decoded scores as sparse triples.

        Shards centres ``(u, t)`` into per-timestamp chunks, decodes each
        chunk once (over candidate sets in streaming mode, the full
        universe otherwise) and keeps only the ``k`` highest-probability
        targets per centre -- peak memory is O(chunk * max(C, n)) while the
        output is O(n * k) triples, never an ``(n, T, n)`` tensor.  Chunks
        draw from seed-sequence children spawned off the named
        ``(seed, "tgae", "score-topk")`` stream, so the triples are
        bit-identical for every worker count and backend.
        """
        if k < 1:
            raise GenerationError(f"k must be >= 1, got {k}")
        graph = self.graph
        stamps = (
            list(timestamps) if timestamps is not None else list(range(graph.num_timestamps))
        )
        step = self._resolve_chunk(chunk, graph.num_nodes)
        workers = self._resolve_workers(workers)
        backend = backend if backend is not None else self.config.parallel_backend
        root = seed_sequence(self.config.seed, "tgae", "score-topk")
        specs = [
            (timestamp, np.arange(start, min(start + step, graph.num_nodes)))
            for timestamp in stamps
            for start in range(0, graph.num_nodes, step)
        ]
        children = spawn_streams(root, len(specs))
        tasks = [
            TopKChunkTask(
                index=i, node_ids=node_ids, timestamp=int(timestamp), k=k,
                seed_seq=children[i],
            )
            for i, (timestamp, node_ids) in enumerate(specs)
        ]
        self.model.eval()
        if specs:
            self.warm_rows(
                np.concatenate(
                    [
                        node_ids * np.int64(graph.num_timestamps) + np.int64(timestamp)
                        for timestamp, node_ids in specs
                    ]
                )
            )
        results = run_sharded(
            self, "topk", tasks, workers=workers, backend=backend, pool=pool
        )
        nodes_out = [nodes for nodes, _, _, _ in results]
        stamps_out = [stamps_ for _, stamps_, _, _ in results]
        targets_out = [targets for _, _, targets, _ in results]
        scores_out = [scores for _, _, _, scores in results]
        return TopKScores(
            node=np.concatenate(nodes_out) if nodes_out else np.empty(0, dtype=np.int64),
            timestamp=(
                np.concatenate(stamps_out) if stamps_out else np.empty(0, dtype=np.int64)
            ),
            target=(
                np.concatenate(targets_out) if targets_out else np.empty(0, dtype=np.int64)
            ),
            score=(
                np.concatenate(scores_out) if scores_out else np.empty(0, dtype=np.float64)
            ),
        )

    def topk_chunk(
        self, task: TopKChunkTask
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Top-``k`` triples for one ``(timestamp, node chunk)`` shard.

        Pure given the task (all randomness from its seed-sequence child);
        returns ``(nodes, timestamps, targets, scores)`` arrays.
        """
        empty = np.array([], dtype=np.int64)
        node_ids = np.asarray(task.node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return empty, empty, empty, np.array([], dtype=np.float64)
        rng = np.random.default_rng(task.seed_seq)
        streaming = self.config.candidate_limit > 0
        part = np.stack([node_ids, np.full(node_ids.size, task.timestamp)], axis=1)
        with no_grad():
            cand = self.candidate_batch(part, rng) if streaming else None
            embeddings = self.chunk_embeddings(part)
            decoded = self.model.decode_from_embeddings(
                embeddings, part, candidates=cand
            )
            probs = softmax(decoded.logits, axis=-1).numpy()
            if streaming:
                # Fold duplicate-slot mass so each target appears once
                # and the row remains a proper distribution.
                probs = fold_duplicate_mass(cand, probs)
        kk = min(task.k, probs.shape[1])
        top = np.argpartition(-probs, kk - 1, axis=1)[:, :kk]
        top_scores = np.take_along_axis(probs, top, axis=1)
        order = np.argsort(-top_scores, axis=1, kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        top_scores = np.take_along_axis(top_scores, order, axis=1)
        columns = (
            np.take_along_axis(cand, top, axis=1) if cand is not None else top
        )
        keep = top_scores > 0
        rows = np.repeat(node_ids, kk).reshape(node_ids.size, kk)
        return (
            rows[keep],
            np.full(int(keep.sum()), task.timestamp, dtype=np.int64),
            columns[keep],
            top_scores[keep],
        )
