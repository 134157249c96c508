"""The lifecycle workloads: ``fit``, ``cold-infer`` and ``serve-ingest``.

Every workload is a closed loop with one caller and drives only the public
API (``load_dataset``, ``TGAEGenerator.fit/generate/score_topk/update``,
``worker_pool``, ``save_generator``/``load_generator`` and
``streaming_evaluate``).  All calls go through module attributes
(``datasets.load_dataset``, ``persistence.load_generator``, ...) so the
traced run's wrappers, installed at those lookup sites, see them.

A run has two parts: **set-up**, repeated :attr:`Workload.setup_repeats`
times (``setup_s`` is the median), then the **main loop**, for ``--seconds``
seconds and until every metric has its minimum sample count.

Every workload reports every end-to-end metric.  A main-loop unit runs the
operations the workload exists to measure, and interleaves, at the
workload's own scale, the operations behind its other end-to-end metrics.
Interleaving spreads every metric's samples over the whole run, which
keeps the medians steady on a host whose speed drifts over seconds.  The
traced pass replays units without the interleaved operations
(``full=False``), so the per-layer numbers describe what the workload is
for.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.core.persistence as persistence
import repro.datasets as datasets
import repro.metrics.streaming as streaming
from repro.core import TGAEGenerator, fast_config

#: Epochs of every fit (``fast_config``'s default, pinned here).
EPOCHS = 8
TOPK = 10
#: Edges appended per ``update`` (about 2% of MSG small's 1,014).
APPEND_EDGES = 20
#: Every tenth serve-ingest iteration appends.
UPDATE_EVERY = 10
#: A 90th percentile is reported only with ten samples beyond it.
P90_MIN_SAMPLES = 100
STATISTICS = 7

clock = time.perf_counter


def derive(seed: int, *path: Any) -> int:
    """A 32-bit seed for input ``path`` of workload seed ``seed``."""
    digest = hashlib.sha256(repr((int(seed),) + path).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config(seed: int, index: int = 0):
    return fast_config(
        dtype="float32", seed=derive(seed, "config", index), epochs=EPOCHS, embed_cache=True
    )


def _digest(*arrays: Any) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


class CheckFailed(Exception):
    """An operation returned an output that fails its correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Output checks: each returns the output's hash or raises CheckFailed.
# ----------------------------------------------------------------------
def check_generated(observed) -> Callable[[Any], str]:
    n, T, m = observed.num_nodes, observed.num_timestamps, observed.num_edges

    def check(out) -> str:
        _require(out.num_nodes == n and out.num_timestamps == T, "universe changed")
        _require(out.num_edges == m, f"{out.num_edges} edges generated, {m} observed")
        for name, ids, hi in (("src", out.src, n), ("dst", out.dst, n), ("t", out.t, T)):
            _require(ids.size == 0 or (ids.min() >= 0 and ids.max() < hi), f"{name} out of range")
        return _digest(out.src, out.dst, out.t)

    return check


def check_topk(n: int, T: int, k: int) -> Callable[[Any], str]:
    def check(top) -> str:
        _require(top.nnz <= n * T * k, f"nnz {top.nnz} > n*T*k")
        score = top.score
        _require(bool(np.all(score > 0) and np.all(score <= 1)), "score outside (0, 1]")
        order = np.lexsort((np.arange(top.nnz), top.timestamp, top.node))
        node, stamp, ordered = top.node[order], top.timestamp[order], score[order]
        same = (node[1:] == node[:-1]) & (stamp[1:] == stamp[:-1])
        _require(bool(np.all(ordered[1:][same] <= ordered[:-1][same])), "scores increase")
        return _digest(top.node, top.timestamp, top.target, top.score)

    return check


def check_fit(gen) -> str:
    history = gen.history
    _require(len(history.losses) == EPOCHS, "wrong epoch count")
    _require(bool(np.all(np.isfinite(history.losses))), "non-finite loss")
    _require(bool(np.all(np.isfinite(history.grad_norms))), "non-finite gradient norm")
    state = gen.model.state_dict()
    return _digest(*(state[name] for name in sorted(state)), np.asarray(history.losses))


def check_restored(edges: int) -> Callable[[Any], str]:
    def check(gen) -> str:
        _require(gen.observed.num_edges == edges, "restored graph differs")
        state = gen.model.state_dict()
        return _digest(*(state[name] for name in sorted(state)))

    return check


def check_update(expected_edges: int) -> Callable[[Any], str]:
    def check(gen) -> str:
        observed = gen.observed
        _require(observed.num_edges == expected_edges, "append lost or added edges")
        return _digest(observed.src, observed.dst, observed.t)

    return check


def check_eval(scores: Dict[str, float]) -> str:
    values = np.asarray(list(scores.values()), dtype=np.float64)
    _require(len(scores) == STATISTICS, f"{len(scores)} statistics, expected {STATISTICS}")
    _require(bool(np.all(np.isfinite(values)) and np.all(values >= 0)), "bad score")
    return _digest(values)


def new_edges(seed: int, index: int, n: int, T: int) -> Tuple[np.ndarray, ...]:
    """``APPEND_EDGES`` in-universe edges without self-loops."""
    rng = np.random.default_rng(derive(seed, "append", index))
    src = rng.integers(0, n, APPEND_EDGES)
    dst = (src + rng.integers(1, n, APPEND_EDGES)) % n
    return src, dst, rng.integers(0, T, APPEND_EDGES)


# ----------------------------------------------------------------------
# One pass of operations
# ----------------------------------------------------------------------
class Run:
    """Samples, output hashes and failures of one pass.

    ``phase`` is ``"setup"`` or ``"main"``; only main-loop operations get an
    op span and count toward :attr:`main_wall`.
    """

    def __init__(self, recorder=None, speed=None) -> None:
        self.recorder = recorder
        #: A :class:`hostspeed.HostSpeed` sampled before each main-loop op.
        self.speed = speed
        self.phase = "setup"
        #: kind -> ``(start, end)`` of each operation that passed its check.
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.hashes: List[Tuple[str, str]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.main_wall = 0.0
        self.cache: Counter = Counter()
        self.cache_by_kind: Dict[str, Counter] = defaultdict(Counter)
        self.qualities: List[float] = []
        self.epoch_seconds: List[float] = []
        self.setup_phases: Dict[str, float] = {}

    def op(self, kind: str, call: Callable[[], Any], check: Callable[[Any], str], gen=None):
        """Time ``call()``, check its output, record the hash; ``None`` on failure."""
        self.attempted += 1
        before = gen.cache_stats() if gen is not None else None
        rec = self.recorder if self.phase == "main" else None
        if self.speed is not None and self.phase == "main":
            self.speed.sample()
        if rec is not None:
            rec.op = self.attempted
            span = rec.open(f"op.{kind}")
        start = clock()
        try:
            result = call()
        except Exception as exc:  # an operation that raises counts as failed
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            end = clock()
            if rec is not None:
                rec.close(span)
                rec.op = None
        try:
            digest = check(result)
        except CheckFailed as exc:
            self._fail(kind, f"check: {exc}")
            return None
        if self.phase == "main":
            self.main_wall += end - start
        self.samples[kind].append((start, end))
        self.hashes.append((kind, digest))
        after = gen.cache_stats() if gen is not None else None
        if after is not None:
            delta = Counter({k: v - (before or {}).get(k, 0) for k, v in after.items()})
            self.cache.update(delta)
            self.cache_by_kind[kind].update(delta)
        return result

    def _fail(self, kind: str, message: str) -> None:
        self.failed += 1
        self.hashes.append((kind, "failed"))
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")

    # Operations shared by several workloads ---------------------------
    def fit(self, graph, cfg, kind: str = "fit"):
        gen = self.op(kind, lambda: TGAEGenerator(cfg).fit(graph), check_fit)
        if gen is not None:
            self.epoch_seconds.extend(gen.history.epoch_seconds)
        return gen

    def generate(self, kind: str, gen, seed: int):
        observed = gen.observed
        return self.op(kind, lambda: gen.generate(seed=seed), check_generated(observed), gen)

    def topk(self, kind: str, gen):
        g = gen.observed
        check = check_topk(g.num_nodes, g.num_timestamps, TOPK)
        return self.op(kind, lambda: gen.score_topk(TOPK), check, gen)

    def evaluate(self, observed, generated) -> None:
        scores = self.op(
            "evaluate", lambda: streaming.streaming_evaluate(observed, generated), check_eval
        )
        if scores is not None:
            self.qualities.append(float(np.mean(list(scores.values()))))

    def update(self, gen, edges) -> None:
        expected = gen.observed.num_edges + len(edges[0])
        self.op("update", lambda: gen.update(edges, epochs=0), check_update(expected), gen)

    def restore(self, path: str, edges: int):
        return self.op("restore", lambda: persistence.load_generator(path), check_restored(edges))

    def append_and_regenerate(self, gen, seed: int, index: int) -> None:
        """An append, its first regenerate, then a refill top-k.

        The regenerate re-encodes only the active rows it needs; the refill
        top-k encodes the rest the append invalidated, so the next warm
        top-k reads a fully warm cache.
        """
        g = gen.observed
        self.update(gen, new_edges(seed, index, g.num_nodes, g.num_timestamps))
        self.generate("regen_after_update", gen, derive(seed, "regen", index))
        self.topk("refill_topk", gen)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    setup_repeats = 3
    #: Main-loop units replayed by the traced run (a fixed count, so layer
    #: totals compare across commits).
    trace_units = 1
    #: ``samples`` kind -> minimum count the main loop must reach.
    main_minimum: Dict[str, int] = {}
    #: Per-layer metric -> why it reads 0 on this workload's traced replay.
    absent_reasons: Dict[str, str] = {}

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, run: Run, traced: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def unit(self, run: Run, state: Dict[str, Any], index: int, full: bool = True) -> None:
        """One main-loop unit; ``full=False`` runs only the workload's own operations."""
        raise NotImplementedError

    def teardown(self, state: Dict[str, Any]) -> None:
        pass

    def pool_stats(self, state: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        return None

    def enough(self, run: Run) -> bool:
        return all(len(run.samples[k]) >= n for k, n in self.main_minimum.items())

    def _phase(self, run: Run, name: str, start: float) -> float:
        now = clock()
        run.setup_phases[name] = now - start
        return now

    def _archive(self, gen, tag: str) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{tag}.npz")
        persistence.save_generator(gen, path)
        return path

    def cold_pair(self, run: Run, state: Dict[str, Any], index: int) -> Any:
        """Cold generate, then cold top-k, each on a generator restored from the archive.

        Returns the top-k's generator (``None`` on failure): its cache then
        holds every row of the universe.
        """
        gen = run.restore(state["path"], state["edges"])
        if gen is not None:
            run.generate("cold_generate", gen, derive(self.seed, "cold", index))
        gen = run.restore(state["path"], state["edges"])
        if gen is not None and run.topk("cold_topk", gen) is not None:
            return gen
        return None

    def warm_block(self, run: Run, gen, index: int, generates: int, eval_every: int) -> None:
        """Warm generates (every ``eval_every``-th evaluated), then one warm top-k."""
        for j in range(generates):
            out = run.generate("warm_generate", gen, derive(self.seed, "warm", index, j))
            if out is not None and (index * generates + j) % eval_every == 0:
                run.evaluate(gen.observed, out)
        run.topk("warm_topk", gen)


class FitWorkload(Workload):
    """Repeated fits of MSG small from seeded configs.

    The fits are the workload: only ``train_centres_per_s`` (and the traced
    replay) is training-only.  Between the fits, inference on a generator
    restored from the first fit's archive produces the other end-to-end
    metrics at the same scale (workers=1).  Every unit ends with an append;
    every fifth unit restores a fresh generator, so at most five appends
    accumulate.
    """

    name = "fit"
    setup_repeats = 40
    trace_units = 12
    main_minimum = {"fit": 5, "warm_generate": P90_MIN_SAMPLES, "cold_generate": 4, "update": 10}
    block = 5

    def setup(self, run, traced):
        start = clock()
        graph = datasets.load_dataset("MSG", scale="small")
        self._phase(run, "load", start)
        return {"graph": graph, "path": None, "warm": None}

    def unit(self, run, state, index, full=True):
        gen = run.fit(state["graph"], config(self.seed, index))
        if not full:
            return
        if state["path"] is None:
            if gen is None:
                return
            state["path"] = self._archive(gen, "model")
            state["edges"] = gen.observed.num_edges
        if index % self.block == 0:
            state["warm"] = self.cold_pair(run, state, index)
        warm = state["warm"]
        if warm is None:
            return
        self.warm_block(run, warm, index, generates=10, eval_every=5)
        run.append_and_regenerate(warm, self.seed, index)


class ColdInferWorkload(Workload):
    """First-call inference at MSG medium on freshly restored generators.

    Each unit is a cold top-k and a cold generate, each on a generator
    restored from the set-up archive.  The other end-to-end metrics come
    from side work at MSG small (workers=1), split into halves around the
    cold generate: each half fits a new generator, then runs 40 warm
    generates (every eighth evaluated), two warm top-k calls and an append
    on one generator kept across units.  The side work is about a sixth of
    a unit, so most of the run goes to cold samples.
    """

    name = "cold-infer"
    setup_repeats = 5
    trace_units = 1
    main_minimum = {"cold_generate": 3, "cold_topk": 3, "warm_generate": P90_MIN_SAMPLES}

    def setup(self, run, traced):
        start = clock()
        graph = datasets.load_dataset("MSG", scale="medium")
        small = datasets.load_dataset("MSG", scale="small")
        start = self._phase(run, "load", start)
        gen = run.fit(graph, config(self.seed), kind="setup_fit")
        self._phase(run, "fit", start)
        path = self._archive(gen, "model") if gen is not None else None
        return {"small": small, "path": path, "edges": graph.num_edges, "warm": None}

    def unit(self, run, state, index, full=True):
        path, edges = state["path"], state["edges"]
        if path is None:
            return
        gen = run.restore(path, edges)
        if gen is not None:
            run.topk("cold_topk", gen)
        if full:
            self.side(run, state, 2 * index)
        gen = run.restore(path, edges)
        if gen is not None:
            run.generate("cold_generate", gen, derive(self.seed, "cold", index))
        if full:
            self.side(run, state, 2 * index + 1)

    def side(self, run, state, index):
        """A fit at MSG small, then warm calls and an append on the kept small generator."""
        fitted = run.fit(state["small"], config(self.seed, index + 1))
        if state["warm"] is None:
            if fitted is None:
                return
            run.generate("prefill_generate", fitted, derive(self.seed, "prefill"))
            run.topk("prefill_topk", fitted)
            state["warm"] = fitted
        warm = state["warm"]
        self.warm_block(run, warm, index, generates=40, eval_every=8)
        run.topk("warm_topk", warm)
        run.append_and_regenerate(warm, self.seed, index)


class ServeIngestWorkload(Workload):
    """Warm inference through a 2-process pool, with appends mixed in.

    A unit is a block of ``UPDATE_EVERY`` iterations: their warm generates
    back to back, a warm top-k, the evaluation of each generated graph, then
    an append, its regenerate and a refill top-k.  The generates run back to
    back: right after a 60 ms evaluation, which leaves the workers idle, a
    pooled generate took 17-20 ms against 10-12 ms back to back in the same
    minute, and that wake-up cost varies with the host's load.

    Every second block also fits a new generator and runs a cold pair on
    generators restored from the set-up archive (workers=1), for the
    end-to-end metrics the serving loop does not produce.
    """

    name = "serve-ingest"
    setup_repeats = 5
    trace_units = 3
    main_minimum = {
        "warm_generate": P90_MIN_SAMPLES,
        "update": 8,
        "cold_generate": 5,
    }
    workers = 2
    side_every = 2
    absent_reasons = {
        name: "chunks decode inside pool workers, whose spans are out of scope"
        for name in (
            "core.decoder.decode_s", "core.decoder.rows_decoded", "core.engine.chunk_self_s",
        )
    }
    absent_reasons["core.persistence.load_s"] = (
        "only the interleaved cold pairs restore archives, and the traced replay leaves them out"
    )

    def setup(self, run, traced):
        start = clock()
        graph = datasets.load_dataset("MSG", scale="small")
        start = self._phase(run, "load", start)
        gen = run.fit(graph, config(self.seed), kind="setup_fit")
        if gen is None:
            return {"gen": None, "pool": None}
        # The cold pairs restore this pre-append model.
        path = self._archive(gen, "model")
        start = self._phase(run, "fit", start)
        pool = gen.worker_pool(workers=self.workers)
        # Dispatch byte accounting pickles every task: traced pass only.
        pool.track_dispatch = traced
        start = self._phase(run, "pool_start", start)
        run.generate("prefill_generate", gen, derive(self.seed, "prefill"))
        run.topk("prefill_topk", gen)
        self._phase(run, "prefill", start)
        return {"gen": gen, "pool": pool, "graph": graph, "path": path, "edges": graph.num_edges}

    def unit(self, run, state, index, full=True):
        gen = state["gen"]
        if gen is None:
            return
        first = index * UPDATE_EVERY
        last = first + UPDATE_EVERY - 1
        outs = [
            run.generate("warm_generate", gen, derive(self.seed, "warm", i))
            for i in range(first, last + 1)
        ]
        run.topk("warm_topk", gen)
        for out in outs:
            if out is not None:
                run.evaluate(gen.observed, out)
        run.append_and_regenerate(gen, self.seed, last)
        if full and index % self.side_every == self.side_every - 1:
            run.fit(state["graph"], config(self.seed, last))
            self.cold_pair(run, state, last)

    def teardown(self, state):
        if state.get("gen") is not None:
            state["gen"].close_pool()

    def pool_stats(self, state):
        pool = state.get("pool")
        if pool is None:
            return None
        return {"dispatch": dict(pool.dispatch_stats), "health": pool.health}


WORKLOADS = {w.name: w for w in (FitWorkload, ColdInferWorkload, ServeIngestWorkload)}


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
#: ``(name, unit)`` in report order; ``BENCHMARK.json`` lists exactly these.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("train_centres_per_s", "1/s"),
    ("cold_generate_s_p50", "s"),
    ("cold_topk_s_p50", "s"),
    ("warm_generate_s_p50", "s"),
    ("warm_generate_s_p90", "s"),
    ("warm_topk_s_p50", "s"),
    ("update_s_p50", "s"),
    ("regen_after_update_s_p50", "s"),
    ("eval_s_p50", "s"),
    ("gen_quality_eq10", "score"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

_MEDIANS = {
    "cold_generate_s_p50": "cold_generate",
    "cold_topk_s_p50": "cold_topk",
    "warm_generate_s_p50": "warm_generate",
    "warm_topk_s_p50": "warm_topk",
    "update_s_p50": "update",
    "regen_after_update_s_p50": "regen_after_update",
    "eval_s_p50": "evaluate",
}


def p90(values: List[float]) -> Optional[float]:
    """Nearest-rank 90th percentile, or ``None`` unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def end_to_end(
    run: Run, setups: List[Tuple[float, float]], speed=None
) -> Dict[str, float]:
    """The end-to-end metrics a pass produced (absent ones are left out).

    ``setups`` holds the ``(start, end)`` of each set-up.  With ``speed``
    (a :class:`hostspeed.HostSpeed`), every time is in reference seconds:
    each sample is scaled by its own factor.  The p90 is the scaled median
    plus the wall-clock gap between the p90 and the median: that gap is
    made of pauses that do not shrink when the host runs faster (it stayed
    at 1.5-4.6 ms in fit runs whose wall medians spanned 1.6x), so scaling it
    would add the host's drift to the tail instead of removing it.
    """

    def seconds(intervals: List[Tuple[float, float]]) -> List[float]:
        return [(end - start) * (speed.factor(start, end) if speed else 1.0)
                for start, end in intervals]

    out: Dict[str, Optional[float]] = {
        "setup_s": statistics.median(seconds(setups)) if setups else None,
    }
    fits = seconds(run.samples["fit"])
    centres = EPOCHS * fast_config().num_initial_nodes
    out["train_centres_per_s"] = statistics.median(centres / t for t in fits) if fits else None
    for name, kind in _MEDIANS.items():
        values = seconds(run.samples[kind])
        out[name] = statistics.median(values) if values else None
    warm = [end - start for start, end in run.samples["warm_generate"]]
    tail = p90(warm)
    out["warm_generate_s_p90"] = (
        out["warm_generate_s_p50"] + tail - statistics.median(warm) if tail else None
    )
    out["gen_quality_eq10"] = statistics.fmean(run.qualities) if run.qualities else None
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["success_rate"] = 1.0 - run.failed / max(run.attempted, 1)
    return {k: v for k, v in out.items() if v is not None}


def sample_counts(run: Run) -> Dict[str, int]:
    return {kind: len(values) for kind, values in sorted(run.samples.items())}
