"""Untraced and traced measurement of one workload."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import layers
from hostspeed import HostSpeed
from spans import Recorder
from workloads import END_TO_END, WORKLOADS, Run, clock, end_to_end, sample_counts

#: Past ``--seconds`` the main loop keeps going only until its minimum
#: sample counts are met, and never for longer than this.
OVERRUN_LIMIT_S = 90.0


def _setup(workload, run: Run, traced: bool) -> Tuple[Dict[str, Any], Tuple[float, float]]:
    start = clock()
    state = workload.setup(run, traced=traced)
    return state, (start, clock())


def _result(correct: bool, runs: List[Run], metrics: Dict[str, float], units: Dict[str, str]):
    return {
        "correct": bool(correct),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }


def _detail(workload: str, seed: int, run: Run, **extra) -> Dict[str, Any]:
    detail = {
        "workload": workload,
        "seed": seed,
        "samples": sample_counts(run),
        "hashes": [f"{kind}:{digest}" for kind, digest in run.hashes],
        "errors": run.errors,
        "error_rate": run.failed / max(run.attempted, 1),
        "cache_stats_delta": dict(run.cache),
        "cache_stats_by_op": {k: dict(v) for k, v in sorted(run.cache_by_kind.items())},
    }
    detail.update(extra)
    return detail


def untraced(name: str, seed: int, seconds: float, workdir: str):
    workload = WORKLOADS[name](seed, workdir)
    speed = HostSpeed()
    run = Run(speed=speed)
    setups: List[Tuple[float, float]] = []
    state: Dict[str, Any] = {}
    units = 0
    try:
        for _ in range(workload.setup_repeats):
            workload.teardown(state)
            speed.sample(force=True)
            state, interval = _setup(workload, run, traced=False)
            setups.append(interval)
        run.phase = "main"
        start = clock()
        while clock() - start < seconds or not workload.enough(run):
            if clock() - start > seconds + OVERRUN_LIMIT_S:
                break
            workload.unit(run, state, units)
            units += 1
        speed.sample(force=True)
    finally:
        workload.teardown(state)
    metrics = end_to_end(run, setups, speed)
    units_of = dict(END_TO_END)
    missing = [m for m in units_of if m not in metrics]
    detail = _detail(
        name, seed, run, trace=0, seconds=seconds, main_units=units,
        setup_times=[end - begin for begin, end in setups], missing_metrics=missing,
        time_scale=speed.run_factor(), kernel_samples=len(speed.points),
        wall_metrics=end_to_end(run, setups),
    )
    return detail, _result(run.failed == 0 and not missing, [run], metrics, units_of)


def traced(name: str, seed: int, workdir: str):
    """The main loop's first ``trace_units`` units, untraced then traced."""
    workload = WORKLOADS[name](seed, workdir)
    reference = Run()
    state: Dict[str, Any] = {}
    try:
        state, ref_setup = _setup(workload, reference, traced=False)
        reference.phase = "main"
        for index in range(workload.trace_units):
            workload.unit(reference, state, index, full=False)
    finally:
        workload.teardown(state)

    recorder = Recorder()
    run = Run(recorder=recorder)
    state = {}
    with layers.installed(recorder):
        try:
            state, traced_setup = _setup(workload, run, traced=True)
            run.phase = "main"
            for index in range(workload.trace_units):
                workload.unit(run, state, index, full=False)
            pool_stats = workload.pool_stats(state)
        finally:
            workload.teardown(state)

    facts = {
        "cache": dict(run.cache),
        "pool_stats": pool_stats,
        "setup": run.setup_phases,
        "epoch_seconds": run.epoch_seconds,
        "regen_encoded_rows": run.cache_by_kind["regen_after_update"]["encoded_rows"],
        "refill_encoded_rows": (
            run.cache_by_kind["refill_topk"]["encoded_rows"] if run.samples["refill_topk"] else None
        ),
        "update_invalidated_rows": run.cache_by_kind["update"]["invalidated_rows"],
        "traced_wall": run.main_wall,
        "untraced_wall": reference.main_wall,
        "absent_reasons": workload.absent_reasons,
    }
    values, absent = layers.layer_metrics(recorder, facts)

    plain = end_to_end(reference, [ref_setup])
    with_trace = end_to_end(run, [traced_setup])
    # Above 1 means the traced pass was slower, for times and rates alike.
    overhead = {
        metric: (
            with_trace[metric] / plain[metric] if unit == "s" else plain[metric] / with_trace[metric]
        )
        for metric, unit in END_TO_END
        if unit in ("s", "1/s") and metric in plain and metric in with_trace
    }
    identical = reference.hashes == run.hashes
    detail = _detail(
        name, seed, run, trace=1, trace_units=workload.trace_units,
        outputs_identical=identical, reference_hashes=[
            f"{kind}:{digest}" for kind, digest in reference.hashes
        ],
        reference_errors=reference.errors,
        absent_per_layer=absent,
        tracing_overhead_per_metric=overhead,
        spans_recorded=len(recorder.spans),
    )
    correct = identical and reference.failed == 0 and run.failed == 0
    return detail, _result(correct, [reference, run], values, dict(layers.PER_LAYER))
