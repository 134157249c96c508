"""Lifecycle benchmark: the command-line entry point.

Run from the repository root::

    python3 perfbench/run.py --workload fit --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-ingest --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` replays a fixed number of main-loop units twice from the same
inputs, first untraced and then with every layer wrapped, and reports the
per-layer metrics, the tracing overhead and whether both passes produced
bit-identical outputs.  The last line of standard output is the JSON result;
the line before it holds the details (sample counts, output hashes, reasons
for absent metrics).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit", "cold-infer", "serve-ingest")
#: One BLAS thread per process: serve-ingest runs two worker processes on a
#: two-core machine, and on the single-process workloads one thread measured
#: faster than two (5.5 s against 6.3 s for a cold MSG-medium generate).
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process (so ``peak_rss_mb`` is its own)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:.6g} {entry['unit']}")
        print(f"  {'error_rate':44s} {result['failed'] / result['attempted']:.6g} ratio")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The workloads' teardown closes their pools, which joins the workers;
    this also reaps any worker a rebuilt pool left behind, and stops the
    resource tracker that the first shared-memory segment starts, which
    would otherwise outlive this process until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # A terminated run still closes its pool and removes its temporary files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # imports NumPy, so only after the BLAS pinning

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            detail, result = measure.traced(args.workload, args.seed, workdir)
        else:
            detail, result = measure.untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_children()
    detail["blas_threads"] = {var: os.environ[var] for var in BLAS_VARS}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
