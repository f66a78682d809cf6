"""Run one workload of the prockt benchmark and print its metrics.

    python3 perfbench/run.py --workload train-lstm-padded --seed 1 --seconds 55 --trace 0

Run from the repository root. The inputs are generated from ``--seed``
by ``prockt.synth``; the program is imported from ``src/``. After one
untimed warm-up round, rounds of the workload's stages run for about
``--seconds``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it records the environment, the output
checks and the per-round detail. A traced run also writes its spans to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import uuid
from pathlib import Path

# One process, at most two threads: the two pipeline workers. BLAS must be
# pinned before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Put the checkout's ``src/`` first on the path and insist prockt comes from it."""
    sys.path.insert(0, str(ROOT / "src"))
    import prockt
    if Path(prockt.__file__).resolve().parent != ROOT / "src" / "prockt":
        raise ImportError(f"prockt imported from {prockt.__file__}, not from {ROOT / 'src'}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        results_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result, report) as printed by ``main``."""
    import bench
    from tracing import Tracer

    w = bench.WORKLOADS[workload_name]
    if smoke:
        w = bench.smoke(w)
    work_dir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        raw_dir = work_dir / "raw"
        bench.generate(w, seed, raw_dir)
        data = bench.set_up(bench.Api(), w, seed, raw_dir)
        tracer = Tracer(uuid.uuid4().hex) if trace else None
        rounds = bench.run_rounds(w, seed, seconds, trace, data, raw_dir, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = bench.checks(rounds)
    attempted, failed = bench.counts(rounds)
    report = {
        "workload": w.name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "environment": environment(), "checks": checks,
        "host_factor": bench.host_factor(rounds[1:]) if len(rounds) > 1 else None,
        "rounds": [{"traced": r.traced, "core": r.core, "wall_s": r.wall_s,
                    "reference_s": r.reference_s, "setup_s": r.setup_s, "cold_s": r.cold_s,
                    "warm_s": r.warm_s, "train_s": r.train_s, "eval_s": r.eval_s,
                    "train_loss": r.train_loss, "test": r.test[:1], "error": r.error}
                   for r in rounds],
    }
    if any(r.error for r in rounds):
        raise RuntimeError(f"training failed: {rounds[-1].error}")
    if trace:
        metrics = bench.per_layer(tracer, data, rounds)
        if results_dir is not None:
            results_dir.mkdir(exist_ok=True)
            tracer.write(results_dir / f"spans-{w.name}-seed{seed}.json")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = bench.end_to_end(rounds, peak_mb)
    result = {"correct": all(checks.values()), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that SIGTERM, too, removes the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import_program()
    import bench
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         results_dir=HERE / "results")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
