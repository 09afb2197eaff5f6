"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a separate traced pass.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

Each run fixes its own environment before numpy is imported: the
BLAS/OpenMP pools are pinned to one thread (``--blas default`` leaves them
alone, for reference figures only) and the dataset cache is a private
directory under ``.perfbench_runs/`` that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-pecnet", "train-lbebm", "serve", "datagen")
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas", choices=("1", "default"), default="1",
        help="BLAS/OpenMP threads: pinned to 1 (default) or left to the library",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args, run_dir: str):
    from common import Context
    from repro.data import set_cache_dir

    set_cache_dir(os.path.join(run_dir, "datasets"))
    ctx = Context(args.seed, args.seconds, bool(args.trace), run_dir)
    if args.workload.startswith("train-"):
        import train

        return train.run(args.workload.split("-", 1)[1], ctx)
    if args.workload == "serve":
        import serve

        return serve.run(ctx)
    import datagen

    return datagen.run(ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the server child is stopped and the run
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.blas == "1":
        os.environ.update({var: "1" for var in BLAS_VARS})
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )

    runs = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs)
    os.environ["REPRO_DATA_CACHE"] = os.path.join(run_dir, "datasets")
    try:
        outcome = run_workload(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:  # another run still owns a directory there
            pass

    from common import median

    probe = median(outcome.probes_ms)
    if args.trace:
        values = {**outcome.per_layer, "host.probe_ms": probe}
        wanted = spec["per_layer"]
    else:
        values = outcome.end_to_end
        wanted = spec["end_to_end"]
        print(f"host.probe_ms {probe:.4f} ms")
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer the workload never calls reads 0.
    default = 0.0 if args.trace else None
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], default)), "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for error in outcome.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
