"""Fronthaul compression benchmark: train, compress and decompress one
workload, check every output, and print the metrics as one JSON line.

    python3 bench/run.py --workload ul_vq_l2q6 --seed 1 --seconds 20 --trace 0

A run sets up its corpora (timed several times; the median is setup_s),
trains the workload's codebook from one seed, compresses and decompresses
every frame once with every check, then repeats whole rounds over the
frames for --seconds seconds, training again between rounds until 8 s of
training are timed (the median is train_s). One
process, one closed-loop client: each call starts when the previous one has
returned. With --trace 1 untraced and traced rounds alternate for twice
--seconds; the last line then holds the per-layer metrics and the tracing
overhead, and the spans go to bench/results/. bench/README.md has the rest.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

# LTE 10 MHz: complex samples per second of one antenna-carrier, in MS/s
REALTIME_MSPS = 15.36


def _limit_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may run on; must run
    before numpy is imported. Everything else about the pools is left as
    fvq's users get it."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    threads = _limit_threads()
    if not (ROOT / "src" / "fvq" / "__init__.py").is_file():
        print(f"bench: no fvq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from bench import harness, workloads
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = harness.machine_info(threads)
    print(f"bench: {args.workload} seed {args.seed}, {machine}")
    run, metrics, run_problems, tracer = harness.measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace
    )
    for name, (value, unit) in metrics.items():
        extra = ""
        if unit == "MS/s":
            extra = f"  ({100 * value / REALTIME_MSPS:.2f}% of {REALTIME_MSPS} MS/s)"
        print(f"  {name:34s} {value!r:>24} {unit}{extra}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        run_problems.append("a metric is not finite")
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {(m["name"], m["unit"]) for m in declared} != {
        (k, u) for k, (_, u) in metrics.items()
    }:
        run_problems.append("metrics differ from those BENCHMARK.json declares")
    for p in run.problems + run_problems:
        print(f"bench: FAILED {p}", file=sys.stderr)

    result = {
        "correct": not run_problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(dict(result, machine=machine, rounds=run.round_log,
                       train_s=run.train_times, setup_s=run.setup_times,
                       lloyd_iters=run.lloyd_iters,
                       lloyd_iters_max=run.lloyd_iters_max,
                       problems=run.problems + run_problems), fh, indent=1)
    if args.trace:
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
