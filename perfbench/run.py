"""Stage-level benchmark for seqaug.

    python3 perfbench/run.py --workload train-diffusion --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. It sets up the workload from
``configs/synth.cfg`` and the seed, times the workload's ``pipeline.run_*``
calls for ``--seconds`` seconds in one process, checks every output, and
prints the environment, each metric by name and unit, and as its last line
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. Scratch files go under ``.bench_build/`` and
are removed at exit. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("train-diffusion", "augment-cf", "train-srs", "sweep-gamma")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    config = os.path.join(ROOT, "configs", "synth.cfg")
    if not (os.path.isdir(os.path.join(src, "seqaug")) and os.path.isfile(config)):
        print(f"error: {ROOT} is not a seqaug checkout (no src/seqaug or configs/synth.cfg)",
              file=sys.stderr)
        return 2
    # BLAS and OpenMP read their thread counts once, when numpy loads.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    sys.path.insert(0, src)
    import bench

    work = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), work, config)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
