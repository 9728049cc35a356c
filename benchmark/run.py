"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload fit-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` alternates untraced and traced rounds
and prints every per-layer metric, writing the spans to
``.bench_work/traces/<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's environment and any failed operations by name.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

# One BLAS thread: the machine is shared, and a fixed count keeps runs comparable.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

# glibc malloc settings for this process (mallopt parameter, bytes).  By
# default glibc hands large freed blocks back to the kernel and faults them
# in again, and when it does depends on the allocation history: the same
# extraction ran at half speed in some runs.  Keeping freed memory makes
# every run allocate alike.  It also hides part of the page-fault cost of
# large temporaries; the traced run reports the faults that remain
# (process.minor_faults_per_round).
MALLOC = {"M_TRIM_THRESHOLD": (-1, 256 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}


def keep_freed_memory() -> dict:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return {}
    return {name: value for name, (param, value) in MALLOC.items() if mallopt(param, value) == 1}


ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"


def environment(seed: int, malloc: dict) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "nproc": os.cpu_count(),
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "malloc": malloc,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    malloc = keep_freed_memory()

    if not (ROOT / "src" / "anomix" / "__init__.py").is_file():
        print(f"benchmark: no anomix sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = environment(args.seed, malloc)
    report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         WORK_DIR, env)
    harness.print_report(report, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
