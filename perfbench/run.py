"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

A run builds the compiled kernel if the checkout has none yet, times
set-up in fresh processes, runs the workload once untimed to check its
output, repeats it for ``--seconds`` seconds and checks every repeat
against the first.  With ``--trace 1`` it then runs the workload once
more with the layer wrappers installed and reports per-layer metrics.
Any failed check exits with status 1 and prints no result.

The last line of standard output is the result object; the line before
it is the provenance record (seed, threads, kernel, versions, output
digest), which is also written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Program settings that would change what is timed.  The replication
#: cache would serve repeats from disk, REPRO_TRACE turns on the
#: program's own tracing, and the other two change the execution path.
_PINNED_UNSET = ("REPRO_CACHE", "REPRO_TRACE", "REPRO_JOBS", "REPRO_DISABLE_CKERNEL")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Settings every run and every set-up probe shares.

    Runs before the program is imported: the kernel reads the OpenMP
    thread count and its cache directory when it loads.
    """
    for name in _PINNED_UNSET:
        os.environ.pop(name, None)
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "xdg")
    os.environ["OMP_NUM_THREADS"] = str(nproc())
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_program():
    """Import the program from this checkout's ``src`` or fail."""
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {ROOT / 'src'}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="run length; smoke only exercises the code paths")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, then exit (timed by the parent run)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        bench.set_up(args.workload, args.seed, args.size)
        return 0
    try:
        result = bench.run(args, Path(__file__).resolve())
    except CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
