"""Benchmark entry point. From the repository root:

    python3 perfbench/run.py --workload train|forecast|explain --seed N \
        --seconds S --trace 0|1

`--trace 0` measures for S seconds and prints the end-to-end metrics;
`--trace 1` replays a fixed amount of work untraced and then traced and
prints the per-layer metrics. The next-to-last line of standard output is
the run record, the last line the result. The exit code is 0 only when every
output check passed. See NOTES.md for what each metric means.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "forecast", "explain")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread():
    """Must run before numpy loads. The benchmark is one caller in one
    process; two BLAS threads on a 2-core machine made the forecast p90
    spread across runs four times wider (NOTES.md)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "hydroformer" / "__init__.py").is_file():
        print(f"perfbench: no hydroformer sources under {src}", file=sys.stderr)
        return 2
    _one_blas_thread()
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path
                                           if Path(p or ".").resolve() != ROOT / "perfbench"]
    import hydroformer
    if Path(hydroformer.__file__).resolve().parent != src / "hydroformer":
        print(f"perfbench: imported hydroformer from {hydroformer.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from perfbench import harness
    return harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
