"""Benchmark command for gbmixed.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gbmixed is imported from its src/
directory, never from an installed copy. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run (see tracing.py). Spans of the last
traced repetition and all scratch files go to .perfbench_out/ in the
checkout. Exits 2 without a result when the checkout has no gbmixed sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread: the matrices are small, and on a shared two-core machine
# a second thread adds noise rather than speed.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pairs", "clusters"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def use_checkout_sources() -> bool:
    """Point imports at this checkout's gbmixed; False if its sources are missing."""
    if not (SRC / "gbmixed" / "__init__.py").is_file():
        return False
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        print(f"no gbmixed sources under {SRC}", file=sys.stderr)
        return 2
    import pipeline
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    result = pipeline.run(wl, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
