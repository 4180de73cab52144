#!/usr/bin/env python3
"""Print one digest per op of a benchmark workload, so that the op results
of two checkouts can be compared bit for bit with `diff`.

The ops are built by `bench/workloads.py` of this checkout, exactly as the
benchmark builds them, and each runs once with one BLAS thread.  Each op
prints `index kind sha256(pickle.dumps(result))` (an op that raises a
DbarConeError hashes the error's type and message); a last line hashes
all op lines.

Usage: python scripts/op_digest.py --workload W --seed S [--cycles C]
"""

import argparse
import hashlib
import os
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="solve-grid, fd-stencil or cone-mc")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, default=1, help="cycles of ops to build and run")
    args = ap.parse_args()

    # one BLAS/OpenMP thread, set before numpy loads, as in the benchmark
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from dbarcone.errors import DbarConeError

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload].build(args.seed, args.cycles)
    total = hashlib.sha256()
    for i, op in enumerate(ops):
        try:
            result = op.call()
        except DbarConeError as exc:
            result = (type(exc).__name__, str(exc))
        line = f"{i} {op.kind} {hashlib.sha256(pickle.dumps(result)).hexdigest()}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"total {len(ops)} ops {total.hexdigest()}")


if __name__ == "__main__":
    main()
