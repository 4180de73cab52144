#!/usr/bin/env python3
"""Calibrate the solver's reported quadrature error on solve-grid ops.

Builds the solve-grid ops of `bench/workloads.py` for each seed and runs
every op once, untimed, with one BLAS thread.  Each result is checked as
the benchmark checks it: the error against the exact bump solution must be
at most the benchmark's limit and at most the reported estimate.  Per
|z| band it prints the ops, the ops that raised a DbarConeError, the
failed checks, the minimum and median est/err, the largest error, and the
ops with an error above 1e-12 whose check passes only because of the
roundoff floor.  That share is found by running each op again with the
floor set to zero, which moves no value, only the estimate.

Usage: python scripts/est_calibration.py --seeds 7919 1 2 3 --cycles 6
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--cycles", type=int, default=6, help="cycles of ops per seed")
    args = ap.parse_args()

    # one BLAS/OpenMP thread, set before numpy loads, as in the benchmark
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np
    import workloads
    from dbarcone import quadrature
    from dbarcone.errors import DbarConeError

    grid = workloads.WORKLOADS["solve-grid"]
    bands = {band: {"ops": 0, "raised": 0, "failed": 0, "ratios": [], "err": 0.0, "floor_only": 0}
             for band in grid.BANDS}
    floor = quadrature._ROUNDOFF
    for seed in args.seeds:
        for op in grid.build(seed, args.cycles):
            row = bands[op.kind.rsplit("/", 1)[1]]
            row["ops"] += 1
            try:
                rec = op.check(op.call())
                quadrature._ROUNDOFF = 0.0
                bare = op.check(op.call())
            except DbarConeError:
                row["raised"] += 1
                continue
            finally:
                quadrature._ROUNDOFF = floor
            row["failed"] += not rec["ok"]
            row["err"] = max(row["err"], rec["err"])
            if rec["err"] > 0:
                row["ratios"].append(rec["est"] / rec["err"])
            row["floor_only"] += rec["ok"] and rec["err"] > 1e-12 and bare["est"] < rec["err"]

    print(f"{'band':6} {'ops':>6} {'raised':>6} {'failed':>6} {'min est/err':>12} "
          f"{'median':>10} {'max err':>10} {'floor-only':>10}")
    for band, row in bands.items():
        ratios = row["ratios"] or [float("nan")]
        print(f"{band:6} {row['ops']:6d} {row['raised']:6d} {row['failed']:6d} "
              f"{min(ratios):12.4g} {float(np.median(ratios)):10.4g} {row['err']:10.3g} "
              f"{row['floor_only']:10d}")


if __name__ == "__main__":
    main()
