#!/usr/bin/env python3
"""Print one digest per op of a benchmark workload, so that the op results
of two checkouts can be compared bit for bit with `diff`.

The ops are built by `bench/workloads.py` of this checkout, exactly as the
benchmark builds them, and each runs once with one BLAS thread.  Each op
prints `index kind sha256(pickle.dumps(result))` (an op that raises a
DbarConeError hashes the error's type and message); a last line hashes
all op lines.  With `--values` each op line also gives the result's
headline numbers with `repr`: a SolveResult's value and quadrature_error,
a SurfaceEstimate's value and std_error, a ResidualReport's max_residual.
A change that moves last bits then states its largest move from two
outputs.

With `--configs` it instead runs every `configs/*.json` with
`--reproducible` into a temporary directory and prints `name sha256 sha256`
per config, hashing its JSON report and that report's `--format csv`
projection, and a last line hashing all of them, so "the JSON and CSV config
reports are byte-identical" is one `diff` of two checkouts' outputs.

Usage: python scripts/op_digest.py --workload W --seed S [--cycles C] [--values]
       python scripts/op_digest.py --configs
"""

import argparse
import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADLINE = {
    "SolveResult": ("value", "quadrature_error"),
    "SurfaceEstimate": ("value", "std_error"),
    "ResidualReport": ("max_residual",),
}


def headline(result) -> str:
    """`name=repr(number)` for each headline number of an op's result, as a
    Python complex or float."""
    fields = ((name, getattr(result, name)) for name in HEADLINE.get(type(result).__name__, ()))
    return " ".join(
        f"{name}={complex(v) if isinstance(v, complex) else float(v)!r}" for name, v in fields
    )


def digest_configs() -> None:
    """Run every configs/*.json reproducibly and print two sha256 per report:
    the JSON report `dbar-cone run --reproducible` writes, then its CSV
    projection, written from the same report so no job runs twice."""
    from dbarcone.cli import _write_report, parse_config, run

    total = hashlib.sha256()
    paths = sorted((ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        for path in paths:
            json_out, csv_out = Path(tmp) / f"{path.stem}.json", Path(tmp) / f"{path.stem}.csv"
            config = parse_config(path.read_text(encoding="utf-8"))
            _, report = run(config, out_path=str(json_out), out_format="json", reproducible=True)
            _write_report(report, str(csv_out), "csv")
            digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (json_out, csv_out)]
            line = " ".join([path.stem, *digests])
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"total {len(paths)} reports {total.hexdigest()}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="solve-grid, fd-stencil or cone-mc")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--cycles", type=int, default=1, help="cycles of ops to build and run")
    ap.add_argument("--values", action="store_true",
                    help="also print each result's headline numbers")
    ap.add_argument("--configs", action="store_true",
                    help="digest the --reproducible report of every configs/*.json instead")
    args = ap.parse_args()
    if not args.configs and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required without --configs")

    # one BLAS/OpenMP thread, set before numpy loads, as in the benchmark
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    if args.configs:
        digest_configs()
        return
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
        values = headline(result) if args.values else ""
        if values:
            line += " " + values
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"total {len(ops)} ops {total.hexdigest()}")


if __name__ == "__main__":
    main()
