"""dbarcone benchmark: one workload per run, in one process.

    python3 bench/run.py --workload solve-grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
seed generates every input.  `--trace 0` measures for at least `--seconds`
seconds, in whole cycles of ops and at least enough ops to put ten beyond
the workload's tail percentile, and reports the end-to-end metrics.
`--trace 1` runs a fixed prefix of the op list twice, untraced and then
traced, reports the per-layer metrics and writes the spans to
`.bench_out/`.  Human-readable lines come first; the last line of standard
output is one JSON object.  Every op is checked against an exact
reference; a failed check or a `DbarConeError` counts the op as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9  # fewest set-ups in a run
END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}


def _min_ops(workload) -> int:
    """Fewest ops that put ten beyond the tail percentile."""
    return math.ceil(10 / (1 - workload.tail_pct / 100))


def _setup(name: str, seed: int):
    """One set-up: import the package afresh, then build the workload's
    fixtures, forms and inputs.  Returns (seconds, workload, ops)."""
    for mod in [m for m in sys.modules if m.split(".")[0] in ("dbarcone", "workloads")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    import dbarcone.fixtures  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[name]
    ops = wl.build(seed, wl.pool_cycles)
    return time.perf_counter() - t0, wl, ops


def _run_ops(ops, cycle: int, stop, tracer=None, between=None):
    """Run ops in order until `stop(n_done, elapsed)` at a cycle boundary.
    `between()` runs at the other cycle boundaries; its time is left out of
    the elapsed and returned wall time."""
    from dbarcone.errors import DbarConeError

    latencies, records, failures = [], [], []
    t_start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = op.call()
        except DbarConeError as exc:
            result, error = None, exc
        else:
            error = None
        latencies.append(time.perf_counter() - t0)
        if error is None:
            rec = op.check(result)
            rec["kind"] = op.kind
            records.append(rec)
            if not rec["ok"]:
                failures.append(f"{op.kind}: check failed {rec}")
        else:
            failures.append(f"{op.kind}: {type(error).__name__}: {error}")
        i += 1
        if i % cycle == 0:
            if stop(i, time.perf_counter() - t_start - paused):
                break
            if between is not None:
                t0 = time.perf_counter()
                between()
                paused += time.perf_counter() - t0
    return time.perf_counter() - t_start - paused, latencies, records, failures


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dbarcone" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'dbarcone'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one BLAS/OpenMP thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    # third-party dependencies load untimed: no change to the package moves
    # their cost, and it is the noisiest part of start-up
    import numpy as np
    import scipy.linalg  # noqa: F401

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds, wl, ops = _setup(args.workload, args.seed)
    setup_times = [seconds]
    cycle = len(ops) // wl.pool_cycles
    min_cycles = math.ceil(_min_ops(wl) / cycle)

    def more_setups() -> None:
        # The ops keep the modules of the first set-up; a later one only
        # adds a time.  Spread over the run, the set-ups see the machine in
        # the states the ops see.
        setup_times.append(_setup(args.workload, args.seed)[0])

    nproc = len(os.sched_getaffinity(0))
    print(f"workload {wl.name}  seed {args.seed}  nproc {nproc}  BLAS threads 1  "
          f"cycle {cycle} ops  pool {len(ops)} ops")

    if args.trace == 0:
        wall, lat, records, failures = _run_ops(
            ops, cycle, lambda n, el: n >= min_cycles * cycle and el >= args.seconds,
            between=more_setups)
        while len(setup_times) < SETUP_REPS:
            more_setups()
        setup_s = statistics.median(setup_times)
        print(f"setup_s {setup_s:.4f} s: median of {len(setup_times)} set-ups (package "
              f"import, fixtures, forms, inputs), one before the run, one between each "
              f"two cycles, the rest after it: {', '.join(f'{s:.4f}' for s in setup_times)}")
        n = len(lat)
        lat_ms = np.asarray(lat) * 1e3
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        beyond = int(np.sum(lat_ms > np.percentile(lat_ms, wl.tail_pct)))
        values = {
            "setup_s": setup_s,
            "ops_per_s": n / wall,
            "op_p50_ms": float(np.median(lat_ms)),
            "op_tail_ms": float(np.percentile(lat_ms, wl.tail_pct)),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        print(f"ran {n} ops ({n // cycle} cycles) in {wall:.2f} s; tail is "
              f"p{wl.tail_pct:g} with {beyond} of {n} ops beyond it")
        extra = {"fail_frac": (len(failures) / n, "ratio")}
        extra.update(wl.summarize(records))
    else:
        n_trace = wl.trace_cycles * cycle
        trace_ops = ops[:n_trace]
        stop = lambda n, el: n >= n_trace  # noqa: E731
        wall_u, _, rec_u, fail_u = _run_ops(trace_ops, cycle, stop)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wall_t, lat, records, fail_t = _run_ops(trace_ops, cycle, stop, tracer)
        finally:
            tracer.uninstall()
        failures = fail_u + fail_t
        n = 2 * n_trace
        metrics = layer_metrics(tracer, wl, records, wall_u, wall_t)
        print(f"traced {n_trace} ops ({wl.trace_cycles} cycles): untraced {wall_u:.2f} s, "
              f"traced {wall_t:.2f} s, {len(tracer.span_name)} spans")
        layers = tracer.layer_self_times()
        for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer:<11s} {s:8.3f} s  {s / wall_t:6.1%} of traced wall")
        out = ROOT / ".bench_out" / f"trace-{wl.name}.npz"
        tracer.write_spans(str(out))
        print(f"spans written to {out.relative_to(ROOT)}")
        extra = {}
        records = rec_u + records

    by_kind: dict[str, list[dict]] = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec)
    correct = not failures and wl.aggregate_ok(by_kind)
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<28s} {_fmt(value):>14s} {unit}")
    print(f"correct {correct}: {n - len(failures)} of {n} ops passed their checks")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, wl, records, wall_u: float, wall_t: float) -> dict:
    t, c, k = tracer.self_time, tracer.call_count, tracer.counts.get
    calls = c("quadrature.integrate")
    points = k("quadrature.integrand_points", 0)
    samples = k("verify.samples", 0)
    summary = {name: value for name, (value, _) in wl.summarize(records).items()}
    m = {
        "variety.poly_eval_s": (t("variety.poly_eval"), "s"),
        "variety.poly_eval_rows": (k("variety.poly_eval_rows", 0), "count"),
        "variety.jacobian_rows": (k("variety.jacobian_rows", 0), "count"),
        "variety.project_batch_s": (t("variety.project_batch"), "s"),
        "variety.project_batch_rows": (k("variety.project_batch_rows", 0), "count"),
        "forms.coeff_matrix_s": (t("forms.coeff_matrix"), "s"),
        "forms.coeff_rows": (k("forms.coeff_rows", 0), "count"),
        "quadrature.integrate_s": (t("quadrature.integrate"), "s"),
        "quadrature.calls": (calls, "count"),
        "quadrature.integrand_points": (points, "count"),
        "quadrature.points_per_call": (points / calls if calls else 0.0, "points/call"),
        "quadrature.est_over_err": (summary.get("est_over_err", 0.0), "ratio"),
        "quadrature.no_convergence": (
            tracer.errors.get(("quadrature.integrate", "NoConvergence"), 0), "count"),
        "solver.solve_s": (t("solver.solve"), "s"),
        "solver.solve_calls": (c("solver.solve"), "count"),
        "solver.solve_l2_s": (t("solver.solve_l2"), "s"),
        "solver.solve_l2_calls": (c("solver.solve_l2"), "count"),
        "solver.kernel_s": (t("solver.kernel"), "s"),
        "solver.err_max": (summary.get("err_max", 0.0), "abs"),
        "charts.build_chart_s": (t("charts.build_chart"), "s"),
        "charts.build_chart_calls": (c("charts.build_chart"), "count"),
        "charts.slice_batch_s": (t("charts.slice_batch"), "s"),
        "charts.slice_rows": (k("charts.slice_rows", 0), "count"),
        "charts.eval_s": (t("charts.eval"), "s"),
        "charts.eval_calls": (c("charts.eval"), "count"),
        "charts.pullback_form_s": (t("charts.pullback_form"), "s"),
        "measure.atlas_build_s": (t("measure.atlas_build"), "s"),
        "measure.assign_s": (t("measure.assign"), "s"),
        "measure.assign_points": (k("measure.assign_points", 0), "count"),
        "measure.covers_calls": (c("measure.covers"), "count"),
        "measure.sample_link_s": (t("measure.sample_link"), "s"),
        "measure.estimate_s": (t("measure.estimate"), "s"),
        "measure.newton_failures": (sum(r.get("newton_failures", 0) for r in records), "count"),
        "measure.coverage_gaps": (sum(r.get("gaps", 0) for r in records), "count"),
        "measure.gap_ops": (summary.get("gap_ops", 0), "count"),
        "measure.mc_rel_se": (summary.get("mc_rel_se", 0.0), "ratio"),
        "verify.residual_s": (t("verify.residual"), "s"),
        "verify.solves_per_sample": (
            k("verify.residual_solves", 0) / samples if samples else 0.0, "solves/sample"),
        "verify.resid_median": (summary.get("resid_median", 0.0), "rel"),
        "verify.resid_max": (summary.get("resid_max", 0.0), "rel"),
        "trace.overhead_frac": (wall_t / wall_u - 1.0, "ratio"),
    }
    for layer, s in tracer.layer_self_times().items():
        m[f"{layer}.self_s"] = (s, "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
