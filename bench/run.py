"""simcert benchmark: one workload, closed loop, ops run back to back.

    python3 bench/run.py --workload fit_rbf --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run starts ``WORKERS`` worker processes one after
another (``worker.py``); each sets up, warms up and times ops for an equal
share of ``--seconds`` of summed op wall time, checking every op's output
with the benchmark's own arithmetic after its clock stops.  The last stdout
line reports the end-to-end metrics over the pooled ops.  With
``--trace 1`` this process runs the workload itself, alternating untraced
and traced blocks, and reports per-layer metrics (per traced op) plus the
tracing overhead.  Lines before the last are the provenance of the run and
a readable table.  Workloads and metrics are declared in BENCHMARK.json;
which metric each layer should move is in bench/predictions.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import checkout
from worker import Runner

HERE = Path(__file__).resolve().parent
WORKERS = 3
TRACE_BLOCKS = 4  # untraced, traced, untraced, traced: drift hits both sides
P90_MIN_OPS = 100  # ten samples beyond the 90th percentile
# Op indices of worker k start at k * OPS_PER_WORKER, so workers never
# repeat each other's inputs.
OPS_PER_WORKER = 10_000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_workers(args) -> list[dict]:
    reports = []
    for k in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
             "--first-op", str(k * OPS_PER_WORKER)],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker {k} failed:\n{done.stderr}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return reports


def end_to_end(args):
    """The BENCHMARK.json end-to-end metrics, plus readable rows for two
    that BENCHMARK.json cannot declare: op_s_p90 exists only with enough
    ops, and fail_ratio reads 0 on a correct tree."""
    reports = run_workers(args)
    times = [t for r in reports for t in r["times"]]
    setups = [r["setup_s"] for r in reports]
    rss = [r["peak_rss_mb"] for r in reports]
    n = len(times)
    metrics = {
        # medians over workers, so that one slow process cannot set a figure
        "ops_per_s": (statistics.median(len(r["times"]) / sum(r["times"]) for r in reports), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    if n >= P90_MIN_OPS:
        p90 = (statistics.quantiles(times, n=10)[-1], f"{n} ops")
    else:
        p90 = ("omitted", f"{n} ops < {P90_MIN_OPS}")
    rows = [
        ("ops_per_s", *metrics["ops_per_s"], f"median of {WORKERS} workers, {n} ops"),
        ("op_s_p50", *metrics["op_s_p50"], f"{n} ops"),
        ("op_s_p90", p90[0], "s", p90[1]),
        ("setup_s", *metrics["setup_s"], "median of cold processes: " + _listed(setups)),
        ("peak_rss_mb", *metrics["peak_rss_mb"], "ru_maxrss, median of workers: " + _listed(rss)),
    ]
    counts = (
        sum(r["attempted"] for r in reports),
        sum(r["failed"] for r in reports),
        [m for r in reports for m in r["messages"]],
    )
    return metrics, rows, counts


def per_layer(workload, args, header: dict):
    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(workload, workload.setup(args.seed, checkout.WORKDIR), tracer=tracer)
    runner.warm_up()
    plain: list[float] = []
    traced: list[float] = []
    for block in range(TRACE_BLOCKS):
        on = block % 2 == 1
        if on:
            tracer.install()
        try:
            (traced if on else plain).extend(runner.timed(args.seconds / TRACE_BLOCKS, on))
        finally:
            tracer.uninstall()
    tracer.install()
    stale = tracer.unwrapped_bindings()
    tracer.uninstall()
    for failure in workload.finish(runner.state):
        runner.fail([failure])

    summary = tracer.summary(len(traced))
    overhead = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    metrics = {name: (value, _unit(name)) for name, value in summary.items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    path = checkout.WORKDIR / f"trace-{args.workload}.jsonl"
    tracer.write(path, dict(header, traced_ops=len(traced)))
    rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    rows += [
        ("spans", len(tracer.spans), "count",
         f"{len(plain)} untraced and {len(traced)} traced ops; written to {path}"),
        ("absent", len(tracer.absent), "count", ", ".join(tracer.absent)),
    ]
    if stale:
        rows.append(("unwrapped", len(stale), "count", "calls untimed: " + ", ".join(stale)))
    return metrics, rows, (runner.attempted, runner.failed, runner.messages)


def _listed(values) -> str:
    return ", ".join(f"{v:.4g}" for v in values)


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    return {
        "kernels.gram.calls_per_fit": "calls/fit",
        "core.pairwise_distances.calls_per_step": "calls/step",
        "hypotheses.project_norm_ball.active_ratio": "ratio",
        "optimizer.steps_per_op": "steps/op",
        "core.pairwise_distances.bytes_computed": "B/op",
    }[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.cap_blas_threads()
    try:
        simcert = checkout.import_simcert()
    except (checkout.CheckoutError, ImportError) as exc:
        print(f"bench: cannot import the checkout's simcert: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    header = checkout.provenance(simcert, workload.name, args.seed)
    header.update(seconds=args.seconds, trace=args.trace)
    print(f"# provenance {json.dumps(header, sort_keys=True)}")

    checkout.WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, rows, (attempted, failed, messages) = per_layer(workload, args, header)
    else:
        metrics, rows, (attempted, failed, messages) = end_to_end(args)

    rows.append(("fail_ratio", failed / attempted, "ratio",
                 f"{failed} of {attempted} ops failed a check"))
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"{name:48s} {shown:>12s} {unit:10s} {note}")
    for message in messages[:10]:
        print(f"# FAILED {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
