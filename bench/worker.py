"""One benchmark worker process: set-up, warm-up, timed ops and their checks.

    python3 bench/worker.py --workload fit_rbf --seed 1 --seconds 6 --first-op 0

Prints one JSON line: the set-up seconds (importing numpy and simcert,
generating the inputs and running the first op, which is what a user pays
before the first result), the durations of the timed ops, attempts,
failures and ru_maxrss.  ``run.py`` starts a few workers one after another
and pools their ops: a process's allocator and page layout can make all of
its ops slower by a fifth, and pooling keeps one such process from setting
a run's figures.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import checkout  # noqa: E402

# The first ops of a process run up to 2x slower (allocator and page-cache
# warm-up), so timing starts after at least this many ops and seconds.
WARMUP_OPS, WARMUP_S = 2, 1.0


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload, state, first_op: int = 0, tracer=None):
        self.workload, self.state, self.tracer = workload, state, tracer
        self.next_op = first_op
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run_op(self, traced: bool = False) -> float:
        """Run op ``next_op``, then check it; returns the op's wall time."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        if traced:
            self.tracer.op = i
        start = time.perf_counter()
        try:
            result, error = self.workload.op(self.state, i), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.op = None
        if error is not None:
            failures = [f"op {i} raised {error!r}"]
        else:
            try:
                failures = self.workload.check(self.state, i, result)
            except Exception as exc:
                failures = [f"op {i} check raised {exc!r}"]
        self.fail(failures)
        return elapsed

    def fail(self, failures: list[str]) -> None:
        if failures:
            self.failed += 1
            self.messages.extend(failures)

    def timed(self, seconds: float, traced: bool = False, min_ops: int = 1) -> list[float]:
        times: list[float] = []
        while sum(times) < seconds or len(times) < min_ops:
            times.append(self.run_op(traced))
        return times

    def warm_up(self) -> None:
        """Run, check and count ops that are not timed."""
        self.timed(WARMUP_S, min_ops=WARMUP_OPS)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-op", type=int, default=0)
    args = parser.parse_args()

    checkout.cap_blas_threads()
    checkout.import_simcert()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    checkout.WORKDIR.mkdir(exist_ok=True)
    runner = Runner(workload, workload.setup(args.seed, checkout.WORKDIR), args.first_op)
    setup_s = (time.perf_counter() - START) + runner.run_op()
    runner.timed(WARMUP_S, min_ops=WARMUP_OPS - 1)
    times = runner.timed(args.seconds)
    for failure in workload.finish(runner.state):
        runner.fail([failure])
    print(json.dumps({
        "setup_s": setup_s,
        "times": times,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "messages": runner.messages[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
