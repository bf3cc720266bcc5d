"""Fast tests of the benchmark's own code, at tiny sizes."""

import dataclasses

import numpy as np
import pytest

import reference as ref
import simcert
import workloads
from tracer import BINDINGS, Tracer
from worker import Runner

TINY = [
    workloads.FitRbf(m=30, n_features=3, k=2, max_iters=3),
    workloads.Coverage(m=10, n_holdout=20, max_iters=30),
    workloads.McLinear(m=12, n_features=3, k=3, max_iters=5),
    workloads.CliRoundtrip(m=12, max_iters=5),
]


def _run(workload, workdir, n_ops=2, tracer=None):
    state = workload.setup(3, workdir)
    failures = []
    try:
        for i in range(n_ops):
            if tracer is not None:
                tracer.op = i
            result = workload.op(state, i)
            if tracer is not None:
                tracer.op = None
            failures += workload.check(state, i, result)
    finally:
        failures += workload.finish(state)
    return failures


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_workload_ops_pass_their_checks(workload, tmp_path):
    assert _run(workload, tmp_path) == []
    assert list(tmp_path.iterdir()) == []


def test_every_workload_has_a_tiny_twin():
    assert sorted(w.name for w in TINY) == sorted(workloads.WORKLOADS)


def test_reference_risk_matches_brute_force():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((70, 3))
    d = np.abs(rng.standard_normal((70, 70)))
    brute = np.mean(
        [(np.linalg.norm(y[i] - y[j]) - d[i, j]) ** 2 for i in range(70) for j in range(70)]
    )
    assert ref.rel_close(ref.risk(y, d), brute, 1e-12)


def test_checks_reject_a_wrong_risk_and_a_broken_certificate(tmp_path):
    workload = TINY[0]
    state = workload.setup(3, tmp_path)
    model, report = workload.op(state, 0)
    assert workload.check(state, 0, (model, report)) == []
    off = dataclasses.replace(report, final_risk=report.final_risk * (1 + 1e-6))
    assert workload.check(state, 0, (model, off))
    assert ref.certificate_failures("c", {"bound": 1.0, "empirical_risk": 0.5, "slack": 0.25})


def test_coverage_run_fails_when_rate_below_one_minus_delta(tmp_path):
    workload = TINY[1]
    state = workload.setup(3, tmp_path)
    state["covered"] = [True] * 18 + [False] * 2
    assert len(workload.finish(state)) == 2


class _Flaky:
    """Op 3 raises; checks fail on odd ops."""

    def op(self, state, i):
        if i == 3:
            raise ValueError("boom")
        return i

    def check(self, state, i, result):
        return ["odd"] if result % 2 else []


def test_runner_counts_failed_and_raising_ops():
    runner = Runner(_Flaky(), None, first_op=0)
    times = runner.timed(0.0, min_ops=6)
    assert len(times) == 6 and runner.attempted == 6
    assert runner.failed == 3  # ops 1, 3 (raised) and 5
    assert any("raised ValueError" in m for m in runner.messages)


def test_tracer_times_nested_calls_and_restores_bindings(tmp_path):
    tracer = Tracer()
    originals = dict(tracer.originals)
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert _run(TINY[0], tmp_path, n_ops=1, tracer=tracer) == []
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    for name, fn in originals.items():
        home, func = name.split(".")
        assert getattr(getattr(simcert, home), func) is fn
    assert simcert.cli._HANDLERS["gen"] is originals["cli.cmd_gen"]

    summary = tracer.summary(1)
    assert summary["optimizer.train.calls"] == 1
    assert summary["kernels.gram.calls"] >= 1
    assert summary["optimizer.steps_per_op"] == 3
    assert summary["kernels.gram.calls_per_fit"] >= 1
    # self times partition the root spans' wall time
    roots = sum(s[4] - s[3] for s in tracer.spans if s[1] < 0)
    total_self = sum(summary[f"{name}.self_s"] for name in BINDINGS)
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert all(s[2] == 0 for s in tracer.spans)


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(simcert.optimizer, "norm_subgradient")
    tracer = Tracer()
    assert tracer.absent == ["optimizer.norm_subgradient"]
    tracer.install()
    tracer.uninstall()
    assert tracer.summary(1)["optimizer.norm_subgradient.calls"] == 0
