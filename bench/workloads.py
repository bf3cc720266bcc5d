"""The four benchmark workloads: inputs from a seed, one op, and its checks.

A workload's ``setup(seed, workdir)`` builds every input the ops need, so
the timed ops receive only generated data; ``op(state, i)`` runs op number
``i`` through simcert's public API; ``check(state, i, result)`` returns the
failed checks of that op, computed with the benchmark's own arithmetic
(see ``reference``); ``finish(state)`` returns the failures of checks made
over the whole run.  Sizes are constructor fields so the tests can run the
same code at tiny sizes.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import simcert
import simcert.cli
from simcert import KernelClass, KernelSpec, LinearClass, SyntheticSpec, TrainConfig
from simcert.hypotheses import embed, model_to_dict

# Distinct inputs per op, so a cache keyed on the last input cannot help.
POOL = 3


def _spec(m: int, n_features: int, k_true: int, seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        m=m, n_features=n_features, k_true=k_true, radius=1.0, map_norm=1.0,
        noise_sigma=0.05, seed=seed,
    )


def _pool(m: int, n_features: int, k_true: int, seed: int) -> list:
    return [
        simcert.generate_synthetic(_spec(m, n_features, k_true, POOL * seed + j))[:2]
        for j in range(POOL)
    ]


@dataclass(frozen=True)
class FitRbf:
    """One fixed-budget RBF train at large m: Gram, PSD check and Gram-form stress."""

    name = "fit_rbf"
    m: int = 1000
    n_features: int = 16
    k: int = 4
    max_iters: int = 10

    def setup(self, seed: int, workdir: Path) -> dict:
        return {
            "pool": _pool(self.m, self.n_features, 4, seed),
            "hclass": KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=2.0, k=self.k),
            "config": TrainConfig(max_iters=self.max_iters, seed=seed),
        }

    def op(self, state: dict, i: int):
        sample, distances = state["pool"][i % POOL]
        return simcert.train(sample, distances, state["hclass"], state["config"])

    def check(self, state: dict, i: int, result) -> list[str]:
        model, report = result
        sample, distances = state["pool"][i % POOL]
        own = ref.risk(embed(model, sample.values), distances.values)
        saved = model_to_dict(model)
        anchors = np.asarray(saved["anchors"])
        gram = ref.rbf_gram(anchors, anchors, saved["kernel"]["gamma"])
        norm = ref.kernel_norm(np.asarray(saved["A"]), gram)
        return ref.risk_failures("train", report.final_risk, own) + ref.norm_failures(
            "train", norm, saved["lambda_cap"]
        )

    def finish(self, state: dict) -> list[str]:
        return []


@dataclass(frozen=True)
class Coverage:
    """One trial of ``verify``: train to convergence, certify, 500-point holdout."""

    name = "coverage"
    m: int = 50
    n_holdout: int = 500
    delta: float = 0.05
    max_iters: int = TrainConfig().max_iters

    def setup(self, seed: int, workdir: Path) -> dict:
        state = {
            "seed": seed,
            "hclass": LinearClass(lambda_cap=2.0, k=2),
            "config": TrainConfig(max_iters=self.max_iters),
            "covered": [],
        }
        # run_coverage_experiment returns neither the model nor the
        # certificate; record them as harness hands them on.  The targets are
        # looked up per call so that a traced binding, when installed, is used.
        harness = simcert.harness

        def train(sample, distances, hclass, config):
            out = simcert.optimizer.train(sample, distances, hclass, config)
            state["trained"] = (sample, distances, out[0])
            return out

        def certify(*args, **kwargs):
            state["certificate"] = simcert.bounds.certify(*args, **kwargs)
            return state["certificate"]

        state["restore"] = {"train": harness.train, "certify": harness.certify}
        harness.train, harness.certify = train, certify
        return state

    def op(self, state: dict, i: int):
        # trial seed s trains and s + 1 draws the holdout; stride 2 keeps ops disjoint
        spec = _spec(self.m, 2, 2, 2 * (100_000 * state["seed"] + i))
        return simcert.run_coverage_experiment(
            spec, state["hclass"], state["config"], self.delta, 1, self.n_holdout
        )

    def check(self, state: dict, i: int, result) -> list[str]:
        sample, distances, model = state.pop("trained")
        cert = state.pop("certificate").to_dict()
        trial = result.trials[0]
        saved = model_to_dict(model)
        own = ref.risk(embed(model, sample.values), distances.values)
        failures = ref.risk_failures("trial", trial.train_risk, own)
        failures += ref.norm_failures(
            "trial", ref.spectral_norm(np.asarray(saved["W"])), saved["lambda_cap"]
        )
        failures += ref.certificate_failures("trial", cert)
        if trial.gap != trial.holdout_risk - trial.train_risk:
            failures.append("trial: gap != holdout_risk - train_risk")
        if trial.certificate_slack != cert["slack"] or trial.covered != (
            trial.gap <= cert["slack"]
        ):
            failures.append("trial: covered flag disagrees with gap and slack")
        state["covered"].append(trial.covered)
        return failures

    def finish(self, state: dict) -> list[str]:
        simcert.harness.train = state["restore"]["train"]
        simcert.harness.certify = state["restore"]["certify"]
        covered = state["covered"]
        if not covered or sum(covered) / len(covered) >= 1.0 - self.delta:
            return []
        # the run's coverage claim failed: each uncovered trial is a failed op
        return [f"coverage {sum(covered)}/{len(covered)} below 1 - delta"] * (
            len(covered) - sum(covered)
        )


@dataclass(frozen=True)
class McLinear:
    """One Monte-Carlo Rademacher estimate: projected ascent with signed weights."""

    name = "mc_linear"
    m: int = 200
    n_features: int = 16
    k: int = 16
    n_sigma: int = 2
    max_iters: int = 100

    def setup(self, seed: int, workdir: Path) -> dict:
        return {
            "seed": seed,
            "pool": _pool(self.m, self.n_features, 4, seed),
            "hclass": LinearClass(lambda_cap=1.0, k=self.k),
            "inner": TrainConfig(max_iters=self.max_iters),
        }

    def op(self, state: dict, i: int):
        sample, distances = state["pool"][i % POOL]
        return simcert.empirical_rademacher_mc(
            sample, distances, state["hclass"], self.n_sigma, state["inner"],
            1_000_000 * state["seed"] + i,
        )

    def check(self, state: dict, i: int, result) -> list[str]:
        estimate, std_error = result
        sample, distances = state["pool"][i % POOL]
        if not (math.isfinite(estimate) and math.isfinite(std_error) and std_error >= 0.0):
            return [f"mc: non-finite estimate {estimate!r} +- {std_error!r}"]
        closed = ref.rademacher_linear(
            state["hclass"].lambda_cap, sample.values, distances.values
        )
        if estimate > closed + 2.0 * std_error:
            return [f"mc: estimate {estimate!r} above closed form {closed!r} + 2 se"]
        return []

    def finish(self, state: dict) -> list[str]:
        return []


@dataclass(frozen=True)
class CliRoundtrip:
    """``gen``, kernel ``train`` and ``certify`` through ``simcert.cli.main``."""

    name = "cli_roundtrip"
    m: int = 300
    max_iters: int = 100

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "workdir": workdir}

    def op(self, state: dict, i: int):
        out = Path(tempfile.mkdtemp(dir=state["workdir"]))
        data, model = str(out / "features.csv"), str(out / "model.json")
        dist = str(out / "distances.csv")
        seed = str(1_000_000 * state["seed"] + i)
        codes = [
            simcert.cli.main(["gen", "--m", str(self.m), "--n", "4", "--noise", "0.05",
                              "--seed", seed, "--out", str(out)]),
            simcert.cli.main(["train", "--features", data, "--distances", dist,
                              "--class", "kernel", "--kernel", "rbf", "--k", "2",
                              "--max-iters", str(self.max_iters), "--out", str(out)]),
            simcert.cli.main(["certify", "--model", model, "--features", data,
                              "--distances", dist, "--delta", "0.05", "--out", str(out)]),
        ]
        return codes, out

    def check(self, state: dict, i: int, result) -> list[str]:
        codes, out = result
        try:
            if codes != [0, 0, 0]:
                return [f"cli: exit codes {codes}"]
            features = np.loadtxt(out / "features.csv", delimiter=",", ndmin=2)
            targets = np.loadtxt(out / "distances.csv", delimiter=",", ndmin=2)
            saved = json.loads((out / "model.json").read_text(encoding="utf-8"))
            report = json.loads((out / "train_report.json").read_text(encoding="utf-8"))
            cert = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
            anchors, coef = np.asarray(saved["anchors"]), np.asarray(saved["A"])
            gamma = saved["kernel"]["gamma"]
            embedded = (coef @ ref.rbf_gram(anchors, features, gamma)).T
            own = ref.risk(embedded, targets)
            norm = ref.kernel_norm(coef, ref.rbf_gram(anchors, anchors, gamma))
            return (
                ref.risk_failures("train_report", report["final_risk"], own)
                + ref.risk_failures("certificate", cert["empirical_risk"], own)
                + ref.norm_failures("model.json", norm, saved["lambda_cap"])
                + ref.certificate_failures("certificate", cert)
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self, state: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (FitRbf(), Coverage(), McLinear(), CliRoundtrip())}
