"""Fixed-seed outputs pinned against a recorded golden file.

The golden file holds, for a linear, an RBF and a polynomial class: the
Monte-Carlo Rademacher estimate, the training risk trace, and the CLI
outputs model.json, certificate.json (without its config echo) and
trials.csv.  Every number must agree within RELATIVE_TOL.  Regenerate the
file only for an intended change of results, with

    PYTHONPATH=src python tests/test_equivalence.py
"""

import csv
import json
from pathlib import Path

from simcert import (
    KernelClass,
    KernelSpec,
    LinearClass,
    SyntheticSpec,
    TrainConfig,
    empirical_rademacher_mc,
    generate_synthetic,
    train,
)
from simcert.cli import main

GOLDEN = Path(__file__).with_name("data") / "equivalence_golden.json"
RELATIVE_TOL = 1e-12

CLASSES = {
    "linear": (LinearClass(lambda_cap=2.0, k=2), ["--class", "linear", "--k", "2"]),
    "rbf": (
        KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=2.0, k=2),
        ["--class", "kernel", "--kernel", "rbf", "--gamma", "0.5", "--k", "2"],
    ),
    "polynomial": (
        KernelClass(KernelSpec("polynomial", degree=2, coef0=1.0), lambda_cap=2.0, k=2),
        ["--class", "kernel", "--kernel", "poly", "--degree", "2", "--k", "2"],
    ),
}


def _cli_outputs(flags, workdir: Path) -> dict:
    data, run = workdir / "data", workdir / "run"
    problem = [
        "--features", str(data / "features.csv"), "--distances", str(data / "distances.csv")
    ]
    codes = [
        main(["gen", "--m", "20", "--n", "3", "--noise", "0.05", "--seed", "4", "--out", str(data)]),
        main(["train", *problem, *flags, "--max-iters", "80", "--seed", "2", "--out", str(run)]),
        main(["certify", "--model", str(run / "model.json"), *problem, "--out", str(run)]),
        main(["verify", "--m", "15", "--n", "3", "--noise", "0.05", "--seed", "9",
              "--trials", "3", *flags, "--max-iters", "80", "--out", str(run)]),
    ]
    assert codes == [0, 0, 0, 0]
    certificate = json.loads((run / "certificate.json").read_text(encoding="utf-8"))
    certificate.pop("config")
    with open(run / "trials.csv", encoding="utf-8", newline="") as fh:
        trials = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    return {
        "model": json.loads((run / "model.json").read_text(encoding="utf-8")),
        "certificate": certificate,
        "trials": trials,
    }


def collect(workdir: Path) -> dict:
    """Every pinned output, computed by the code under test."""
    sample, distances, _ = generate_synthetic(
        SyntheticSpec(
            m=20, n_features=3, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=5
        )
    )
    out = {}
    for name, (hclass, flags) in CLASSES.items():
        estimate, std_error = empirical_rademacher_mc(
            sample, distances, hclass, 3, TrainConfig(max_iters=40), seed=11
        )
        _, report = train(sample, distances, hclass, TrainConfig(max_iters=60, seed=3))
        out[name] = {
            "mc": [estimate, std_error],
            "risk_trace": list(report.risk_trace),
            "final_risk": report.final_risk,
            **_cli_outputs(flags, workdir / name),
        }
    return out


def _mismatches(expected, actual, path="") -> list[str]:
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in _mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool):
        if abs(actual - expected) <= RELATIVE_TOL * max(abs(expected), abs(actual)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def test_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _mismatches(expected, collect(tmp_path)) == []


def test_comparison_rejects_a_relative_change_above_tolerance():
    value = 0.123456789
    assert _mismatches({"x": [value]}, {"x": [value * (1 + 1e-13)]}) == []
    assert _mismatches({"x": [value]}, {"x": [value * (1 + 1e-11)]}) != []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = collect(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
