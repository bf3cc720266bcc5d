"""Fixed-seed outputs pinned against a recorded golden file.

The golden file holds, for a linear, an RBF and a polynomial class: the
Monte-Carlo Rademacher estimate, the training risk trace, and the CLI
outputs model.json, certificate.json and report.json (both without their
config echo) and trials.csv.  Every number must agree within RELATIVE_TOL.
Before regenerating, list what an intended change of results moves with

    PYTHONPATH=src python tests/test_equivalence.py --diff

which prints every pinned number whose relative change exceeds
RELATIVE_TOL (old -> new), then the largest change per key, and writes
nothing.  Regenerate the file only for an intended change of results, with

    PYTHONPATH=src python tests/test_equivalence.py
"""

import argparse
import csv
import json
import re
import sys
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
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    report.pop("config")
    with open(run / "trials.csv", encoding="utf-8", newline="") as fh:
        trials = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    return {
        "model": json.loads((run / "model.json").read_text(encoding="utf-8")),
        "certificate": certificate,
        "report": report,
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


def _relative_change(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale > 0.0 else 0.0


def _changes(old, new, path=""):
    """(path, old, new) for every pinned leaf that moved beyond RELATIVE_TOL;
    a changed key set or list length is one entry with the keys or lengths."""
    if isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            return [(path + " keys", sorted(old), sorted(new))]
        return [c for k in old for c in _changes(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        out = [(path + " length", len(old), len(new))] if len(old) != len(new) else []
        return out + [c for i, (o, n) in enumerate(zip(old, new))
                      for c in _changes(o, n, f"{path}[{i}]")]
    return [(path, old, new)] if _mismatches(old, new) else []


def diff_report(old: dict, new: dict) -> list[str]:
    """Lines listing each moved number, then the largest relative change per
    key (the path without its list indices)."""
    lines, largest = [], {}
    for path, o, n in _changes(old, new):
        moved = isinstance(o, float) and isinstance(n, float)
        rel = _relative_change(o, n) if moved else None
        lines.append(f"{path}: {o!r} -> {n!r}" + (f" (rel {rel:.3g})" if moved else ""))
        key = re.sub(r"\[\d+\]", "[]", path)
        if moved and rel > largest.get(key, (-1.0,))[0]:
            largest[key] = (rel, o, n)
    if largest:
        lines.append("largest relative change per key:")
        lines += [f"  {key}: {rel:.3g} ({o!r} -> {n!r})"
                  for key, (rel, o, n) in sorted(largest.items())]
    return lines


def test_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _mismatches(expected, collect(tmp_path)) == []


def test_comparison_rejects_a_relative_change_above_tolerance():
    value = 0.123456789
    assert _mismatches({"x": [value]}, {"x": [value * (1 + 1e-13)]}) == []
    assert _mismatches({"x": [value]}, {"x": [value * (1 + 1e-11)]}) != []


def test_diff_lists_each_moved_number_and_the_largest_change_per_key():
    old = {"a": {"trace": [1.0, 2.0, 3.0], "same": [0.5]}, "b": [1, 2]}
    new = {"a": {"trace": [1.0, 2.2, 3.3], "same": [0.5 * (1 + 1e-13)]}, "b": [1, 2, 3]}
    assert diff_report(old, new) == [
        ".a.trace[1]: 2.0 -> 2.2 (rel 0.0909)",
        ".a.trace[2]: 3.0 -> 3.3 (rel 0.0909)",
        ".b length: 2 -> 3",
        "largest relative change per key:",
        "  .a.trace[]: 0.0909 (2.0 -> 2.2)",
    ]
    assert diff_report(old, old) == []


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="print the numbers that moved against the golden file; write nothing",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        payload = collect(Path(tmp))
    if args.diff:
        previous = json.loads(GOLDEN.read_text(encoding="utf-8"))
        lines = diff_report(previous, json.loads(json.dumps(payload)))
        print("\n".join(lines) if lines else f"no pinned number moved beyond {RELATIVE_TOL:g}")
        sys.exit(1 if lines else 0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
