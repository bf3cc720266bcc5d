"""The CLI output digest in tools/cli_digest.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


def test_two_runs_print_the_same_line_for_every_output():
    # each run writes under its own temporary directory, so equal lines
    # also show that no echoed path reaches a digest
    first = cli_digest.digest_lines(sizes=(12,), verify_m=10, trials=2)
    assert cli_digest.digest_lines(sizes=(12,), verify_m=10, trials=2) == first
    classes = ("linear", "rbf", "poly", "rbf_declined")
    expected = {f"m12/data/{name}" for name in
                ("features.csv", "distances.csv", "distances_asym.csv", "wtrue.csv",
                 "manifest.json")}
    expected |= {f"m12/{c}/{name}" for c in (*classes, "linear_asym")
                 for name in ("model.json", "train_report.json", "certificate.json")}
    expected |= {f"verify/{c}/{name}" for c in classes for name in ("report.json", "trials.csv")}
    files = [line.split()[0] for line in first]
    assert files == [*sorted(expected), *(f"mc/{c}" for c in classes)]
    assert all(len(line.split()[1]) == 64 for line in first)



def test_drift_against_its_own_package_prints_no_line(capfd):
    src = str(cli_digest._ROOT / "src")
    argv = ["--drift", src, "--src", src, "--sizes", "12", "--verify-m", "10", "--trials", "2"]
    assert cli_digest.main(argv) == 0
    assert capfd.readouterr().out == ""


def test_drift_reports_the_largest_change_per_key_and_other_leaves(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"a": [2.0, 1e-3], "n": 3, "stop": "converged", "config": {"out": "x"}}')
    new.write_text('{"a": [3.0, 2e-3], "n": 3, "stop": "max_iters", "config": {"out": "y"}}')
    assert cli_digest._drift(old, new) == [".a[] rel 1 abs 1", ".stop other 1"]
    old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
    old_csv.write_text("trial,gap\n0,0.0\n1,4.0\n")
    new_csv.write_text("trial,gap\n0,1e-20\n1,4.0\n")
    assert cli_digest._drift(old_csv, new_csv) == ["column 1 rel inf abs 1e-20"]
    old_mc, new_mc = tmp_path / "old_mc", tmp_path / "new_mc"
    old_mc.write_text("(0.5, 0.0)")
    new_mc.write_text("(0.25, 0.0)")
    assert cli_digest._drift(old_mc, new_mc) == ["estimate rel 0.5 abs 0.25"]


def test_a_moved_step_count_does_not_hide_the_round_off_of_a_risk(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"trials": [{"gap": 0.25, "iterations_used": 1331},'
                   ' {"gap": 0.5, "iterations_used": 40}]}')
    new.write_text('{"trials": [{"gap": 0.25, "iterations_used": 1485},'
                   ' {"gap": 0.5000000000000001, "iterations_used": 40}]}')
    assert cli_digest._drift(old, new) == [
        ".trials[].gap rel 2.22e-16 abs 1.11e-16",
        ".trials[].iterations_used rel 0.116 abs 154",
    ]
