"""End-to-end CLI contract: subcommands, exit codes, file outputs."""

import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import simcert.cli as cli_module
import simcert.core as core_module
import simcert.kernels as kernels_module

from simcert import (
    LinearClass,
    SampleMatrix,
    gram,
    pairwise_distances,
    read_matrix_csv,
    write_matrix_csv,
)
from simcert.cli import main
from simcert.hypotheses import load_model
from simcert.optimizer import initialize_model

FROZEN_SLACK = 1.0590987322723266


def _read_bytes(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def _gen(tmp_path, *extra):
    out = tmp_path / "data"
    args = ["gen", "--m", "20", "--n", "2", "--seed", "7", "--out", str(out), *extra]
    assert main(args) == 0
    return out


class TestGen:
    def test_writes_four_files(self, tmp_path):
        out = _gen(tmp_path)
        for name in ("features.csv", "distances.csv", "wtrue.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "gen"

    def test_rerun_is_byte_identical(self, tmp_path):
        out = _gen(tmp_path)
        names = ("features.csv", "distances.csv", "wtrue.csv", "manifest.json")
        first = _read_bytes(out, names)
        assert main(["gen", "--m", "20", "--n", "2", "--seed", "7", "--out", str(out)]) == 0
        assert _read_bytes(out, names) == first

    def test_noisy_targets_keep_their_recorded_bytes(self, tmp_path):
        # the noise draw keeps its random stream, so the target bytes never move
        args = ["gen", "--m", "300", "--n", "4", "--noise", "0.05", "--seed", "4"]
        assert main([*args, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "distances.csv").read_bytes()).hexdigest()
        assert digest == "ca7a4f36f73543486442aab86de532368093fc39335fb969f05b0da790031fc7"

    def test_m_below_two_is_usage_error(self, tmp_path):
        assert main(["gen", "--m", "1", "--out", str(tmp_path)]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["gen", "--frobnicate", "1"]) == 2


class TestTrain:
    def test_recovers_realizable_instance(self, tmp_path):
        data = _gen(tmp_path, "--noise", "0")
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--features", str(data / "features.csv"),
                "--distances", str(data / "distances.csv"),
                "--class", "linear",
                "--lambda-cap", "2.0",
                "--max-iters", "5000",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["final_risk"] < 1e-6
        assert report["config"]["seed"] == 0
        model = load_model(out / "model.json")
        assert model.weights.shape == (2, 2)

    def test_zero_iterations_returns_initialization(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--features", str(data / "features.csv"),
                "--distances", str(data / "distances.csv"),
                "--max-iters", "0",
                "--seed", "5",
                "--k", "2",
                "--lambda-cap", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["iterations_used"] == 0
        assert report["converged"] is False
        model = load_model(out / "model.json")
        sample = SampleMatrix(read_matrix_csv(data / "features.csv"))
        expected = initialize_model(
            LinearClass(lambda_cap=1.0, k=2), sample, np.random.default_rng(5)
        )
        assert np.array_equal(model.weights, expected.weights)

    @pytest.mark.parametrize(
        "noise,max_iters,reason",
        [("0", "5000", "converged"), ("0.05", "3", "max_iters")],
    )
    def test_report_says_why_the_run_stopped(self, tmp_path, noise, max_iters, reason):
        data = _gen(tmp_path, "--noise", noise)
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--features", str(data / "features.csv"),
                "--distances", str(data / "distances.csv"),
                "--max-iters", max_iters,
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["stop_reason"] == reason
        assert report["converged"] is (reason == "converged")
        if reason == "max_iters":
            assert report["iterations_used"] == int(max_iters)

    def test_row_count_mismatch_is_validation_error(self, tmp_path):
        data = _gen(tmp_path)
        bad = tmp_path / "bad.csv"
        write_matrix_csv(bad, np.zeros((5, 5)))
        code = main(
            [
                "train",
                "--features", str(data / "features.csv"),
                "--distances", str(bad),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 4

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            [
                "train",
                "--features", str(tmp_path / "nope.csv"),
                "--distances", str(tmp_path / "nope2.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 3

    def test_kernel_class_round_trip(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "krun"
        code = main(
            [
                "train",
                "--features", str(data / "features.csv"),
                "--distances", str(data / "distances.csv"),
                "--class", "kernel",
                "--kernel", "rbf",
                "--gamma", "0.8",
                "--lambda-cap", "3.0",
                "--max-iters", "300",
                "--out", str(out),
            ]
        )
        assert code == 0
        cert_out = tmp_path / "kcert"
        code = main(
            [
                "certify",
                "--model", str(out / "model.json"),
                "--features", str(data / "features.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(cert_out),
            ]
        )
        assert code == 0
        cert = json.loads((cert_out / "certificate.json").read_text())
        assert cert["mode"] == "kernel"
        assert cert["q"] == 1.0

    def test_bad_step_size_is_usage_error(self, tmp_path):
        data = _gen(tmp_path)
        code = main(
            [
                "train",
                "--features", str(data / "features.csv"),
                "--distances", str(data / "distances.csv"),
                "--step-size", "0",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2


def _identity_fixture(tmp_path):
    """100 points with max norm exactly 1, an antipodal pair, self-consistent
    distances, and an identity model with unit budget."""
    rng = np.random.default_rng(0)
    inner = rng.normal(size=(98, 2))
    inner = 0.9 * inner / np.linalg.norm(inner, axis=1)[:, None] * rng.random((98, 1))
    features = np.vstack([[1.0, 0.0], [-1.0, 0.0], inner])
    write_matrix_csv(tmp_path / "features.csv", features)
    write_matrix_csv(tmp_path / "distances.csv", pairwise_distances(features))
    (tmp_path / "model.json").write_text(
        json.dumps({"type": "linear", "lambda_cap": 1.0, "W": [[1.0, 0.0], [0.0, 1.0]]})
    )


class TestCertify:
    def test_identity_fixture_slack(self, tmp_path):
        _identity_fixture(tmp_path)
        out = tmp_path / "cert"
        code = main(
            [
                "certify",
                "--model", str(tmp_path / "model.json"),
                "--features", str(tmp_path / "features.csv"),
                "--distances", str(tmp_path / "distances.csv"),
                "--delta", "0.05",
                "--out", str(out),
            ]
        )
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert abs(cert["slack"] - FROZEN_SLACK) < 1e-5
        assert cert["M"] == 2.0
        assert cert["mode"] == "linear"

    def test_reparsed_bound_is_exact_sum(self, tmp_path):
        _identity_fixture(tmp_path)
        out = tmp_path / "cert"
        main(
            [
                "certify",
                "--model", str(tmp_path / "model.json"),
                "--features", str(tmp_path / "features.csv"),
                "--distances", str(tmp_path / "distances.csv"),
                "--out", str(out),
            ]
        )
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["bound"] == cert["empirical_risk"] + cert["slack"]

    def test_delta_out_of_range_is_usage_error(self, tmp_path):
        _identity_fixture(tmp_path)
        code = main(
            [
                "certify",
                "--model", str(tmp_path / "model.json"),
                "--features", str(tmp_path / "features.csv"),
                "--distances", str(tmp_path / "distances.csv"),
                "--delta", "1.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("delta,code", [("1", 0), ("0", 2)])
    def test_delta_domain_is_the_library_one(self, tmp_path, delta, code):
        # the library's (0, 1]: delta = 1 drops the log term; 1.5 is checked above
        _identity_fixture(tmp_path)
        out = tmp_path / "cert"
        assert main(
            [
                "certify",
                "--model", str(tmp_path / "model.json"),
                "--features", str(tmp_path / "features.csv"),
                "--distances", str(tmp_path / "distances.csv"),
                "--delta", delta,
                "--out", str(out),
            ]
        ) == code
        if code == 0:
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["slack"] == cert["rademacher_term"]


_KERNEL_MODEL = b'"A": [[1.0, 0.0]], "anchors": [[0.0, 0.0], [1.0, 0.0]], "lambda_cap": 1.0'


@pytest.mark.parametrize(
    "payload,named",
    [
        ([1, 2], None),
        ("x", None),
        ({"type": "linear", "lambda_cap": "big", "W": [[1.0, 0.0], [0.0, 1.0]]}, None),
        ({"type": "linear", "lambda_cap": 1.0, "W": [[1.0, "zero"], [0.0, 1.0]]}, None),
        ({"type": "kernel", "lambda_cap": 1.0, "A": [[1.0, 0.0]],
          "anchors": [[0.0, 0.0], [1.0, 0.0]], "kernel": "rbf"}, None),
        (b'{"type": "linear", "lambda_cap": 1.0, "W": [[1.0, 0.0], [0.0, 1.0]], "x": "\xff"}',
         "model.json"),
        (b'{"type": "linear", "lambda_cap": 1.0, "W": [[1.0, 0.0], [0.0', "model.json"),
        (b'{"type": "linear", "lambda_cap": 1.0}', "missing field 'W'"),
        (b'{"type": "kernel", ' + _KERNEL_MODEL + b', "kernel": {"gamma": 1.0}}',
         "missing field 'family'"),
        (b'{"type": "linear", "lambda_cap": NaN, "W": [[1.0, 0.0], [0.0, 1.0]]}', "lambda_cap"),
        (b'{"type": "kernel", ' + _KERNEL_MODEL
         + b', "kernel": {"family": "polynomial", "degree": 1e999}}', "malformed kernel model"),
        (b"[" * 100_000, "model.json"),
        (b'{"type": "kernel", ' + _KERNEL_MODEL
         + b', "kernel": {"family": "polynomial", "degree": 2.7}}', "degree"),
        # a bool or a numeric string is not a JSON number, whatever float() makes of it
        (b'{"type": "linear", "lambda_cap": true, "W": [[1.0, 0.0], [0.0, 1.0]]}',
         "field 'lambda_cap'"),
        (b'{"type": "linear", "lambda_cap": "2", "W": [[1.0, 0.0], [0.0, 1.0]]}',
         "field 'lambda_cap'"),
        (b'{"type": "kernel", ' + _KERNEL_MODEL + b', "kernel": {"family": "rbf", "gamma": "0.5"}}',
         "field 'gamma'"),
        (b'{"type": "kernel", "A": [["0.01", 0.0]], "anchors": [[0.0, 0.0], [1.0, 0.0]], '
         b'"lambda_cap": 1.0, "kernel": {"family": "rbf"}}', "field 'A'"),
        (b'{"type": "kernel", ' + _KERNEL_MODEL
         + b', "kernel": {"family": "polynomial", "degree": true}}', "field 'degree'"),
        # a bool among numbers is not a number, though numpy promotes it to one
        (b'{"type": "linear", "lambda_cap": 1.0, "W": [[true, 0.0], [0.0, 1.0]]}', "field 'W'"),
        (b'{"type": "kernel", "A": [[true, 0.0]], "anchors": [[0.0, 0.0], [1.0, 0.0]], '
         b'"lambda_cap": 1.0, "kernel": {"family": "rbf"}}', "field 'A'"),
        (b'{"type": "kernel", "A": [[1.0, 0.0]], "anchors": [[0.0, false], [1.0, 0.0]], '
         b'"lambda_cap": 1.0, "kernel": {"family": "rbf"}}', "field 'anchors'"),
    ],
    ids=["list", "string", "text_cap", "text_entry", "string_kernel", "not_utf8", "truncated",
         "linear_without_W", "kernel_without_family", "nan_cap", "infinite_degree",
         "deep_nesting", "fractional_degree", "bool_cap", "numeric_string_cap",
         "numeric_string_gamma", "numeric_string_entry", "bool_degree", "bool_in_W",
         "bool_in_A", "bool_in_anchors"],
)
def test_malformed_model_is_validation_error(tmp_path, capsys, payload, named):
    _identity_fixture(tmp_path)
    raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    (tmp_path / "model.json").write_bytes(raw)
    code = main(
        [
            "certify",
            "--model", str(tmp_path / "model.json"),
            "--features", str(tmp_path / "features.csv"),
            "--distances", str(tmp_path / "distances.csv"),
            "--out", str(tmp_path / "cert"),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    if named is not None:
        assert named in err


def test_loaded_kernel_model_failing_the_psd_check_is_validation_error(
    tmp_path, capsys, monkeypatch
):
    _identity_fixture(tmp_path)
    (tmp_path / "model.json").write_bytes(
        b'{"type": "kernel", ' + _KERNEL_MODEL + b', "kernel": {"family": "rbf"}}'
    )
    args = [
        "certify",
        "--model", str(tmp_path / "model.json"),
        "--features", str(tmp_path / "features.csv"),
        "--distances", str(tmp_path / "distances.csv"),
        "--out", str(tmp_path / "cert"),
    ]
    # a negative tolerance fails every Gram matrix whose eigenvalues differ
    monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", -1.0)
    assert main(args) == 4
    assert "fails the PSD check" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(args) == 0


def _available_memory(monkeypatch, nbytes: int) -> None:
    """Make the m x m budget check in core read ``nbytes`` of available memory."""
    monkeypatch.setattr(core_module, "_available_memory", lambda: nbytes)


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_targets_beyond_the_physical_memory_exit_4(tmp_path, capsys, monkeypatch, command):
    # one check counts the target matrix at m = 20 with the draw beside it,
    # 1 + 2.42 m x m arrays: 8 x 20^2 x 3.42 = 10944 bytes; verify's
    # holdout of 20 points, counted first, needs 2.42 arrays
    extra = ["--trials", "1", "--max-iters", "5", "--n-holdout", "20"]
    args = [command, "--m", "20", *(extra if command == "verify" else []), "--out", str(tmp_path)]
    _available_memory(monkeypatch, 10943)
    assert main(args) == 4
    line = _one_error_line(capsys)
    assert "the synthetic sample at m = 20 needs" in line and "above RAM" in line
    _available_memory(monkeypatch, 10944)
    if command == "gen":
        assert main(args) == 0
    else:
        # the instance is drawn, and training's arrays are counted next
        assert main(args) == 4
        assert "training at m = 20 needs" in _one_error_line(capsys)
    _available_memory(monkeypatch, 2**30)
    assert main(args) == 0


_SIZE_FLAGS = [
    ("train", ["--k", "10000000000"], "training at m = 100 needs"),
    ("verify", ["--k", "10000000000"], "training at m = 12 needs"),
    ("gen", ["--n", "10000000000"], "the synthetic sample at m = 50 needs"),
    ("gen", ["--k-true", "10000000000"], "the synthetic sample at m = 50 needs"),
    ("verify", ["--n-holdout", "10000000000"], "the synthetic sample at m = 10000000000 needs"),
]


@pytest.mark.parametrize(
    "command,flags,named", _SIZE_FLAGS, ids=[" ".join([c, *f]) for c, f, _ in _SIZE_FLAGS]
)
def test_a_size_beyond_the_available_memory_exits_4_before_it_allocates(
    tmp_path, capsys, monkeypatch, command, flags, named
):
    # 1 GiB holds every other array of these runs; the flag's arrays are
    # counted before any of them is allocated
    _identity_fixture(tmp_path)
    inputs = {
        "gen": [],
        "train": ["--max-iters", "5", "--features", str(tmp_path / "features.csv"),
                  "--distances", str(tmp_path / "distances.csv")],
        "verify": ["--m", "12", "--trials", "1", "--max-iters", "5"],
    }[command]
    _available_memory(monkeypatch, 2**30)
    assert main([command, *inputs, *flags, "--out", str(tmp_path / "run")]) == 4
    line = _one_error_line(capsys)
    assert named in line and "above RAM" in line


def test_kernel_model_whose_gram_matrix_exceeds_the_physical_memory_exits_4(
    tmp_path, capsys, monkeypatch
):
    _identity_fixture(tmp_path)
    (tmp_path / "model.json").write_bytes(
        b'{"type": "kernel", ' + _KERNEL_MODEL + b', "kernel": {"family": "rbf"}}'
    )
    args = [
        "certify",
        "--model", str(tmp_path / "model.json"),
        "--features", str(tmp_path / "features.csv"),
        "--distances", str(tmp_path / "distances.csv"),
        "--out", str(tmp_path / "cert"),
    ]
    # the round-off certificate accepts its 2 anchors' RBF Gram matrix, the
    # one m x m array it then holds: 8 x 2^2 = 32 bytes
    _available_memory(monkeypatch, 31)
    assert main(args) == 4
    assert "malformed kernel model: the Gram matrix at m = 2 needs" in _one_error_line(capsys)
    # the model now loads, and the 100-point distances CSV is sized next
    _available_memory(monkeypatch, 32)
    assert main(args) == 4
    assert "distances.csv: the distance matrix at m = 100 needs" in _one_error_line(capsys)
    _available_memory(monkeypatch, 8 * 100**2 - 1)
    assert main(args) == 4
    assert "distances.csv: the distance matrix at m = 100 needs" in _one_error_line(capsys)
    _available_memory(monkeypatch, 8 * 100**2)
    assert main(args) == 0


def test_kernel_model_of_the_wrong_width_exits_4_before_its_gram_matrix(
    tmp_path, capsys, count_calls
):
    _identity_fixture(tmp_path)
    (tmp_path / "model.json").write_bytes(
        b'{"type": "kernel", "A": [[1.0, 0.0, 2.0]], "anchors": [[0.0, 0.0], [1.0, 0.0]], '
        b'"lambda_cap": 1.0, "kernel": {"family": "rbf"}}'
    )
    calls = count_calls(gram)
    args = [
        "certify",
        "--model", str(tmp_path / "model.json"),
        "--features", str(tmp_path / "features.csv"),
        "--distances", str(tmp_path / "distances.csv"),
        "--out", str(tmp_path / "cert"),
    ]
    assert main(args) == 4
    assert "coefficient matrix has 3 columns for 2 anchors" in _one_error_line(capsys)
    assert calls == []


def test_distances_csv_beyond_the_physical_memory_exits_4_before_it_is_read(
    tmp_path, capsys, monkeypatch
):
    features = np.random.default_rng(16).normal(size=(20, 2))
    write_matrix_csv(tmp_path / "features.csv", features)
    write_matrix_csv(tmp_path / "distances.csv", pairwise_distances(features))
    loaded = []
    loadtxt = np.loadtxt

    def recorded(fname, *args, **kwargs):
        loaded.append(str(fname))
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recorded)
    distances = str(tmp_path / "distances.csv")
    args = [
        "train", "--features", str(tmp_path / "features.csv"), "--distances", distances,
        "--max-iters", "5", "--out", str(tmp_path / "run"),
    ]
    # the loaded array, repaired in place and kept: 8 x 20^2 bytes
    _available_memory(monkeypatch, 8 * 20**2 - 1)
    assert main(args) == 4
    line = _one_error_line(capsys)
    assert "distances.csv: the distance matrix at m = 20 needs" in line and "above RAM" in line
    assert distances not in loaded
    # the matrix is read once it fits, and training's arrays are counted next
    _available_memory(monkeypatch, 8 * 20**2)
    assert main(args) == 4
    assert "training at m = 20 needs" in _one_error_line(capsys)
    assert loaded.count(distances) == 1
    _available_memory(monkeypatch, 2**30)
    assert main(args) == 0
    assert loaded.count(distances) == 2


def test_distances_csv_is_held_once_from_load_to_targets(tmp_path):
    # m = 1000: the loaded array (8 MB) is repaired in place and kept by the
    # DistanceMatrix; np.loadtxt's own buffers, the repair's scratch plane
    # and the checks' m x m bool masks stay below a quarter more
    m = 1000
    features = np.random.default_rng(17).normal(size=(m, 3))
    write_matrix_csv(tmp_path / "features.csv", features)
    write_matrix_csv(tmp_path / "distances.csv", pairwise_distances(features))
    args = SimpleNamespace(
        features=tmp_path / "features.csv", distances=tmp_path / "distances.csv", tol=1e-9
    )
    tracemalloc.start()
    try:
        _, distances = cli_module._load_problem(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distances.size == m
    assert peak < 1.25 * 8 * m * m


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("simcert: error:"), lines
    return lines[0]


@pytest.mark.filterwarnings("error")
def test_overflowing_radius_prints_one_error_line(tmp_path, capsys):
    assert main(["gen", "--radius", "1e300", "--out", str(tmp_path)]) == 4
    assert "non-finite" in _one_error_line(capsys)


@pytest.mark.filterwarnings("error")
def test_overflowing_kernel_prints_one_error_line(tmp_path, capsys):
    _identity_fixture(tmp_path)
    args = [
        "train",
        "--features", str(tmp_path / "features.csv"),
        "--distances", str(tmp_path / "distances.csv"),
        "--class", "kernel", "--kernel", "poly", "--degree", "1000000",
        "--out", str(tmp_path / "run"),
    ]
    assert main(args) == 4
    assert "non-finite" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "certify"])
def test_overflowing_features_print_one_error_line(tmp_path, capsys, command):
    # squared distances between features of magnitude 1e200 overflow
    _identity_fixture(tmp_path)
    huge = read_matrix_csv(tmp_path / "features.csv") * 1e200
    write_matrix_csv(tmp_path / "features.csv", huge)
    out = tmp_path / "run"
    problem = [
        "--features", str(tmp_path / "features.csv"),
        "--distances", str(tmp_path / "distances.csv"),
        "--out", str(out),
    ]
    model = ["--model", str(tmp_path / "model.json")] if command == "certify" else []
    assert main([command, *model, *problem]) == 4
    assert "too large" in _one_error_line(capsys)
    assert not out.exists()


def test_overflowing_complexity_term_prints_one_error_line(tmp_path, capsys):
    # lambda^2 = 1e400 overflows the closed-form complexity bound
    _identity_fixture(tmp_path)
    (tmp_path / "model.json").write_text(
        json.dumps({"type": "linear", "lambda_cap": 1e200, "W": [[1.0, 0.0], [0.0, 1.0]]})
    )
    args = [
        "certify",
        "--model", str(tmp_path / "model.json"),
        "--features", str(tmp_path / "features.csv"),
        "--distances", str(tmp_path / "distances.csv"),
        "--out", str(tmp_path / "cert"),
    ]
    assert main(args) == 4
    assert "must be finite" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "certify"])
@pytest.mark.parametrize(
    "text",
    ["1.0,0.0\n0.5,abc\n", "1.0,0.0\n0.5\n", ""],
    ids=["non_numeric", "ragged", "empty"],
)
def test_malformed_csv_is_validation_error(tmp_path, capsys, command, text):
    _identity_fixture(tmp_path)
    (tmp_path / "features.csv").write_text(text)
    model = ["--model", str(tmp_path / "model.json")] if command == "certify" else []
    code = main(
        [
            command,
            *model,
            "--features", str(tmp_path / "features.csv"),
            "--distances", str(tmp_path / "distances.csv"),
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 4
    assert "features.csv" in _one_error_line(capsys)


_REJECTED_FLAGS = [
    ("train", ["--tol", "nan"], "tol"),
    ("certify", ["--tol", "nan"], "tol"),
    ("certify", ["--tol", "inf"], "tol"),
    ("train", ["--step-size", "inf"], "step_size"),
    ("train", ["--grad-tol", "inf"], "grad_tol"),
    ("train", ["--lambda-cap", "nan"], "lambda_cap"),
    ("train", ["--lambda-cap", "inf"], "lambda_cap"),
    ("train", ["--class", "kernel", "--gamma", "inf"], "gamma"),
    ("train", ["--class", "kernel", "--kernel", "poly", "--coef0", "nan"], "coef0"),
    ("gen", ["--noise", "nan"], "noise_sigma"),
    ("gen", ["--noise", "inf"], "noise_sigma"),
    ("gen", ["--radius", "inf"], "radius"),
    ("gen", ["--map-norm", "inf"], "map_norm"),
    ("gen", ["--seed", "-1"], "seed"),
    ("train", ["--seed", "-1"], "seed"),
    ("verify", ["--seed", "-1"], "seed"),
    ("verify", ["--n-holdout", "1"], "n_holdout"),
    ("certify", ["--delta", "1.5"], "delta"),
    ("verify", ["--delta", "0"], "delta"),
    ("verify", ["--trials", "0"], "n_trials"),
]


@pytest.mark.parametrize(
    "command,flags,named", _REJECTED_FLAGS, ids=[" ".join([c, *f]) for c, f, _ in _REJECTED_FLAGS]
)
def test_rejected_flag_value_is_usage_error(tmp_path, capsys, command, flags, named):
    # NaN fails every x < 0 test, so each check must be written to reject it
    _identity_fixture(tmp_path)
    inputs = {
        "gen": [],
        "train": ["--max-iters", "5"],
        "certify": ["--model", str(tmp_path / "model.json")],
        "verify": ["--m", "12", "--trials", "1", "--max-iters", "5"],
    }[command]
    if command in ("train", "certify"):
        inputs += ["--features", str(tmp_path / "features.csv"),
                   "--distances", str(tmp_path / "distances.csv")]
    assert main([command, *inputs, *flags, "--out", str(tmp_path / "run")]) == 2
    assert named in _one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--eps", "--penalty"])
@pytest.mark.parametrize("command", ["train", "verify"])
def test_a_removed_flag_is_unknown(tmp_path, capsys, command, flag):
    # the descent takes the exact gradient, which has no smoothing to set,
    # and minimizes the stress alone, since the certificate covers the ball
    required = ["--features", "f.csv", "--distances", "d.csv"] if command == "train" else []
    assert main([command, *required, flag, "0.1", "--out", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _diverging_train(tmp_path, scale, *flags):
    """main's exit code for train on a 10-point gen instance whose features
    are multiplied by ``scale``."""
    data = tmp_path / "data"
    assert main(["gen", "--m", "10", "--out", str(data)]) == 0
    features = read_matrix_csv(data / "features.csv") * scale
    write_matrix_csv(data / "features.csv", features)
    return main(
        [
            "train",
            "--features", str(data / "features.csv"),
            "--distances", str(data / "distances.csv"),
            *flags,
            "--out", str(tmp_path / "run"),
        ]
    )


def test_diverging_train_whose_risk_overflows_is_validation_error(tmp_path, capsys):
    # the risk of the diverged map overflows, so no strict JSON report exists
    flags = ("--lambda-cap", "1e200", "--step-size", "1e200")
    assert _diverging_train(tmp_path, 1.0, *flags) == 4
    assert "non-finite" in _one_error_line(capsys)
    assert list((tmp_path / "run").iterdir()) == []
    # a report already there is left as it was, and no temporary is left
    report = tmp_path / "run" / "train_report.json"
    report.write_bytes(b'{"earlier": "run"}\n')
    assert _diverging_train(tmp_path, 1.0, *flags) == 4
    assert "non-finite" in _one_error_line(capsys)
    assert report.read_bytes() == b'{"earlier": "run"}\n'
    assert list((tmp_path / "run").iterdir()) == [report]


def test_diverging_train_whose_embedding_overflows_says_it_diverged(tmp_path, capsys):
    flags = ("--lambda-cap", "1e300", "--step-size", "1e100")
    assert _diverging_train(tmp_path, 1e100, *flags) == 4
    assert "training diverged" in _one_error_line(capsys)
    assert not (tmp_path / "run").exists()


def test_diverging_train_on_huge_features_reports_without_warnings(tmp_path, capsys):
    # features of magnitude 1e100 diverge at the default step; pytest turns
    # every warning into an error
    assert _diverging_train(tmp_path, 1e100) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "run" / "train_report.json").read_text())
    assert report["converged"] is False
    assert report["stop_reason"] == "diverged"
    assert np.isfinite(report["final_risk"]) and report["final_risk"] > 1e12


class TestVerify:
    def _run(self, out, *extra):
        return main(
            [
                "verify",
                "--m", "12",
                "--trials", "3",
                "--max-iters", "150",
                "--n-holdout", "36",
                "--out", str(out),
                *extra,
            ]
        )

    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "verify"
        assert self._run(out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["coverage_rate"] >= 0.95
        assert report["passed"] is True
        assert (out / "trials.csv").exists()
        assert report["config"]["seed"] == 0

    def test_each_trial_says_why_its_fit_stopped(self, tmp_path):
        out = tmp_path / "verify"
        assert self._run(out) == 0
        trials = json.loads((out / "report.json").read_text())["trials"]
        assert [t["stop_reason"] for t in trials] == ["converged"] * 3
        assert all(t["converged"] and 0 < t["iterations_used"] < 150 for t in trials)
        assert self._run(out, "--max-iters", "2") == 0
        trials = json.loads((out / "report.json").read_text())["trials"]
        assert [(t["stop_reason"], t["iterations_used"]) for t in trials] == [("max_iters", 2)] * 3
        header = (out / "trials.csv").read_text().splitlines()[0]
        assert header == "trial,train_risk,holdout_risk,gap,slack,covered"

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "verify"
        assert self._run(out) == 0
        names = ("report.json", "trials.csv")
        first = _read_bytes(out, names)
        assert self._run(out) == 0
        assert _read_bytes(out, names) == first

    def test_single_trial_coverage_is_zero_or_one(self, tmp_path):
        out = tmp_path / "verify"
        assert main(
            [
                "verify",
                "--m", "12",
                "--trials", "1",
                "--max-iters", "100",
                "--n-holdout", "24",
                "--out", str(out),
            ]
        ) in (0, 5)
        report = json.loads((out / "report.json").read_text())
        assert report["coverage_rate"] in (0.0, 1.0)

    def test_bad_delta_is_usage_error(self, tmp_path):
        assert self._run(tmp_path, "--delta", "1.5") == 2

    @pytest.mark.parametrize("delta,code", [("1", 0), ("0", 2)])
    def test_delta_domain_is_the_library_one(self, tmp_path, delta, code):
        # the library's (0, 1]; 1.5 is checked above
        assert self._run(tmp_path / "verify", "--delta", delta) == code

    def test_bad_trials_is_usage_error(self, tmp_path):
        assert main(["verify", "--trials", "0", "--out", str(tmp_path)]) == 2
