"""Synthetic generator, holdout estimation, and the coverage experiment."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import simcert.core as core_module

from simcert import (
    DistanceMatrix,
    KernelClass,
    KernelSpec,
    LinearClass,
    LinearMap,
    SampleMatrix,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    certify,
    data_radii,
    embedding_distance_matrix,
    empirical_risk,
    generate_synthetic,
    holdout_risk,
    pairwise_distances,
    run_coverage_experiment,
    train,
    validate_distance_matrix,
)
from simcert.harness import _MAP_STREAM, _SAMPLE_STREAM, hidden_map, write_trials_csv


def _materialized_draw(spec):
    """The generator as it was written with an m x m noise matrix: the
    reference the streamed draws are held to."""
    rng = np.random.default_rng([_MAP_STREAM, spec.n_features, spec.k_true])
    w = rng.standard_normal((spec.k_true, spec.n_features))
    w_true = w * (spec.map_norm / np.linalg.norm(w, 2))
    rng = np.random.default_rng([_SAMPLE_STREAM, spec.seed])
    direction = rng.standard_normal((spec.m, spec.n_features))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radii = spec.radius * rng.random(spec.m) ** (1.0 / spec.n_features)
    x = direction * radii[:, None]
    d = pairwise_distances(x @ w_true.T)
    if spec.noise_sigma > 0.0:
        noise = rng.standard_normal((spec.m, spec.m))
        noise *= spec.noise_sigma
        for i in range(spec.m):
            noise[i, : i + 1] = 0.0
        d += noise
        d += noise.T
        np.maximum(d, 0.0, out=d)
        np.fill_diagonal(d, 0.0)
    return x, d, w_true


def _spec(**overrides):
    base = dict(
        m=12, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.0, seed=0
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_deterministic_for_fixed_seed(self):
        s1, d1, w1 = generate_synthetic(_spec(seed=5))
        s2, d2, w2 = generate_synthetic(_spec(seed=5))
        assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(w1, w2)

    def test_noiseless_targets_realized_by_hidden_map(self):
        sample, distances, w_true = generate_synthetic(_spec(seed=3))
        model = LinearMap(w_true, np.linalg.norm(w_true, 2))
        assert empirical_risk(embedding_distance_matrix(model, sample), distances) == 0.0

    def test_features_stay_in_radius(self):
        for seed in range(10):
            spec = _spec(seed=seed, radius=0.7)
            sample, distances, _ = generate_synthetic(spec)
            assert data_radii(sample, distances).r <= spec.radius

    def test_targets_pass_strict_validation(self):
        for noise in (0.0, 0.2):
            _, distances, _ = generate_synthetic(_spec(seed=2, noise_sigma=noise))
            validate_distance_matrix(distances.values, tol=0.0)

    def test_hidden_map_norm_matches_spec(self):
        spec = _spec(map_norm=1.7)
        w = hidden_map(spec)
        assert np.linalg.norm(w, 2) == pytest.approx(1.7, abs=1e-12)

    def test_hidden_map_shared_across_seeds(self):
        # the law is fixed by the structural fields; seeds draw fresh samples
        assert np.array_equal(hidden_map(_spec(seed=0)), hidden_map(_spec(seed=99)))

    def test_noise_perturbs_targets(self):
        _, clean, _ = generate_synthetic(_spec(seed=4))
        _, noisy, _ = generate_synthetic(_spec(seed=4, noise_sigma=0.3))
        assert not np.array_equal(clean.values, noisy.values)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("m", [2, 50, 300, 777, 1000])
    def test_bitwise_equal_to_the_materialized_draw(self, m, noise):
        # from m = 300 on the noise spans several row blocks
        spec = _spec(m=m, n_features=3, noise_sigma=noise, seed=m)
        sample, distances, w_true = generate_synthetic(spec)
        for got, want in zip((sample.values, distances.values, w_true), _materialized_draw(spec)):
            assert got.tobytes() == want.tobytes()

    def test_working_memory_holds_one_target_matrix(self):
        # m = 1000: the target matrix (8 MB) is kept by the DistanceMatrix;
        # beyond it, two (b x m) planes of _target_rows and the checks' m x m
        # bool masks (1 MB each)
        m = 1000
        spec = _spec(m=m, n_features=3, noise_sigma=0.05, seed=1)
        generate_synthetic(spec)
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m + 2 * core_module._BLOCK_BYTES + 2 * m * m

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            _spec(m=1)
        with pytest.raises(ValidationError):
            _spec(radius=0.0)
        with pytest.raises(ValidationError):
            _spec(noise_sigma=-0.1)
        with pytest.raises(ValidationError, match="seed"):
            _spec(seed=-1)


class TestHoldoutRisk:
    def test_same_seed_same_size_equals_train_risk(self):
        spec = _spec(seed=6, noise_sigma=0.1)
        sample, distances, w_true = generate_synthetic(spec)
        model = LinearMap(w_true, 2.0)
        train_risk = certify(model, sample, distances, 0.05).empirical_risk
        assert holdout_risk(model, spec, n_holdout=spec.m) == train_risk

    @pytest.mark.parametrize("n", [2, 3, 500, 1200])
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_matches_the_materialized_risk(self, kind, n):
        spec = _spec(m=30, n_features=3, noise_sigma=0.05, seed=1)
        sample, distances, _ = generate_synthetic(spec)
        hclass = (
            LinearClass(2.0, k=2) if kind == "linear"
            else KernelClass(KernelSpec("rbf", gamma=0.5), 2.0, k=2)
        )
        model, _ = train(sample, distances, hclass, TrainConfig(max_iters=40))
        fresh = dataclasses.replace(spec, m=n, seed=40 + n)
        x, d, _ = _materialized_draw(fresh)
        oracle = float(np.mean((embedding_distance_matrix(model, SampleMatrix(x)) - d) ** 2))
        got = holdout_risk(model, fresh, n_holdout=n)
        assert type(got) is float
        assert abs(got - oracle) <= 1e-14 * oracle

    @pytest.mark.parametrize(
        "scale", [1e100, 1e200], ids=["distances_overflow", "pushforward_overflows"]
    )
    def test_overflowing_targets_rejected(self, scale):
        spec = _spec(radius=scale, map_norm=scale)
        model = LinearMap(np.eye(2), 1.0)
        with pytest.raises(ValidationError):
            generate_synthetic(spec)
        with pytest.raises(ValidationError):
            holdout_risk(model, spec, n_holdout=50)

    def test_working_memory_stays_far_below_one_holdout_matrix(self):
        # one n x n float matrix at n = 2000 takes 32 MB
        spec = _spec(noise_sigma=0.05)
        model = LinearMap(np.eye(2), 2.0)
        holdout_risk(model, spec, n_holdout=50)
        tracemalloc.start()
        try:
            holdout_risk(model, spec, n_holdout=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_true_map_scores_zero_without_noise(self):
        spec = _spec(seed=7)
        _, _, w_true = generate_synthetic(spec)
        model = LinearMap(w_true, 2.0)
        fresh = dataclasses.replace(spec, seed=1234)
        assert holdout_risk(model, fresh, n_holdout=100) == 0.0

    def test_zero_predictions_constant_targets(self):
        # closed form with zero predictions: risk = c^2 (n-1) / n
        n, c = 30, 0.5
        targets = DistanceMatrix(c * (np.ones((n, n)) - np.eye(n)))
        model = LinearMap(np.zeros((2, 2)), 1.0)
        sample = SampleMatrix(np.zeros((n, 2)))
        risk = empirical_risk(embedding_distance_matrix(model, sample), targets)
        assert risk == pytest.approx(c**2 * (n - 1) / n, abs=1e-12)

    def test_small_holdout_rejected(self):
        spec = _spec()
        model = LinearMap(np.eye(2), 1.0)
        with pytest.raises(ValidationError):
            holdout_risk(model, spec, n_holdout=1)


class TestCoverageExperiment:
    def test_deterministic_reports(self):
        spec = _spec(noise_sigma=0.05)
        cfg = TrainConfig(max_iters=150, seed=0)
        hclass = LinearClass(lambda_cap=2.0, k=2)
        a = run_coverage_experiment(spec, hclass, cfg, 0.05, n_trials=3, n_holdout=40)
        b = run_coverage_experiment(spec, hclass, cfg, 0.05, n_trials=3, n_holdout=40)
        assert a == b

    # budgets below 1, where a per-pair bound lam max(2 r, beta) covered as
    # few as 18 of 40 trials: (lambda_cap, radius, noise, k, step_size)
    @pytest.mark.parametrize(
        "cap, radius, noise, k, step",
        [
            (0.02, 1.0, 0.0, 3, 0.25),
            (0.05, 1.0, 0.3, 3, 0.25),
            (0.05, 3.0, 0.0, 3, 0.25),
            (0.2, 3.0, 0.5, 3, 0.25),
            (0.3, 10.0, 3.0, 1, 0.0025),
        ],
    )
    def test_certificate_covers_below_a_unit_budget(self, cap, radius, noise, k, step):
        spec = SyntheticSpec(
            m=50, n_features=5, k_true=3, radius=radius, map_norm=1.0, noise_sigma=noise, seed=0
        )
        report = run_coverage_experiment(
            spec, LinearClass(lambda_cap=cap, k=k),
            TrainConfig(step_size=step, max_iters=300, seed=0), 0.05, n_trials=40,
        )
        assert report.coverage_rate >= 0.95

    def test_single_trial_coverage_is_zero_or_one(self):
        report = run_coverage_experiment(
            _spec(), LinearClass(lambda_cap=2.0, k=2), TrainConfig(max_iters=100),
            0.05, n_trials=1, n_holdout=30,
        )
        assert report.coverage_rate in (0.0, 1.0)

    def test_loose_slack_covers_every_trial(self):
        report = run_coverage_experiment(
            _spec(noise_sigma=0.05), LinearClass(lambda_cap=2.0, k=2),
            TrainConfig(max_iters=300), 0.05, n_trials=5, n_holdout=60,
        )
        assert report.coverage_rate == 1.0
        assert report.passed
        assert report.n_trials == 5

    def test_realizable_trials_reach_tiny_risk(self):
        report = run_coverage_experiment(
            _spec(m=20), LinearClass(lambda_cap=2.0, k=2),
            TrainConfig(max_iters=3000), 0.05, n_trials=5, n_holdout=40,
        )
        small = sum(t.train_risk < 1e-6 for t in report.trials)
        assert small >= 0.95 * report.n_trials

    def test_non_convergent_trials_flagged_and_counted(self):
        report = run_coverage_experiment(
            _spec(noise_sigma=0.1), LinearClass(lambda_cap=2.0, k=2),
            TrainConfig(max_iters=1), 0.05, n_trials=3, n_holdout=30,
        )
        assert report.n_trials == 3
        assert all(not t.converged for t in report.trials)

    def test_gap_and_coverage_consistent(self):
        report = run_coverage_experiment(
            _spec(noise_sigma=0.05), LinearClass(lambda_cap=2.0, k=2),
            TrainConfig(max_iters=100), 0.05, n_trials=4, n_holdout=30,
        )
        for t in report.trials:
            assert t.gap == t.holdout_risk - t.train_risk
            assert t.covered == (t.gap <= t.certificate_slack)

    def test_trials_csv_format(self, tmp_path):
        report = run_coverage_experiment(
            _spec(), LinearClass(lambda_cap=2.0, k=2), TrainConfig(max_iters=50),
            0.05, n_trials=2, n_holdout=24,
        )
        path = tmp_path / "trials.csv"
        write_trials_csv(path, report)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "trial,train_risk,holdout_risk,gap,slack,covered"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == report.trials[0].train_risk

    def test_an_error_part_way_through_the_trials_csv_leaves_the_old_file(
        self, tmp_path, fail_write
    ):
        report = run_coverage_experiment(
            _spec(), LinearClass(lambda_cap=2.0, k=2), TrainConfig(max_iters=5),
            0.05, n_trials=3, n_holdout=24,
        )
        path = tmp_path / "trials.csv"
        path.write_bytes(b"old\n")
        # the header and one trial are written before the error
        fail_write(2)
        with pytest.raises(OSError, match="No space left"):
            write_trials_csv(path, report)
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]
