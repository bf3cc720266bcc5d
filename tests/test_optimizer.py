"""Gradients against finite differences, objectives, and training runs."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simcert.core as core_module
import simcert.kernels as kernels_module
import simcert.optimizer as optimizer_module

from simcert import (
    DistanceMatrix,
    KernelClass,
    KernelMap,
    KernelSpec,
    LinearClass,
    LinearMap,
    SampleMatrix,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    certify,
    embedding_distance_matrix,
    empirical_risk,
    generate_synthetic,
    model_norm,
    pairwise_distances,
    risk_gradient,
    train,
    validate_distance_matrix,
)
from simcert.core import gram_form_squared_distances
from simcert.hypotheses import project_norm_ball
from simcert.kernels import gram, kernel_columns
from simcert.optimizer import (
    DIVERGENCE_RISK,
    initialize_model,
    norm_subgradient,
    projected_path,
    stress_state,
    weighted_stress_gradient,
    weighted_stress_value,
)


def direct_risk(model, sample, distances):
    """The empirical risk from the direct-form embedded distances."""
    return empirical_risk(embedding_distance_matrix(model, sample), distances)


def finite_difference_gradient(model, sample, distances, step=1e-5):
    """Central finite differences of the empirical risk, entry by entry."""
    base = model.params
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        bumped = base.copy()
        bumped[idx] += step
        up = direct_risk(model.with_params(bumped), sample, distances)
        bumped[idx] -= 2 * step
        down = direct_risk(model.with_params(bumped), sample, distances)
        grad[idx] = (up - down) / (2 * step)
    return grad


def random_instance(seed, kernel=None):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    sample = SampleMatrix(rng.normal(size=(m, n)))
    distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, k))))
    if kernel is None:
        model = LinearMap(rng.normal(size=(k, n)), 1e6)
    else:
        model = KernelMap(rng.normal(size=(k, m)) * 0.5, gram(kernel, sample), 1e6)
    return model, sample, distances


class TestRiskGradient:
    def test_one_dimensional_hand_value(self):
        # loss(w) = (2/4)(|w| - 1)^2 for two points one unit apart, target 1;
        # derivative at w = 2 is 1
        sample = SampleMatrix([[0.0], [1.0]])
        distances = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
        model = LinearMap([[2.0]], 100.0)
        grad = risk_gradient(model, sample, distances)
        assert grad.shape == (1, 1)
        assert grad[0, 0] == pytest.approx(1.0, abs=1e-12)
        fd = finite_difference_gradient(model, sample, distances)
        assert grad[0, 0] == pytest.approx(fd[0, 0], rel=1e-6)

    def test_perfect_fit_zero_gradient(self):
        # integer coordinates keep both distance routes exact
        sample = SampleMatrix([[0.0, 0.0], [3.0, 4.0]])
        distances = DistanceMatrix(pairwise_distances(sample.values))
        model = LinearMap(np.eye(2), 10.0)
        grad = risk_gradient(model, sample, distances)
        assert np.all(grad == 0.0)

    def test_zero_map_subgradient_convention(self):
        rng = np.random.default_rng(0)
        sample = SampleMatrix(rng.normal(size=(4, 2)))
        distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(4, 2))))
        model = LinearMap(np.zeros((2, 2)), 1.0)
        grad = risk_gradient(model, sample, distances)
        assert np.all(grad == 0.0)

    def test_matches_finite_differences_linear(self):
        for seed in range(10):
            model, sample, distances = random_instance(seed)
            grad = risk_gradient(model, sample, distances)
            fd = finite_difference_gradient(model, sample, distances)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5, f"seed {seed}: relative error {rel:g}"

    def test_matches_finite_differences_kernel(self):
        kernels = [KernelSpec("rbf", gamma=0.7), KernelSpec("linear"), KernelSpec("polynomial")]
        for seed in range(9):
            model, sample, distances = random_instance(seed + 100, kernel=kernels[seed % 3])
            grad = risk_gradient(model, sample, distances)
            fd = finite_difference_gradient(model, sample, distances)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5, f"seed {seed}: relative error {rel:g}"


class TestWeightedStress:
    def test_unit_weights_match_the_unweighted_risk(self):
        for seed, kernel in [(20, None), (21, KernelSpec("rbf", gamma=0.7))]:
            model, sample, distances = random_instance(seed, kernel=kernel)
            ones = np.ones((sample.m, sample.m))
            assert np.array_equal(
                weighted_stress_gradient(model, sample, distances, ones),
                risk_gradient(model, sample, distances),
            )
            direct = empirical_risk(embedding_distance_matrix(model, sample), distances)
            assert weighted_stress_value(model, sample, distances, ones) == pytest.approx(
                direct, rel=1e-12
            )

    def test_signs_flip_each_pair_term(self):
        model, sample, distances = random_instance(22)
        resid = embedding_distance_matrix(model, sample) - distances.values
        signs = np.where(np.add.outer(np.arange(sample.m), np.arange(sample.m)) % 2, -1.0, 1.0)
        expected = float(np.mean(signs * resid * resid))
        assert weighted_stress_value(model, sample, distances, signs) == pytest.approx(
            expected, rel=1e-12, abs=1e-15
        )


BLOCK_ROWS = 8
FAMILIES = {
    "linear": None,
    "rbf": KernelSpec("rbf", gamma=0.5),
    "polynomial": KernelSpec("polynomial", degree=2, coef0=1.0),
}


def block_rows(monkeypatch, m, rows=BLOCK_ROWS):
    """Make stress_state visit an m-point sample in blocks of ``rows`` rows."""
    monkeypatch.setattr(core_module, "_BLOCK_BYTES", 8 * m * rows)


def pair_features(model, sample):
    return sample.values if isinstance(model, LinearMap) else model.gram.values


def symmetric_signs(rng, m):
    upper = np.triu(rng.choice([-1.0, 1.0], size=(m, m)))
    return upper + np.triu(upper, 1).T


def full_matrix_state(model, sample, distances, weights):
    """(value, grad) from the full m x m formula P F^T (diag(a 1) - a) F.

    The formula stress_state used before it was row-blocked and regrouped
    through the embedding, kept here as the reference.
    """
    param = model.params
    feats = pair_features(model, sample)
    m = sample.m
    y = feats @ param.T
    c = y @ y.T
    d = np.diag(c).copy()
    sq = np.maximum(d[:, None] + d[None, :] - 2.0 * c, 0.0)
    dist = np.sqrt(sq)
    w = np.ones((m, m)) if weights is None else weights
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(dist == 0.0, 0.0, 2.0 * w * (dist - distances.values) / dist)
    lap = np.diag(coef.sum(axis=1)) - coef
    grad = (2.0 / (m * m)) * (param @ (feats.T @ (lap @ feats)))
    value = float(np.mean(w * (dist - distances.values) ** 2))
    return value, grad


class TestRowBlockedStressState:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_the_full_matrix_formula(self, monkeypatch, family):
        rng = np.random.default_rng(sorted(FAMILIES).index(family))
        b = BLOCK_ROWS
        for m in (2, b - 1, b, b + 1, 2 * b + 5, 4 * b + 3):
            block_rows(monkeypatch, m)
            sample = SampleMatrix(rng.normal(size=(m, 3)))
            distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
            if FAMILIES[family] is None:
                model = LinearMap(rng.normal(size=(2, 3)), 1e6)
            else:
                model = KernelMap(rng.normal(size=(2, m)), gram(FAMILIES[family], sample), 1e6)
            for weights in (None, symmetric_signs(rng, m)):
                value, grad = stress_state(model, sample, distances, weights)
                ref_value, ref_grad = full_matrix_state(model, sample, distances, weights)
                case = f"m={m} weighted={weights is not None}"
                assert abs(value - ref_value) <= 1e-12 * abs(ref_value), case
                assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad), case

    def test_each_unordered_pair_is_visited_once(self, monkeypatch):
        rng = np.random.default_rng(33)
        b = BLOCK_ROWS
        for m in (b + 1, 4 * b, 4 * b + 3, 10 * b + 1):
            block_rows(monkeypatch, m)
            shapes = []

            def counted(y, start=0, stop=None, norms=None, **kwargs):
                sq = gram_form_squared_distances(y, start, stop, norms, **kwargs)
                shapes.append(sq.shape)
                return sq

            monkeypatch.setattr(optimizer_module, "gram_form_squared_distances", counted)
            sample = SampleMatrix(rng.normal(size=(m, 3)))
            distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
            stress_state(LinearMap(rng.normal(size=(2, 3)), 1e6), sample, distances, None)
            assert sum(rows for rows, _ in shapes) == m
            assert max(rows for rows, _ in shapes) <= b
            assert sum(rows * cols for rows, cols in shapes) <= m * (m + b) / 2, m

    @pytest.mark.parametrize("family", ["linear", "rbf"])
    def test_a_reused_workspace_carries_no_state(self, monkeypatch, family):
        rng = np.random.default_rng(35)
        b = BLOCK_ROWS
        for m in (b - 1, b + 1, 4 * b + 3):
            block_rows(monkeypatch, m)
            sample = SampleMatrix(rng.normal(size=(m, 3)))
            distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
            if FAMILIES[family] is None:
                model = LinearMap(rng.normal(size=(2, 3)), 1e6)
            else:
                model = KernelMap(rng.normal(size=(2, m)), gram(FAMILIES[family], sample), 1e6)
            feats = pair_features(model, sample)
            for weights in (None, symmetric_signs(rng, m)):
                args = (feats, model.params, distances.values, weights)
                work = optimizer_module._pass_workspace(m, 2)
                value, grad = optimizer_module._stress_pass(*args, work)
                # every float entry NaN and every mask entry set
                for plane in work:
                    plane.fill(np.nan if plane.dtype == float else True)
                again = optimizer_module._stress_pass(*args, work)
                case = f"m={m} weighted={weights is not None}"
                assert again[0] == value, case
                assert np.array_equal(again[1], grad), case

    @pytest.mark.parametrize("family", ["linear", "rbf"])
    def test_coincident_points_contribute_nothing(self, monkeypatch, family):
        rng = np.random.default_rng(30)
        b = BLOCK_ROWS
        m = 2 * b + 5
        block_rows(monkeypatch, m)
        x = rng.normal(size=(m, 3))
        x[3] = x[1]  # within the first block
        x[b + 2] = x[2]  # across a block boundary
        x[2 * b + 4] = x[2]  # in the last, partial block
        sample = SampleMatrix(x)
        distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
        if FAMILIES[family] is None:
            model = LinearMap(rng.normal(size=(2, 3)), 1e6)
        else:
            model = KernelMap(rng.normal(size=(2, m)), gram(FAMILIES[family], sample), 1e6)
        feats = pair_features(model, sample)
        y = feats @ model.params.T
        same = np.all(x[:, None, :] == x[None, :, :], axis=2)
        blocks = np.vstack([gram_form_squared_distances(y, s, s + b) for s in range(0, m, b)])
        assert np.all(blocks[same] == 0.0)
        assert np.all(blocks[~same] > 0.0)

        for weights in (None, symmetric_signs(rng, m)):
            w = np.ones((m, m)) if weights is None else weights
            ref_value, ref_grad = 0.0, np.zeros_like(model.params)
            for i in range(m):
                for j in range(m):
                    diff = y[i] - y[j]
                    dist = float(np.sqrt(diff @ diff))
                    resid = dist - distances.values[i, j]
                    ref_value += w[i, j] * resid * resid
                    if not same[i, j]:
                        ref_grad += (2.0 * w[i, j] * resid / dist) * np.outer(
                            diff, feats[i] - feats[j]
                        )
            value, grad = stress_state(model, sample, distances, weights)
            assert value == pytest.approx(ref_value / (m * m), rel=1e-12)
            assert np.linalg.norm(grad - ref_grad / (m * m)) <= 1e-12 * np.linalg.norm(
                ref_grad / (m * m)
            )

    @pytest.mark.parametrize("family", ["linear", "rbf"])
    def test_asymmetric_weights_give_the_full_sum(self, monkeypatch, family):
        rng = np.random.default_rng(34)
        b = BLOCK_ROWS
        for m in (b - 1, 2 * b + 5):
            block_rows(monkeypatch, m)
            sample = SampleMatrix(rng.normal(size=(m, 3)))
            distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
            if FAMILIES[family] is None:
                model = LinearMap(rng.normal(size=(2, 3)), 1e6)
            else:
                model = KernelMap(rng.normal(size=(2, m)), gram(FAMILIES[family], sample), 1e6)
            weights = rng.normal(size=(m, m))
            feats = pair_features(model, sample)
            y = feats @ model.params.T
            diff = y[:, None, :] - y[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
            resid = dist - distances.values
            ref_value = np.sum(weights * resid * resid) / (m * m)
            coef = 2.0 * weights * resid / np.where(dist > 0.0, dist, 1.0)
            fdiff = feats[:, None, :] - feats[None, :, :]
            ref_grad = np.einsum("ij,ijk,ijl->kl", coef, diff, fdiff) / (m * m)
            value, grad = stress_state(model, sample, distances, weights)
            assert value == pytest.approx(ref_value, rel=1e-12), m
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad), m
            assert weighted_stress_value(model, sample, distances, weights) == value

    def test_a_copy_of_the_anchors_uses_the_held_gram_matrix(self, count_calls):
        model, sample, distances = random_instance(32, kernel=KernelSpec("rbf", gamma=0.5))
        expected = stress_state(model, sample, distances, None)
        calls = count_calls(kernel_columns)
        value, grad = stress_state(model, SampleMatrix(sample.values.copy()), distances, None)
        assert calls == []
        assert value == expected[0]
        assert np.array_equal(grad, expected[1])

    def test_one_step_allocates_less_than_one_pair_matrix(self):
        rng = np.random.default_rng(31)
        m = 1500
        sample = SampleMatrix(rng.normal(size=(m, 5)))
        distances = DistanceMatrix(pairwise_distances(rng.normal(size=(m, 4))))
        model = LinearMap(rng.normal(size=(4, 5)), 1e6)
        tracemalloc.start()
        try:
            stress_state(model, sample, distances, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * np.dtype(np.float64).itemsize


class TestNormSubgradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 4))
        model = LinearMap(w, 100.0)
        sub = norm_subgradient(model)
        step = 1e-6
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            bumped = w.copy()
            bumped[idx] += step
            up = model_norm(LinearMap(bumped, 100.0))
            bumped[idx] -= 2 * step
            down = model_norm(LinearMap(bumped, 100.0))
            fd[idx] = (up - down) / (2 * step)
        np.testing.assert_allclose(sub, fd, atol=1e-5)

    def test_zero_at_zero_map(self):
        assert np.all(norm_subgradient(LinearMap(np.zeros((2, 2)), 1.0)) == 0.0)


class TestTrain:
    def test_zero_iterations_returns_initialization(self):
        model, sample, distances = random_instance(2)
        cfg = TrainConfig(max_iters=0, seed=42)
        hclass = LinearClass(lambda_cap=1.0, k=2)
        trained, report = train(sample, distances, hclass, cfg)
        expected = initialize_model(hclass, sample, np.random.default_rng(42))
        assert np.array_equal(trained.weights, expected.weights)
        assert report.iterations_used == 0
        assert not report.converged
        assert report.risk_trace == ()

    def test_realizable_recovery(self):
        rng = np.random.default_rng(3)
        sample = SampleMatrix(rng.uniform(-1.0, 1.0, size=(20, 2)))
        w_true = rng.normal(size=(2, 2))
        w_true /= np.linalg.norm(w_true, 2)
        distances = DistanceMatrix(pairwise_distances(sample.values @ w_true.T))
        trained, report = train(
            sample, distances, LinearClass(lambda_cap=2.0, k=2), TrainConfig(max_iters=5000, seed=0)
        )
        assert report.final_risk < 1e-6

    def test_self_distances_reach_tiny_risk(self):
        rng = np.random.default_rng(4)
        sample = SampleMatrix(rng.uniform(-1.0, 1.0, size=(12, 2)))
        distances = DistanceMatrix(pairwise_distances(sample.values))
        trained, report = train(
            sample, distances, LinearClass(lambda_cap=1.5, k=2), TrainConfig(max_iters=5000, seed=1)
        )
        assert report.final_risk < 1e-8

    def test_final_risk_matches_returned_model(self):
        model, sample, distances = random_instance(5)
        trained, report = train(
            sample, distances, LinearClass(lambda_cap=1.0, k=2), TrainConfig(max_iters=50, seed=9)
        )
        recomputed = empirical_risk(embedding_distance_matrix(trained, sample), distances)
        assert abs(report.final_risk - recomputed) <= 1e-12

    @pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", gamma=0.5)], ids=["linear", "rbf"])
    def test_final_risk_is_certify_r_hat_bit_for_bit(self, kernel):
        # one streamed reduction gives every reported risk
        _, sample, distances = random_instance(7)
        hclass = LinearClass(2.0, k=2) if kernel is None else KernelClass(kernel, 2.0, k=2)
        trained, report = train(sample, distances, hclass, TrainConfig(max_iters=30))
        assert report.final_risk == certify(trained, sample, distances, 0.05).empirical_risk

    def test_norm_constraint_always_respected(self):
        _, sample, distances = random_instance(6)
        configs = [
            (LinearClass(lambda_cap=0.5, k=2), TrainConfig(max_iters=200, seed=0)),
            (KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=0.7, k=2),
             TrainConfig(max_iters=200, seed=0)),
        ]
        for hclass, cfg in configs:
            trained, _ = train(sample, distances, hclass, cfg)
            assert model_norm(trained) <= hclass.lambda_cap + 1e-9

    def test_descent_below_initial_risk(self):
        rng = np.random.default_rng(10)
        sample = SampleMatrix(rng.uniform(-1.0, 1.0, size=(10, 2)))
        w_true = rng.normal(size=(2, 2))
        w_true /= np.linalg.norm(w_true, 2)
        distances = DistanceMatrix(pairwise_distances(sample.values @ w_true.T))
        hclass = LinearClass(lambda_cap=2.0, k=2)
        cfg = TrainConfig(step_size=0.05, max_iters=300, seed=2)
        init = initialize_model(hclass, sample, np.random.default_rng(2))
        init_risk = empirical_risk(embedding_distance_matrix(init, sample), distances)
        _, report = train(sample, distances, hclass, cfg)
        assert report.final_risk < init_risk

    def test_bit_reproducible(self):
        _, sample, distances = random_instance(11)
        hclass = KernelClass(KernelSpec("rbf", gamma=0.8), lambda_cap=2.0, k=2)
        cfg = TrainConfig(max_iters=60, seed=123)
        first, rep_a = train(sample, distances, hclass, cfg)
        second, rep_b = train(sample, distances, hclass, cfg)
        assert np.array_equal(first.coefficients, second.coefficients)
        assert rep_a.risk_trace == rep_b.risk_trace

    def test_divergence_reported_not_raised(self):
        _, sample, distances = random_instance(12)
        hclass = LinearClass(lambda_cap=1e9, k=2)
        cfg = TrainConfig(step_size=1e9, max_iters=50, seed=0)
        trained, report = train(sample, distances, hclass, cfg)
        assert not report.converged
        assert trained is not None

    def test_divergence_with_uncapped_norm_returns_a_model(self):
        # the cap cannot hold the iterate, so the risk explodes on the first
        # step; at step 1e200 the gradient there overflows too, and the
        # divergence must still be reported rather than raised
        _, sample, distances = random_instance(12)
        rbf = KernelSpec("rbf", gamma=0.5)
        for hclass, step_size in (
            (LinearClass(lambda_cap=1e200, k=2), 1e8),
            (KernelClass(rbf, lambda_cap=1e200, k=2), 1e8),
            (LinearClass(lambda_cap=1e200, k=2), 1e200),
        ):
            cfg = TrainConfig(step_size=step_size, max_iters=50, seed=0)
            with np.errstate(over="ignore", invalid="ignore"):
                trained, report = train(sample, distances, hclass, cfg)
            assert trained is not None
            assert not report.converged
            assert report.iterations_used == 1
            assert not report.risk_trace[-1] <= 1e12

    @pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", gamma=0.5)], ids=["linear", "rbf"])
    def test_a_fit_beyond_the_available_memory_is_refused_before_it_allocates(
        self, monkeypatch, count_calls, kernel
    ):
        _, sample, distances = random_instance(8)
        m = sample.m
        hclass = LinearClass(1.0, k=2) if kernel is None else KernelClass(kernel, 1.0, k=2)
        need = math.ceil(optimizer_module._class_arrays(sample, hclass) * 8 * m * m)
        calls = count_calls(hclass.zero_map)
        monkeypatch.setattr(core_module, "_available_memory", lambda: need - 1)
        with pytest.raises(ValidationError, match=f"^training at m = {m} needs"):
            train(sample, distances, hclass, TrainConfig(max_iters=5))
        # an output dimension far beyond memory is counted, not allocated
        wide = dataclasses.replace(hclass, k=10**10)
        monkeypatch.setattr(core_module, "_available_memory", lambda: 2**30)
        with pytest.raises(ValidationError, match=f"^training at m = {m} needs"):
            train(sample, distances, wide, TrainConfig(max_iters=5))
        assert calls == []
        monkeypatch.setattr(core_module, "_available_memory", lambda: need)
        _, report = train(sample, distances, hclass, TrainConfig(max_iters=5))
        assert report.iterations_used == 5

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        sample = SampleMatrix(rng.normal(size=(4, 2)))
        distances = DistanceMatrix(np.zeros((5, 5)))
        with pytest.raises(ValidationError):
            train(sample, distances, LinearClass(lambda_cap=1.0), TrainConfig())


class TestTrainConfig:
    def test_has_no_setting_beside_the_one_objective(self):
        # the stress on the ball is the one objective: no penalty weight
        names = [field.name for field in dataclasses.fields(TrainConfig)]
        assert names == ["step_size", "max_iters", "grad_tol", "seed"]

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            TrainConfig(step_size=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(max_iters=-1)
        with pytest.raises(ValidationError):
            TrainConfig(grad_tol=0.0)
        with pytest.raises(ValidationError, match="seed"):
            TrainConfig(seed=-1)


class TestWorkCounts:
    def test_rbf_fit_builds_the_gram_matrix_once(self, count_calls):
        _, sample, distances = random_instance(15)
        hclass = KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=2.0, k=2)
        calls = count_calls(gram)
        _, report = train(sample, distances, hclass, TrainConfig(max_iters=10, seed=0))
        assert report.iterations_used == 10
        assert len(calls) == 1

    def test_distance_broadcasts_do_not_grow_with_iterations(self, count_calls):
        _, sample, distances = random_instance(16)
        calls = count_calls(pairwise_distances)
        counts = []
        for max_iters in (5, 20):
            calls.clear()
            _, report = train(
                sample, distances, LinearClass(lambda_cap=2.0, k=2),
                TrainConfig(max_iters=max_iters, seed=0),
            )
            assert report.iterations_used == max_iters
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("family", ["linear", "rbf"])
    def test_a_descent_makes_its_pass_planes_once(self, monkeypatch, family):
        # m = 200 is one row block: each plane holds m x m entries
        m = 200
        spec = SyntheticSpec(
            m=m, n_features=3, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=1
        )
        sample, distances, _ = generate_synthetic(spec)
        kernel = FAMILIES[family]
        hclass = LinearClass(2.0, k=2) if kernel is None else KernelClass(kernel, 2.0, k=2)
        start = initialize_model(hclass, sample, np.random.default_rng(0))
        plane = next(core_module._row_blocks(m))[1] * m
        made, used, large = [], [], []
        make, empty = optimizer_module._pass_workspace, np.empty

        def counted_make(*args):
            made.append(make(*args))
            return made[-1]

        def recording(y, start=0, stop=None, norms=None, *, out=None, **kwargs):
            used.append(out)
            return gram_form_squared_distances(y, start, stop, norms, out=out, **kwargs)

        def recorded_empty(shape, *args, **kwargs):
            arr = empty(shape, *args, **kwargs)
            if arr.size >= plane:
                large.append(len(used))
            return arr

        monkeypatch.setattr(optimizer_module, "_pass_workspace", counted_make)
        monkeypatch.setattr(optimizer_module, "gram_form_squared_distances", recording)
        monkeypatch.setattr(np, "empty", recorded_empty)
        _, values, reason = projected_path(
            start, sample, distances, None, TrainConfig(max_iters=20, grad_tol=1e-300)
        )
        monkeypatch.undo()
        assert (len(values), reason) == (21, "max_iters")
        assert len(made) == 1 and len(used) == 21
        # the three planes, all made before the first pass
        assert large == [0, 0, 0]
        for out in used:
            assert all(np.shares_memory(a, b) for a, b in zip(out, made[0][:3], strict=True))

    def test_derived_maps_share_the_gram_matrix_and_new_anchors_do_not(self, count_calls):
        _, sample, distances = random_instance(17)
        hclass = KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=0.01, k=2)
        model = initialize_model(hclass, sample, np.random.default_rng(0))
        calls = count_calls(gram)
        derived = project_norm_ball(model.with_params(model.params * 100.0))
        assert derived is not model
        assert derived.gram is model.gram
        assert calls == []
        copied = SampleMatrix(sample.values.copy())
        fresh = KernelMap(
            model.params, kernels_module.gram(model.gram.kernel, copied), model.lambda_cap
        )
        assert len(calls) == 1
        assert fresh.gram is not model.gram
        assert np.array_equal(fresh.gram.values, model.gram.values)
        rebuilt = fresh.with_params(fresh.params)
        assert rebuilt.gram.sample is copied
        assert rebuilt.gram is fresh.gram

    def test_held_gram_of_the_wrong_size_rejected(self):
        model, sample, _ = random_instance(18, kernel=KernelSpec("rbf"))
        other = SampleMatrix(np.vstack([sample.values, sample.values[:1] + 1.0]))
        with pytest.raises(ValidationError):
            KernelMap(np.zeros((2, other.m)), model.gram, 1.0)


class TestProjectedPath:
    def test_values_start_with_the_start_and_each_stop_has_its_reason(self):
        model, sample, distances = random_instance(3)
        cfg = TrainConfig(max_iters=5)
        start_value = stress_state(model, sample, distances, None)[0]
        _, values, reason = projected_path(model, sample, distances, None, cfg)
        assert (reason, len(values), values[0]) == ("max_iters", 6, start_value)
        loose = TrainConfig(grad_tol=1e300)
        last, values, reason = projected_path(model, sample, distances, None, loose)
        assert (reason, values) == ("converged", [start_value]) and last is model
        wild = TrainConfig(step_size=1e8, max_iters=50)
        with np.errstate(over="ignore", invalid="ignore"):
            _, values, reason = projected_path(
                LinearMap(model.params, 1e200), sample, distances, None, wild
            )
        assert reason == "diverged" and not values[-1] <= 1e12

    def test_train_is_one_descent_path(self):
        _, sample, distances = random_instance(4)
        hclass = KernelClass(FAMILIES["rbf"], lambda_cap=2.0, k=2)
        cfg = TrainConfig(max_iters=30, seed=5)
        trained, report = train(sample, distances, hclass, cfg)
        start = initialize_model(hclass, sample, np.random.default_rng(5))
        last, values, reason = projected_path(start, sample, distances, None, cfg)
        assert np.array_equal(trained.params, last.params)
        assert report.risk_trace == tuple(values[1:])
        assert report.converged == (reason == "converged")

    def test_ascent_climbs_the_signed_stress(self):
        model, sample, distances = random_instance(5)
        sigma = symmetric_signs(np.random.default_rng(0), sample.m)
        cfg = TrainConfig(max_iters=20, step_size=0.05)
        _, values, _ = projected_path(
            model.with_params(model.params * 1e-3), sample, distances, -sigma, cfg
        )
        assert min(values) < values[0]

    @pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", gamma=0.5)])
    def test_twenty_steps_build_at_most_one_map(self, monkeypatch, kernel):
        model, sample, distances = random_instance(6, kernel)
        built = []
        for cls in (LinearMap, KernelMap):
            checks = cls.__post_init__

            def counting(self, checks=checks):
                built.append(type(self))
                checks(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        cfg = TrainConfig(max_iters=20, grad_tol=1e-300)
        _, values, reason = projected_path(model, sample, distances, None, cfg)
        assert (reason, len(values)) == ("max_iters", 21)
        assert len(built) <= 1

    def test_a_descent_on_negated_signs_below_the_divergence_risk_diverges(self):
        # sigma = +1 everywhere, so the descent on -sigma grows every residual
        model, sample, distances = random_instance(5)
        sigma = np.ones((sample.m, sample.m))
        wild = TrainConfig(step_size=1e8, max_iters=50)
        _, values, reason = projected_path(
            LinearMap(model.params, 1e200), sample, distances, -sigma, wild
        )
        assert reason == "diverged" and values[-1] < -DIVERGENCE_RISK
        assert all(abs(value) <= DIVERGENCE_RISK for value in values[:-1])


@st.composite
def capped_paths(draw):
    """A small linear or RBF problem, a start on or inside the ball, and
    weights that make the path a descent (None) or an ascent (-sigma), with
    lambda_cap in [1e-3, 1e3]."""
    rbf = draw(st.booleans())
    cap = 10.0 ** draw(st.floats(-3.0, 3.0))
    start_scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    step = 10.0 ** draw(st.floats(-2.0, 0.5))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 9))
    sample = SampleMatrix(rng.normal(size=(m, 3)))
    distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
    if rbf:
        hclass = KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=cap, k=2)
    else:
        hclass = LinearClass(lambda_cap=cap, k=2)
    model = initialize_model(hclass, sample, rng)
    model = project_norm_ball(model.with_params(model.params * start_scale))
    weights = -symmetric_signs(rng, m) if sign > 0.0 else None
    return model, sample, distances, weights, TrainConfig(step_size=step, max_iters=25)


class TestAcceleratedPath:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(capped_paths())
    def test_every_visited_map_is_in_the_ball(self, path):
        model, sample, distances, weights, cfg = path
        visited = []
        stress_pass = optimizer_module._stress_pass

        def recording(feats, params, *args):
            visited.append(params.copy())
            return stress_pass(feats, params, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer_module, "_stress_pass", recording)
            last, values, _ = projected_path(model, sample, distances, weights, cfg)
        assert len(visited) == len(values)
        assert np.array_equal(visited[-1], last.params)
        cap = model.lambda_cap
        for params in visited:
            assert model_norm(model.with_params(params)) <= cap * (1 + 1e-9)

    def test_criterion_2_instance_converges_within_100_steps(self):
        # the fixed-step loop took 207 steps on this instance
        spec = SyntheticSpec(
            m=20, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.0, seed=0
        )
        sample, distances, _ = generate_synthetic(spec)
        _, report = train(
            sample, distances, LinearClass(lambda_cap=2.0, k=2), TrainConfig(max_iters=5000)
        )
        assert report.converged and report.iterations_used <= 100
        assert report.final_risk < 1e-6

    # final_risk of the coverage workload's training runs (m = 50, noise 0.05,
    # linear, cap 2, default config) as the fixed-step loop found them
    FIXED_STEP_RISKS = {
        0: 0.002416250177677797,
        2: 0.002313420113396265,
        4: 0.002502840953149647,
        6: 0.002327324916252347,
        8: 0.0025659575651567133,
        10: 0.0024358153281903204,
        12: 0.002531733423074339,
        14: 0.0025525582456741255,
        16: 0.0024160102670435016,
        18: 0.0024080479249761876,
    }

    @pytest.mark.parametrize("seed", sorted(FIXED_STEP_RISKS))
    def test_coverage_fits_reach_the_fixed_step_optimum(self, seed):
        spec = SyntheticSpec(
            m=50, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=seed
        )
        sample, distances, _ = generate_synthetic(spec)
        _, report = train(sample, distances, LinearClass(lambda_cap=2.0, k=2), TrainConfig())
        expected = self.FIXED_STEP_RISKS[seed]
        assert report.converged
        assert abs(report.final_risk - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("seed", sorted(FIXED_STEP_RISKS))
    def test_coverage_fits_converge_within_40_steps(self, seed):
        # the fixed step of 0.25 took 55-72 steps on these fits
        spec = SyntheticSpec(
            m=50, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=seed
        )
        sample, distances, _ = generate_synthetic(spec)
        _, report = train(sample, distances, LinearClass(lambda_cap=2.0, k=2), TrainConfig())
        assert report.stop_reason == "converged" and report.iterations_used <= 40


STEP_GRID_FAMILIES = {
    "linear": None,
    "rbf_gamma0.1": KernelSpec("rbf", gamma=0.1),
    "rbf_gamma1": KernelSpec("rbf", gamma=1.0),
    "rbf_gamma10": KernelSpec("rbf", gamma=10.0),
    "poly_degree2": KernelSpec("polynomial", degree=2, coef0=1.0),
    "poly_degree3": KernelSpec("polynomial", degree=3, coef0=1.0),
}


def grid_path(monkeypatch, family, m, cap):
    """100 descent steps of projected_path from the seeded start on a noisy
    m-point instance in R^3; returns (last map, reason, the params of every
    map evaluated)."""
    spec = SyntheticSpec(
        m=m, n_features=3, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=m
    )
    sample, distances, _ = generate_synthetic(spec)
    kernel = STEP_GRID_FAMILIES[family]
    hclass = LinearClass(cap, k=2) if kernel is None else KernelClass(kernel, cap, k=2)
    start = initialize_model(hclass, sample, np.random.default_rng(0))
    cfg = TrainConfig(max_iters=100)
    visited = []
    stress_pass = optimizer_module._stress_pass

    def recording(feats, params, *args):
        visited.append(params.copy())
        return stress_pass(feats, params, *args)

    monkeypatch.setattr(optimizer_module, "_stress_pass", recording)
    last, _, reason = projected_path(start, sample, distances, None, cfg)
    monkeypatch.setattr(optimizer_module, "_stress_pass", stress_pass)
    return last, reason, visited


class TestStepGrid:
    """The local-Lipschitz step over classes, caps {0.1, 2, 100} and m in
    {2, 3, 20, 100}.  The fixed step of 0.25 diverged on none of these
    cases."""

    @pytest.mark.parametrize("m", [2, 3, 20, 100])
    @pytest.mark.parametrize("family", sorted(STEP_GRID_FAMILIES))
    def test_no_case_diverges_and_every_visited_map_is_in_the_ball(self, monkeypatch, family, m):
        for cap in (0.1, 2.0, 100.0):
            last, reason, visited = grid_path(monkeypatch, family, m, cap)
            case = f"cap={cap}"
            assert reason != "diverged", case
            for params in visited:
                assert model_norm(last.with_params(params)) <= cap * (1 + 1e-9), case
