"""Certificate formulas, assembly, and the Monte-Carlo complexity estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcert import (
    DistanceMatrix,
    KernelClass,
    LinearClass,
    LinearMap,
    SampleMatrix,
    TrainConfig,
    ValidationError,
    certify,
    data_radii,
    embedding_distance_matrix,
    empirical_rademacher_mc,
    generalization_bound,
    gram,
    loss_bound_M,
    mcdiarmid_term,
    model_norm,
    pairwise_distances,
    rademacher_bound_kernel,
    rademacher_bound_linear,
)
from simcert.bounds import BoundCertificate
from simcert.harness import SyntheticSpec, generate_synthetic
from simcert.hypotheses import KernelMap, KernelSpec, embed, load_model, save_model
from simcert.optimizer import train

# 2 * (1 * max(2, 0.5)^2 / 100) + 2^2 * sqrt(2 ln 20 / 100), frozen by hand
SLACK_LAM1_R1_BETA05_M100_D05 = 1.0590987322723266


class TestLossBound:
    def test_linear_reference_value(self):
        assert loss_bound_M(1.0, 1.0, 0.5) == 2.0

    def test_degenerate_data(self):
        assert loss_bound_M(1.0, 0.0, 0.0) == 0.0

    def test_kernel_conservative_rule(self):
        # max(2 lam q, beta) with lam = 2, q = 1, beta = 0.5
        assert loss_bound_M(2.0, 1.0, 0.5) == 4.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            loss_bound_M(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["lam", "radius", "beta"])
    def test_non_finite_inputs_rejected(self, bad, position):
        args = [1.0, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(ValidationError):
            loss_bound_M(*args)
        with pytest.raises(ValidationError):
            rademacher_bound_linear(*args, 10)
        with pytest.raises(ValidationError):
            rademacher_bound_kernel(*args, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_loss_bound_rejected_by_mcdiarmid_term(self, bad):
        with pytest.raises(ValidationError):
            mcdiarmid_term(bad, 10, 0.05)


class TestRademacherBounds:
    def test_linear_reference_value(self):
        assert rademacher_bound_linear(1.0, 1.0, 0.5, 100) == 0.04

    def test_zero_budget_gives_zero(self):
        assert rademacher_bound_linear(0.0, 1.0, 0.5, 100) == 0.0

    def test_doubling_m_halves_exactly(self):
        for m in (10, 37, 100):
            full = rademacher_bound_linear(1.3, 0.9, 0.4, m)
            half = rademacher_bound_linear(1.3, 0.9, 0.4, 2 * m)
            assert half * 2.0 == full

    def test_kernel_reference_value(self):
        # 4 * max(sqrt(2), 0.5)^2 / 400 = 0.02
        assert rademacher_bound_kernel(2.0, 1.0, 0.5, 400) == pytest.approx(0.02, rel=1e-12)

    def test_kernel_beta_dominates(self):
        beta = 10.0
        a = rademacher_bound_kernel(1.0, 0.5, beta, 50)
        b = rademacher_bound_kernel(1.0, 2.0, beta, 50)
        assert a == b == beta**2 / 50

    def test_linear_kernel_consistency_ratio(self):
        # with q = r the two bounds differ exactly by the ratio of max terms
        lam, r, beta, m = 1.5, 0.8, 0.3, 40
        lin = rademacher_bound_linear(lam, r, beta, m)
        ker = rademacher_bound_kernel(lam, r, beta, m)
        ratio = max(2 * r, beta) ** 2 / max(math.sqrt(2) * r, beta) ** 2
        assert lin == pytest.approx(ker * ratio, rel=1e-12)
        beta_big = 10.0
        assert rademacher_bound_linear(lam, r, beta_big, m) == rademacher_bound_kernel(
            lam, r, beta_big, m
        )

    def test_invalid_m_rejected(self):
        with pytest.raises(ValidationError):
            rademacher_bound_linear(1.0, 1.0, 1.0, 0)


class TestGeneralizationBound:
    def test_reference_assembly(self):
        cert = generalization_bound(0.1, 0.04, 2.0, 100, 0.05)
        assert cert.rademacher_term == 0.08
        assert cert.slack == pytest.approx(SLACK_LAM1_R1_BETA05_M100_D05, abs=1e-12)
        assert cert.bound == pytest.approx(0.1 + SLACK_LAM1_R1_BETA05_M100_D05, abs=1e-12)

    def test_zero_terms_reduce_to_empirical_risk(self):
        cert = generalization_bound(0.3, 0.0, 0.0, 7, 0.5)
        assert cert.bound == 0.3

    def test_delta_one_drops_log_term(self):
        cert = generalization_bound(0.0, 0.02, 5.0, 10, 1.0)
        assert cert.slack == 0.04

    def test_delta_out_of_range_rejected(self):
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                generalization_bound(0.0, 0.0, 1.0, 10, delta)

    def test_slack_recomputes_bitwise(self):
        cert = generalization_bound(0.25, 0.013, 1.7, 83, 0.02)
        assert cert.slack == cert.rademacher_term + mcdiarmid_term(
            cert.loss_bound, cert.m, cert.delta
        )
        assert cert.bound == cert.empirical_risk + cert.slack

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValidationError):
            BoundCertificate(
                empirical_risk=0.1,
                rademacher_term=0.0,
                loss_bound=0.0,
                delta=0.5,
                m=10,
                slack=0.0,
                bound=0.2,
            )


class TestCertificateInvariants:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from([None, "linear", "rbf", "polynomial"]),
        log_cap=st.floats(-2.0, 1.0),
        radius=st.floats(0.1, 5.0),
        noise=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_residuals_within_M_and_norm_within_cap(self, family, log_cap, radius, noise, seed):
        # family None is the linear class
        cap = 10.0**log_cap
        spec = SyntheticSpec(
            m=10, n_features=3, k_true=2, radius=radius, map_norm=1.0, noise_sigma=noise,
            seed=seed,
        )
        sample, distances, _ = generate_synthetic(spec)
        if family is None:
            hclass = LinearClass(lambda_cap=cap, k=2)
        else:
            hclass = KernelClass(KernelSpec(family, gamma=0.5), lambda_cap=cap, k=2)
        model, _ = train(sample, distances, hclass, TrainConfig(max_iters=40, seed=seed))
        cert = certify(model, sample, distances, 0.05)
        residuals = np.abs(embedding_distance_matrix(model, sample) - distances.values)
        assert residuals.max() <= cert.loss_bound * (1.0 + 1e-9)
        assert model_norm(model) <= cap * (1.0 + 1e-9)
        if family == "rbf":
            assert cert.inputs.q == 1.0


def _ball_sample(m=100, seed=0):
    """m points with max norm exactly 1 and an antipodal pair at distance 2."""
    rng = np.random.default_rng(seed)
    inner = rng.normal(size=(m - 2, 2))
    inner = 0.9 * inner / np.linalg.norm(inner, axis=1)[:, None] * rng.random((m - 2, 1))
    return SampleMatrix(np.vstack([[1.0, 0.0], [-1.0, 0.0], inner]))


class TestCertify:
    def test_identity_model_self_consistent_data(self):
        sample = _ball_sample()
        distances = DistanceMatrix(pairwise_distances(sample.values))
        model = LinearMap(np.eye(2), 1.0)
        cert = certify(model, sample, distances, 0.05)
        assert cert.empirical_risk == 0.0
        assert cert.loss_bound == 2.0
        assert cert.inputs.lam == 1.0
        assert cert.inputs.r == 1.0
        assert cert.inputs.beta == 2.0
        assert cert.inputs.q is None
        assert cert.slack == pytest.approx(SLACK_LAM1_R1_BETA05_M100_D05, abs=1e-12)
        assert cert.bound == cert.slack

    def test_zero_map_zero_targets(self):
        sample = _ball_sample(m=20, seed=1)
        distances = DistanceMatrix(np.zeros((20, 20)))
        model = LinearMap(np.zeros((2, 2)), 0.0)
        cert = certify(model, sample, distances, 0.05)
        assert cert.bound == 0.0

    def test_quadrupled_sample_halves_sqrt_term(self):
        sample = _ball_sample(m=50, seed=2)
        tiled = SampleMatrix(np.tile(sample.values, (4, 1)))
        model = LinearMap(np.eye(2), 1.0)
        d1 = DistanceMatrix(pairwise_distances(sample.values))
        d4 = DistanceMatrix(pairwise_distances(tiled.values))
        c1 = certify(model, sample, d1, 0.05)
        c4 = certify(model, tiled, d4, 0.05)
        assert c4.rademacher_term * 4.0 == c1.rademacher_term
        sqrt1 = mcdiarmid_term(c1.loss_bound, c1.m, c1.delta)
        sqrt4 = mcdiarmid_term(c4.loss_bound, c4.m, c4.delta)
        assert sqrt4 * 2.0 == sqrt1

    def test_certified_budget_covers_model_norm(self):
        # nominal cap below the actual norm: the class must grow to fit
        sample = _ball_sample(m=10, seed=3)
        distances = DistanceMatrix(pairwise_distances(sample.values))
        model = LinearMap(np.diag([3.0, 1.0]), 1.0)
        cert = certify(model, sample, distances, 0.1)
        assert cert.inputs.lam == pytest.approx(3.0, abs=1e-12)

    def test_kernel_mode_uses_feature_radius(self):
        rng = np.random.default_rng(4)
        sample = SampleMatrix(rng.normal(size=(8, 2)))
        distances = DistanceMatrix(pairwise_distances(rng.normal(size=(8, 2))))
        model = KernelMap(
            rng.normal(size=(2, 8)) * 0.1, gram(KernelSpec("rbf", gamma=0.5), sample), 1.0
        )
        cert = certify(model, sample, distances, 0.05)
        assert cert.inputs.mode == "kernel"
        assert cert.inputs.q == 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kernel_radius_is_rejected(self):
        # the embedded distances stay finite while K(x, x) = ||x||^200 overflows
        rng = np.random.default_rng(5)
        anchors = SampleMatrix(rng.normal(size=(5, 2)) * 0.1)
        spec = KernelSpec("polynomial", degree=100, coef0=0.0)
        model = KernelMap(rng.normal(size=(2, 5)), gram(spec, anchors), 1.0)
        sample = SampleMatrix(rng.normal(size=(6, 2)) * 100.0)
        distances = DistanceMatrix(pairwise_distances(sample.values))
        with pytest.raises(ValidationError, match="finite"):
            certify(model, sample, distances, 0.05)

    def test_loaded_kernel_model_builds_one_gram_matrix(self, tmp_path, count_calls):
        sample, distances, _ = generate_synthetic(
            SyntheticSpec(m=12, n_features=2, k_true=2, radius=1.0, map_norm=1.0,
                          noise_sigma=0.05, seed=6)
        )
        hclass = KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=1.0, k=2)
        model, _ = train(sample, distances, hclass, TrainConfig(max_iters=20))
        save_model(model, tmp_path / "model.json")
        calls = count_calls(gram)
        loaded = load_model(tmp_path / "model.json")
        cert = certify(loaded, SampleMatrix(sample.values.copy()), distances, 0.05)
        assert len(calls) == 1
        assert cert.to_dict() == certify(model, sample, distances, 0.05).to_dict()

    def test_loaded_kernel_model_certifies_like_the_in_memory_model(self, tmp_path):
        kernels = [KernelSpec("rbf", gamma=0.5), KernelSpec("polynomial", degree=2, coef0=1.0)]
        for seed in range(6):
            sample, distances, _ = generate_synthetic(
                SyntheticSpec(m=15, n_features=3, k_true=2, radius=1.0, map_norm=1.0,
                              noise_sigma=0.05, seed=seed)
            )
            hclass = KernelClass(kernels[seed % 2], lambda_cap=1.0, k=2)
            model, _ = train(sample, distances, hclass, TrainConfig(max_iters=20, seed=seed))
            save_model(model, tmp_path / f"model{seed}.json")
            loaded = load_model(tmp_path / f"model{seed}.json")
            copied = SampleMatrix(sample.values.copy())
            assert np.array_equal(embed(loaded, copied.values), embed(model, sample.values))
            assert (
                certify(loaded, copied, distances, 0.05).to_dict()
                == certify(model, sample, distances, 0.05).to_dict()
            ), f"seed {seed}"

    def test_monotone_in_radii_and_sample_size(self):
        base = dict(lam=1.0, r=1.0, beta=0.5, m=100, delta=0.05, r_hat=0.1)

        def assembled(lam, r, beta, m, delta, r_hat):
            return generalization_bound(
                r_hat,
                rademacher_bound_linear(lam, r, beta, m),
                loss_bound_M(lam, r, beta),
                m,
                delta,
            ).bound

        reference = assembled(**base)
        for key, factor in [("lam", 2.0), ("r", 2.0), ("beta", 10.0), ("r_hat", 2.0)]:
            grown = dict(base)
            grown[key] = base[key] * factor
            assert assembled(**grown) >= reference
        for key, factor in [("m", 4), ("delta", 4.0)]:
            grown = dict(base)
            grown[key] = type(base[key])(base[key] * factor)
            assert assembled(**grown) <= reference


class TestEmpiricalRademacherMc:
    def test_singleton_class_estimate_near_zero(self):
        spec = SyntheticSpec(
            m=8, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.1, seed=0
        )
        sample, distances, _ = generate_synthetic(spec)
        estimate, std_error = empirical_rademacher_mc(
            sample,
            distances,
            LinearClass(lambda_cap=0.0, k=2),
            n_sigma=64,
            inner_cfg=TrainConfig(max_iters=20),
            seed=11,
        )
        assert abs(estimate) <= 2 * std_error

    def test_single_draw_deterministic(self):
        spec = SyntheticSpec(
            m=6, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.0, seed=1
        )
        sample, distances, _ = generate_synthetic(spec)
        cfg = TrainConfig(max_iters=40)
        first = empirical_rademacher_mc(
            sample, distances, LinearClass(lambda_cap=1.0, k=2), 1, cfg, seed=7
        )
        second = empirical_rademacher_mc(
            sample, distances, LinearClass(lambda_cap=1.0, k=2), 1, cfg, seed=7
        )
        assert first == second
        assert first[1] == 0.0

    def test_kernel_class_estimate_dominated(self):
        spec = SyntheticSpec(
            m=8, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=2
        )
        sample, distances, _ = generate_synthetic(spec)
        kernel = KernelSpec("rbf", gamma=0.5)
        estimate, std_error = empirical_rademacher_mc(
            sample,
            distances,
            KernelClass(kernel=kernel, lambda_cap=1.0, k=2),
            n_sigma=16,
            inner_cfg=TrainConfig(max_iters=60),
            seed=3,
        )
        q = KernelClass(kernel, 1.0).zero_map(sample).feature_radius(sample)
        beta = distances.max_distance
        assert estimate <= rademacher_bound_kernel(1.0, q, beta, sample.m) + 2 * std_error

    def test_kernel_estimate_builds_one_gram_matrix(self, count_calls):
        spec = SyntheticSpec(
            m=8, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=2
        )
        sample, distances, _ = generate_synthetic(spec)
        calls = count_calls(gram)
        empirical_rademacher_mc(
            sample, distances, KernelClass(KernelSpec("rbf", gamma=0.5), lambda_cap=1.0, k=2),
            n_sigma=3, inner_cfg=TrainConfig(max_iters=5), seed=0,
        )
        assert len(calls) == 1

    def test_dominated_by_closed_form(self):
        for seed in range(5):
            spec = SyntheticSpec(
                m=10, n_features=2, k_true=2, radius=1.0, map_norm=1.0,
                noise_sigma=0.05, seed=seed,
            )
            sample, distances, _ = generate_synthetic(spec)
            radii = data_radii(sample, distances)
            estimate, std_error = empirical_rademacher_mc(
                sample,
                distances,
                LinearClass(lambda_cap=1.0, k=2),
                n_sigma=32,
                inner_cfg=TrainConfig(max_iters=100),
                seed=seed,
            )
            closed_form = rademacher_bound_linear(1.0, radii.r, radii.beta, sample.m)
            assert estimate <= closed_form + 2 * std_error

    def test_distance_broadcasts_do_not_grow_with_iterations(self, count_calls):
        spec = SyntheticSpec(
            m=10, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=3
        )
        sample, distances, _ = generate_synthetic(spec)
        calls = count_calls(pairwise_distances)
        counts = []
        for max_iters in (5, 20):
            calls.clear()
            empirical_rademacher_mc(
                sample, distances, LinearClass(lambda_cap=1.0, k=2), 2,
                TrainConfig(max_iters=max_iters, grad_tol=1e-300), seed=0,
            )
            counts.append(len(calls))
        assert counts[0] == counts[1]
