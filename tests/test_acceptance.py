"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion, so the suite fails loudly if any gate regresses.
"""

import time

import numpy as np

from simcert import (
    KernelClass,
    KernelMap,
    KernelSpec,
    LinearClass,
    LinearMap,
    SampleMatrix,
    SyntheticSpec,
    TrainConfig,
    data_radii,
    embedding_distance_matrix,
    empirical_rademacher_mc,
    empirical_risk,
    generalization_bound,
    generate_synthetic,
    gram,
    loss_bound_M,
    mcdiarmid_term,
    model_norm,
    pairwise_distances,
    project_norm_ball,
    rademacher_bound_linear,
    risk_gradient,
    run_coverage_experiment,
    train,
    validate_distance_matrix,
)

FROZEN_SLACK = 1.0590987322723266  # 0.08 + 2^2 sqrt(2 ln 20 / 100)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _risk(model, sample, distances):
    return empirical_risk(embedding_distance_matrix(model, sample), distances)


def _finite_difference(model, sample, distances, step=1e-5):
    base = model.params
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        bumped = base.copy()
        bumped[idx] += step
        up = _risk(model.with_params(bumped), sample, distances)
        bumped[idx] -= 2 * step
        down = _risk(model.with_params(bumped), sample, distances)
        grad[idx] = (up - down) / (2 * step)
    return grad


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    kernels = [None, KernelSpec("rbf", gamma=0.7), KernelSpec("linear"),
               KernelSpec("polynomial", degree=2, coef0=1.0)]
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        sample = SampleMatrix(rng.normal(size=(m, n)))
        distances = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, k))))
        kernel = kernels[seed % len(kernels)]
        if kernel is None:
            model = LinearMap(rng.normal(size=(k, n)), 1e6)
        else:
            model = KernelMap(rng.normal(size=(k, m)) * 0.5, gram(kernel, sample), 1e6)
        analytic = risk_gradient(model, sample, distances)
        numeric = _finite_difference(model, sample, distances)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "analytic gradients match central finite differences on 50 instances",
        worst < 1e-5 and elapsed < 10.0,
        f"worst rel err {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_realizable_recovery():
    start = time.perf_counter()
    spec = SyntheticSpec(
        m=20, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.0, seed=0
    )
    sample, distances, w_true = generate_synthetic(spec)
    cap = 2.0
    assert cap >= np.linalg.norm(w_true, 2)
    _, report = train(
        sample, distances, LinearClass(lambda_cap=cap, k=2), TrainConfig(max_iters=5000, seed=0)
    )
    elapsed = time.perf_counter() - start
    _report(
        2,
        "noiseless linear-pushforward data is recovered below 1e-6 risk",
        report.final_risk < 1e-6 and report.iterations_used <= 5000 and elapsed < 5.0,
        f"risk {report.final_risk:.3g} after {report.iterations_used} iters, {elapsed:.2f}s",
    )


def test_criterion_3_reference_constants():
    loss_bound = loss_bound_M(1.0, 1.0, 0.5)
    cert = generalization_bound(
        0.0, rademacher_bound_linear(1.0, 1.0, 0.5, 100), loss_bound, 100, 0.05
    )
    ok = loss_bound == 2.0 and abs(cert.slack - FROZEN_SLACK) < 1e-5
    _report(
        3,
        "per-pair bound M = 2 and slack 1.059098... reproduced",
        ok,
        f"M {loss_bound}, slack {cert.slack!r}",
    )


def test_criterion_4_rbf_radius_exactly_one():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        n = int(rng.integers(1, 6))
        sample = SampleMatrix(rng.normal(size=(m, n)) * rng.uniform(0.01, 100.0))
        spec = KernelSpec("rbf", gamma=float(rng.uniform(0.01, 10.0)))
        ok = ok and KernelClass(spec, 1.0).zero_map(sample).feature_radius(sample) == 1.0
    _report(4, "feature-space radius of every RBF sample equals 1 exactly", ok)


def test_criterion_5_coverage_experiment():
    start = time.perf_counter()
    spec = SyntheticSpec(
        m=50, n_features=2, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.0, seed=0
    )
    report = run_coverage_experiment(
        spec,
        LinearClass(lambda_cap=2.0, k=2),
        TrainConfig(),
        delta=0.05,
        n_trials=200,
    )
    elapsed = time.perf_counter() - start
    _report(
        5,
        "coverage rate over 200 trials at least 0.95",
        report.coverage_rate >= 0.95 and elapsed < 180.0,
        f"coverage {report.coverage_rate}, mean slack {report.mean_slack:.3g}, {elapsed:.1f}s",
    )


def test_criterion_6_mc_dominance():
    failures = []
    for seed in range(20):
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
            n_sigma=64,
            inner_cfg=TrainConfig(max_iters=100),
            seed=seed,
        )
        closed_form = rademacher_bound_linear(1.0, radii.r, radii.beta, sample.m)
        if not estimate <= closed_form + 2 * std_error:
            failures.append((seed, estimate, closed_form, std_error))
    _report(
        6,
        "Monte-Carlo complexity estimate dominated by the closed form on 20 instances",
        not failures,
        f"{len(failures)} violations" if failures else "all dominated",
    )


def test_criterion_7_kernel_linear_equivalence():
    rng = np.random.default_rng(17)
    sample = SampleMatrix(rng.normal(size=(8, 3)))
    w = rng.normal(size=(2, 3))
    linear = LinearMap(w, 100.0)
    kernelized = KernelMap(
        w @ np.linalg.pinv(sample.values), gram(KernelSpec("linear"), sample), 100.0
    )
    diff = np.max(
        np.abs(
            embedding_distance_matrix(kernelized, sample)
            - embedding_distance_matrix(linear, sample)
        )
    )
    _report(
        7,
        "linear-kernel map reproduces the linear embedding distances to 1e-10",
        diff <= 1e-10,
        f"max deviation {diff:.3g}",
    )


def test_criterion_8_exact_scaling_law():
    lam, r, beta, m, delta = 1.3, 0.8, 0.6, 75, 0.05
    loss_bound = loss_bound_M(lam, r, beta)
    sqrt_ratio_exact = (
        mcdiarmid_term(loss_bound, 4 * m, delta) * 2.0 == mcdiarmid_term(loss_bound, m, delta)
    )
    rad_ratio_exact = (
        rademacher_bound_linear(lam, r, beta, 4 * m) * 4.0
        == rademacher_bound_linear(lam, r, beta, m)
    )
    cert_small = generalization_bound(0.0, rademacher_bound_linear(lam, r, beta, m),
                                      loss_bound, m, delta)
    cert_large = generalization_bound(0.0, rademacher_bound_linear(lam, r, beta, 4 * m),
                                      loss_bound, 4 * m, delta)
    cert_ratio_exact = cert_large.rademacher_term * 4.0 == cert_small.rademacher_term
    _report(
        8,
        "quadrupling m scales the sqrt term by exactly 1/2 and the Rademacher term by exactly 1/4",
        sqrt_ratio_exact and rad_ratio_exact and cert_ratio_exact,
    )


def test_criterion_9_projection_contract():
    spec = SyntheticSpec(
        m=15, n_features=3, k_true=2, radius=1.0, map_norm=1.0, noise_sigma=0.05, seed=2
    )
    sample, distances, _ = generate_synthetic(spec)
    runs = [
        (LinearClass(lambda_cap=0.8, k=2), TrainConfig(max_iters=300, seed=0)),
        (LinearClass(lambda_cap=1.5, k=2), TrainConfig(max_iters=300, seed=1)),
        (KernelClass(KernelSpec("rbf", gamma=0.6), lambda_cap=1.0, k=2),
         TrainConfig(max_iters=300, seed=2)),
    ]
    norm_ok = True
    idempotent_ok = True
    for hclass, cfg in runs:
        model, _ = train(sample, distances, hclass, cfg)
        norm_ok = norm_ok and model_norm(model) <= hclass.lambda_cap + 1e-9
        once = project_norm_ball(model)
        twice = project_norm_ball(once)
        idempotent_ok = idempotent_ok and (
            np.max(np.abs(twice.params - once.params)) <= 1e-12
        )
    rng = np.random.default_rng(3)
    for _ in range(10):
        raw = LinearMap(rng.normal(size=(3, 4)) * 4.0, 1.0)
        once = project_norm_ball(raw)
        twice = project_norm_ball(once)
        norm_ok = norm_ok and model_norm(once) <= 1.0 + 1e-9
        idempotent_ok = idempotent_ok and np.max(np.abs(twice.weights - once.weights)) <= 1e-12
    _report(
        9,
        "trained models respect the norm budget and projection is idempotent",
        norm_ok and idempotent_ok,
    )
