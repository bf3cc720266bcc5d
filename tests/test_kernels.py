"""Kernel evaluation, Gram matrices, PSD checking, feature-space radius."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simcert.hypotheses as hypotheses_module
import simcert.kernels as kernels_module

from simcert import (
    GramMatrix,
    KernelClass,
    KernelSpec,
    SampleMatrix,
    ValidationError,
    data_radii,
    feature_space_radius,
    gram,
    kernel_eval,
    psd_check,
)
from simcert.core import DistanceMatrix
from simcert.kernels import (
    DEFAULT_PSD_TOL,
    KERNEL_FAMILIES,
    kernel_columns,
    kernel_diagonal,
    psd_screen,
)


def _random_sample(rng, m=6, n=3, scale=1.0):
    return SampleMatrix(rng.normal(size=(m, n)) * scale)


class TestKernelSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec("sigmoid")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec("rbf", gamma=0.0)
        with pytest.raises(ValidationError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValidationError):
            KernelSpec("polynomial", coef0=-0.1)

    def test_dict_round_trip(self):
        spec = KernelSpec("polynomial", gamma=2.0, degree=3, coef0=0.5)
        assert KernelSpec.from_dict(spec.to_dict()) == spec


class TestKernelEval:
    def test_rbf_self_evaluation_is_one(self):
        spec = KernelSpec("rbf", gamma=0.3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=4) * rng.uniform(0.1, 100.0)
            assert kernel_eval(spec, x, x) == 1.0

    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial_value(self):
        # x . y = 2, (2 + 1)^2 = 9
        spec = KernelSpec("polynomial", degree=2, coef0=1.0)
        assert kernel_eval(spec, [1.0, 2.0], [2.0, 0.0]) == 9.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kernel_eval(KernelSpec("linear"), [1.0], [1.0, 2.0])


class TestGram:
    def test_rbf_unit_diagonal(self):
        s = _random_sample(np.random.default_rng(1), scale=10.0)
        k = gram(KernelSpec("rbf", gamma=0.5), s)
        assert np.all(np.diag(k.values) == 1.0)

    def test_linear_matches_outer_product(self):
        s = _random_sample(np.random.default_rng(2))
        k = gram(KernelSpec("linear"), s)
        np.testing.assert_allclose(k.values, s.values @ s.values.T, atol=1e-12)

    def test_identical_points_rbf(self):
        s = SampleMatrix([[1.0, 2.0], [1.0, 2.0]])
        k = gram(KernelSpec("rbf", gamma=3.0), s)
        assert np.array_equal(k.values, np.ones((2, 2)))

    def test_exactly_symmetric_as_stored(self):
        rng = np.random.default_rng(3)
        for family in ("linear", "rbf", "polynomial"):
            k = gram(KernelSpec(family), _random_sample(rng, m=9, n=4))
            assert np.array_equal(k.values, k.values.T)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("block_rows", [None, 8])
    def test_equals_the_mirrored_upper_triangle(self, monkeypatch, family, block_rows):
        rng = np.random.default_rng(KERNEL_FAMILIES.index(family))
        spec = KernelSpec(family, gamma=0.5, degree=3, coef0=0.5)
        for m in (2, 7, 65, 300):
            if block_rows is not None:
                monkeypatch.setattr(kernels_module, "_BLOCK_BYTES", 8 * m * block_rows)
            s = _random_sample(rng, m=m, n=4)
            k = kernel_columns(spec, s.values, s.values)
            expected = np.triu(k) + np.triu(k, 1).T
            got = gram(spec, s).values
            assert np.array_equal(got, expected), m
            assert np.array_equal(got, got.T), m

    def test_rbf_columns_follow_the_textbook_formula_exactly(self):
        rng = np.random.default_rng(5)
        a, p = rng.normal(size=(9, 3)) * 3.0, rng.normal(size=(11, 3)) * 3.0
        for x, y in ((a, p), (a, a)):
            nx = np.diag(x @ x.T) if x is y else np.sum(x * x, axis=1)
            ny = nx if x is y else np.sum(y * y, axis=1)
            sq = np.maximum(nx[:, None] + ny[None, :] - 2.0 * (x @ y.T), 0.0)
            expected = np.exp(-0.7 * sq)
            assert np.array_equal(kernel_columns(KernelSpec("rbf", gamma=0.7), x, y), expected)

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(4)
        s = _random_sample(rng, m=5, n=2)
        spec = KernelSpec("polynomial", degree=3, coef0=0.5)
        k = gram(spec, s)
        for i in range(5):
            for j in range(5):
                expected = kernel_eval(spec, s.values[i], s.values[j])
                assert k.values[i, j] == pytest.approx(expected, rel=1e-12)


class TestPsdCheck:
    def test_identity_passes(self):
        res = psd_check(GramMatrix(np.eye(2)), tol=0.0)
        assert res.passed
        assert res.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_matrix_fails(self):
        # eigenvalues 3 and -1
        res = psd_check(GramMatrix([[1.0, 2.0], [2.0, 1.0]]), tol=1e-8)
        assert not res.passed
        assert res.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_rbf_gram_on_distinct_points_passes(self):
        for seed in range(5):
            s = _random_sample(np.random.default_rng(seed), m=8, n=3)
            assert psd_check(gram(KernelSpec("rbf", gamma=0.7), s)).passed

    def test_gram_side_squared_distances_nonnegative(self):
        rng = np.random.default_rng(6)
        for family in ("linear", "rbf", "polynomial"):
            k = gram(KernelSpec(family), _random_sample(rng, m=7, n=3)).values
            d = np.diag(k)
            sq = d[:, None] + d[None, :] - 2.0 * k
            assert sq.min() >= -1e-9


class TestFeatureSpaceRadius:
    def test_rbf_radius_is_exactly_one(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            s = _random_sample(np.random.default_rng(seed), m=6, n=4, scale=50.0)
            q = feature_space_radius(gram(KernelSpec("rbf", gamma=2.0), s))
            assert q == 1.0

    def test_linear_radius_is_max_feature_norm(self):
        # K(x, x) = ||x||^2, so q = max norm = 5 for the 3-4-5 point
        s = SampleMatrix([[3.0, 4.0], [0.0, 1.0]])
        assert feature_space_radius(gram(KernelSpec("linear"), s)) == 5.0

    def test_all_zero_sample_linear_radius_zero(self):
        s = SampleMatrix(np.zeros((3, 2)))
        assert feature_space_radius(gram(KernelSpec("linear"), s)) == 0.0

    def test_linear_radius_matches_data_radii(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = _random_sample(rng, m=6, n=3, scale=rng.uniform(0.1, 10.0))
            d = DistanceMatrix(np.zeros((6, 6)))
            q = feature_space_radius(gram(KernelSpec("linear"), s))
            assert q == pytest.approx(data_radii(s, d).r, abs=1e-12)


class TestKernelDiagonal:
    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_matches_the_gram_diagonal(self, family):
        rng = np.random.default_rng(9)
        spec = KernelSpec(family, gamma=0.5, degree=3, coef0=0.5)
        for scale in (1e-3, 1.0, 1e3):
            s = _random_sample(rng, m=9, n=4, scale=scale)
            expected = np.diag(gram(spec, s).values)
            np.testing.assert_allclose(kernel_diagonal(spec, s.values), expected, rtol=1e-14, atol=0)

    def test_rbf_radius_is_exactly_one_on_a_fresh_sample(self):
        rng = np.random.default_rng(10)
        model = KernelClass(KernelSpec("rbf", gamma=2.0), 1.0, k=2).zero_map(_random_sample(rng))
        for scale in (1e-3, 1.0, 1e3):
            assert model.feature_radius(_random_sample(rng, m=7, n=3, scale=scale)) == 1.0

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_radius_of_a_large_fresh_sample_needs_no_pair_matrix(self, family):
        rng = np.random.default_rng(11)
        spec = KernelSpec(family, gamma=0.5)
        model = KernelClass(spec, 1.0, k=2).zero_map(_random_sample(rng, m=50, n=3))
        sample = _random_sample(rng, m=2000, n=3)
        tracemalloc.start()
        try:
            q = model.feature_radius(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert q == pytest.approx(np.sqrt(np.max(kernel_diagonal(spec, sample.values))), rel=0)


def _gram_with_spectrum(rng, eigenvalues):
    """An exactly symmetric Q diag(eigenvalues) Q^T with Q random orthogonal."""
    q, _ = np.linalg.qr(rng.normal(size=(eigenvalues.size, eigenvalues.size)))
    k = (q * eigenvalues) @ q.T
    return GramMatrix((k + k.T) / 2.0)


def _zero_map_accepts(monkeypatch, anchor_gram, sample) -> bool:
    monkeypatch.setattr(hypotheses_module, "gram", lambda spec, s: anchor_gram)
    try:
        KernelClass(KernelSpec("linear"), 1.0, k=1).zero_map(sample)
    except ValidationError as exc:
        assert "fails the PSD check" in str(exc)
        return False
    return True


class TestPsdScreen:
    # lambda_min = c * tol * max(max |lambda|, 1): psd_check fails for c < -1
    @pytest.mark.parametrize("c", [-4.0, -2.0, -1.1, -0.9, -0.5, 0.0, 0.5])
    @pytest.mark.parametrize("top", [0.5, 5.0, 1e4])
    def test_zero_map_accepts_exactly_when_psd_check_passes(self, monkeypatch, count_calls, c, top):
        rng = np.random.default_rng(12)
        m = 12
        eigenvalues = np.linspace(top / m, top, m)
        eigenvalues[0] = c * DEFAULT_PSD_TOL * max(top, 1.0)
        anchor_gram = _gram_with_spectrum(rng, eigenvalues)
        check = psd_check(anchor_gram)
        assert check.passed == (c >= -1.0)
        calls = count_calls(kernels_module.psd_check)
        sample = _random_sample(rng, m=m, n=2)
        assert _zero_map_accepts(monkeypatch, anchor_gram, sample) == check.passed
        if c >= 0.0:
            # a PSD matrix is accepted by the screen, without eigenvalues
            assert calls == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(KERNEL_FAMILIES),
        log_scale=st.floats(-3.0, 3.0),
        m=st.integers(2, 40),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_gram_matrices_agree_with_psd_check(self, family, log_scale, m, n, seed):
        rng = np.random.default_rng(seed)
        sample = SampleMatrix(rng.normal(size=(m, n)) * 10.0**log_scale)
        spec = KernelSpec(family, gamma=0.5)
        try:
            KernelClass(spec, 1.0, k=1).zero_map(sample)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == psd_check(gram(spec, sample)).passed

    def test_a_passing_screen_implies_a_passing_check(self):
        rng = np.random.default_rng(13)
        for c in np.linspace(-3.0, 1.0, 41):
            anchor_gram = _gram_with_spectrum(
                rng, np.concatenate([[c * DEFAULT_PSD_TOL], np.linspace(0.1, 1.0, 9)])
            )
            if psd_screen(anchor_gram):
                assert psd_check(anchor_gram).passed, c

    def test_screens_only_up_to_its_round_off_limit(self, monkeypatch):
        eps = np.finfo(float).eps
        # m^2 eps <= tol / 2 holds for m up to about 4700 at the default tol
        assert 4700**2 * eps <= DEFAULT_PSD_TOL / 2.0 < 4800**2 * eps
        # at this tol the limit falls between m = 10 (100 eps) and 11 (121 eps)
        monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", 2.0 * 105.0 * eps)
        assert psd_screen(GramMatrix(np.eye(10)))
        assert not psd_screen(GramMatrix(np.eye(11)))
