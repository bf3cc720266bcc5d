"""Kernel evaluation, Gram matrices, PSD checking, feature-space radius."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simcert.core as core_module
import simcert.kernels as kernels_module

from simcert import (
    GramMatrix,
    KernelClass,
    KernelSpec,
    SampleMatrix,
    ValidationError,
    data_radii,
    gram,
    kernel_eval,
    load_model,
    psd_check,
    save_model,
)
from simcert.core import DistanceMatrix
from simcert.kernels import (
    DEFAULT_PSD_TOL,
    KERNEL_FAMILIES,
    kernel_columns,
    kernel_diagonal,
)


def _random_sample(rng, m=6, n=3, scale=1.0):
    return SampleMatrix(rng.normal(size=(m, n)) * scale)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The names of the np.linalg functions called, one entry per call."""
    calls = []

    def counted(name, func):
        def call(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return call

    for name in np.linalg.__all__:
        func = getattr(np.linalg, name)
        if callable(func) and not isinstance(func, type):
            monkeypatch.setattr(np.linalg, name, counted(name, func))
    return calls


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
        with pytest.raises(ValidationError, match="degree"):
            KernelSpec("polynomial", degree=True)

    @pytest.mark.parametrize("field", ["gamma", "degree", "coef0"])
    @pytest.mark.parametrize("value", [True, "2", None, [2]])
    def test_from_dict_takes_only_json_numbers(self, field, value):
        with pytest.raises(ValidationError, match=f"field '{field}' must be a number"):
            KernelSpec.from_dict({"family": "polynomial", field: value})

    def test_dict_round_trip(self):
        spec = KernelSpec("polynomial", gamma=2.0, degree=3, coef0=0.5)
        assert KernelSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("degree", [2.7, np.inf, np.nan])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(ValidationError, match="degree"):
            KernelSpec("polynomial", degree=degree)
        with pytest.raises(ValidationError, match="degree"):
            KernelSpec.from_dict({"family": "polynomial", "degree": degree})

    def test_integral_degree_is_stored_as_int(self):
        spec = KernelSpec.from_dict({"family": "polynomial", "degree": 3.0})
        assert type(spec.degree) is int and spec == KernelSpec("polynomial", degree=3)


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
                monkeypatch.setattr(core_module, "_BLOCK_BYTES", 8 * m * block_rows)
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

    @pytest.mark.parametrize(
        "family, scale, declined",
        [("rbf", 1.0, False), ("rbf", 1e3, True), ("linear", 1.0, False),
         ("polynomial", 1.0, False)],
    )
    def test_values_are_read_only(self, count_calls, family, scale, declined):
        calls = count_calls(psd_check)
        k = GramMatrix(KernelSpec(family), _random_sample(np.random.default_rng(21), scale=scale))
        assert calls == ([1] if declined else [])
        assert not k.values.flags.writeable
        with pytest.raises(ValueError):
            k.values[0, 1] = 5.0

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("m", [1000, 2000])
    def test_a_certified_matrix_holds_one_m_by_m_array(self, linalg_calls, family, m):
        # 16 features with r = 1, default specs (RBF at bench's gamma 0.5):
        # the inner products become the kernel values in place and are kept;
        # beyond them, for RBF, one (b x m) plane of norm sums, and the
        # finite check's mask, one row block at a time
        sample = _random_sample(np.random.default_rng(22), m=m, n=16)
        sample = SampleMatrix(sample.values / sample.radius)
        linalg_calls.clear()
        tracemalloc.start()
        try:
            GramMatrix(KernelSpec(family, gamma=0.5), sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m + 2 * core_module._BLOCK_BYTES
        assert linalg_calls == []

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
    def test_identity_passes(self, monkeypatch, linalg_calls):
        # at tol 0 the round-off certificate declines and the eigenvalues
        # decide
        monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", 0.0)
        identity = GramMatrix(KernelSpec("linear"), SampleMatrix(np.eye(2)))
        assert np.array_equal(identity.values, np.eye(2))
        assert psd_check(np.eye(2)) is None
        assert linalg_calls == ["eigvalsh", "eigvalsh"]

    def test_indefinite_matrix_fails(self):
        # eigenvalues 3 and -1
        with pytest.raises(ValidationError, match=r"fails the PSD check \(min eigenvalue -1 < "):
            psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValidationError, match=r"min eigenvalue -1 < "):
            psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rbf_gram_on_distinct_points_passes(self):
        for seed in range(5):
            s = _random_sample(np.random.default_rng(seed), m=8, n=3)
            k = gram(KernelSpec("rbf", gamma=0.7), s)
            assert psd_check(k.values) is None

    def test_check_runs_before_the_frozen_copy(self, count_calls):
        # the matrix is checked, then frozen in place; a frozen copy would
        # be a second m x m array.  Beside it tracemalloc sees the finite
        # check's bool mask and one plane of norm sums, not the copy that
        # LAPACK's eigenvalue solve mallocs.  An RBF kernel on features
        # scaled by 1e3, which the round-off certificate declines
        m = 400
        s = _random_sample(np.random.default_rng(14), m=m, n=3, scale=1e3)
        calls = count_calls(psd_check)
        tracemalloc.start()
        try:
            gram(KernelSpec("rbf"), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [1]
        assert peak < 2 * 8 * m * m

    @pytest.mark.parametrize(
        "spec, arrays, gib",
        # a certified matrix alone; a declined one with the copy that
        # eigvalsh factors
        [(KernelSpec("rbf"), 1, "7.45e-07"), (KernelSpec("linear"), 1, "7.45e-07"),
         (KernelSpec("polynomial"), 1, "7.45e-07"), (KernelSpec("rbf", gamma=1e6), 2, "1.49e-06")],
        ids=["rbf", "linear", "polynomial", "declined_rbf"],
    )
    def test_gram_matrix_beyond_the_physical_memory_is_refused_before_it_is_built(
        self, monkeypatch, spec, arrays, gib
    ):
        # m x m arrays at m = 10: 800 bytes each
        need = arrays * 8 * 10**2
        monkeypatch.setattr(core_module, "_available_memory", lambda: need - 1)
        sample = _random_sample(np.random.default_rng(15), m=10)
        built = []
        monkeypatch.setattr(
            kernels_module, "kernel_columns", lambda *args: built.append(1) or kernel_columns(*args)
        )
        assert _certified(spec, sample) == (arrays == 1)
        with pytest.raises(ValidationError, match=rf"^the Gram matrix at m = 10 needs {gib} GiB"):
            GramMatrix(spec, sample)
        assert built == []
        monkeypatch.setattr(core_module, "_available_memory", lambda: need)
        GramMatrix(spec, sample)
        assert built == [1]

    def test_gram_side_squared_distances_nonnegative(self):
        rng = np.random.default_rng(6)
        for family in ("linear", "rbf", "polynomial"):
            k = gram(KernelSpec(family), _random_sample(rng, m=7, n=3)).values
            d = np.diag(k)
            sq = d[:, None] + d[None, :] - 2.0 * k
            assert sq.min() >= -1e-9


def _kernel_radius(spec, sample):
    """q of the sample as certify reads it, from a map of the class."""
    return KernelClass(spec, 1.0).zero_map(sample).feature_radius(sample)


class TestFeatureSpaceRadius:
    def test_rbf_radius_is_exactly_one(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            s = _random_sample(np.random.default_rng(seed), m=6, n=4, scale=50.0)
            q = _kernel_radius(KernelSpec("rbf", gamma=2.0), s)
            assert q == 1.0

    def test_linear_radius_is_max_feature_norm(self):
        # K(x, x) = ||x||^2, so q = max norm = 5 for the 3-4-5 point
        s = SampleMatrix([[3.0, 4.0], [0.0, 1.0]])
        assert _kernel_radius(KernelSpec("linear"), s) == 5.0

    def test_all_zero_sample_linear_radius_zero(self):
        s = SampleMatrix(np.zeros((3, 2)))
        assert _kernel_radius(KernelSpec("linear"), s) == 0.0

    def test_linear_radius_matches_data_radii(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = _random_sample(rng, m=6, n=3, scale=rng.uniform(0.1, 10.0))
            d = DistanceMatrix(np.zeros((6, 6)))
            q = _kernel_radius(KernelSpec("linear"), s)
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
    return (k + k.T) / 2.0


def _accepts(values) -> bool:
    """Whether psd_check accepts ``values``; a rejection names the PSD check."""
    try:
        psd_check(values)
    except ValidationError as exc:
        assert "fails the PSD check" in str(exc)
        return False
    return True


def _zero_map_accepts(monkeypatch, values, sample) -> bool:
    """Whether a zero kernel map accepts ``values`` as its anchors' Gram
    matrix, through an RBF spec whose round-off certificate declines, so
    that psd_check decides."""
    monkeypatch.setattr(kernels_module, "kernel_columns", lambda spec, a, p: np.array(values))
    spec = KernelSpec("rbf")
    assert not _certified(spec, sample)
    try:
        KernelClass(spec, 1.0, k=1).zero_map(sample)
    except ValidationError as exc:
        assert "fails the PSD check" in str(exc)
        return False
    return True


def _eigenvalue_rule(values) -> bool:
    """The PSD decision from the eigenvalues, written out apart from psd_check."""
    eigs = np.linalg.eigvalsh(values)
    return eigs.min() >= -DEFAULT_PSD_TOL * max(np.abs(eigs).max(), 1.0)


class TestPsdDecision:
    # lambda_min = c * tol * max(max |lambda|, 1): the PSD check fails for c < -1
    @pytest.mark.parametrize("c", [-4.0, -2.0, -1.1, -0.9, -0.5, 0.0, 0.5])
    @pytest.mark.parametrize("top", [0.5, 5.0, 1e4])
    def test_zero_map_accepts_exactly_when_psd_check_passes(
        self, monkeypatch, count_calls, c, top
    ):
        rng = np.random.default_rng(12)
        m = 12
        eigenvalues = np.linspace(top / m, top, m)
        eigenvalues[0] = c * DEFAULT_PSD_TOL * max(top, 1.0)
        values = _gram_with_spectrum(rng, eigenvalues)
        # features scaled by 1e3, so the certificate declines
        sample = _random_sample(rng, m=m, n=2, scale=1e3)
        assert _accepts(values) == (c >= -1.0)
        calls = count_calls(psd_check)
        assert _zero_map_accepts(monkeypatch, values, sample) == (c >= -1.0)
        assert calls == [1]
        assert _eigenvalue_rule(values) == (c >= -1.0)

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
        except ValidationError as exc:
            assert "fails the PSD check" in str(exc)
            accepted = False
        k = kernel_columns(spec, sample.values, sample.values)
        assert accepted == _eigenvalue_rule(np.triu(k) + np.triu(k, 1).T)


def _gaussian_sample(seed, m, n, log_scale, coincident=False):
    """m Gaussian rows in R^n scaled by 10^log_scale; the last repeats the
    first when ``coincident``."""
    x = np.random.default_rng(seed).normal(size=(m, n)) * 10.0**log_scale
    if coincident:
        x[-1] = x[0]
    return SampleMatrix(x)


def _certified(spec, sample) -> bool:
    """Whether GramMatrix accepts the matrix by the round-off certificate."""
    return sample.m * kernels_module._entry_error(spec, sample.values) <= DEFAULT_PSD_TOL / 2.0


def _exact_polynomial_gram(spec, sample):
    """The linear or polynomial Gram matrix of the sample in long double."""
    x = sample.values.astype(np.longdouble)
    inner = x @ x.T
    if spec.family == "linear":
        return inner
    return (inner + np.longdouble(spec.coef0)) ** spec.degree


_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double"
)


class TestRoundOffCertificate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(KERNEL_FAMILIES),
        log_gamma=st.floats(-3.0, 3.0),
        degree=st.integers(1, 8),
        coef0=st.sampled_from([0.0, 0.5, 3.0]),
        log_scale=st.floats(-3.0, 3.0),
        m=st.integers(2, 60),
        n=st.integers(1, 8),
        coincident=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_a_certified_matrix_passes_the_eigenvalue_rule(
        self, family, log_gamma, degree, coef0, log_scale, m, n, coincident, seed
    ):
        spec = KernelSpec(family, gamma=10.0**log_gamma, degree=degree, coef0=coef0)
        sample = _gaussian_sample(seed, m, n, log_scale, coincident)
        if _certified(spec, sample):
            assert _eigenvalue_rule(GramMatrix(spec, sample).values)

    @_LONG_DOUBLE
    @pytest.mark.parametrize("log_gamma", [-3.0, 0.0, 3.0])
    @pytest.mark.parametrize("log_scale", [-3.0, -1.0, 0.0, 1.0])
    def test_every_entry_is_within_delta_of_the_exact_kernel(self, log_gamma, log_scale):
        spec = KernelSpec("rbf", gamma=10.0**log_gamma)
        for n, coincident in ((1, True), (4, False), (8, True)):
            sample = _gaussian_sample(int(log_scale) + 100, 40, n, log_scale, coincident)
            x = sample.values.astype(np.longdouble)
            sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
            exact = np.exp(-np.longdouble(spec.gamma) * sq)
            error = np.abs(GramMatrix(spec, sample).values - exact).max()
            assert error <= kernels_module._entry_error(spec, sample.values), n

    @_LONG_DOUBLE
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec("linear")]
        + [KernelSpec("polynomial", degree=d, coef0=c) for d in range(1, 9) for c in (0.0, 0.5, 3.0)],
        ids=lambda spec: f"{spec.family}-{spec.degree}-{spec.coef0:g}",
    )
    @pytest.mark.parametrize("log_scale", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_every_linear_and_polynomial_entry_is_within_delta_of_the_exact_kernel(
        self, spec, log_scale
    ):
        # step 8's delta bounds each entry's error relative to the largest
        # diagonal entry, which is at least s^d (1 - eps)^d (1 - c_pow u)
        for n, coincident in ((1, True), (4, False), (8, True)):
            sample = _gaussian_sample(int(log_scale) + 200, 40, n, log_scale, coincident)
            k = GramMatrix(spec, sample).values
            error = np.abs(k - _exact_polynomial_gram(spec, sample)).max()
            delta = kernels_module._entry_error(spec, sample.values)
            assert error <= delta * np.diag(k).max(), n

    def test_a_linear_spec_is_bounded_as_degree_one(self):
        # its unused degree 2 and coef0 1 do not enter the bound
        x = _gaussian_sample(23, 5, 16, 0.0).values
        linear = kernels_module._entry_error(KernelSpec("linear"), x)
        assert linear == kernels_module._entry_error(KernelSpec("polynomial", degree=1), x)
        assert linear < kernels_module._entry_error(KernelSpec("polynomial", degree=2), x)

    def test_a_certified_zero_map_and_loaded_model_factor_nothing(self, tmp_path, linalg_calls):
        # 16 features with r = 1 and gamma 0.5, as bench's fit_rbf, with a
        # coincident pair; at its m = 1000 the docstring's m delta is 5e-12
        sample = _gaussian_sample(17, 300, 16, 0.0, coincident=True)
        sample = SampleMatrix(sample.values / sample.radius)
        spec = KernelSpec("rbf", gamma=0.5)
        delta = kernels_module._entry_error(spec, sample.values)
        assert 4e-12 < 1000 * delta < 6e-12
        linalg_calls.clear()
        model = KernelClass(spec, 1.0, k=2).zero_map(sample)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert np.array_equal(loaded.gram.values, model.gram.values)
        assert linalg_calls == []

    def test_a_large_gamma_r_squared_declines_to_psd_check(self, count_calls, linalg_calls):
        spec = KernelSpec("rbf", gamma=0.5)
        sample = _gaussian_sample(19, 40, 4, 3.0)
        assert not _certified(spec, sample)
        calls = count_calls(psd_check)
        GramMatrix(spec, sample)
        assert calls == [1] and linalg_calls == ["eigvalsh"]

    def test_a_huge_degree_declines_to_psd_check(self, count_calls, linalg_calls):
        # unit rows and coef0 0: the diagonal stays near 1 and the rest
        # underflows to 0, so the matrix is finite and the eigenvalues
        # accept it
        sample = _gaussian_sample(24, 10, 3, 0.0)
        sample = SampleMatrix(sample.values / np.linalg.norm(sample.values, axis=1)[:, None])
        spec = KernelSpec("polynomial", degree=10**6, coef0=0.0)
        assert not _certified(spec, sample)
        huge = KernelSpec("polynomial", degree=10**300)
        assert kernels_module._entry_error(huge, sample.values) == np.inf
        linalg_calls.clear()
        calls = count_calls(psd_check)
        GramMatrix(spec, sample)
        assert calls == [1] and linalg_calls == ["eigvalsh"]

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_a_nonpositive_tolerance_certifies_nothing(self, monkeypatch, count_calls, family, tol):
        monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", tol)
        calls = count_calls(psd_check)
        # 12 features, so that each family's matrix of the 10 rows is
        # positive definite
        sample = _gaussian_sample(20, 10, 12, 0.0)
        if tol < 0.0:
            # the eigenvalues of these Gram matrices differ
            with pytest.raises(ValidationError, match="fails the PSD check"):
                GramMatrix(KernelSpec(family), sample)
        else:
            GramMatrix(KernelSpec(family), sample)
        assert calls == [1]

    def test_np_exp_is_within_one_ulp_of_the_c_library(self):
        # step 3 takes np.exp within 1 ulp of math.exp, and math.exp within
        # 1 ulp of e^x: c_exp = 4 units of u; arguments -gamma d~^2 <= 0,
        # down to where e^x underflows to zero
        rng = np.random.default_rng(21)
        args = np.concatenate(
            [rng.uniform(-50.0, 0.0, 20_000), rng.uniform(-746.0, 0.0, 5_000),
             -np.logspace(-20.0, 2.0, 2_000), [0.0, -745.2, -708.4]]
        )
        expected = np.array([math.exp(a) for a in args])
        ulp = np.spacing(expected)
        # contiguous, written in place over a 2-D plane as kernel_columns does,
        # and strided
        plane = args[: 26_000].reshape(130, 200).copy()
        got = [np.exp(args), np.exp(plane, out=plane).ravel(), np.exp(args[::-1])[::-1]]
        for values, want, spacing in zip(
            got, [expected, expected[:26_000], expected], [ulp, ulp[:26_000], ulp]
        ):
            assert np.all(np.abs(values - want) <= spacing)

    def test_np_power_is_within_one_ulp_of_the_exact_power(self):
        # step 7 takes np.power with an integer exponent within 1 ulp of
        # t^d: c_pow = 4 units of u; bases of both signs whose powers stay
        # in the normal range
        rng = np.random.default_rng(25)
        args = np.concatenate(
            [rng.uniform(-3.0, 3.0, 1_500), rng.normal(size=300) * 1e3,
             np.logspace(-30.0, 30.0, 200), -np.logspace(-30.0, 30.0, 200)]
        )
        for degree in range(2, 9):
            exact = [Fraction(a) ** degree for a in args]
            ulp = np.spacing(np.abs([float(e) for e in exact]))
            # in place over a 2-D plane, as kernel_columns does, and strided
            plane = args.reshape(110, 20).copy()
            plane **= degree
            strided = np.power(args[::-1], degree)[::-1]
            for got in (plane.ravel(), strided):
                error = [abs(Fraction(g) - e) for g, e in zip(got, exact)]
                assert all(err <= Fraction(step) for err, step in zip(error, ulp)), degree
