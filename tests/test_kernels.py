"""Kernel evaluation, Gram matrices, PSD checking, feature-space radius."""

import math
import tracemalloc
from types import SimpleNamespace

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


def _count_linalg_calls(monkeypatch, name):
    """A list that grows by one entry per np.linalg.<name> call."""
    calls = []
    func = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """A list that grows by one entry per np.linalg.eigvalsh call."""
    return _count_linalg_calls(monkeypatch, "eigvalsh")


@pytest.fixture
def cholesky_calls(monkeypatch):
    """A list that grows by one entry per np.linalg.cholesky call."""
    return _count_linalg_calls(monkeypatch, "cholesky")


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
        "family, scale, screened",
        [("rbf", 1.0, False), ("rbf", 1e3, True), ("linear", 1.0, True), ("polynomial", 1.0, True)],
    )
    def test_values_are_read_only(self, count_calls, family, scale, screened):
        calls = count_calls(psd_check)
        k = GramMatrix(KernelSpec(family), _random_sample(np.random.default_rng(21), scale=scale))
        assert calls == ([1] if screened else [])
        assert not k.values.flags.writeable
        with pytest.raises(ValueError):
            k.values[0, 1] = 5.0

    def test_a_certified_rbf_matrix_holds_one_m_by_m_array(self):
        # m = 1000, 16 features with r = 1, gamma 0.5 (bench's fit_rbf): the
        # inner products become the kernel values in place and are kept;
        # beyond them one (b x m) plane of norm sums and the finite check's
        # m x m bool mask (1 MB)
        m = 1000
        sample = _random_sample(np.random.default_rng(22), m=m, n=16)
        sample = SampleMatrix(sample.values / sample.radius)
        tracemalloc.start()
        try:
            GramMatrix(KernelSpec("rbf", gamma=0.5), sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m + m * m + 2 * core_module._BLOCK_BYTES

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
    def test_identity_passes(self, monkeypatch, eigvalsh_calls):
        # at tol 0 the screen is off and the eigenvalues decide
        monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", 0.0)
        identity = GramMatrix(KernelSpec("linear"), SampleMatrix(np.eye(2)))
        assert np.array_equal(identity.values, np.eye(2))
        assert psd_check(np.eye(2)) is None
        assert len(eigvalsh_calls) == 2

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

    def test_check_runs_before_the_frozen_copy(self):
        # the screen's shifted copy and factor join the matrix, which is
        # then frozen in place (3 m x m arrays); a frozen copy would be a
        # fourth.  A polynomial kernel: an RBF one here is certified
        m = 400
        s = _random_sample(np.random.default_rng(14), m=m, n=3)
        tracemalloc.start()
        try:
            gram(KernelSpec("polynomial"), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * m * m

    @pytest.mark.parametrize(
        "family, arrays, gib",
        # the certified RBF matrix alone; a polynomial one with psd_check's
        # shifted copy and factor
        [("rbf", 1, "7.45e-07"), ("polynomial", 3, "2.24e-06")],
    )
    def test_gram_matrix_beyond_the_physical_memory_is_refused_before_it_is_built(
        self, monkeypatch, family, arrays, gib
    ):
        # m x m arrays at m = 10: 800 bytes each
        need = arrays * 8 * 10**2
        sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
        monkeypatch.setattr(core_module, "os", SimpleNamespace(sysconf=sysconf.__getitem__))
        sample = _random_sample(np.random.default_rng(15), m=10)
        built = []
        monkeypatch.setattr(
            kernels_module, "kernel_columns", lambda *args: built.append(1) or kernel_columns(*args)
        )
        with pytest.raises(ValidationError, match=rf"^the Gram matrix at m = 10 needs {gib} GiB"):
            GramMatrix(KernelSpec(family), sample)
        assert built == []
        sysconf["SC_PHYS_PAGES"] = need
        GramMatrix(KernelSpec(family), sample)
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
    monkeypatch.setattr(kernels_module, "kernel_columns", lambda spec, a, p: np.array(values))
    try:
        KernelClass(KernelSpec("linear"), 1.0, k=1).zero_map(sample)
    except ValidationError as exc:
        assert "fails the PSD check" in str(exc)
        return False
    return True


def _eigenvalue_rule(values) -> bool:
    """The PSD decision from the eigenvalues alone, with no screen."""
    eigs = np.linalg.eigvalsh(values)
    return eigs.min() >= -DEFAULT_PSD_TOL * max(np.abs(eigs).max(), 1.0)


class TestPsdScreen:
    # lambda_min = c * tol * max(max |lambda|, 1): the PSD check fails for c < -1
    @pytest.mark.parametrize("c", [-4.0, -2.0, -1.1, -0.9, -0.5, 0.0, 0.5])
    @pytest.mark.parametrize("top", [0.5, 5.0, 1e4])
    def test_zero_map_accepts_exactly_when_psd_check_passes(
        self, monkeypatch, eigvalsh_calls, c, top
    ):
        rng = np.random.default_rng(12)
        m = 12
        eigenvalues = np.linspace(top / m, top, m)
        eigenvalues[0] = c * DEFAULT_PSD_TOL * max(top, 1.0)
        values = _gram_with_spectrum(rng, eigenvalues)
        sample = _random_sample(rng, m=m, n=2)
        assert _accepts(values) == (c >= -1.0)
        if c >= 0.0:
            # a PSD matrix is accepted by the screen, without eigenvalues
            assert eigvalsh_calls == []
        assert _zero_map_accepts(monkeypatch, values, sample) == (c >= -1.0)
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

    def test_a_passing_screen_implies_a_passing_check(self, eigvalsh_calls):
        rng = np.random.default_rng(13)
        for c in np.linspace(-3.0, 1.0, 41):
            values = _gram_with_spectrum(
                rng, np.concatenate([[c * DEFAULT_PSD_TOL], np.linspace(0.1, 1.0, 9)])
            )
            eigvalsh_calls.clear()
            accepted = _accepts(values)
            if not eigvalsh_calls:
                # the screen accepted alone
                assert accepted and _eigenvalue_rule(values), c
            if abs(c + 1.0) > 0.05:
                assert accepted == (c >= -1.0), c

    def test_screens_only_up_to_its_round_off_limit(self, monkeypatch, eigvalsh_calls):
        eps = np.finfo(float).eps
        # m^2 eps <= tol / 2 holds for m up to about 4700 at the default tol
        assert 4700**2 * eps <= DEFAULT_PSD_TOL / 2.0 < 4800**2 * eps
        # at this tol the limit falls between m = 10 (100 eps) and 11 (121 eps)
        monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", 2.0 * 105.0 * eps)
        psd_check(np.eye(10))
        assert eigvalsh_calls == []
        psd_check(np.eye(11))
        assert eigvalsh_calls == [1]


def _rbf_sample(seed, m, n, log_scale, coincident=False):
    """m Gaussian rows in R^n scaled by 10^log_scale; the last repeats the
    first when ``coincident``."""
    x = np.random.default_rng(seed).normal(size=(m, n)) * 10.0**log_scale
    if coincident:
        x[-1] = x[0]
    return SampleMatrix(x)


def _certified(spec, sample) -> bool:
    """Whether GramMatrix accepts the RBF matrix by the round-off certificate."""
    return sample.m * kernels_module._rbf_entry_error(spec, sample.values) <= DEFAULT_PSD_TOL / 2.0


class TestRbfRoundOffCertificate:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        log_gamma=st.floats(-3.0, 3.0),
        log_scale=st.floats(-3.0, 3.0),
        m=st.integers(2, 60),
        n=st.integers(1, 8),
        coincident=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_a_certified_matrix_passes_the_eigenvalue_rule(
        self, log_gamma, log_scale, m, n, coincident, seed
    ):
        spec = KernelSpec("rbf", gamma=10.0**log_gamma)
        sample = _rbf_sample(seed, m, n, log_scale, coincident)
        if _certified(spec, sample):
            assert _eigenvalue_rule(GramMatrix(spec, sample).values)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double"
    )
    @pytest.mark.parametrize("log_gamma", [-3.0, 0.0, 3.0])
    @pytest.mark.parametrize("log_scale", [-3.0, -1.0, 0.0, 1.0])
    def test_every_entry_is_within_delta_of_the_exact_kernel(self, log_gamma, log_scale):
        spec = KernelSpec("rbf", gamma=10.0**log_gamma)
        for n, coincident in ((1, True), (4, False), (8, True)):
            sample = _rbf_sample(int(log_scale) + 100, 40, n, log_scale, coincident)
            x = sample.values.astype(np.longdouble)
            sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
            exact = np.exp(-np.longdouble(spec.gamma) * sq)
            error = np.abs(GramMatrix(spec, sample).values - exact).max()
            assert error <= kernels_module._rbf_entry_error(spec, sample.values), n

    def test_a_certified_zero_map_and_loaded_model_factor_nothing(
        self, tmp_path, cholesky_calls, eigvalsh_calls
    ):
        # 16 features with r = 1 and gamma 0.5, as bench's fit_rbf, with a
        # coincident pair; at its m = 1000 the docstring's m delta is 5e-12
        sample = _rbf_sample(17, 300, 16, 0.0, coincident=True)
        sample = SampleMatrix(sample.values / sample.radius)
        spec = KernelSpec("rbf", gamma=0.5)
        delta = kernels_module._rbf_entry_error(spec, sample.values)
        assert 4e-12 < 1000 * delta < 6e-12
        model = KernelClass(spec, 1.0, k=2).zero_map(sample)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert np.array_equal(loaded.gram.values, model.gram.values)
        assert cholesky_calls == [] and eigvalsh_calls == []

    def test_a_large_gamma_r_squared_declines_to_psd_check(self, count_calls, cholesky_calls):
        spec = KernelSpec("rbf", gamma=0.5)
        sample = _rbf_sample(19, 40, 4, 3.0)
        assert not _certified(spec, sample)
        calls = count_calls(psd_check)
        GramMatrix(spec, sample)
        assert calls == [1] and cholesky_calls == [1]

    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_a_nonpositive_tolerance_certifies_nothing(self, monkeypatch, count_calls, tol):
        monkeypatch.setattr(kernels_module, "DEFAULT_PSD_TOL", tol)
        calls = count_calls(psd_check)
        sample = _rbf_sample(20, 10, 2, 0.0)
        if tol < 0.0:
            # the eigenvalues of a Gram matrix of distinct points differ
            with pytest.raises(ValidationError, match="fails the PSD check"):
                GramMatrix(KernelSpec("rbf"), sample)
        else:
            GramMatrix(KernelSpec("rbf"), sample)
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
