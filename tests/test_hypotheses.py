"""Hypothesis classes: forward maps, embedding distances, norms, projection."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcert import (
    KernelClass,
    KernelMap,
    KernelSpec,
    LinearMap,
    SampleMatrix,
    ValidationError,
    embedding_distance_matrix,
    empirical_risk,
    gram,
    kernel_eval,
    load_model,
    model_norm,
    pairwise_distances,
    project_norm_ball,
    save_model,
    validate_distance_matrix,
)
from simcert.core import gram_form_squared_distances
from simcert.hypotheses import embed, model_from_dict, model_to_dict
from simcert.optimizer import stress_state


def _single_anchor_map(anchor_value, coefficient, lambda_cap=100.0):
    """Linear-kernel map with one live anchor; the zero anchor carries a zero
    coefficient and contributes nothing under the linear kernel."""
    anchors = SampleMatrix([[anchor_value], [0.0]])
    coeff = np.array([[coefficient, 0.0]])
    return KernelMap(coeff, gram(KernelSpec("linear"), anchors), lambda_cap)


def _forward(h, x):
    """embed on one feature vector."""
    return embed(h, [x])[0]


class TestLinearForward:
    def test_identity(self):
        h = LinearMap(np.eye(2), 1.0)
        assert np.array_equal(_forward(h, [3.0, 4.0]), [3.0, 4.0])

    def test_single_row(self):
        h = LinearMap([[2.0, 0.0]], 5.0)
        assert np.array_equal(_forward(h, [1.0, 5.0]), [2.0])

    def test_zero_map(self):
        h = LinearMap(np.zeros((3, 2)), 1.0)
        assert np.all(_forward(h, [7.0, -9.0]) == 0.0)

    def test_dimension_mismatch(self):
        h = LinearMap(np.eye(2), 1.0)
        with pytest.raises(ValidationError):
            _forward(h, [1.0, 2.0, 3.0])


class TestKernelForward:
    def test_linear_kernel_explicit_feature_map(self):
        # phi(x) = x for the linear kernel: h(x) = 3 * K(2, x) = 6 x
        h = _single_anchor_map(anchor_value=2.0, coefficient=3.0)
        assert _forward(h, [1.0]) == pytest.approx(6.0, abs=1e-14)
        assert _forward(h, [2.5]) == pytest.approx(15.0, abs=1e-14)

    def test_zero_coefficients(self):
        anchors = SampleMatrix([[1.0, 0.0], [0.0, 1.0]])
        h = KernelMap(np.zeros((2, 2)), gram(KernelSpec("rbf"), anchors), 1.0)
        assert np.all(_forward(h, [0.3, 0.4]) == 0.0)

    def test_rbf_column_entry_at_anchor_is_one(self):
        anchors = SampleMatrix([[1.0, 2.0], [3.0, -1.0]])
        h = KernelMap(np.array([[0.0, 1.0]]), gram(KernelSpec("rbf", gamma=0.9), anchors), 1.0)
        # coefficient selects anchor 1's kernel column entry, K(x_1, x_1) = 1
        assert _forward(h, [3.0, -1.0]) == pytest.approx(1.0, abs=1e-15)


class TestEmbeddingDistanceMatrix:
    def test_identity_map_reproduces_pairwise(self):
        rng = np.random.default_rng(0)
        s = SampleMatrix(rng.normal(size=(6, 3)))
        h = LinearMap(np.eye(3), 2.0)
        assert np.array_equal(embedding_distance_matrix(h, s), pairwise_distances(s.values))

    def test_zero_diagonal_always(self):
        rng = np.random.default_rng(1)
        s = SampleMatrix(rng.normal(size=(5, 2)))
        for h in (
            LinearMap(rng.normal(size=(3, 2)), 10.0),
            KernelMap(rng.normal(size=(3, 5)), gram(KernelSpec("rbf"), s), 10.0),
        ):
            assert np.all(np.diag(embedding_distance_matrix(h, s)) == 0.0)

    def test_linear_kernel_matches_linear_map(self):
        rng = np.random.default_rng(2)
        s = SampleMatrix(rng.normal(size=(4, 2)))
        w = rng.normal(size=(2, 2))
        # representer coefficients reproducing W x on the anchor span
        coeff = w @ np.linalg.pinv(s.values)
        linear = LinearMap(w, 50.0)
        kernelized = KernelMap(coeff, gram(KernelSpec("linear"), s), 50.0)
        np.testing.assert_allclose(
            embedding_distance_matrix(kernelized, s),
            embedding_distance_matrix(linear, s),
            atol=1e-10,
        )

    def test_gram_form_stress_matches_direct_form_risk(self):
        # the training loop reads risks from Gram-form distances, certify from
        # the direct form; unweighted and unsmoothed, the two must agree
        rng = np.random.default_rng(3)
        for kernel in (None, KernelSpec("rbf", gamma=0.7), KernelSpec("polynomial", degree=2)):
            for m in (2, 9, 40):
                s = SampleMatrix(rng.normal(size=(m, 3)))
                d = validate_distance_matrix(pairwise_distances(rng.normal(size=(m, 2))))
                if kernel is None:
                    h = LinearMap(rng.normal(size=(2, 3)), 100.0)
                else:
                    h = KernelMap(rng.normal(size=(2, m)), gram(kernel, s), 100.0)
                direct = empirical_risk(embedding_distance_matrix(h, s), d)
                gram_form = stress_state(h, s, d, None)[0]
                assert abs(gram_form - direct) <= 1e-12 * direct, (kernel, m)

    def test_kernel_map_on_fresh_points(self):
        rng = np.random.default_rng(4)
        anchors = SampleMatrix(rng.normal(size=(5, 2)))
        h = KernelMap(rng.normal(size=(2, 5)), gram(KernelSpec("rbf", gamma=0.4), anchors), 10.0)
        fresh = SampleMatrix(rng.normal(size=(4, 2)))
        d = embedding_distance_matrix(h, fresh)
        # h(x) = A k_S(x), with k_S(x) evaluated one pair at a time
        columns = [[kernel_eval(h.gram.kernel, a, x) for a in anchors.values] for x in fresh.values]
        expected = pairwise_distances(np.array(columns) @ h.coefficients.T)
        np.testing.assert_allclose(d, expected, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kernel_on_fresh_points_is_rejected(self):
        # tiny anchors give an all-zero Gram matrix, far points overflow
        rng = np.random.default_rng(5)
        anchors = SampleMatrix(rng.normal(size=(5, 2)) * 0.1)
        spec = KernelSpec("polynomial", degree=1000, coef0=0.0)
        h = KernelMap(rng.normal(size=(2, 5)), gram(spec, anchors), 1.0)
        fresh = SampleMatrix(rng.normal(size=(6, 2)) * 100.0)
        with pytest.raises(ValidationError, match="non-finite"):
            embedding_distance_matrix(h, fresh)


class TestGramFormSquaredDistances:
    def test_row_blocks_match_the_whole_matrix(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(23, 3))
        whole = gram_form_squared_distances(y)
        blocks = np.vstack([gram_form_squared_distances(y, s, s + 5) for s in range(0, 23, 5)])
        assert blocks.shape == whole.shape == (23, 23)
        # both are GEMMs, but OpenBLAS tiles a block's rows differently from
        # the whole matrix's, so the last bit of an entry may differ
        np.testing.assert_allclose(blocks, whole, rtol=0.0, atol=1e-14 * np.max(whole))
        np.testing.assert_allclose(whole, pairwise_distances(y) ** 2, rtol=1e-12)

    def test_each_entry_is_the_broadcast_formula_bit_for_bit(self):
        # the norm sums come from a rank-2 GEMM; they must be the broadcast
        # sum n_i + n_j exactly, overflow included
        rng = np.random.default_rng(9)
        for scale in (1e-150, 1.0, 1e150, 1e155):
            y = rng.normal(size=(37, 4)) * scale
            norms = np.einsum("ij,ij->i", y, y)
            for start, stop in ((0, 37), (5, 19)):
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = y[start:stop] @ np.ascontiguousarray(-2.0 * y.T)
                    floor = norms[start:stop, None] + norms[None, :]
                    expected += floor
                    expected[expected <= floor * (2.0 * (4 + 2) * (np.finfo(float).eps / 2.0))] = 0.0
                    sq = gram_form_squared_distances(y, start, stop)
                assert np.array_equal(sq, expected, equal_nan=True), (scale, start)

    def test_coincident_rows_are_exactly_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m, n, k = int(rng.integers(3, 80)), int(rng.integers(1, 8)), int(rng.integers(1, 21))
            x = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            x[rng.integers(0, m, size=m // 4 + 1)] = x[rng.integers(0, m, size=m // 4 + 1)]
            y = x @ rng.normal(size=(k, n)).T
            rows = int(rng.integers(1, 9))
            sq = np.vstack(
                [gram_form_squared_distances(y, s, s + rows) for s in range(0, m, rows)]
            )
            assert np.all(sq[np.all(x[:, None, :] == x[None, :, :], axis=2)] == 0.0)


class TestModelNorm:
    def test_diagonal_singular_values(self):
        h = LinearMap(np.diag([2.0, 0.5]), 10.0)
        assert model_norm(h) == pytest.approx(2.0, abs=1e-12)

    def test_single_anchor_rkhs_norm(self):
        # K = [4] on the live anchor: sqrt(9 * 4) = 6
        h = _single_anchor_map(anchor_value=2.0, coefficient=3.0)
        assert model_norm(h) == pytest.approx(6.0, abs=1e-12)

    def test_zero_coefficients_zero_norm(self):
        anchors = SampleMatrix([[1.0], [2.0]])
        h = KernelMap(np.zeros((2, 2)), gram(KernelSpec("rbf"), anchors), 1.0)
        assert model_norm(h) == 0.0

    def test_linear_norm_bitwise_equal_to_numpy_spectral_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            shape = tuple(rng.integers(1, 9, size=2))
            w = rng.normal(size=shape) * 10.0 ** rng.uniform(-150, 150)
            assert model_norm(LinearMap(w, 1.0)) == float(np.linalg.norm(w, 2)), shape


class TestProjectNormBall:
    def test_singular_values_clipped(self):
        h = LinearMap(np.diag([2.0, 0.5]), 1.0)
        projected = project_norm_ball(h)
        np.testing.assert_allclose(projected.weights, np.diag([1.0, 0.5]), atol=1e-12)

    def test_interior_point_returned_unchanged(self):
        h = LinearMap(np.diag([0.5, 0.25]), 1.0)
        assert project_norm_ball(h) is h

    def test_kernel_map_rescaled(self):
        h = _single_anchor_map(anchor_value=2.0, coefficient=3.0, lambda_cap=3.0)
        assert model_norm(h) == pytest.approx(6.0, abs=1e-12)
        projected = project_norm_ball(h)
        np.testing.assert_allclose(projected.coefficients, h.coefficients / 2.0, atol=1e-12)
        assert model_norm(projected) == pytest.approx(3.0, abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = LinearMap(rng.normal(size=(3, 4)) * 3.0, 1.0)
            once = project_norm_ball(h)
            twice = project_norm_ball(once)
            assert np.max(np.abs(twice.weights - once.weights)) <= 1e-12
        anchors = SampleMatrix(rng.normal(size=(4, 2)))
        for _ in range(10):
            h = KernelMap(rng.normal(size=(2, 4)) * 5.0, gram(KernelSpec("rbf"), anchors), 1.0)
            once = project_norm_ball(h)
            twice = project_norm_ball(once)
            assert np.max(np.abs(twice.coefficients - once.coefficients)) <= 1e-12

    def test_norm_within_cap_after_projection(self):
        rng = np.random.default_rng(6)
        anchors = SampleMatrix(rng.normal(size=(5, 3)))
        for _ in range(20):
            cap = float(rng.uniform(0.1, 2.0))
            lin = LinearMap(rng.normal(size=(2, 3)) * 10.0, cap)
            assert model_norm(project_norm_ball(lin)) <= cap + 1e-9
            ker = KernelMap(
                rng.normal(size=(2, 5)) * 10.0, gram(KernelSpec("linear"), anchors), cap
            )
            assert model_norm(project_norm_ball(ker)) <= cap + 1e-9

    def test_projection_of_a_norm_beyond_the_float_range_is_finite(self):
        # every RBF entry is positive and the diagonal is 1, so the squared
        # norm is at least 12e616: beyond the float range; the projected map
        # has equal entries below 1 / sqrt(12)
        rng = np.random.default_rng(8)
        anchors = SampleMatrix(rng.normal(size=(6, 2)))
        h = KernelMap(np.full((2, 6), 1e308), gram(KernelSpec("rbf"), anchors), 1.0)
        assert model_norm(h) == np.inf
        projected = project_norm_ball(h)
        a = projected.coefficients
        assert np.all(np.isfinite(a)) and np.all(a == a[0, 0]) and 0.0 < a[0, 0] < 12**-0.5
        assert model_norm(projected) <= h.lambda_cap + 1e-9
        assert model_norm(projected) == pytest.approx(h.lambda_cap, rel=1e-12)

    def test_norm_whose_square_overflows_is_finite(self):
        # the squared norm is about 1e320; pytest turns the overflow warning
        # of the plain form into an error
        rng = np.random.default_rng(8)
        anchors = SampleMatrix(rng.normal(size=(6, 2)))
        a = rng.normal(size=(2, 6))
        h = KernelMap(a * 1e160, gram(KernelSpec("rbf"), anchors), 1e300)
        unit = KernelMap(a, gram(KernelSpec("rbf"), anchors), 1.0)
        assert model_norm(h) == pytest.approx(1e160 * model_norm(unit), rel=1e-14)
        assert project_norm_ball(h) is h

    def test_finite_norm_is_the_plain_form_bitwise(self):
        rng = np.random.default_rng(9)
        anchors = SampleMatrix(rng.normal(size=(7, 3)))
        for family in ("linear", "rbf", "polynomial"):
            a = rng.normal(size=(3, 7)) * 10.0 ** rng.uniform(-3.0, 3.0)
            h = KernelMap(a, gram(KernelSpec(family), anchors), 1.0)
            k = h.gram.values
            assert model_norm(h) == float(np.sqrt(max(float(np.sum((a @ k) * a)), 0.0)))

    def test_overflowing_frobenius_norm_projects_without_a_warning(self):
        h = LinearMap(np.array([[1e200, -1e200], [1e200, 1e200]]), 1.0)
        assert model_norm(project_norm_ball(h)) == pytest.approx(1.0, rel=1e-12)

    def test_contraction_under_spectral_cap(self):
        # ||W x_i - W x_j|| <= cap * ||x_i - x_j|| for every projected map
        rng = np.random.default_rng(7)
        for _ in range(20):
            cap = float(rng.uniform(0.2, 3.0))
            s = SampleMatrix(rng.normal(size=(6, 3)))
            h = project_norm_ball(LinearMap(rng.normal(size=(2, 3)) * 5.0, cap))
            embedded = embedding_distance_matrix(h, s)
            raw = pairwise_distances(s.values)
            assert np.all(embedded <= cap * raw + 1e-9)


# None stands for the linear class.
PROPERTY_KERNELS = [
    None,
    KernelSpec("rbf", gamma=0.7),
    KernelSpec("polynomial", degree=2, coef0=1.0),
    KernelSpec("linear"),
]


@st.composite
def capped_maps(draw):
    """A linear or kernel map with cap and parameter scale each in [1e-3, 1e3]."""
    kernel = draw(st.sampled_from(PROPERTY_KERNELS))
    cap = 10.0 ** draw(st.floats(-3.0, 3.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 6))
    if kernel is None:
        return LinearMap(scale * rng.normal(size=(k, n)), cap)
    anchors = SampleMatrix(rng.normal(size=(m, n)))
    return KernelMap(scale * rng.normal(size=(k, m)), gram(kernel, anchors), cap)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestShrinkAndNormProperties:
    @PROPERTY_SETTINGS
    @given(capped_maps())
    def test_norm_matches_its_definition(self, h):
        if isinstance(h, LinearMap):
            assert h.norm() == float(np.linalg.norm(h.weights, 2))
            return
        # sqrt(trace(A K A^T)), to the round-off of a sum of m^2 k products
        a, k = h.coefficients, h.gram.values
        round_off = 1e-13 * np.sum(a * a) * np.abs(k).max() * k.shape[0]
        assert abs(h.norm() ** 2 - np.trace(a @ k @ a.T)) <= round_off

    @PROPERTY_SETTINGS
    @given(capped_maps())
    def test_projection_lands_in_the_ball(self, h):
        assert model_norm(project_norm_ball(h)) <= h.lambda_cap * (1 + 1e-9)

    @PROPERTY_SETTINGS
    @given(capped_maps())
    def test_projection_is_idempotent(self, h):
        once = project_norm_ball(h)
        twice = project_norm_ball(once)
        assert np.linalg.norm(twice.params - once.params) <= 1e-12 * np.linalg.norm(once.params)

    @PROPERTY_SETTINGS
    @given(capped_maps())
    def test_map_inside_the_ball_is_returned_as_is(self, h):
        nrm = model_norm(h)
        inside = h.with_params(h.params * (0.5 * h.lambda_cap / nrm)) if nrm > 0.0 else h
        assert project_norm_ball(inside) is inside

    @PROPERTY_SETTINGS
    @given(capped_maps())
    def test_shrink_keeps_what_the_ball_allows(self, h):
        # linear maps keep their singular vectors, kernel maps their direction
        nrm = model_norm(h)
        if nrm <= h.lambda_cap:
            return
        shrunk = project_norm_ball(h)
        assert type(shrunk) is type(h) and shrunk.lambda_cap == h.lambda_cap
        if isinstance(h, KernelMap):
            assert shrunk.gram is h.gram
            np.testing.assert_allclose(
                shrunk.params, h.params * (h.lambda_cap / nrm), rtol=1e-15, atol=0.0
            )
        else:
            s = np.linalg.svd(h.weights, compute_uv=False)
            clipped = np.linalg.svd(shrunk.weights, compute_uv=False)
            np.testing.assert_allclose(
                clipped, np.minimum(s, h.lambda_cap), rtol=1e-12, atol=1e-12 * s[0]
            )


class TestModelSerialization:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_a_saved_model_has_the_mode_a_plain_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            save_model(LinearMap([[1.0]], 1.0), tmp_path / "model.json")
            open(tmp_path / "plain.json", "w").close()
        finally:
            os.umask(old)
        mode = (tmp_path / "model.json").stat().st_mode & 0o777
        assert mode == (tmp_path / "plain.json").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_saving_a_model_streams_its_text(self, tmp_path):
        # 300 RBF anchors in R^4 and k = 2 make about 52 KB of JSON; encoding
        # the whole text before writing it peaked at 298 KB
        rng = np.random.default_rng(5)
        sample = SampleMatrix(rng.normal(size=(300, 4)))
        model = KernelMap(rng.normal(size=(2, 300)), gram(KernelSpec("rbf"), sample), 1e6)
        save_model(model, tmp_path / "warm.json")
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150_000
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_linear_round_trip(self, tmp_path):
        h = LinearMap([[1.5, -2.0], [0.0, 3.0]], 4.0)
        path = tmp_path / "model.json"
        save_model(h, path)
        loaded = load_model(path)
        assert isinstance(loaded, LinearMap)
        assert np.array_equal(loaded.weights, h.weights)
        assert loaded.lambda_cap == h.lambda_cap

    def test_kernel_round_trip(self, tmp_path):
        anchors = SampleMatrix([[1.0, 0.0], [0.5, -1.0]])
        h = KernelMap([[0.1, 0.2]], gram(KernelSpec("polynomial", degree=3), anchors), 2.0)
        path = tmp_path / "model.json"
        save_model(h, path)
        loaded = load_model(path)
        assert isinstance(loaded, KernelMap)
        assert np.array_equal(loaded.coefficients, h.coefficients)
        assert np.array_equal(loaded.gram.sample.values, anchors.values)
        assert loaded.gram.kernel == h.gram.kernel

    def test_kernel_maps_carry_their_gram_matrix_anchors_and_kernel(self, tmp_path):
        rng = np.random.default_rng(21)
        spec = KernelSpec("polynomial", degree=3, coef0=0.5)
        sample = SampleMatrix(rng.normal(size=(6, 2)))
        zero = KernelClass(spec, 0.5, k=2).zero_map(sample)
        moved = zero.with_params(rng.normal(size=(2, 6)) * 10.0)
        projected = project_norm_ball(moved)
        assert projected is not moved
        path = tmp_path / "model.json"
        save_model(projected, path)
        loaded = load_model(path)
        expected = gram(spec, sample).values
        for h in (zero, moved, projected, loaded):
            assert h.gram.kernel == spec
            assert np.array_equal(h.gram.sample.values, sample.values)
            assert np.array_equal(h.gram.values, expected)
        assert zero.gram is moved.gram is projected.gram
        assert np.array_equal(loaded.coefficients, projected.coefficients)
        payload = model_to_dict(loaded)
        assert payload["anchors"] == sample.values.tolist()
        assert payload["kernel"] == spec.to_dict()

    def test_wire_format_fields(self):
        payload = model_to_dict(LinearMap(np.eye(2), 1.0))
        assert payload == {"type": "linear", "lambda_cap": 1.0, "W": [[1.0, 0.0], [0.0, 1.0]]}

    def test_width_is_checked_before_the_gram_matrix_is_built(self, count_calls):
        calls = count_calls(gram)
        payload = {
            "type": "kernel", "lambda_cap": 1.0, "A": [[1.0, 0.0, 2.0]],
            "anchors": [[0.0, 0.0], [1.0, 0.0]], "kernel": {"family": "rbf"},
        }
        with pytest.raises(
            ValidationError,
            match=r"^malformed kernel model: coefficient matrix has 3 columns for 2 anchors$",
        ):
            model_from_dict(payload)
        assert calls == []

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"type": "forest", "lambda_cap": 1.0})
