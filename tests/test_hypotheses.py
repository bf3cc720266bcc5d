"""Hypothesis classes: forward maps, embedding distances, norms, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcert import (
    KernelMap,
    KernelSpec,
    LinearMap,
    SampleMatrix,
    ValidationError,
    embedding_distance_matrix,
    empirical_risk,
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
    return KernelMap(coeff, anchors, KernelSpec("linear"), lambda_cap)


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
        h = KernelMap(np.zeros((2, 2)), anchors, KernelSpec("rbf"), 1.0)
        assert np.all(_forward(h, [0.3, 0.4]) == 0.0)

    def test_rbf_column_entry_at_anchor_is_one(self):
        anchors = SampleMatrix([[1.0, 2.0], [3.0, -1.0]])
        h = KernelMap(np.array([[0.0, 1.0]]), anchors, KernelSpec("rbf", gamma=0.9), 1.0)
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
            KernelMap(rng.normal(size=(3, 5)), s, KernelSpec("rbf"), 10.0),
        ):
            assert np.all(np.diag(embedding_distance_matrix(h, s)) == 0.0)

    def test_linear_kernel_matches_linear_map(self):
        rng = np.random.default_rng(2)
        s = SampleMatrix(rng.normal(size=(4, 2)))
        w = rng.normal(size=(2, 2))
        # representer coefficients reproducing W x on the anchor span
        coeff = w @ np.linalg.pinv(s.values)
        linear = LinearMap(w, 50.0)
        kernelized = KernelMap(coeff, s, KernelSpec("linear"), 50.0)
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
                    h = KernelMap(rng.normal(size=(2, m)), s, kernel, 100.0)
                direct = empirical_risk(embedding_distance_matrix(h, s), d)
                gram_form = stress_state(h, s, d, None, 0.0)[0]
                assert abs(gram_form - direct) <= 1e-12 * direct, (kernel, m)

    def test_kernel_map_on_fresh_points(self):
        rng = np.random.default_rng(4)
        anchors = SampleMatrix(rng.normal(size=(5, 2)))
        h = KernelMap(rng.normal(size=(2, 5)), anchors, KernelSpec("rbf", gamma=0.4), 10.0)
        fresh = SampleMatrix(rng.normal(size=(4, 2)))
        d = embedding_distance_matrix(h, fresh)
        # h(x) = A k_S(x), with k_S(x) evaluated one pair at a time
        columns = [[kernel_eval(h.kernel, a, x) for a in anchors.values] for x in fresh.values]
        expected = pairwise_distances(np.array(columns) @ h.coefficients.T)
        np.testing.assert_allclose(d, expected, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kernel_on_fresh_points_is_rejected(self):
        # tiny anchors give an all-zero Gram matrix, far points overflow
        rng = np.random.default_rng(5)
        anchors = SampleMatrix(rng.normal(size=(5, 2)) * 0.1)
        spec = KernelSpec("polynomial", degree=1000, coef0=0.0)
        h = KernelMap(rng.normal(size=(2, 5)), anchors, spec, 1.0)
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
        np.testing.assert_allclose(blocks, whole, rtol=0.0, atol=1e-14 * np.max(whole))
        np.testing.assert_allclose(whole, pairwise_distances(y) ** 2, rtol=1e-12)

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
        h = KernelMap(np.zeros((2, 2)), anchors, KernelSpec("rbf"), 1.0)
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
            h = KernelMap(rng.normal(size=(2, 4)) * 5.0, anchors, KernelSpec("rbf"), 1.0)
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
            ker = KernelMap(rng.normal(size=(2, 5)) * 10.0, anchors, KernelSpec("linear"), cap)
            assert model_norm(project_norm_ball(ker)) <= cap + 1e-9

    def test_projection_that_is_not_finite_raises(self):
        # mixed-sign coefficients near the float limit: the RKHS norm is NaN
        rng = np.random.default_rng(8)
        anchors = SampleMatrix(rng.normal(size=(6, 2)))
        h = KernelMap(rng.normal(size=(2, 6)) * 1e300, anchors, KernelSpec("rbf"), 1.0)
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
            project_norm_ball(h)

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
    return KernelMap(scale * rng.normal(size=(k, m)), anchors, kernel, cap)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestShrinkAndNormProperties:
    @PROPERTY_SETTINGS
    @given(capped_maps())
    def test_norm_matches_its_definition(self, h):
        if isinstance(h, LinearMap):
            assert h.norm() == float(np.linalg.norm(h.weights, 2))
            return
        # sqrt(trace(A K A^T)), to the round-off of a sum of m^2 k products
        a, k = h.coefficients, h.anchor_gram.values
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
            assert shrunk.anchor_gram is h.anchor_gram
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
        h = KernelMap([[0.1, 0.2]], anchors, KernelSpec("polynomial", degree=3), 2.0)
        path = tmp_path / "model.json"
        save_model(h, path)
        loaded = load_model(path)
        assert isinstance(loaded, KernelMap)
        assert np.array_equal(loaded.coefficients, h.coefficients)
        assert np.array_equal(loaded.anchors.values, anchors.values)
        assert loaded.kernel == h.kernel

    def test_wire_format_fields(self):
        payload = model_to_dict(LinearMap(np.eye(2), 1.0))
        assert payload == {"type": "linear", "lambda_cap": 1.0, "W": [[1.0, 0.0], [0.0, 1.0]]}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"type": "forest", "lambda_cap": 1.0})
