"""Containers, validation, stress loss, and CSV round trips."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import simcert.cli as cli_module
import simcert.core as core_module

from simcert import (
    ConfusionMatrix,
    DistanceMatrix,
    GramMatrix,
    KernelMap,
    KernelSpec,
    LinearMap,
    SampleMatrix,
    SyntheticSpec,
    ValidationError,
    confusion_to_distance,
    data_radii,
    empirical_risk,
    generate_synthetic,
    gram,
    pairwise_distances,
    read_matrix_csv,
    validate_distance_matrix,
    write_matrix_csv,
)
from simcert.core import streamed_risk


class TestSampleMatrix:
    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            SampleMatrix([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            SampleMatrix([[0.0, np.nan], [1.0, 2.0]])

    @pytest.mark.parametrize("scale", [1e154, 1e200])
    def test_rejects_points_whose_squared_distances_overflow(self, scale):
        # (2 r)^2 overflows from r = 6.7e153 on; no numpy warning on the way
        with pytest.raises(ValidationError, match="too large"):
            SampleMatrix([[scale, 0.0], [0.0, 1.0]])
        SampleMatrix([[6.7e153, 0.0], [0.0, 1.0]])

    def test_values_are_immutable(self):
        s = SampleMatrix([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_shape_accessors(self):
        s = SampleMatrix(np.arange(6.0).reshape(3, 2))
        assert s.m == 3
        assert s.n_features == 2


def _noisy_targets(m):
    """Distances of m points with entrywise noise of 1e-10, so asymmetric."""
    rng = np.random.default_rng(m)
    return pairwise_distances(rng.normal(size=(m, 3))) + 1e-10 * rng.normal(size=(m, m))


class TestValidateDistanceMatrix:
    def test_exact_symmetric_metric_passes(self):
        d = validate_distance_matrix([[0.0, 1.0], [1.0, 0.0]], tol=0.0)
        assert np.array_equal(d.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_asymmetry_beyond_tol_rejected(self):
        with pytest.raises(ValidationError, match="asymmetry"):
            validate_distance_matrix([[0.0, 1.0], [0.9, 0.0]], tol=0.01)

    def test_asymmetry_within_tol_averaged(self):
        # averaging rule applied by hand: (1 + (1 + 1e-12)) / 2 both sides
        d = validate_distance_matrix([[0.0, 1.0 + 1e-12], [1.0, 0.0]], tol=1e-9)
        expected = (1.0 + (1.0 + 1e-12)) / 2.0
        assert d.values[0, 1] == expected
        assert d.values[1, 0] == expected

    def test_negative_within_tol_clamped(self):
        d = validate_distance_matrix([[0.0, -1e-12], [-1e-12, 0.0]], tol=1e-9)
        assert d.values[0, 1] == 0.0

    def test_negative_beyond_tol_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            validate_distance_matrix([[0.0, -0.5], [-0.5, 0.0]], tol=1e-9)

    def test_diagonal_beyond_tol_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            validate_distance_matrix([[0.1, 1.0], [1.0, 0.0]], tol=1e-3)

    def test_diagonal_within_tol_zeroed(self):
        d = validate_distance_matrix([[1e-12, 1.0], [1.0, -1e-12]], tol=1e-9)
        assert np.all(np.diag(d.values) == 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            validate_distance_matrix([[0.0, np.inf], [np.inf, 0.0]], tol=1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            validate_distance_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError):
            validate_distance_matrix([[0.0]], tol=-1.0)

    def test_nan_tol_rejected(self):
        # with tol = NaN every "exceeds tolerance" test is false and any matrix passes
        with pytest.raises(ValidationError, match="tol"):
            validate_distance_matrix([[0.0, 5.0], [-3.0, 7.0]], tol=np.nan)

    def test_infinite_tol_rejected(self):
        # an infinite tol would "repair" any matrix just as NaN does
        with pytest.raises(ValidationError, match="tol"):
            validate_distance_matrix([[0.0, 5.0], [-3.0, 7.0]], tol=np.inf)


    @pytest.mark.parametrize("m", [2, 5, 300, 1000])
    def test_repair_equals_the_materialized_formula_bitwise(self, m):
        rng = np.random.default_rng(m)
        base = pairwise_distances(rng.normal(size=(m, 3)))
        raw = base + 1e-10 * rng.normal(size=(m, m))
        sym = (raw + raw.T) / 2.0
        expected = np.maximum(sym, 0.0)
        np.fill_diagonal(expected, 0.0)
        got = validate_distance_matrix(raw, tol=1e-8)
        assert got.values.tobytes() == expected.tobytes()
        with pytest.raises(ValidationError, match=f"asymmetry {np.max(np.abs(raw - raw.T)):g} "):
            validate_distance_matrix(raw, tol=1e-12)

    def test_working_memory_holds_one_temporary_beyond_input_and_output(self):
        # m = 1000: each m x m float matrix takes 8 MB; the input is made
        # before tracing starts, the output is the one copy of it, repaired
        # in place and kept, and the checks build m x m bool masks (1 MB
        # each); the repair's scratch plane takes about _BLOCK_BYTES
        m = 1000
        raw = pairwise_distances(np.random.default_rng(15).normal(size=(m, 3)))
        tracemalloc.start()
        try:
            validate_distance_matrix(raw, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m + 2 * m * m + 2 * core_module._BLOCK_BYTES

    @pytest.mark.parametrize(
        "raw, tol, error",
        [
            (_noisy_targets(300), 1e-8, None),
            (_noisy_targets(300), 1e-12, "asymmetry"),
            ([[0.1, 1.0], [1.0, 0.0]], 1e-3, "diagonal"),
            ([[0.0, -0.5], [-0.5, 0.0]], 1e-9, "negative"),
        ],
        ids=["repaired", "asymmetric", "diagonal", "negative"],
    )
    def test_never_writes_the_callers_matrix(self, raw, tol, error):
        # at m = 300 the repair spans two row blocks, and the asymmetric
        # matrix is rejected after both were written in the copy
        raw = np.array(raw)
        before = raw.copy()
        if error is None:
            validate_distance_matrix(raw, tol=tol)
        else:
            with pytest.raises(ValidationError, match=error):
                validate_distance_matrix(raw, tol=tol)
        assert raw.tobytes() == before.tobytes()

    def test_mutating_the_input_afterwards_leaves_the_targets_unchanged(self):
        raw = np.array([[0.0, 1.0 + 1e-12], [1.0, 0.0]])
        d = validate_distance_matrix(raw, tol=1e-9)
        kept = d.values.copy()
        raw[:] = 7.0
        assert d.values.tobytes() == kept.tobytes()


class TestDistanceMatrixInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            DistanceMatrix([[1e-16, 1.0], [1.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            DistanceMatrix([[0.0, -1.0], [-1.0, 0.0]])

    def test_triangle_inequality_not_required(self):
        # 0-1 distance far exceeds the 0-2 + 2-1 path; still a valid target
        d = DistanceMatrix([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert d.max_distance == 10.0

    def test_mutating_the_input_afterwards_leaves_the_targets_unchanged(self):
        raw = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = DistanceMatrix(raw)
        raw[:] = 7.0
        assert np.array_equal(d.values, [[0.0, 1.0], [1.0, 0.0]])


def _csv_targets(tmp_path):
    """The targets of a 3-point CSV instance through the CLI's load path."""
    write_matrix_csv(tmp_path / "f.csv", np.eye(3))
    write_matrix_csv(tmp_path / "d.csv", pairwise_distances(np.eye(3)))
    args = SimpleNamespace(features=tmp_path / "f.csv", distances=tmp_path / "d.csv", tol=1e-9)
    return cli_module._load_problem(args)[1]


_DISTANCE_MAKERS = {
    "constructor": lambda tmp_path: DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
    "validate": lambda tmp_path: validate_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
    "confusion": lambda tmp_path: confusion_to_distance(ConfusionMatrix(np.eye(2))),
    "synthetic": lambda tmp_path: generate_synthetic(SyntheticSpec(5, 2, 2, 1.0, 1.0, 0.1, 0))[1],
    "csv": _csv_targets,
}


@pytest.mark.parametrize("make", _DISTANCE_MAKERS.values(), ids=_DISTANCE_MAKERS.keys())
def test_every_distance_matrix_holds_read_only_values(make, tmp_path):
    d = make(tmp_path)
    assert not d.values.flags.writeable
    with pytest.raises(ValueError):
        d.values[0, 1] = 5.0


_ARRAY_CONTAINERS = {
    "SampleMatrix": lambda: SampleMatrix([[0.0], [1.0]]),
    "DistanceMatrix": lambda: DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]),
    "ConfusionMatrix": lambda: ConfusionMatrix([[1.0, 0.5], [0.5, 1.0]]),
    "LinearMap": lambda: LinearMap([[1.0, 0.0]], 1.0),
    "KernelMap": lambda: KernelMap(
        [[1.0, 0.0]], gram(KernelSpec("rbf"), SampleMatrix([[0.0], [1.0]])), 1.0
    ),
    "GramMatrix": lambda: GramMatrix(KernelSpec("rbf"), SampleMatrix([[0.0], [1.0]])),
}


@pytest.mark.parametrize("make", _ARRAY_CONTAINERS.values(), ids=_ARRAY_CONTAINERS.keys())
def test_containers_holding_arrays_compare_and_hash_by_identity(make):
    first, second = make(), make()
    assert (first == second) is False
    assert (first == first) is True
    assert (first != second) is True
    assert len({first, second, first}) == 2


class TestConfusionToDistance:
    def test_basic_conversion(self):
        c = ConfusionMatrix([[1.0, 0.8], [0.8, 1.0]])
        d = confusion_to_distance(c)
        assert np.array_equal(d.values, [[0.0, 1.0 - 0.8], [1.0 - 0.8, 0.0]])

    def test_identity_confusion_gives_unit_distances(self):
        c = ConfusionMatrix(np.eye(3))
        d = confusion_to_distance(c)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(d.values, expected)

    def test_max_distance_at_most_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(2, 6)
            off = rng.random((m, m))
            c_vals = np.triu(off, 1)
            c_vals = c_vals + c_vals.T + np.eye(m)
            d = confusion_to_distance(ConfusionMatrix(c_vals))
            assert d.max_distance <= 1.0

    def test_asymmetric_confusion_rejected(self):
        c = ConfusionMatrix([[1.0, 0.3], [0.4, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            confusion_to_distance(c)

    def test_entries_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix([[1.0, 1.2], [1.2, 1.0]])

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix([[0.9, 0.1], [0.1, 1.0]])


def _direct_form(pts):
    """Direct-form distances from the full difference broadcast: numpy's own
    sum below 8 coordinates, where it adds the planes in order, and the
    planes added in order from 8 on."""
    diff = pts[:, None, :] - pts[None, :, :]
    sq = diff * diff
    if pts.shape[1] < 8:
        total = np.sum(sq, axis=2)
    else:
        total = sq[:, :, 0].copy()
        for c in range(1, pts.shape[1]):
            total += sq[:, :, c]
    out = np.sqrt(total)
    np.fill_diagonal(out, 0.0)
    return out


class TestPairwiseDistances:
    def test_two_points_one_dim(self):
        assert np.array_equal(pairwise_distances([[0.0], [1.0]]), [[0.0, 1.0], [1.0, 0.0]])

    def test_three_four_five_triangle(self):
        d = pairwise_distances([[0.0, 0.0], [3.0, 4.0]])
        assert d[0, 1] == 5.0
        assert d[1, 0] == 5.0

    def test_collinear_points(self):
        d = pairwise_distances([[0.0], [1.0], [3.0]])
        expected = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
        assert np.array_equal(d, expected)

    def test_output_is_valid_distance_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.normal(size=(rng.integers(2, 8), rng.integers(1, 4)))
            d = pairwise_distances(y)
            DistanceMatrix(d)  # symmetry, zero diagonal, nonnegativity at tol 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            pairwise_distances([[np.inf], [0.0]])

    def test_row_blocks_match_a_full_broadcast_bitwise(self):
        # sizes on both sides of the 64-row block and across several blocks
        rng = np.random.default_rng(12)
        for m, k in [(2, 1), (63, 3), (64, 7), (65, 2), (130, 7), (200, 16)]:
            pts = rng.normal(size=(m, k))
            assert np.array_equal(pairwise_distances(pts), _direct_form(pts)), (m, k)

    def test_small_blocks_match_a_full_broadcast_bitwise_in_every_summation_regime(
        self, monkeypatch
    ):
        # k below 8, where numpy's broadcast sum adds in order, and well
        # beyond; 4-row blocks leave a partial last block
        rng = np.random.default_rng(13)
        for m in [1, 2, 9, 65]:
            monkeypatch.setattr(core_module, "_BLOCK_BYTES", 8 * m * 4)
            for k in [0, 1, 2, 7, 8, 9, 16, 17, 129, 300]:
                pts = rng.normal(size=(m, k)) * 10.0 ** rng.uniform(-3, 3, size=k)
                assert np.array_equal(pairwise_distances(pts), _direct_form(pts)), (m, k)

    def test_working_memory_stays_below_two_output_matrices(self):
        # m = 1000, k = 50: the output takes 8 MB; a difference broadcast over
        # 64 rows would take 26 MB on its own.  Beyond the output and the
        # column copy, two block planes are allowed.
        m, k = 1000, 50
        pts = np.random.default_rng(14).normal(size=(m, k))
        tracemalloc.start()
        try:
            pairwise_distances(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m + 8 * m * k + 2 * core_module._BLOCK_BYTES


class TestEmpiricalRisk:
    def test_perfect_fit_is_zero(self):
        d = DistanceMatrix([[0.0, 2.0], [2.0, 0.0]])
        assert empirical_risk(d.values, d) == 0.0

    def test_two_point_hand_sum(self):
        # residual 0.5 on both ordered pairs: (1/4)(0 + 0.25 + 0.25 + 0)
        pred = np.array([[0.0, 1.0], [1.0, 0.0]])
        target = DistanceMatrix([[0.0, 0.5], [0.5, 0.0]])
        assert empirical_risk(pred, target) == 0.125

    def test_constant_offdiagonal_residual(self):
        # six off-diagonal ordered pairs out of nine contribute c^2 each
        c = 0.5
        target = DistanceMatrix(np.ones((3, 3)) - np.eye(3))
        pred = target.values + c * (np.ones((3, 3)) - np.eye(3))
        assert empirical_risk(pred, target) == pytest.approx(6 * c**2 / 9, abs=1e-15)

    def test_size_mismatch_rejected(self):
        target = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="mismatch"):
            empirical_risk(np.zeros((3, 3)), target)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(3, 8))
            pred = pairwise_distances(rng.normal(size=(m, 2)))
            target = DistanceMatrix(pairwise_distances(rng.normal(size=(m, 2))))
            perm = rng.permutation(m)
            base = empirical_risk(pred, target)
            permuted = empirical_risk(
                pred[np.ix_(perm, perm)],
                DistanceMatrix(target.values[np.ix_(perm, perm)]),
            )
            assert permuted == pytest.approx(base, rel=1e-12)

    def test_self_distances_give_zero_risk(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(6, 3))
        d = pairwise_distances(y)
        assert empirical_risk(d, DistanceMatrix(d)) == 0.0


class TestStreamedRisk:
    def test_two_point_hand_sum(self):
        # predicted distance 1, target 0.5: (1/4)(0 + 0.25 + 0.25 + 0)
        target = DistanceMatrix([[0.0, 0.5], [0.5, 0.0]])
        assert streamed_risk([[0.0], [1.0]], target.upper_rows()) == 0.125

    def test_matches_the_mean_over_all_ordered_pairs(self, monkeypatch):
        # 4-row blocks leave a partial last block; n = 1 is a single block
        rng = np.random.default_rng(16)
        for n in [1, 2, 9, 65]:
            monkeypatch.setattr(core_module, "_BLOCK_BYTES", 8 * n * 4)
            for k in [0, 1, 3, 9]:
                y = rng.normal(size=(n, k))
                target = DistanceMatrix(pairwise_distances(rng.normal(size=(n, 2))))
                oracle = float(np.mean((pairwise_distances(y) - target.values) ** 2))
                got = streamed_risk(y, target.upper_rows())
                assert type(got) is float
                assert got == pytest.approx(oracle, rel=1e-14, abs=0.0), (n, k)

    def test_too_few_or_too_many_blocks_rejected(self):
        d = DistanceMatrix(pairwise_distances(np.arange(6.0).reshape(3, 2)))
        with pytest.raises(ValueError):
            streamed_risk(np.zeros((3, 1)), iter(()))
        with pytest.raises(ValueError):
            streamed_risk(np.zeros((3, 1)), [*d.upper_rows(), d.values])

    def test_non_finite_points_rejected(self):
        target = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            streamed_risk([[np.nan], [0.0]], target.upper_rows())

    def test_overflowing_distances_give_inf_without_a_warning(self):
        target = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert streamed_risk([[1e200], [-1e200]], target.upper_rows()) == np.inf


class TestDataRadii:
    def test_max_row_norm(self):
        s = SampleMatrix([[0.0, 0.0], [3.0, 4.0]])
        d = DistanceMatrix(np.zeros((2, 2)))
        assert data_radii(s, d).r == 5.0

    def test_beta_from_confusion_at_most_one(self):
        c = ConfusionMatrix([[1.0, 0.2, 0.9], [0.2, 1.0, 0.5], [0.9, 0.5, 1.0]])
        d = confusion_to_distance(c)
        s = SampleMatrix(np.zeros((3, 2)) + [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert data_radii(s, d).beta <= 1.0

    def test_unit_circle_with_origin(self):
        angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        s = SampleMatrix(pts)
        d = DistanceMatrix(np.zeros((9, 9)))
        assert data_radii(s, d).r == pytest.approx(1.0, abs=1e-15)

    def test_size_mismatch_rejected(self):
        s = SampleMatrix([[0.0], [1.0]])
        d = DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            data_radii(s, d)


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(7, 3)) * 1e3
        path = tmp_path / "mat.csv"
        write_matrix_csv(path, mat)
        assert np.array_equal(read_matrix_csv(path), mat)

    def test_plain_text_format(self, tmp_path):
        path = tmp_path / "mat.csv"
        write_matrix_csv(path, [[1.0, 2.0], [3.0, 4.0]])
        text = path.read_bytes().decode()
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 2

    def test_single_row_reads_as_matrix(self, tmp_path):
        path = tmp_path / "row.csv"
        write_matrix_csv(path, [[1.0, 2.0, 3.0]])
        assert read_matrix_csv(path).shape == (1, 3)
