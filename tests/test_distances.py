"""Tests for the distance substrate."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distances import (
    COSINE,
    EUCLIDEAN,
    cosine_distance,
    cosine_similarity,
    cosine_threshold_to_euclidean,
    euclidean_distance,
    euclidean_threshold_to_cosine,
    finite_squared_norms,
    get_distance,
    normalize_rows,
    pairwise_cosine_distance,
    pairwise_euclidean,
    prepare_data_for_distance,
)


class TestEuclidean:
    def test_simple_values(self):
        data = np.array([[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_allclose(euclidean_distance(np.zeros(2), data), [0.0, 5.0])

    def test_matches_numpy_norm(self, rng):
        query = rng.normal(size=8)
        data = rng.normal(size=(20, 8))
        expected = np.linalg.norm(data - query, axis=1)
        np.testing.assert_allclose(euclidean_distance(query, data), expected, atol=1e-10)

    def test_pairwise_symmetric_and_zero_diagonal(self, rng):
        points = rng.normal(size=(10, 4))
        matrix = pairwise_euclidean(points, points)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-10)
        np.testing.assert_allclose(np.diag(matrix), np.zeros(10), atol=1e-7)

    def test_pairwise_matches_rowwise(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(7, 3))
        matrix = pairwise_euclidean(a, b)
        for i in range(5):
            np.testing.assert_allclose(matrix[i], euclidean_distance(a[i], b), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        points=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(3, 6), st.integers(2, 5)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    def test_property_triangle_inequality(self, points):
        """Property: Euclidean distance satisfies the triangle inequality."""
        matrix = pairwise_euclidean(points, points)
        n = len(points)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-7


class TestCosine:
    def test_identical_vectors_zero_distance(self, rng):
        vector = rng.normal(size=6)
        assert cosine_distance(vector, vector[None, :])[0] == pytest.approx(0.0, abs=1e-12)

    def test_opposite_vectors_distance_two(self):
        vector = np.array([1.0, 0.0])
        assert cosine_distance(vector, -vector[None, :])[0] == pytest.approx(2.0)

    def test_similarity_scale_invariant(self, rng):
        query = rng.normal(size=5)
        data = rng.normal(size=(8, 5))
        np.testing.assert_allclose(
            cosine_similarity(query, data), cosine_similarity(query * 7.0, data * 3.0), atol=1e-10
        )

    def test_distance_in_zero_two_range(self, rng):
        query = rng.normal(size=5)
        data = rng.normal(size=(50, 5))
        distances = cosine_distance(query, data)
        assert np.all(distances >= -1e-12) and np.all(distances <= 2.0 + 1e-12)

    def test_pairwise_matches_rowwise(self, rng):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(5, 6))
        matrix = pairwise_cosine_distance(a, b)
        for i in range(4):
            np.testing.assert_allclose(matrix[i], cosine_distance(a[i], b), atol=1e-10)

    def test_unit_vector_equivalence_with_euclidean(self, rng):
        """For unit vectors: ||u - v||^2 = 2 * d_cos(u, v)."""
        u = normalize_rows(rng.normal(size=(1, 8)))[0]
        data = normalize_rows(rng.normal(size=(30, 8)))
        euclid = euclidean_distance(u, data)
        cosine = cosine_distance(u, data)
        np.testing.assert_allclose(euclid ** 2, 2.0 * cosine, atol=1e-9)


class TestNormalizeAndConversions:
    def test_normalize_rows_unit_norm(self, rng):
        data = rng.normal(size=(20, 5)) * 10
        norms = np.linalg.norm(normalize_rows(data), axis=1)
        np.testing.assert_allclose(norms, np.ones(20), atol=1e-12)

    def test_normalize_handles_zero_row(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = normalize_rows(data)
        assert np.all(np.isfinite(out))

    def test_threshold_conversion_roundtrip(self):
        for threshold in [0.0, 0.1, 0.5, 1.0, 2.0]:
            euclid = cosine_threshold_to_euclidean(threshold)
            assert euclidean_threshold_to_cosine(euclid) == pytest.approx(threshold, abs=1e-12)

    def test_threshold_conversion_preserves_selectivity(self, rng):
        """The converted threshold selects exactly the same unit vectors."""
        data = normalize_rows(rng.normal(size=(100, 6)))
        query = data[0]
        threshold = 0.15
        cosine_count = np.count_nonzero(cosine_distance(query, data) <= threshold)
        euclid_count = np.count_nonzero(
            euclidean_distance(query, data) <= cosine_threshold_to_euclidean(threshold)
        )
        assert cosine_count == euclid_count


class TestFiniteSquaredNorms:
    @pytest.mark.parametrize(
        "rows, finite",
        [
            (np.zeros((2, 8)), True),
            (np.full((1, 10), 1e153), True),  # squared norm 1e307
            (np.array([[1.3e154, 0.0]]), True),  # 1.69e308, just below the float64 max
            (np.array([[1.4e154, 0.0]]), False),  # 1.96e308 overflows
            (np.full((1, 8), 1e200), False),
            (np.array([[0.0, -1e200]]), False),
            (np.array([[1.0, np.nan]]), False),
            (np.array([[np.inf, 0.0]]), False),
            (np.array([[0.0], [-np.inf]]), False),
            # Each row's squared norm is 1e308; only their total overflows.
            (np.full((4, 1), 1e154), True),
            (np.array([[1e154], [1e154], [1e200]]), False),
        ],
    )
    def test_rows_with_finite_squared_norms(self, rows, finite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow must not warn
            assert finite_squared_norms(rows) is finite


class TestRegistry:
    def test_lookup_aliases(self):
        assert get_distance("l2") is EUCLIDEAN
        assert get_distance("Euclidean") is EUCLIDEAN
        assert get_distance("cos") is COSINE
        assert get_distance("COSINE") is COSINE

    def test_unknown_distance(self):
        with pytest.raises(KeyError):
            get_distance("manhattan")

    def test_callable_protocol(self, rng):
        query = rng.normal(size=4)
        data = rng.normal(size=(6, 4))
        np.testing.assert_allclose(EUCLIDEAN(query, data), euclidean_distance(query, data))

    def test_prepare_data_normalises_for_cosine(self, rng):
        data = rng.normal(size=(10, 4)) * 5
        prepared = prepare_data_for_distance(data, COSINE)
        np.testing.assert_allclose(np.linalg.norm(prepared, axis=1), np.ones(10), atol=1e-12)

    def test_prepare_data_untouched_for_euclidean(self, rng):
        data = rng.normal(size=(10, 4)) * 5
        np.testing.assert_allclose(prepare_data_for_distance(data, EUCLIDEAN), data)

    def test_metric_flags(self):
        assert EUCLIDEAN.is_metric
        assert COSINE.is_metric
