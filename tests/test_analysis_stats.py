"""Tests for statistical helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import EmpiricalCDF, geometric_mean, percentile


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_zero_dominates(self):
        assert geometric_mean([0.0, 5.0]) == 0.0

    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestPercentile:
    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 3
        assert percentile(values, 100) == 5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 120)


class TestEmpiricalCDF:
    def test_at(self):
        cdf = EmpiricalCDF.from_values([1, 2, 2, 4])
        assert cdf.at(0) == 0.0
        assert cdf.at(1) == 0.25
        assert cdf.at(2) == 0.75
        assert cdf.at(4) == 1.0
        assert cdf.at(100) == 1.0

    def test_quantile(self):
        cdf = EmpiricalCDF.from_values([10, 20, 30, 40])
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40
        assert cdf.median == 20

    def test_points_merge_duplicates(self):
        cdf = EmpiricalCDF.from_values([1, 1, 2])
        assert cdf.points() == [(1, pytest.approx(2 / 3)), (2, 1.0)]

    def test_summary(self):
        cdf = EmpiricalCDF.from_values(range(1, 101))
        summary = cdf.summary()
        assert summary["min"] == 1
        assert summary["median"] == 50
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_requires_values(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_values([])
        cdf = EmpiricalCDF.from_values([1])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9), min_size=1))
    def test_cdf_is_monotone(self, values):
        cdf = EmpiricalCDF.from_values(values)
        points = cdf.points()
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_at_roundtrip(self, values, q):
        cdf = EmpiricalCDF.from_values(values)
        x = cdf.quantile(q)
        assert cdf.at(x) >= q - 1e-9
