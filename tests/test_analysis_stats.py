"""Tests for statistical helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import EmpiricalCDF
from repro.analysis.stats import nearest_rank


class TestPercentile:
    def test_nearest_rank(self):
        values = [5, 3, 1, 4, 2]
        assert nearest_rank(values, 0.0) == 1
        assert nearest_rank(values, 0.5) == 3
        assert nearest_rank(values, 0.99) == 5
        assert nearest_rank(values, 1.0) == 5
        assert nearest_rank([], 0.5) == 0.0


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
        ys = [cdf.at(x) for x in sorted(values)]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_at_roundtrip(self, values, q):
        cdf = EmpiricalCDF.from_values(values)
        x = cdf.quantile(q)
        assert cdf.at(x) >= q - 1e-9
