"""Sparse-aware KDE paths against their dense oracles.

median_pairwise_distance returns 0 without forming distances once the
all-zero columns make up more than half of the pairs, and the class
kernel sums evaluate only active rows against all rows. Both must agree
with the plain all-pairs forms in tests/helpers.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import dense_class_kernel_sums, dense_median_pairwise_distance, dense_mi_codes_labels
from itdl._kernels import class_kernel_sums
from itdl.info_measures import KdeConfig, bandwidth_rule, median_pairwise_distance, mi_codes_labels

FLOOR = 1e-3
# Nonzero quarter steps: every product and sum of a few of them is exact,
# so squared distances do not depend on the order a Gram product adds in.
GRID = [k / 4 for k in range(-8, 9) if k]

PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def sparse_codes(draw, grid=False, max_d=4, max_n=40):
    """(d, N) codes whose columns are all zero or carry random values."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(2, max_n))
    active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if grid:
        elements = st.sampled_from(GRID)
    else:
        elements = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    values = draw(arrays(np.float64, (d, n), elements=elements))
    return values * active


@st.composite
def coded_labels(draw, grid=False, p=3):
    codes = draw(sparse_codes(grid=grid))
    n = codes.shape[1]
    labels = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
    return codes, labels


def kernel_sums(codes, labels, var):
    x = np.ascontiguousarray(codes.T)
    return class_kernel_sums(x, labels, var), dense_class_kernel_sums(x, labels, var)


def threshold_cases(target):
    """(N, z) with z(z-1)/2 == M//2 + target for M = N(N-1)/2 pairs, N <= 60."""
    cases = []
    for n in range(2, 61):
        m = n * (n - 1) // 2
        cases += [(n, z) for z in range(n + 1) if z * (z - 1) // 2 == m // 2 + target]
    return cases


def codes_with_zero_columns(n, z, seed, d=3):
    """z all-zero columns and N - z distinct nonzero ones, shuffled."""
    rng = np.random.default_rng(seed)
    codes = np.zeros((d, n))
    codes[:, : n - z] = rng.standard_normal((d, n - z))
    return codes[:, rng.permutation(n)]


class TestMedianPairwiseDistance:
    @PROPERTY
    @given(sparse_codes())
    def test_matches_dense(self, codes):
        assert median_pairwise_distance(codes) == dense_median_pairwise_distance(codes)

    @pytest.mark.parametrize("target", [0, 1])
    def test_threshold_cases_cover_odd_and_even_pair_counts(self, target):
        parities = {(n * (n - 1) // 2) % 2 for n, _ in threshold_cases(target)}
        assert parities == {0, 1}

    @pytest.mark.parametrize("n,z", threshold_cases(0))
    def test_one_pair_short_of_half_uses_dense_median(self, n, z):
        # M//2 zero-distance pairs leave the median on a nonzero distance
        codes = codes_with_zero_columns(n, z, seed=n)
        got = median_pairwise_distance(codes)
        assert got > 0.0
        assert got == dense_median_pairwise_distance(codes)

    @pytest.mark.parametrize("n,z", threshold_cases(1))
    def test_more_than_half_zero_pairs_gives_zero(self, n, z):
        codes = codes_with_zero_columns(n, z, seed=n)
        assert median_pairwise_distance(codes) == 0.0
        assert dense_median_pairwise_distance(codes) == 0.0

    def test_all_zero_codes(self):
        codes = np.zeros((2, 9))
        assert median_pairwise_distance(codes) == 0.0
        assert bandwidth_rule(codes) == FLOOR

    def test_no_zero_columns(self):
        codes = np.random.default_rng(3).standard_normal((3, 25))
        assert median_pairwise_distance(codes) == dense_median_pairwise_distance(codes)

    def test_single_active_column(self):
        codes = np.zeros((2, 7))
        codes[:, 4] = [0.5, -1.5]
        assert median_pairwise_distance(codes) == 0.0


class TestClassKernelSums:
    @PROPERTY
    @given(coded_labels(grid=True))
    def test_floor_bandwidth_is_exact(self, data):
        codes, labels = data
        (s_all, s_own), (d_all, d_own) = kernel_sums(codes, labels, FLOOR * FLOOR)
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    @PROPERTY
    @given(coded_labels(), st.floats(0.1, 3.0))
    def test_fixed_sigma(self, data, sigma):
        codes, labels = data
        (s_all, s_own), (d_all, d_own) = kernel_sums(codes, labels, sigma * sigma)
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    def test_all_zero_codes(self):
        labels = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
        (s_all, s_own), (d_all, d_own) = kernel_sums(np.zeros((2, 6)), labels, 0.25)
        np.testing.assert_array_equal(s_all, np.full(6, 6.0))
        np.testing.assert_array_equal(s_own, [1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    def test_no_zero_rows_is_the_dense_sum(self):
        rng = np.random.default_rng(5)
        codes = rng.standard_normal((4, 30))
        labels = rng.integers(0, 3, 30)
        (s_all, s_own), (d_all, d_own) = kernel_sums(codes, labels, 0.7)
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    def test_single_active_row(self):
        codes = np.zeros((3, 8))
        codes[:, 2] = [0.2, -0.1, 0.3]
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
        (s_all, s_own), (d_all, d_own) = kernel_sums(codes, labels, 0.09)
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    @PROPERTY
    @given(sparse_codes(), st.floats(0.1, 3.0))
    def test_single_class_labeling(self, codes, sigma):
        labels = np.zeros(codes.shape[1], dtype=np.int64)
        (s_all, s_own), (d_all, _) = kernel_sums(codes, labels, sigma * sigma)
        np.testing.assert_array_equal(s_own, s_all)
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)


class TestMiCodesLabels:
    @PROPERTY
    @given(coded_labels(grid=True))
    def test_auto_bandwidth_matches_dense(self, data):
        codes, labels = data
        d, n = codes.shape
        sigma = max(dense_median_pairwise_distance(codes) * n ** (-1.0 / (d + 4)), FLOOR)
        want = dense_mi_codes_labels(codes, labels, sigma)
        assert mi_codes_labels(codes, labels, KdeConfig()) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @PROPERTY
    @given(coded_labels(), st.floats(0.1, 3.0))
    def test_fixed_sigma_matches_dense(self, data, sigma):
        codes, labels = data
        want = dense_mi_codes_labels(codes, labels, sigma)
        got = mi_codes_labels(codes, labels, KdeConfig(sigma))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_single_class_labeling(self):
        codes = codes_with_zero_columns(12, 9, seed=2)
        assert mi_codes_labels(codes, np.zeros(12, dtype=np.int64), KdeConfig()) == 0.0
