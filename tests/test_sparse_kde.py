"""Sparse-aware, row-tiled KDE paths against their dense oracles.

median_pairwise_distance returns 0 without forming distances once the
all-zero columns make up more than half of the pairs, and otherwise
selects the middle distances in histogram passes over row tiles. The
class kernel sums walk the band of weighted points, and mi_codes_labels
merges each class's all-zero code columns into one point.
Both must agree with the plain all-pairs forms in tests/helpers.py, on
the samples the points stand for, with tiles small enough to split every
class and histograms small enough to force every narrowing pass, and
neither may hold an N x N matrix.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    dense_class_kernel_sums,
    dense_median_pairwise_distance,
    dense_mi_codes_labels,
    peak_bytes,
)
from itdl import _kernels, info_measures
from itdl._kernels import class_kernel_sums
from itdl.info_measures import (
    ascent_bandwidth,
    bandwidth_rule,
    median_pairwise_distance,
    mi_codes_labels,
)

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


@st.composite
def weighted_points(draw, grid=False, p=3, codes=None):
    """(points, classes, weights): the columns of sparse_codes (or of the
    given codes) as points, each of a class in 0..p-1 and standing for 1
    to 4 samples."""
    if codes is None:
        codes = draw(sparse_codes(grid=grid))
    n = codes.shape[1]
    classes = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    return np.ascontiguousarray(codes.T), classes, weights


def kernel_sums(points, classes, weights, var):
    """class_kernel_sums repeated to the samples the points stand for, and
    the dense sums over those samples."""
    got = class_kernel_sums(points, classes, weights.astype(np.float64), var)
    samples, labels = np.repeat(points, weights, axis=0), np.repeat(classes, weights)
    return tuple(np.repeat(s, weights) for s in got), dense_class_kernel_sums(samples, labels, var)


def zero_points(points, classes, weights):
    """points, classes and weights followed by one all-zero point per class
    0..len(weights) - 1 of its weight, as mi_codes_labels merges them."""
    return (
        np.vstack([points, np.zeros((len(weights), points.shape[1]))]),
        np.concatenate([classes, np.arange(len(weights))]),
        np.concatenate([np.ones(len(points), dtype=int), weights]),
    )


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [6, 400], ids=["partition", "histogram"])
    def test_non_finite_codes_have_a_nan_median(self, n, bad):
        # both median paths: one partition of every distance, and histogram passes
        codes = np.random.default_rng(0).standard_normal((2, n))
        codes[1, 3] = bad
        assert np.isnan(median_pairwise_distance(codes))
        for rule in (bandwidth_rule, ascent_bandwidth):
            with pytest.raises(ValueError, match="codes must be finite"):
                rule(codes)


class TestClassKernelSums:
    @PROPERTY
    @given(weighted_points(grid=True))
    def test_floor_bandwidth_is_exact(self, data):
        (s_all, s_own), (d_all, d_own) = kernel_sums(*data, FLOOR * FLOOR)
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    @PROPERTY
    @given(weighted_points(), st.floats(0.1, 3.0))
    def test_fixed_sigma(self, data, sigma):
        (s_all, s_own), (d_all, d_own) = kernel_sums(*data, sigma * sigma)
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    def test_all_zero_codes(self):
        # the six all-zero samples of classes 0, 1, 1, 2, 2, 2 as mi_codes_labels passes them
        data = zero_points(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.array([1, 2, 3]))
        (s_all, s_own), (d_all, d_own) = kernel_sums(*data, 0.25)
        np.testing.assert_array_equal(s_all, np.full(6, 6.0))
        np.testing.assert_array_equal(s_own, [1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    def test_no_zero_rows_is_the_dense_sum(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 4))
        classes = rng.integers(0, 3, 30)
        (s_all, s_own), (d_all, d_own) = kernel_sums(points, classes, np.ones(30, dtype=int), 0.7)
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    def test_self_kernel_is_exactly_one_at_the_floor(self):
        # 12 random 4-dim active points and the 116 all-zero samples of 3
        # classes at the floor bandwidth: every other pair's kernel
        # underflows to 0, so an active point's marginal sum is its kernel
        # with itself, which is 1 only if its distance to itself is exactly
        # 0 (the Gram formula alone leaves ~1e-15 here)
        rng = np.random.default_rng(0)
        points, classes, weights = zero_points(
            rng.standard_normal((12, 4)), rng.integers(0, 3, 12), np.array([40, 39, 37])
        )
        s_all, _ = class_kernel_sums(points, classes, weights.astype(np.float64), FLOOR * FLOOR)
        np.testing.assert_array_equal(s_all[:12], 1.0)

    def test_single_active_row(self):
        # one active sample of class 0, then the all-zero samples: 3 of
        # class 0 and 4 of class 1
        data = zero_points(np.array([[0.2, -0.1, 0.3]]), np.array([0]), np.array([3, 4]))
        (s_all, s_own), (d_all, d_own) = kernel_sums(*data, 0.09)
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    @PROPERTY
    @given(weighted_points(p=1), st.floats(0.1, 3.0))
    def test_single_class_labeling(self, data, sigma):
        (s_all, s_own), (d_all, _) = kernel_sums(*data, sigma * sigma)
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
        assert mi_codes_labels(codes, labels, None) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @PROPERTY
    @given(coded_labels(), st.floats(0.1, 3.0))
    def test_fixed_sigma_matches_dense(self, data, sigma):
        codes, labels = data
        want = dense_mi_codes_labels(codes, labels, sigma)
        got = mi_codes_labels(codes, labels, sigma)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_single_class_labeling(self):
        codes = codes_with_zero_columns(12, 9, seed=2)
        assert mi_codes_labels(codes, np.zeros(12, dtype=np.int64), None) == 0.0

    @pytest.mark.parametrize("sigma", [None, 0.5])
    def test_kernel_sees_one_point_per_class_and_active_column(self, sigma):
        # 15 active columns among 200 of 4 classes: at most 4 + 15 points
        codes = codes_with_zero_columns(200, 185, seed=4)
        labels = np.random.default_rng(4).integers(0, 4, 200)
        rows = []

        def spy(*args):
            rows.append(len(args[0]))
            return class_kernel_sums(*args)

        with mock.patch.object(info_measures, "class_kernel_sums", spy):
            got = mi_codes_labels(codes, labels, sigma)
        assert len(rows) == 1 and rows[0] <= 4 + 15
        want = dense_mi_codes_labels(codes, labels, sigma or bandwidth_rule(codes))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@st.composite
def tiled_codes(draw, grid=False):
    """(codes, tile, bins): sparse_codes with some columns copied over
    others, so that nonzero columns repeat; a walker tile of 1 to 3N
    elements, i.e. 1 to 3 rows, which also caps the values a median pass
    may collect; and a median histogram of 2 to 64 bins."""
    codes = draw(sparse_codes(grid=grid))
    n = codes.shape[1]
    column = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(column, column), max_size=n)):
        codes[:, dst] = codes[:, src]
    return codes, draw(st.integers(1, 3 * n)), draw(st.integers(2, 64))


def tiled(tile, bins=_kernels._BINS):
    return mock.patch.multiple(_kernels, _TILE=tile, _BINS=bins)


@contextmanager
def tile_sizes(tile):
    """tiled(tile), yielding a list that takes the element count of each
    distance tile the walker makes."""
    sizes, sq_dists = [], _kernels._sq_dists

    def counted(left, right, out):
        sizes.append(out.size)
        return sq_dists(left, right, out)

    with tiled(tile), mock.patch.object(_kernels, "_sq_dists", counted):
        yield sizes


def rel_close(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * abs(want)


class TestTiledKde:
    @PROPERTY
    @given(tiled_codes(), st.integers(1, 5), st.floats(0.1, 3.0), st.data())
    def test_class_sums_fixed_sigma(self, case, p, sigma, data):
        codes, tile, _ = case
        points = data.draw(weighted_points(p=p, codes=codes))
        with tiled(tile):
            (s_all, s_own), (d_all, d_own) = kernel_sums(*points, sigma * sigma)
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    @PROPERTY
    @given(tiled_codes(grid=True), st.integers(1, 5), st.data())
    def test_class_sums_floor_bandwidth_is_exact(self, case, p, data):
        codes, tile, _ = case
        points = data.draw(weighted_points(p=p, codes=codes))
        with tiled(tile):
            (s_all, s_own), (d_all, d_own) = kernel_sums(*points, FLOOR * FLOOR)
        np.testing.assert_array_equal(s_all, d_all)
        np.testing.assert_array_equal(s_own, d_own)

    @PROPERTY
    @given(tiled_codes())
    def test_median_is_the_median_of_the_walked_distances(self, case):
        # exact: the passes select from the very values the walker makes
        # of the (N, d) view that median_pairwise_distance walks
        codes, tile, bins = case
        x = codes.T
        with tiled(tile, bins):
            got = median_pairwise_distance(codes)
            d2 = np.concatenate(list(_kernels._candidates(x, None)))
        assert got == float(np.median(np.sqrt(d2)))

    @PROPERTY
    @given(tiled_codes(grid=True))
    def test_median_matches_dense_on_exact_grid(self, case):
        codes, tile, bins = case
        with tiled(tile, bins):
            got = median_pairwise_distance(codes)
        assert rel_close(got, dense_median_pairwise_distance(codes))

    @pytest.mark.parametrize("n", [30, 31, 45, 46, 400])
    @pytest.mark.parametrize("tile,bins", [(1, 2), (90, 3), (1 << 16, 1 << 12)])
    def test_median_matches_dense(self, n, tile, bins):
        # n(n-1)/2 is odd for n = 30, 31, 46 and even for n = 45, 400
        codes = np.random.default_rng(n).standard_normal((3, n))
        codes[:, ::4] = 0.0
        with tiled(tile, bins):
            got = median_pairwise_distance(codes)
        assert rel_close(got, dense_median_pairwise_distance(codes))

    @pytest.mark.parametrize("n,z", threshold_cases(0) + threshold_cases(1))
    def test_threshold_cases_match_dense(self, n, z):
        codes = codes_with_zero_columns(n, z, seed=n)
        with tiled(n, 4):
            got = median_pairwise_distance(codes)
        assert rel_close(got, dense_median_pairwise_distance(codes))

    @pytest.mark.parametrize("tile", [1, 70, 1 << 16])
    def test_class_sums_compute_each_active_pair_once(self, tile):
        # 20 active points and the 380 all-zero samples of 3 classes as 3
        # points: the band of the P = 23 points makes at most P(P + step)/2
        # distances, where all active points against all 400 samples would
        # make 20 * 400 = 8000
        rng = np.random.default_rng(8)
        data = zero_points(rng.standard_normal((20, 3)), rng.integers(0, 3, 20), np.array([130, 126, 124]))
        with tile_sizes(tile) as made:
            (s_all, s_own), (d_all, d_own) = kernel_sums(*data, 0.5)
        step = min(max(1, tile // 23), 23)  # a tile holds at most the 23 points
        assert sum(made) <= 23 * (23 + step) // 2
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    @PROPERTY
    @given(weighted_points(p=3), st.sampled_from(["one tile", "several tiles"]), st.floats(0.1, 3.0))
    def test_class_sums_mirror_only_left_of_remaining_columns(self, data, walk, sigma):
        # a one-tile walk never mirrors; a walk of one or two rows per
        # tile mirrors in every tile but the last
        points, classes, weights = data
        n = len(points)
        tile = 1 << 16 if walk == "one tile" else n * (1 + n % 2)
        with tile_sizes(tile) as tiles:
            (s_all, s_own), (d_all, d_own) = kernel_sums(points, classes, weights, sigma * sigma)
        assert (len(tiles) == 1) == (walk == "one tile")
        np.testing.assert_allclose(s_all, d_all, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s_own, d_own, rtol=1e-12, atol=0)

    def test_mi_codes_labels_memory(self):
        # the evaluate stage's call on dense codes; the dense sums peak at 305 MiB
        rng = np.random.default_rng(0)
        codes = rng.standard_normal((48, 4000))
        labels = rng.integers(0, 8, 4000)
        assert peak_bytes(mi_codes_labels, codes, labels, None) < 16 * 2**20
        assert peak_bytes(median_pairwise_distance, codes) < 16 * 2**20

    def test_median_memory_when_most_pairs_share_one_distance(self):
        # two repeated columns: 750 * 750 of the 1500 * 1499 / 2 pairs, just
        # over half, sit at their distance, far more than one pass may collect
        a, b = np.array([0.5, -1.25, 0.75, 2.0]), np.array([1.5, 0.25, -0.5, 1.0])
        codes = np.repeat(np.column_stack([a, b]), 750, axis=1)
        n = codes.shape[1]
        assert median_pairwise_distance(codes) == float(np.linalg.norm(a - b))
        assert peak_bytes(median_pairwise_distance, codes) < 8 * n * n
