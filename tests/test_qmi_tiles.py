"""Row-tiled quadratic-MI kernels against their dense oracles.

qmi_value and qmi_grad sort the samples by class and walk the band of
row tiles that stay inside one class: each tile's rows against the
columns from its first row on, so they never hold an N x N matrix and
meet each unordered pair once. The band must cover every pair exactly
once, and the kernels must agree with the all-pairs forms in
tests/helpers.py for any sizes, with empty and singleton classes, and
with tiles small enough to split every class into several. qmi_grad
also returns the value from its walk, which must be qmi_value's bit for
bit, so the ascent's fused evaluations repeat its value-only ones.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import dense_qmi_grad, dense_qmi_value, peak_bytes
from itdl import _kernels
from itdl._kernels import qmi_grad, qmi_value
from itdl.info_measures import qmi, qmi_grad_codes

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def qmi_inputs(draw, max_n=40, max_d=4, max_p=5):
    """(x, labels, counts, sigma2, tile): labels drawn from p classes, so
    some classes may be empty or hold one sample, and a kernel-row tile
    of 1 to 3N elements, so that tiles split classes."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    p = draw(st.integers(1, max_p))
    x = draw(arrays(np.float64, (n, d), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    labels = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
    counts = np.bincount(labels, minlength=p).astype(np.int64)
    sigma = draw(st.floats(0.05, 5.0))
    tile = draw(st.integers(1, 3 * n))
    return x, labels, counts, sigma * sigma, tile


@st.composite
def band_walks(draw, max_n=40, max_p=6):
    """(x, bounds, tile): class bounds over N rows with p classes, some of
    them empty or a single row, and a walker tile of 1 to 3N elements."""
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(1, max_p))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    x = draw(arrays(np.float64, (n, 3), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    return x, np.array([0, *cuts, n]), draw(st.integers(1, 3 * n))


@PROPERTY
@given(band_walks())
def test_band_walks_each_unordered_pair_once(case):
    x, bounds, tile = case
    n = len(x)
    step = max(1, tile // n)
    seen = np.zeros((n, n), dtype=np.int64)
    walked = 0
    with mock.patch.object(_kernels, "_TILE", tile):
        for g, rows, d2 in _kernels._sq_dist_tiles(x, bounds):
            assert bounds[g] <= rows.start < rows.stop <= bounds[g + 1]
            assert rows.stop - rows.start <= step
            # the band: the tile's rows against the columns [r0, N)
            assert d2.shape == (rows.stop - rows.start, n - rows.start)
            want = ((x[rows, None, :] - x[None, rows.start :, :]) ** 2).sum(axis=2)
            np.testing.assert_allclose(d2, want, rtol=1e-12, atol=1e-12)
            pairs = np.zeros((n, n), dtype=bool)
            pairs[rows, rows.start :] = True
            seen += np.triu(pairs | pairs.T)  # as unordered pairs i <= j
            walked += d2.size
    assert (seen[np.triu_indices(n)] == 1).all()
    assert 2 * walked <= n * (n + step)


@st.composite
def walker_rows(draw, max_n=30, max_d=8):
    """(x, tile): N rows of d values of up to 1e3 in magnitude, and a
    walker tile of 1 to 3N elements."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    x = draw(arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    return x, draw(st.integers(1, 3 * n))


@PROPERTY
@given(walker_rows())
def test_walker_distances_are_the_squared_differences(case):
    # |fl(d2) - d2| <= 6 (d + 2) (eps (|x_i|^2 + |x_j|^2) + eta): the
    # (d + 2)-term product, the two squared norms and the reference's own
    # rounding, with room to spare, where eta, the least subnormal, covers
    # products that underflow; a row's distance to itself is exactly 0
    x, tile = case
    n, d = x.shape
    sq = (x * x).sum(axis=1)
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    with mock.patch.object(_kernels, "_TILE", tile):
        for _, rows, d2 in _kernels._sq_dist_tiles(x, (0, n)):
            want = ((x[rows, None, :] - x[None, rows.start :, :]) ** 2).sum(axis=2)
            bound = 6 * (d + 2) * (eps * (sq[rows, None] + sq[rows.start :]) + eta)
            assert (np.abs(d2 - want) <= bound).all()
            assert (np.diagonal(d2) == 0.0).all()


def pair_kernel(x, sigma2):
    """The N x N kernel and its normalization const."""
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    return np.exp(d2 / (-4.0 * sigma2)), (4.0 * math.pi * sigma2) ** (-0.5 * x.shape[1])


def value_scale(x, sigma2):
    """const * sum_ij w_ij / N^2: the scale of every term of the value."""
    w, const = pair_kernel(x, sigma2)
    return const * float(w.sum()) / len(x) ** 2


def grad_scale(x, sigma2):
    """Scale of the terms a gradient row sums,
    const/(N^2 sigma^2) * max_i sum_j w_ij (|x_i| + |x_j|). A gradient that
    is exactly zero (one class, coincident samples) comes out at the
    rounding level of its terms, in any summation order."""
    w, const = pair_kernel(x, sigma2)
    mag = np.abs(x).max(axis=1)
    terms = (w * (mag[:, None] + mag[None, :])).sum(axis=1).max(initial=0.0)
    return const * terms / (len(x) ** 2 * sigma2)


@PROPERTY
@given(qmi_inputs())
def test_tiled_value_matches_dense(case):
    x, labels, counts, sigma2, tile = case
    with mock.patch.object(_kernels, "_TILE", tile):
        got = qmi_value(x, labels, counts, sigma2)
    want = dense_qmi_value(x, labels, counts, sigma2)
    assert abs(got - want) <= 1e-12 * value_scale(x, sigma2)


@PROPERTY
@given(qmi_inputs())
def test_tiled_grad_matches_dense(case):
    x, labels, counts, sigma2, tile = case
    with mock.patch.object(_kernels, "_TILE", tile):
        _, got = qmi_grad(x, labels, counts, sigma2)
    want = dense_qmi_grad(x, labels, counts, sigma2)
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want), initial=0.0), grad_scale(x, sigma2))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


@PROPERTY
@given(qmi_inputs())
def test_fused_walk_repeats_value_and_gradient_bit_for_bit(case):
    x, labels, counts, sigma2, tile = case
    codes, sigma = x.T, math.sqrt(sigma2)
    with mock.patch.object(_kernels, "_TILE", tile):
        value, grad = qmi_grad(x, labels, counts, sigma2)
        fused_value, fused_grad = qmi(codes, labels, sigma, grad=True)
        assert value == qmi_value(x, labels, counts, sigma2)
        assert fused_value == qmi(codes, labels, sigma)
        assert np.array_equal(fused_grad, qmi_grad_codes(codes, labels, sigma))
    assert fused_grad.shape == codes.shape


def test_default_tile_splits_classes_and_matches_dense():
    rng = np.random.default_rng(3)
    n = 1000  # tiles of _TILE // n rows, several per class
    x = rng.standard_normal((n, 3))
    labels = rng.integers(0, 3, n).astype(np.int64)
    counts = np.bincount(labels).astype(np.int64)
    assert counts.min() > max(1, _kernels._TILE // n)
    value = qmi_value(x, labels, counts, 2.0)
    assert abs(value - dense_qmi_value(x, labels, counts, 2.0)) <= 1e-12 * value_scale(x, 2.0)
    want = dense_qmi_grad(x, labels, counts, 2.0)
    _, got = qmi_grad(x, labels, counts, 2.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_memory_stays_below_one_pair_matrix():
    n = 1500
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 4))
    labels = rng.integers(0, 3, n).astype(np.int64)
    counts = np.bincount(labels).astype(np.int64)
    square = 8 * n * n  # one N x N float64 matrix, 18 MB
    for kernel in (qmi_value, qmi_grad):
        assert peak_bytes(kernel, x, labels, counts, 1.0) < square
    # the dense forms hold several N x N matrices at once
    assert peak_bytes(dense_qmi_grad, x, labels, counts, 1.0) > 4 * square
