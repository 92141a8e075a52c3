"""Hot numeric kernels: pairwise Gaussian sums behind the information measures.

Vectorized numpy, one implementation per kernel. Accumulation order is
fixed, so every kernel reproduces its own results bit for bit.

Sample matrices are (N, d) float64 C-contiguous, labels int64 in
{0..p-1}, counts int64 of length p.

Sparse codes have mostly all-zero rows. The class-kernel sums use that
exactly: all-zero rows coincide (their mutual kernel is 1), so only the
|A| x N block of active rows against all rows is evaluated, and the
all-zero rows' sums follow from per-class zero counts plus the block's
column sums. Without all-zero rows the block is the full N x N matrix.

The quadratic-MI value and gradient never build an N x N matrix. Each
call sorts the samples by class once (stable), so every class is one
contiguous slice, and walks row tiles that stay inside one class. A
tile's kernel rows go into one (rows, N) buffer, reused by every tile,
and are reduced at once: the tile's total and its own-class column sum
for the value, two skinny products for the gradient. Memory is
O(tile * N) instead of several N x N temporaries, for the same N^2
kernel evaluations. The ascent calls these kernels hundreds of times,
and fresh N x N temporaries page-faulted on every call: they, not the
exponentials, were most of its time.
"""

from __future__ import annotations

import math

import numpy as np

# There is no JIT path. The flag stays because the benchmark's environment
# record (perfbench/pipeline.py) reads it.
NUMBA_ENABLED = False


def _sq_dist_matrix(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and the rows of y
    (default: x itself), clipped at zero."""
    sq = (x * x).sum(axis=1)
    if y is None:
        y = x
    d2 = sq[:, None] + (sq if y is x else (y * y).sum(axis=1))
    d2 -= 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


# ---------------------------------------------------------------------------
# class-conditional Gaussian sums (resubstitution KDE)
# ---------------------------------------------------------------------------

def class_kernel_sums(x, labels, var):
    active = x.any(axis=1)
    n_zero = len(x) - np.count_nonzero(active)
    # Kernel rows for the active rows only. Without all-zero rows x itself
    # is passed, so the Gram product is the same call as the dense sum's.
    w = _sq_dist_matrix(x[active] if n_zero else x, x)
    np.divide(w, -2.0 * var, out=w)
    np.exp(w, out=w)
    w_own = w * (labels[active][:, None] == labels)
    # All-zero rows coincide: each gets kernel 1 from every all-zero row,
    # itself included (from those of its class for the own-class sum),
    # plus its column of the active block. Active rows take their row sums.
    s_all = w.sum(axis=0) + n_zero
    s_own = w_own.sum(axis=0) + np.bincount(labels, weights=~active)[labels]
    s_all[active] = w.sum(axis=1)
    s_own[active] = w_own.sum(axis=1)
    return s_all, s_own


# ---------------------------------------------------------------------------
# quadratic mutual information, closed form, in class-sorted row tiles
# ---------------------------------------------------------------------------

# Elements of the one kernel-row buffer a qmi call reuses for every tile
# (512 KiB of float64; a tile has max(1, _QMI_TILE // N) rows). Timed at
# N = 600 and N = 1500, d = 8: 2**15 to 2**17 run within 8 % of each
# other, 2**14 is 15-25 % slower, and larger tiles only grow the buffer.
_QMI_TILE = 1 << 16


def _kernel_row_tiles(xs, counts, sigma2):
    """Yield (class, rows, own, w) over row tiles of the class-sorted samples xs.

    Class c holds counts[c] consecutive rows, the slice ``own``, and no
    tile crosses a class boundary. w holds exp(-|x_i - x_j|^2 / (4 sigma2))
    for the tile's slice ``rows`` against every row. It is a view of one
    buffer that the next tile overwrites.
    """
    n = len(xs)
    sq = (xs * xs).sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)))
    step = max(1, _QMI_TILE // n)
    buf = np.empty((min(step, n), n))
    for c in range(len(counts)):
        own = slice(starts[c], starts[c + 1])
        for r0 in range(own.start, own.stop, step):
            rows = slice(r0, min(r0 + step, own.stop))
            w = buf[: rows.stop - r0]
            np.matmul(xs[rows], xs.T, out=w)
            w *= -2.0
            w += sq[rows, None]
            w += sq
            np.maximum(w, 0.0, out=w)
            np.divide(w, -4.0 * sigma2, out=w)
            np.exp(w, out=w)
            yield c, rows, own, w


def qmi_value(x, labels, counts, sigma2):
    n, d = x.shape
    xs = x[np.argsort(labels, kind="stable")]
    prior = counts.astype(np.float64) / n
    sum_p2 = float(np.sum(prior * prior))
    s_all = s_within = s_cross = 0.0
    for c, _, own, w in _kernel_row_tiles(xs, counts, sigma2):
        total = float(w.sum())
        s_all += total
        s_cross += prior[c] * total
        s_within += float(w[:, own].sum())
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    return const * (s_within - 2.0 * s_cross + sum_p2 * s_all) / (n * n)


# ---------------------------------------------------------------------------
# gradient of the quadratic MI with respect to every sample
# ---------------------------------------------------------------------------
#
# d I_Q / d x_i = const/(N^2 sigma^2) * sum_j coef(c_i, c_j) w_ij (x_j - x_i)
# with coef(a, b) = [a == b] - (N_a + N_b)/N + sum_c (N_c/N)^2.
#
# For a row i of class c, with pi_j = N_{c_j}/N and k = sum_c pi_c^2 - pi_c,
# the coef-weighted sums expand into plain kernel products:
#   sum_j coef_ij w_ij x_j = W_c x_c + k Wx - W(pi x)
#   sum_j coef_ij w_ij     = W_c 1   + k W1 - W pi
# where W_c is the row's own-class columns. One product of the tile with
# [x | 1 | pi x | pi] and one of its own-class columns with [x_c | 1]
# give both.

def qmi_grad(x, labels, counts, sigma2):
    n, d = x.shape
    order = np.argsort(labels, kind="stable")
    xs = x[order]
    prior = counts.astype(np.float64) / n
    sum_p2 = float(np.sum(prior * prior))
    ps = np.repeat(prior, counts)
    rhs = np.empty((n, 2 * d + 2))
    rhs[:, :d] = xs
    rhs[:, d] = 1.0
    np.multiply(xs, ps[:, None], out=rhs[:, d + 1 : 2 * d + 1])
    rhs[:, 2 * d + 1] = ps
    grad = np.empty((n, d))
    for c, rows, own, w in _kernel_row_tiles(xs, counts, sigma2):
        full = w @ rhs
        # [sum_j coef_ij w_ij x_j | sum_j coef_ij w_ij] for the tile's rows
        a = w[:, own] @ rhs[own, : d + 1]
        a += (sum_p2 - prior[c]) * full[:, : d + 1]
        a -= full[:, d + 1 :]
        grad[order[rows]] = a[:, :d] - xs[rows] * a[:, d:]
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    grad *= const / (n * n * sigma2)
    return grad
