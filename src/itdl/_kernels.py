"""Hot numeric kernels: pairwise Gaussian sums and the pairwise-distance
median behind the information measures.

Vectorized numpy, one implementation per kernel. Accumulation order is
fixed, so every kernel reproduces its own results bit for bit.

Sample and point matrices are (N, d) float64, labels and classes int64
in {0..p-1}, counts int64 of length p and point weights float64.

No kernel builds an N x N matrix. One walker, _sq_dist_tiles, computes
squared distances a tile of rows at a time, into one buffer that every
tile reuses; _kernel_row_tiles turns each tile into Gaussian kernel
values in place. Each kernel reduces a tile as soon as it is made, so
memory is O(tile * N). N x N temporaries would set the evaluate stage's
peak memory and page-fault on every ascent call.

A tile is one BLAS product. The walk builds two sides once: left rows
[-2 x_i, |x_i|^2, 1] and right columns [x_j; 1; |x_j|^2], so the product
of a tile's left rows with the right columns is |x_i|^2 + |x_j|^2 -
2 <x_i, x_j> for each pair. Then the tile is clipped at zero and its
square block's diagonal set to 0, so a row's distance to itself, and
its kernel with itself, are exact.

Every tile is a band tile: rows [r0, r1) against the columns [r0, N)
only, the tile's square block plus everything right of it. Distances and
kernels are symmetric, so a walk of all rows evaluates each unordered
pair once, about half of the N^2 pairs. A kernel adds the square block
once and mirrors the pairs right of it to the rows of their columns.

The kernels:
- The class-kernel sums (resubstitution KDE) walk the band of weighted
  points, each standing for that many coinciding samples of one class
  (the caller merges each class's all-zero codes into one point). Weights
  multiply elementwise, so unit weights give the plain row sums bit for bit.
  A tile mirrors pairs only when columns remain right of its square
  block, never in a one-tile walk such as selection's few points make.
- The quadratic-MI value and gradient sort the samples by class once
  (stable) and walk band tiles that stay inside one class: the value as
  class-weighted column sums, the gradient as one product for the tile's
  rows and one, mirrored, for the rows of its columns. qmi_grad adds up
  the value in the same walk, tile by tile as qmi_value does, so one
  walk gives both.
- The median pairwise distance selects the two middle squared distances
  in histogram passes over the band (sq_dist_median_pair), each pass
  taking the pairs i < j of every tile.
"""

from __future__ import annotations

import math

import numpy as np

# There is no JIT path. The flag stays because the benchmark's environment
# record (perfbench/pipeline.py) reads it.
NUMBA_ENABLED = False

# Elements of a walker tile: a tile has max(1, _TILE // N) rows, and its
# one distance buffer takes 512 KiB of float64. Timed on the band quadratic
# MI (value plus gradient, one BLAS thread) at N = 600 and N = 1500, d = 8:
# 2**17 runs 3-5 % faster, 2**18 6 % faster at N = 600 but 9 % slower at
# N = 1500, 2**15 5-27 % slower, and larger tiles only grow the buffer.
_TILE = 1 << 16


def _sides(x):
    """The factors of the one-product distances: left rows
    [-2 x_i, |x_i|^2, 1], shape (N, d + 2), and right columns
    [x_j; 1; |x_j|^2], stored as (d + 2, N), so that left[i] @ right[:, j]
    is |x_i|^2 + |x_j|^2 - 2 <x_i, x_j>."""
    n, d = x.shape
    sq = (x * x).sum(axis=1)
    left, right = np.empty((n, d + 2)), np.empty((d + 2, n))
    np.multiply(x, -2.0, out=left[:, :d])
    left[:, d], left[:, d + 1] = sq, 1.0
    right[:d], right[d], right[d + 1] = x.T, 1.0, sq
    return left, right


def _sq_dists(left, right, out):
    """Squared distances of a band tile into out: left @ right clipped at
    zero, and exactly zero on the diagonal of the tile's square block: out
    is a contiguous (k, m) buffer, k <= m, whose flat view holds the
    diagonal at every (m + 1)-th element."""
    np.matmul(left, right, out=out)
    np.maximum(out, 0.0, out=out)
    out.reshape(-1)[:: out.shape[1] + 1] = 0.0
    return out


def _sq_dist_tiles(x, bounds):
    """Yield (g, tile, d2) over the band tiles of the rows
    bounds[0]:bounds[-1] of x.

    The rows split into groups g of rows bounds[g]:bounds[g + 1], and no
    tile crosses a group. tile is the slice [r0, r1) of the tile's rows,
    and d2 holds their squared distances to the rows [r0, N): the tile's
    square block, then every column right of it. A walk of all N rows
    meets each unordered pair i <= j in exactly one tile and makes at most
    N(N + step)/2 distances for tiles of step rows. d2 is a view of one
    buffer that the next tile overwrites, made by one product
    left[tile] @ right[:, r0:] of the sides built once per walk.
    """
    n = len(x)
    left, right = _sides(x)
    step = max(1, _TILE // max(n, 1))
    # one buffer per walk, reused by every tile: a buffer per tile could
    # be handed back to the OS when freed and page-fault again
    buf = np.empty(min(step, bounds[-1] - bounds[0]) * n)
    for g in range(len(bounds) - 1):
        for r0 in range(bounds[g], bounds[g + 1], step):
            tile = slice(r0, min(r0 + step, bounds[g + 1]))
            out = buf[: (tile.stop - r0) * (n - r0)].reshape(tile.stop - r0, n - r0)
            yield g, tile, _sq_dists(left[tile], right[:, r0:], out)


def _kernel_row_tiles(x, bounds, var):
    """_sq_dist_tiles with each tile turned in place into exp(-d2 / (2 var)),
    as d2 times -0.5 / var."""
    scale = -0.5 / var
    for g, tile, w in _sq_dist_tiles(x, bounds):
        np.multiply(w, scale, out=w)
        np.exp(w, out=w)
        yield g, tile, w


# ---------------------------------------------------------------------------
# class-conditional Gaussian sums (resubstitution KDE)
# ---------------------------------------------------------------------------

def class_kernel_sums(points, classes, weights, var):
    s_all, s_own = np.zeros(len(points)), np.zeros(len(points))
    for _, tile, w in _kernel_row_tiles(points, (0, len(points)), var):
        k = tile.stop - tile.start
        # same is 0/1, so masking the weighted kernel is exact
        same = classes[tile, None] == classes[tile.start :]
        ww = w * weights[tile.start :]
        s_all[tile] += ww.sum(axis=1)
        s_own[tile] += (ww * same).sum(axis=1)
        if tile.stop < len(points):
            # the points right of the tile take their pairs with the tile's rows
            wt = weights[tile, None] * w[:, k:]
            s_all[tile.stop :] += wt.sum(axis=0)
            s_own[tile.stop :] += (wt * same[:, k:]).sum(axis=0)
    return s_all, s_own


# ---------------------------------------------------------------------------
# median of the pairwise squared distances, in histogram passes
# ---------------------------------------------------------------------------

# Bins of a median pass's histogram. A pass adds one bincount of this
# length per tile, small next to the tile's own work.
_BINS = 1 << 12


def _bins(v, lo, scale):
    """Histogram bin of each value, floor((v - lo) * scale) clipped to
    [0, _BINS). Monotone in v, so a bin holds a run of the sorted values."""
    b = (v - lo) * scale
    return np.clip(b, 0, _BINS - 1, out=b).astype(np.intp)


def _candidates(x, keep):
    """Per band tile, the squared distances between rows i < j of x that
    pass ``keep``: None (all), or (bounds, lo, scale, b1, b2), the values
    within bounds (None: no bound) whose bin under (lo, scale) is in [b1, b2]."""
    col = np.arange(len(x))
    for _, _, d2 in _sq_dist_tiles(x, (0, len(x))):
        k, m = d2.shape
        # band columns start at the tile's first row: i < j within the square block
        v = d2[col[:k, None] < col[:m]]
        if keep is not None:
            bounds, lo, scale, b1, b2 = keep
            if bounds is not None:
                v = v[(v >= bounds[0]) & (v <= bounds[1])]
            b = _bins(v, lo, scale)
            v = v[(b >= b1) & (b <= b2)]
        yield v


def sq_dist_median_pair(x):
    """Order statistics (M-1)//2 and M//2 of the M = N(N-1)/2 squared
    distances between distinct rows of x (N >= 2, some row nonzero).

    The values are those of a sort of all M distances, found with memory
    O(tile * N) and without forming the N x N distances: every pass walks
    the band of row tiles, which computes each unordered pair once (a
    tile's rows against the columns from its first row on). At most _TILE
    distances are collected and partitioned in one pass. More are
    histogrammed first, over _BINS bins on [0, 4 max |x_i|^2], which
    holds every distance. The two ranks fall in bins b1 <= b2, and only
    those bins stay candidates:
    - b1 < b2: the ranks are adjacent, so they are the largest candidate
      of bin b1 and the smallest of bin b2, found in one more pass;
    - at most _TILE candidates: one more pass collects and partitions them;
    - otherwise the range narrows to bin b1, _BINS times finer, and the
      next pass histograms the candidates again. A pass also takes their
      least and greatest value, which bound the later candidates and end
      the search when they are equal.
    Each pass recomputes the same distances bit for bit, so the
    candidates of a pass are exactly the ones its histogram counted.
    Only when the bins cannot narrow further, at a width near the
    smallest float, are the candidates collected however many there are.
    """
    n = len(x)
    m = n * (n - 1) // 2
    ranks = np.array([(m - 1) // 2, m // 2])
    below, count = 0, m  # values ranked below the candidates; candidates
    keep, bounds = None, None
    top = 4.0 * float(np.max((x * x).sum(axis=1)))
    lo, scale = 0.0, (_BINS / top if top > 0.0 else math.inf)
    while count > _TILE and math.isfinite(scale):
        hist = np.zeros(_BINS, dtype=np.int64)
        vmin, vmax = math.inf, -math.inf
        for v in _candidates(x, keep):
            if v.size:
                hist += np.bincount(_bins(v, lo, scale), minlength=_BINS)
                if keep is not None:
                    vmin, vmax = min(vmin, v.min()), max(vmax, v.max())
        if vmin == vmax:
            return vmin, vmin
        if keep is not None:
            bounds = (vmin, vmax)
        cum = np.cumsum(hist)
        b1, b2 = np.searchsorted(cum, ranks - below, side="right")
        keep = (bounds, lo, scale, b1, b2)
        if b1 < b2:
            low, high = -math.inf, math.inf
            for v in _candidates(x, keep):
                b = _bins(v, lo, scale)
                low = max(low, v[b == b1].max(initial=-math.inf))
                high = min(high, v[b == b2].min(initial=math.inf))
            return low, high
        below += int(cum[b1] - hist[b1])
        count = int(hist[b1])
        lo, scale = lo + b1 / scale, scale * _BINS
    v = np.concatenate(list(_candidates(x, keep)))
    k = ranks - below
    v.partition(k)
    return v[k[0]], v[k[1]]


# ---------------------------------------------------------------------------
# quadratic mutual information and its gradient, over the band of
# class-sorted row tiles
# ---------------------------------------------------------------------------
#
# With pi_c = N_c/N and coef(a, b) = [a == b] - pi_a - pi_b + sum_c pi_c^2,
#   I_Q         = const/N^2 * sum_ij coef(c_i, c_j) w_ij
#   d I_Q / dx_i = const/(N^2 sigma^2) * sum_j coef(c_i, c_j) w_ij (x_j - x_i).
# coef and w are symmetric, so each unordered pair is evaluated once: a band
# tile adds its square block to the sums once and the pairs right of the
# block twice, to its own rows and mirrored to the rows of the columns.

def _qmi_band(xs, counts, sigma2):
    """Yield (rows, w, coef) over the band tiles of the class-sorted xs: w
    the kernel values of the tile's rows against the columns [r0, N), and
    coef[j] = coef(c, c_{r0 + j}) for the tile's class c."""
    prior = counts.astype(np.float64) / len(xs)
    starts = np.concatenate(([0], np.cumsum(counts)))
    # coef(c, c_j) = base[j] - pi_c + [c_j == c]
    base = float(np.sum(prior * prior)) - np.repeat(prior, counts)
    for c, rows, w in _kernel_row_tiles(xs, starts, 2.0 * sigma2):
        coef = base[rows.start :] - prior[c]
        coef[: starts[c + 1] - rows.start] += 1.0
        yield rows, w, coef


def _qmi_tile_value(w, coef, k):
    """A band tile's term of the value sum, for a tile of k rows: the
    square block once, the pairs right of it twice."""
    col = w.sum(axis=0)
    return coef[0] * float(col[:k].sum()) + 2.0 * float(col[k:] @ coef[k:])


def qmi_value(x, labels, counts, sigma2):
    n, d = x.shape
    xs = x[np.argsort(labels, kind="stable")]
    total = 0.0
    for rows, w, coef in _qmi_band(xs, counts, sigma2):
        total += _qmi_tile_value(w, coef, rows.stop - rows.start)
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    return const * total / (n * n)


def qmi_grad(x, labels, counts, sigma2):
    """(value, gradient) from one band walk: the value adds up the tiles
    as qmi_value does, so the two values are equal bit for bit."""
    n, d = x.shape
    order = np.argsort(labels, kind="stable")
    xs = x[order]
    xone = np.empty((n, d + 1))
    xone[:, :d] = xs
    xone[:, d] = 1.0
    # [sum_j coef_ij w_ij x_j | sum_j coef_ij w_ij] of each class-sorted row
    acc = np.zeros((n, d + 1))
    total = 0.0
    for rows, w, coef in _qmi_band(xs, counts, sigma2):
        k = rows.stop - rows.start
        total += _qmi_tile_value(w, coef, k)
        acc[rows] += w @ (coef[:, None] * xone[rows.start :])
        # each row right of the tile takes its pairs with the tile's rows
        acc[rows.stop :] += coef[k:, None] * (w[:, k:].T @ xone[rows])
    grad = np.empty((n, d))
    grad[order] = acc[:, :d] - xs * acc[:, d:]
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    grad *= const / (n * n * sigma2)
    return const * total / (n * n), grad
