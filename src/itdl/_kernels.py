"""Hot numeric kernels: pairwise Gaussian sums and the pairwise-distance
median behind the information measures.

Vectorized numpy, one implementation per kernel. Accumulation order is
fixed, so every kernel reproduces its own results bit for bit.

Sample matrices are (N, d) float64, labels int64 in {0..p-1}, counts
int64 of length p.

No kernel builds an N x N matrix. One walker, _sq_dist_tiles, computes
the squared distances of a subset of rows against every row, a tile of
rows at a time, into one (rows, N) buffer that every tile reuses;
_kernel_row_tiles turns each tile into Gaussian kernel values in place.
Each kernel reduces a tile as soon as it is made, so memory is
O(tile * N) for the same pair evaluations. N x N temporaries would set
the evaluate stage's peak memory and page-fault on every ascent call.

- The class-kernel sums (resubstitution KDE) walk only the active rows of
  sparse codes, in input order. All-zero rows coincide (their mutual
  kernel is 1), so their sums follow exactly from per-class zero counts
  plus the column sums of the active tiles. Without all-zero rows every
  row is walked.
- The quadratic-MI value and gradient sort the samples by class once
  (stable) and walk tiles that stay inside one class: the value reduces
  a tile to its total and own-class column sum, the gradient to two
  skinny products.
- The median pairwise distance selects the two middle squared distances
  in histogram passes over the tiles (sq_dist_median_pair).
"""

from __future__ import annotations

import math

import numpy as np

# There is no JIT path. The flag stays because the benchmark's environment
# record (perfbench/pipeline.py) reads it.
NUMBA_ENABLED = False

# Elements of a walker tile: a tile has max(1, _TILE // N) rows, and its
# distance and scratch buffers take 512 KiB of float64 each. Timed on the
# quadratic MI with one buffer at N = 600 and N = 1500, d = 8: 2**15 to
# 2**17 run within 8 % of each other, 2**14 is 15-25 % slower, and larger
# tiles only grow the buffers.
_TILE = 1 << 16


def _sq_dists(r, x, sq_r, sq, out, tmp):
    """Squared distances between the rows of r and the rows of x, into out:
    (|r_i|^2 + |x_j|^2) - 2 <r_i, x_j>, clipped at zero. sq_r and sq are the
    squared row norms; tmp is scratch of out's shape."""
    np.matmul(r, x.T, out=out)
    out *= 2.0
    np.add(sq_r[:, None], sq, out=tmp)
    np.subtract(tmp, out, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _sq_dist_matrix(x: np.ndarray) -> np.ndarray:
    """All squared distances between the rows of x (for small N: the GP
    covariance over the atoms)."""
    sq = (x * x).sum(axis=1)
    out = np.empty((len(x), len(x)))
    return _sq_dists(x, x, sq, sq, out, np.empty_like(out))


def _sq_dist_tiles(x, bounds, rows=None):
    """Yield (g, tile, d2) over row tiles of a subset of the rows of x,
    against every row of x.

    The subset is rows[bounds[0]:bounds[-1]], an index array into x, or
    x[bounds[0]:bounds[-1]] itself when rows is None. It splits into
    groups g of positions bounds[g]:bounds[g + 1], and no tile crosses a
    group. tile is a slice of those positions, and d2 holds the squared
    distances of its rows to every row of x. d2 is a view of one buffer
    that the next tile overwrites. When one tile covers all of x, the
    Gram product is the call x @ x.T.
    """
    n = len(x)
    sq = (x * x).sum(axis=1)
    step = max(1, _TILE // n)
    shape = (min(step, bounds[-1] - bounds[0]), n)
    # one allocation: two freed separately can each be handed back to the
    # OS and page-fault again on the next call
    buf, tmp = np.empty((2,) + shape)
    for g in range(len(bounds) - 1):
        for r0 in range(bounds[g], bounds[g + 1], step):
            tile = slice(r0, min(r0 + step, bounds[g + 1]))
            sel = tile if rows is None else rows[tile]
            k = tile.stop - r0
            yield g, tile, _sq_dists(x[sel], x, sq[sel], sq, buf[:k], tmp[:k])


def _kernel_row_tiles(x, bounds, var, rows=None):
    """_sq_dist_tiles with each tile turned in place into exp(-d2 / (2 var))."""
    for g, tile, w in _sq_dist_tiles(x, bounds, rows):
        np.divide(w, -2.0 * var, out=w)
        np.exp(w, out=w)
        yield g, tile, w


# ---------------------------------------------------------------------------
# class-conditional Gaussian sums (resubstitution KDE)
# ---------------------------------------------------------------------------

def class_kernel_sums(x, labels, var):
    active = x.any(axis=1)
    (act,) = active.nonzero()
    n_zero = len(x) - len(act)
    s_all, s_own = np.zeros(len(x)), np.zeros(len(x))
    row_all, row_own = np.empty(len(act)), np.empty(len(act))
    # Without all-zero rows x itself is walked, so a single tile's Gram
    # product is the same call as the dense sum's.
    for _, tile, w in _kernel_row_tiles(x, (0, len(act)), var, act if n_zero else None):
        w_own = w * (labels[act[tile], None] == labels)
        row_all[tile] = w.sum(axis=1)
        row_own[tile] = w_own.sum(axis=1)
        if n_zero:
            s_all += w.sum(axis=0)
            s_own += w_own.sum(axis=0)
    # All-zero rows coincide: each gets kernel 1 from every all-zero row,
    # itself included (from those of its class for the own-class sum),
    # plus its column of the active rows. Active rows take their row sums.
    s_all += n_zero
    s_own += np.bincount(labels, weights=~active)[labels]
    s_all[act] = row_all
    s_own[act] = row_own
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
    """Per row tile, the squared distances between rows i < j of x that
    pass ``keep``: None (all), or (bounds, lo, scale, b1, b2), the values
    within bounds (None: no bound) whose bin under (lo, scale) is in [b1, b2]."""
    col = np.arange(len(x))
    for _, tile, d2 in _sq_dist_tiles(x, (0, len(x))):
        v = d2[col[tile, None] < col]
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
    O(tile * N). At most _TILE distances are collected and partitioned in
    one pass. More are histogrammed first, over _BINS bins on
    [0, 4 max |x_i|^2], which holds every distance. The two ranks fall in
    bins b1 <= b2, and only those bins stay candidates:
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
# quadratic mutual information, closed form, in class-sorted row tiles
# ---------------------------------------------------------------------------

def qmi_value(x, labels, counts, sigma2):
    n, d = x.shape
    xs = x[np.argsort(labels, kind="stable")]
    starts = np.concatenate(([0], np.cumsum(counts)))
    prior = counts.astype(np.float64) / n
    sum_p2 = float(np.sum(prior * prior))
    s_all = s_within = s_cross = 0.0
    for c, _, w in _kernel_row_tiles(xs, starts, 2.0 * sigma2):
        total = float(w.sum())
        s_all += total
        s_cross += prior[c] * total
        s_within += float(w[:, starts[c] : starts[c + 1]].sum())
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
    starts = np.concatenate(([0], np.cumsum(counts)))
    for c, rows, w in _kernel_row_tiles(xs, starts, 2.0 * sigma2):
        own = slice(starts[c], starts[c + 1])
        full = w @ rhs
        # [sum_j coef_ij w_ij x_j | sum_j coef_ij w_ij] for the tile's rows
        a = w[:, own] @ rhs[own, : d + 1]
        a += (sum_p2 - prior[c]) * full[:, : d + 1]
        a -= full[:, d + 1 :]
        grad[order[rows]] = a[:, :d] - xs[rows] * a[:, d:]
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    grad *= const / (n * n * sigma2)
    return grad
