"""Shared test fixtures: structured data generators and test oracles.

The quadrature oracles intentionally avoid the library's closed forms:
mutual information and quadratic MI are evaluated by dense grid
integration of the same KDE densities, so they can vouch for the
analytic paths. The dense oracles are the plain all-pairs forms of the
median pairwise distance, the class kernel sums and the quadratic-MI
value and gradient, against which the library's sparse-aware and
row-tiled versions are checked; peak_bytes measures what those versions
allocate. ``candidate_mi`` scores a selection round's discrimination
term with a fresh copy of the restricted codes per candidate, against
which the round's one reused buffer is checked. The loop oracles code one
signal (or one mask pattern) at a time, with a full pseudoinverse refit
after every OMP pick, against which the library's batched coding is
checked; ``loop_ksvd`` rebuilds each atom's deflated residual from the
signals and the full codes, against which K-SVD's kept residual is
checked. ``three_pass_update`` is the quadratic-MI ascent with a
separate gradient walk (``qmi_grad_phi``) at every iterate, against
which the ascent's fused value-and-gradient walks are checked; it
measures how far a step turned the transform's columns by its own angle
formula (``max_column_turn``). Every
least-squares oracle solves through ``svd_pinv``, the SVD pseudoinverse
with the library's rank rule, so none of them moves with the library's
QR route; ``exact_pinv``, the full-rank pseudoinverse in rational
arithmetic, is the reference that both routes are measured against. ``somp``
(simultaneous OMP, one shared support for all signals) is the baseline
the reconstruction-only selection is checked against. The reference
forms (single Gaussian kernel, per-point class density, scalar GP
compactness gain, two-refit reconstruction gain, GP total MI,
per-sample and transform QMI gradients, discrete KL and quadratic
divergence) spell out the definitions that the library evaluates in
batched or closed form.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np

from itdl.dataset import Dataset
from itdl.info_measures import GP_VAR_FLOOR, ascent_bandwidth, mi_codes_labels, qmi, qmi_grad_codes
from itdl.itdu import TURN_TOL, UpdateState, backtrack_step
from itdl.sparse_coding import Dictionary, Selection, pinv, svd_keep, unit_columns


def shared_style_dataset(n, p, per_class, seed, style=1.8, noise=0.08):
    """Digit-like classes: one prototype direction each plus two style
    directions common to all classes. The shared style is what a
    reconstruction-only coder wastes capacity on."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n, p + 2)))[0]
    means, styles = basis[:, :p], basis[:, p:]
    signals = np.empty((n, p * per_class))
    labels = np.empty(p * per_class, dtype=np.int64)
    for c in range(p):
        amp = 1.0 + 0.15 * rng.standard_normal(per_class)
        block = (
            means[:, c : c + 1] * amp
            + styles[:, 0:1] * (style * rng.standard_normal(per_class))
            + styles[:, 1:2] * (style * rng.standard_normal(per_class))
            + noise * rng.standard_normal((n, per_class))
        )
        signals[:, c * per_class : (c + 1) * per_class] = block
        labels[c * per_class : (c + 1) * per_class] = c
    return Dataset(signals=signals, labels=labels)


def planted_support_instance(seed, n=16, K=32, T=4, nsig=6, noise=0.05):
    """Random unit-atom dictionary plus signals jointly sparse on a
    planted support of size T (the simultaneous-coding regime)."""
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n, K))
    atoms /= np.linalg.norm(atoms, axis=0)
    d = Dictionary(atoms=atoms)
    support = rng.choice(K, size=T, replace=False)
    coeffs = rng.standard_normal((T, nsig))
    Y = atoms[:, support] @ coeffs + noise * rng.standard_normal((n, nsig))
    return d, Y, set(int(i) for i in support)


def random_unit_dictionary(seed, n, K):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n, K))
    atoms /= np.linalg.norm(atoms, axis=0)
    return Dictionary(atoms=atoms)


def qmi_quadrature(codes, labels, sigma, grid_points=2001, pad=10.0):
    """Grid integration of the quadratic MI definition in 1 or 2 dims."""
    codes = np.asarray(codes, dtype=np.float64)
    d, n = codes.shape
    labels = np.asarray(labels)
    classes = np.unique(labels)
    lo = codes.min(axis=1) - pad * sigma
    hi = codes.max(axis=1) + pad * sigma
    if d == 1:
        grid = np.linspace(lo[0], hi[0], grid_points)[:, None]
        weight = (hi[0] - lo[0]) / (grid_points - 1)
    elif d == 2:
        m = int(np.sqrt(grid_points)) if grid_points < 1000 else 400
        gx = np.linspace(lo[0], hi[0], m)
        gy = np.linspace(lo[1], hi[1], m)
        grid = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
        weight = (gx[1] - gx[0]) * (gy[1] - gy[0])
    else:
        raise ValueError("quadrature oracle supports 1-d and 2-d only")
    norm = (2.0 * np.pi * sigma**2) ** (-0.5 * d)
    diffs = grid[:, None, :] - codes.T[None, :, :]
    kern = norm * np.exp(-np.sum(diffs**2, axis=2) / (2.0 * sigma**2))
    p_xc = {c: kern[:, labels == c].sum(axis=1) / n for c in classes}
    p_x = sum(p_xc.values())
    p_c = {c: (labels == c).sum() / n for c in classes}
    t1 = sum(np.sum(p_xc[c] ** 2) * weight for c in classes)
    t2 = sum(p_c[c] * np.sum(p_xc[c] * p_x) * weight for c in classes)
    t3 = sum(p_c[c] ** 2 for c in classes) * np.sum(p_x**2) * weight
    return t1 - 2.0 * t2 + t3


def mi_quadrature_1d(codes, labels, sigma, grid_points=4001, pad=10.0):
    """Grid integration of KDE mutual information (entropy differences)."""
    x = np.asarray(codes, dtype=np.float64).ravel()
    labels = np.asarray(labels)
    n = x.size
    classes = np.unique(labels)
    lo, hi = x.min() - pad * sigma, x.max() + pad * sigma
    grid = np.linspace(lo, hi, grid_points)
    dg = grid[1] - grid[0]
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * sigma)

    def entropy(points):
        dens = norm * np.exp(-((grid[:, None] - points[None, :]) ** 2) / (2 * sigma**2))
        dens = dens.mean(axis=1)
        mask = dens > 1e-300
        return -np.trapezoid(np.where(mask, dens * np.log(np.where(mask, dens, 1.0)), 0.0), dx=dg)

    h_all = entropy(x)
    h_cond = sum((labels == c).sum() / n * entropy(x[labels == c]) for c in classes)
    return h_all - h_cond


def peak_bytes(fn, *args):
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_sq_dists(x):
    """All N x N squared distances between the rows of x in one product,
    [-2 x_i, |x_i|^2, 1] @ [x_j; 1; |x_j|^2], clipped at zero, with an
    exactly zero diagonal: the library's formula, so that the dense
    oracles can be compared with == where the tiles make the same values."""
    sq = np.sum(x * x, axis=1)
    ones = np.ones((len(x), 1))
    left = np.hstack([-2.0 * x, sq[:, None], ones])
    right = np.vstack([x.T, ones.T, sq[None, :]])
    d2 = np.maximum(left @ right, 0.0)
    np.fill_diagonal(d2, 0.0)
    return d2


def dense_median_pairwise_distance(codes):
    """Median Euclidean distance over all N(N-1)/2 column pairs, no shortcut."""
    codes = np.asarray(codes, dtype=np.float64)
    n = codes.shape[1]
    if n < 2:
        return 0.0
    d2 = _dense_sq_dists(codes.T)
    return float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))


def dense_class_kernel_sums(x, labels, var):
    """Marginal and own-class Gaussian kernel row sums over the full N x N block."""
    d2 = _dense_sq_dists(x)
    w = np.exp(d2 * (-0.5 / var))
    same = labels[:, None] == labels[None, :]
    return w.sum(axis=1), (w * same).sum(axis=1)


def dense_qmi_value(x, labels, counts, sigma2):
    """Closed-form quadratic MI from the full N x N kernel and label mask."""
    n, d = x.shape
    d2 = _dense_sq_dists(x)
    w = np.exp(d2 * (-0.5 / (2.0 * sigma2)))
    prior = counts.astype(np.float64) / n
    sum_p2 = float(np.sum(prior * prior))
    same = labels[:, None] == labels[None, :]
    s_within = float((w * same).sum())
    s_cross = float(prior[labels] @ w.sum(axis=1))
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    return const * (s_within - 2.0 * s_cross + sum_p2 * float(w.sum())) / (n * n)


def dense_qmi_grad(x, labels, counts, sigma2):
    """Quadratic-MI gradient per sample from the full N x N coef * kernel matrix:
    const/(N^2 sigma^2) * sum_j coef(c_i, c_j) w_ij (x_j - x_i)."""
    n, d = x.shape
    d2 = _dense_sq_dists(x)
    w = np.exp(d2 * (-0.5 / (2.0 * sigma2)))
    prior = counts.astype(np.float64) / n
    pl = prior[labels]
    coef = (labels[:, None] == labels[None, :]).astype(np.float64)
    coef -= pl[:, None] + pl[None, :]
    coef += float(np.sum(prior * prior))
    a = coef * w
    grad = a @ x - x * a.sum(axis=1)[:, None]
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    return grad * (const / (n * n * sigma2))


def dense_mi_codes_labels(codes, labels, sigma):
    """Resubstitution KDE mutual information from the dense kernel sums."""
    x = np.ascontiguousarray(np.asarray(codes, dtype=np.float64).T)
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    if (counts > 0).sum() < 2:
        return 0.0
    s_all, s_own = dense_class_kernel_sums(x, labels, sigma * sigma)
    n = x.shape[0]
    return max(float(np.mean(np.log(s_own / counts[labels]) - np.log(s_all / n))), 0.0)


def candidate_mi(codes, labels, chosen, pool, sigma):
    """KDE mutual information of the codes restricted to the chosen atoms
    plus each candidate, one fresh row copy per candidate."""
    return np.array([mi_codes_labels(codes[chosen + [k], :], labels, sigma) for k in pool])


def svd_pinv(mat):
    """SVD pseudoinverse of a matrix or of each matrix in a stack (..., m, n),
    inverting only the singular values that svd_keep keeps."""
    u, s, vt = np.linalg.svd(np.asarray(mat, dtype=np.float64), full_matrices=False)
    inv_s = np.where(svd_keep(s), 1.0 / np.where(s == 0.0, 1.0, s), 0.0)
    return (vt.swapaxes(-1, -2) * inv_s[..., None, :]) @ u.swapaxes(-1, -2)


def exact_pinv(mat):
    """Pseudoinverse of one full-rank (m, n) matrix, exact to rounding: solved
    in rational arithmetic from the float entries, then rounded once to
    float64. A tall matrix gives (A^T A)^-1 A^T, a wide one the transpose
    of its transpose's."""
    a = np.asarray(mat, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        return exact_pinv(a.T).T
    cols = [[Fraction(float(v)) for v in col] for col in a.T]
    n = len(cols)
    # Gauss-Jordan on [A^T A | A^T]; any nonzero pivot is exact
    rows = [[sum(p * q for p, q in zip(ci, cj)) for cj in cols] + ci for ci in cols]
    for j in range(n):
        piv = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[piv] = rows[piv], rows[j]
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i in range(n):
            if i != j and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[j])]
    return np.array([[float(v) for v in row[n:]] for row in rows])


def loop_omp(atoms, y, T):
    """OMP for one signal: argmax |d^T r| (lowest index on ties), then an
    svd_pinv least-squares refit on the grown support after every pick."""
    n, K = atoms.shape
    x = np.zeros(K)
    ynorm = np.linalg.norm(y)
    if ynorm == 0.0:
        return x
    resid = y.copy()
    chosen = []
    available = np.ones(K, dtype=bool)
    for _ in range(T):
        scores = np.abs(atoms.T @ resid)
        scores[~available] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-12 * ynorm:
            break
        chosen.append(best)
        available[best] = False
        sub = atoms[:, chosen]
        coef = svd_pinv(sub) @ y
        resid = y - sub @ coef
        if np.linalg.norm(resid) <= 1e-12 * ynorm:
            break
    if chosen:
        x[chosen] = coef
    return x


def loop_omp_codes(dictionary, signals, T):
    """Column-by-column OMP coefficient matrix (K, N)."""
    signals = np.asarray(signals, dtype=np.float64)
    return np.column_stack(
        [loop_omp(dictionary.atoms, signals[:, i], T) for i in range(signals.shape[1])]
    )


def loop_ksvd(Y, K, T, iters, seed):
    """K-SVD as ksvd_init runs it, coding with loop_omp_codes and
    rebuilding every atom's deflated residual from Y and the full codes.
    Each rank-1 step is the first singular pair of the full SVD, with u
    and the code row signed so that u^T d_old >= 0; a zero residual keeps
    the atom with a zero row. Returns the atoms, the post-sweep
    objectives and the number of unused atoms that were replaced."""
    n, N = Y.shape
    rng = np.random.default_rng(seed)
    atoms = Y[:, rng.choice(N, size=K, replace=False)].copy()
    for k in np.flatnonzero(np.linalg.norm(atoms, axis=0) <= 1e-12):
        atoms[:, k] = rng.standard_normal(n)
    atoms = unit_columns(atoms)
    trace, replaced = [], 0
    for _ in range(iters):
        d = Dictionary(atoms=unit_columns(atoms))
        X = loop_omp_codes(d, Y, T)
        atoms = d.atoms.copy()
        unused = [k for k in range(K) if not (X[k, :] != 0.0).any()]
        for k in range(K):
            support = np.flatnonzero(X[k, :] != 0.0)
            if support.size == 0:
                continue
            E = Y[:, support] - atoms @ X[:, support] + np.outer(atoms[:, k], X[k, support])
            u, s, vt = np.linalg.svd(E, full_matrices=False)
            if s[0] == 0.0:
                X[k, support] = 0.0
                continue
            sign = -1.0 if u[:, 0] @ atoms[:, k] < 0.0 else 1.0
            atoms[:, k] = sign * u[:, 0]
            X[k, support] = sign * s[0] * vt[0, :]
        if unused:
            worst = np.argsort(-np.linalg.norm(Y - atoms @ X, axis=0))
            for slot, k in enumerate(unused):
                col = Y[:, worst[slot % N]]
                atoms[:, k] = col / np.linalg.norm(col)
            replaced += len(unused)
        trace.append(float(np.sum((Y - atoms @ X) ** 2)))
    return unit_columns(atoms), trace, replaced


def somp(dictionary: Dictionary, signals: np.ndarray, T: int) -> tuple[Selection, np.ndarray]:
    """Simultaneous OMP: one shared support of size T for all signals, and
    the coefficients of every signal on it.

    Each round scores atoms by the summed absolute correlation with all
    current residuals, then refits every signal on the shared support.
    """
    atoms = dictionary.atoms
    n, K = atoms.shape
    if not 1 <= T <= min(n, K):
        raise ValueError("need 1 <= T <= min(n, K)")
    Y = np.asarray(signals, dtype=np.float64)
    resid = Y.copy()
    scale = np.linalg.norm(Y)
    chosen: list[int] = []
    available = np.ones(K, dtype=bool)
    coef = np.zeros((0, Y.shape[1]))
    for _ in range(T):
        scores = np.abs(atoms.T @ resid).sum(axis=1)
        scores[~available] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-12 * max(scale, 1.0):
            break
        chosen.append(best)
        available[best] = False
        sub = atoms[:, chosen]
        coef = svd_pinv(sub) @ Y
        resid = Y - sub @ coef
    return Selection(indices=tuple(chosen)), coef


def loop_reconstruct_masked(atoms_by_class, signals, mask):
    """Masked reconstruction one column at a time: per class, svd_pinv of the
    observed atom rows; the class with the smallest observed residual
    (lowest on ties) supplies the prediction and the reconstruction."""
    n, N = signals.shape
    recon = np.empty((n, N))
    pred = np.empty(N, dtype=np.int64)
    for i in range(N):
        obs = mask[:, i]
        y = signals[obs, i]
        best = np.inf
        for class_id, atoms in atoms_by_class:
            sub = atoms[obs, :]
            coef = svd_pinv(sub) @ y
            resid = np.linalg.norm(y - sub @ coef)
            if resid < best:
                best, pred[i], recon[:, i] = resid, class_id, atoms @ coef
    return recon, pred


def gauss_kernel(x: np.ndarray, sigma2: float) -> float:
    """Isotropic Gaussian kernel (2*pi*sigma2)^(-d/2) exp(-|x|^2 / (2 sigma2))."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    x = np.asarray(x, dtype=np.float64).ravel()
    d = x.size
    return float((2.0 * math.pi * sigma2) ** (-0.5 * d) * math.exp(-float(x @ x) / (2.0 * sigma2)))


def kde_class_density(
    codes: np.ndarray, labels: np.ndarray, c: int, x: np.ndarray, sigma: float
) -> float:
    """KDE estimate of p(x | class c) over the class-c code columns."""
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim == 1:
        codes = codes[None, :]
    labels = np.asarray(labels, dtype=np.int64)
    members = codes[:, labels == c]
    if members.shape[1] == 0:
        raise ValueError(f"class {c} has no samples")
    sigma2 = sigma**2
    x = np.asarray(x, dtype=np.float64).ravel()
    total = sum(gauss_kernel(x - members[:, j], sigma2) for j in range(members.shape[1]))
    return total / members.shape[1]


def _cond_var(cov: np.ndarray, a: int, given: list[int]) -> float:
    if not given:
        return float(cov[a, a])
    sub = cov[np.ix_(given, given)]
    b = cov[given, a]
    return float(cov[a, a] - b @ np.linalg.solve(sub, b))


def gp_compact_gain(model, selected, candidate):
    """Marginal compactness gain of one candidate atom.

    Half the log-ratio of the candidate's conditional variance given the
    selected set over its conditional variance given all remaining atoms.
    Returns -inf when the selected set already explains the candidate.
    """
    sel = list(selected.indices)
    K = model.cov.shape[0]
    if candidate in sel:
        raise ValueError("candidate already selected")
    if len(sel) + 1 >= K:
        raise ValueError("complement side would be empty")
    v_sel = _cond_var(model.cov, candidate, sel)
    if v_sel < GP_VAR_FLOOR:
        return -math.inf
    comp = [i for i in range(K) if i != candidate and i not in set(sel)]
    v_comp = max(_cond_var(model.cov, candidate, comp), 1e-300)
    return 0.5 * math.log(v_sel / v_comp)


def _residual_sq(atoms, indices, signals):
    if not indices:
        return float(np.sum(signals * signals))
    sub = atoms[:, indices]
    resid = signals - sub @ (svd_pinv(sub) @ signals)
    return float(np.sum(resid * resid))


def loop_recon_gain(dictionary, selected, candidate, signals, sigma_r):
    """Reconstruction gain of one candidate atom: the drop in total squared
    residual over 2 sigma_r^2, with an svd_pinv least-squares refit on the
    support before and after the candidate joins it."""
    sel = list(selected.indices)
    if candidate in sel:
        raise ValueError("candidate already selected")
    Y = np.asarray(signals, dtype=np.float64)
    base = _residual_sq(dictionary.atoms, sel, Y)
    extended = _residual_sq(dictionary.atoms, sel + [candidate], Y)
    return (base - extended) / (2.0 * sigma_r**2)


def gp_total_mi(model, subset):
    """Mutual information between a subset and its complement under the GP."""
    K = model.cov.shape[0]
    sub = sorted(set(subset))
    comp = [i for i in range(K) if i not in set(sub)]
    if not sub or not comp:
        return 0.0
    cov = model.cov
    _, ld_s = np.linalg.slogdet(cov[np.ix_(sub, sub)])
    _, ld_c = np.linalg.slogdet(cov[np.ix_(comp, comp)])
    _, ld_all = np.linalg.slogdet(cov)
    return 0.5 * (ld_s + ld_c - ld_all)


def qmi_grad_x(
    codes: np.ndarray, labels: np.ndarray, i: int, c: int, sigma: float
) -> np.ndarray:
    """Gradient of qmi with respect to the code of sample i (class c)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels[i] != c:
        raise ValueError(f"sample {i} does not belong to class {c}")
    return qmi_grad_codes(codes, labels, sigma)[:, i].copy()


def qmi_grad_phi(
    codes: np.ndarray, signals: np.ndarray, labels: np.ndarray, sigma: float
) -> np.ndarray:
    """Gradient of qmi(X; labels) with respect to the coding map phi, given
    the codes X = phi^T Y and the signals Y, from its own gradient walk:
    by the chain rule, Y (dI/dX)^T."""
    return np.asarray(signals, dtype=np.float64) @ qmi_grad_codes(codes, labels, sigma).T


def kl_qd_check(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """KL divergence and quadratic divergence of two discrete distributions.

    For checking D(p||q) >= Q(p||q)/2. A zero in q where p is positive
    yields kl = +inf.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d with a common support")
    for name, v in (("p", p), ("q", q)):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a distribution")
    qd = float(np.sum((p - q) ** 2))
    pos = p > 0
    if (q[pos] == 0).any():
        return float("inf"), qd
    kl = float(np.sum(p[pos] * np.log(p[pos] / q[pos])))
    return kl, qd


def max_column_turn(before, after):
    """Largest angle between a column of ``before`` and the same column of
    ``after``: per column, atan2 of the part of v orthogonal to u over
    u . v, for the unit directions u and v."""
    u = before / np.linalg.norm(before, axis=0)
    v = after / np.linalg.norm(after, axis=0)
    cos = np.sum(u * v, axis=0)
    return float(np.max(np.arctan2(np.linalg.norm(v - u * cos, axis=0), cos)))


def three_pass_update(dict_selected, signals, labels, step=None, max_iters=100, tol=TURN_TOL):
    """The quadratic-MI ascent of ``itdu.update_dictionary`` with three band
    walks per accepted iteration: the gradient (``qmi_grad_phi``) at the
    iterate, ``qmi`` at each backtracking trial, and ``qmi`` again at the
    accepted point. It stops after an accepted step in which no transform
    column turned by tol radians or more (``max_column_turn``). Same
    rules, same (atoms, UpdateState)."""
    Y = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    P = pinv(np.ascontiguousarray(dict_selected, dtype=np.float64))
    X = P @ Y
    sigma = ascent_bandwidth(X)
    state = UpdateState(transform=np.ascontiguousarray(P.T), step=float(step or 0.0), sigma=sigma)
    state.objective_trace.append(qmi(X, labels, sigma))
    for state.iterations in range(1, max_iters + 1):
        grad_phi = qmi_grad_phi(X, Y, labels, sigma)
        gnorm = float(np.linalg.norm(grad_phi))
        iq = state.objective_trace[-1]
        if not math.isfinite(iq) or not math.isfinite(gnorm):
            state.aborted = True
            break
        if step is None and state.iterations == 1:
            state.step = 0.1 * float(np.linalg.norm(state.transform)) / max(gnorm, 1e-30)
        nu, _ = backtrack_step(
            state.transform, grad_phi, state.step, lambda phi: qmi(phi.T @ Y, labels, sigma), iq
        )
        if nu * gnorm == 0.0:
            state.converged = True
            break
        turn = max_column_turn(state.transform, state.transform + nu * grad_phi)
        state.transform = state.transform + nu * grad_phi
        X = state.transform.T @ Y
        state.objective_trace.append(qmi(X, labels, sigma))
        state.accepted_steps.append(nu)
        state.grad_norms.append(gnorm)
        if turn < tol:
            state.converged = True
            break
    if not state.accepted_steps:
        return np.array(dict_selected, dtype=np.float64, copy=True), state
    rank = int(np.count_nonzero(svd_keep(np.linalg.svd(state.transform, compute_uv=False))))
    assert rank == state.transform.shape[1], "the oracle covers full-rank transforms only"
    return unit_columns(pinv(state.transform.T)), state
