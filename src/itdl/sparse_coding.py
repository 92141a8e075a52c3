"""Orthogonal matching pursuit, K-SVD initialization and least-squares coding.

Dictionaries are (n, K) matrices of unit-norm atoms (see ``unit_columns``).
OMP breaks score ties toward the lowest atom index so runs are
reproducible. Every least-squares solve keeps the SVD pseudoinverse's
relative cutoff (``svd_keep``), so near-duplicate atoms cannot blow up
the coefficients. A solve whose triangular factor is certified well
conditioned, so that the cutoff keeps every singular value, is made from
that factor (a batched QR in ``pinv``, OMP's own Gram-Schmidt in
``omp_codes``, which refits every signal it cannot certify through
``pinv``); every other solve goes through the SVD.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import float_matrix, frozen_copy

SVD_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Matrix of unit-l2-norm atoms, one per column (dataset.float_matrix)."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = frozen_copy(float_matrix(self.atoms, "atoms"))
        object.__setattr__(self, "atoms", atoms)
        norms = np.linalg.norm(atoms, axis=0)
        if not (np.abs(norms - 1.0) <= 1e-10).all():
            raise ValueError("every atom must have unit l2 norm")

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def K(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class Selection:
    """Ordered, distinct atom indices in greedy-selection order."""

    indices: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(set(idx)) != len(idx):
            raise ValueError("selection indices must be distinct")
        if any(i < 0 for i in idx):
            raise ValueError("selection indices must be non-negative")

    def __len__(self) -> int:
        return len(self.indices)


def svd_keep(s: np.ndarray) -> np.ndarray:
    """Which singular values pinv keeps, given each matrix's values in
    descending order along the last axis: those at least SVD_CUTOFF x the
    matrix's largest, and nonzero."""
    return (s >= SVD_CUTOFF * s[..., :1]) & (s > 0.0)


# Smallest s_min/s_max that is certain to keep every singular value under
# svd_keep: the factor 100 covers the rounding gap, of order n eps s_max,
# between a factor's singular values and those the SVD computes.
CERTIFIED_RATIO = 100.0 * SVD_CUTOFF

# Largest ||R||_F ||R^-1||_F of a certified triangular factor; the product
# bounds s_max/s_min.
_MAX_COND = 1.0 / CERTIFIED_RATIO


def _certified_inverse(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (N, t, t) of upper-triangular factors, and
    which of them are certified: ||R||_F ||R^-1||_F <= _MAX_COND, so that
    svd_keep keeps every singular value. Uncertified members, non-finite
    ones among them, invert to zeros.

    A triangular matrix's diagonal holds its eigenvalues, so a diagonal
    ratio above _MAX_COND fails the certificate before any inversion;
    exactly singular members are never inverted.
    """
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    lo = diag.min(axis=-1, initial=np.inf)
    ok = (lo > 0.0) & (lo * _MAX_COND >= diag.max(axis=-1, initial=0.0))
    R_inv = np.zeros_like(R)
    R_inv[ok] = np.linalg.inv(R[ok])
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the certificate
        ok &= np.linalg.norm(R, axis=(-2, -1)) * np.linalg.norm(R_inv, axis=(-2, -1)) <= _MAX_COND
    R_inv[~ok] = 0.0
    return R_inv, ok


def _svd_pinv(mat: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    inv_s = np.where(svd_keep(s), 1.0 / np.where(s == 0.0, 1.0, s), 0.0)
    return (vt.swapaxes(-1, -2) * inv_s[..., None, :]) @ u.swapaxes(-1, -2)


# Matrices factored together by pinv; bounds the QR route's temporaries
# (numpy's working copy, Q, R and R^-1) whatever the size of the stack.
_PINV_BLOCK = 128


def pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a matrix, or of each matrix in a stack (..., m, n).

    Per matrix, only the singular values that svd_keep keeps are inverted,
    so an all-zero matrix inverts to zeros. Each matrix is factored by QR
    (of its transpose when it is wide); where _certified_inverse
    certifies R, the pseudoinverse is R^-1 Q^T (transposed back when
    wide). Every other matrix takes the SVD pseudoinverse, and a
    non-finite one raises LinAlgError there.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim < 2:
        raise ValueError("pinv expects a matrix or a stack of matrices")
    m, n = mat.shape[-2:]
    wide = m < n
    stack = mat.reshape(math.prod(mat.shape[:-2]), m, n)
    out = np.empty((len(stack), n, m))
    for start in range(0, len(stack), _PINV_BLOCK):
        part = stack[start : start + _PINV_BLOCK]
        dest = out[start : start + _PINV_BLOCK]
        q, r = np.linalg.qr(part.swapaxes(1, 2) if wide else part)
        r_inv, ok = _certified_inverse(r)
        if wide:
            np.matmul(q, r_inv.swapaxes(1, 2), out=dest)
        else:
            np.matmul(r_inv, q.swapaxes(1, 2), out=dest)
        if not ok.all():
            dest[~ok] = _svd_pinv(part[~ok])
    return out.reshape(mat.shape[:-2] + (n, m))


def unit_columns(mat: np.ndarray) -> np.ndarray:
    """The matrix with each nonzero column scaled to unit l2 norm; zero
    columns stay zero."""
    norms = np.linalg.norm(mat, axis=0)
    return mat / np.where(norms > 0, norms, 1.0)


# Signals coded together by omp_codes; the K x block score matrix and the
# block x T x n basis bound its memory whatever the number of signals.
_OMP_BLOCK = 1024


def omp_codes(dictionary: Dictionary, signals: np.ndarray, T: int) -> np.ndarray:
    """Orthogonal matching pursuit for every column of a signal matrix: the
    (K, N) coefficients, at most T nonzeros per column.

    Greedy argmax of |d^T r| with lowest-index tie-break. A signal stops
    when its best score or its residual norm falls to 1e-12 x its norm; an
    all-zero signal codes to zeros. The signals pass dataset.float_matrix
    with n rows. The coefficients are the least-squares fit on the final
    support under pinv's rank rule (see ``_omp_block``). Columns are coded
    in blocks, each step scoring the block's live signals with one matrix
    product.
    """
    atoms = dictionary.atoms
    n, K = atoms.shape
    if not 1 <= T <= min(n, K):
        raise ValueError("need 1 <= T <= min(n, K)")
    Y = float_matrix(signals, "signals", n)
    coeffs = np.zeros((K, Y.shape[1]))
    for start in range(0, Y.shape[1], _OMP_BLOCK):
        support, coef = _omp_block(atoms, Y[:, start : start + _OMP_BLOCK], T)
        cols, picks = np.nonzero(support >= 0)
        coeffs[support[cols, picks], start + cols] = coef[cols, picks]
    return coeffs


def _omp_block(atoms: np.ndarray, Y: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """OMP of the columns of Y: the (N, T) atom indices in pick order, -1
    past a signal's last pick, and the (N, T) coefficients on them.

    Each signal keeps an orthonormal basis Q of its chosen atoms A = QR,
    grown by Gram-Schmidt (applied twice), and R^-1: a pick whose new
    direction q has projection coefficients p appends the column
    [-R^-1 p; 1] / ||q||. While ||R||_F ||R^-1||_F <= _MAX_COND (||R||_F
    = sqrt(t) for t unit atoms), _certified_inverse's certificate, svd_keep
    keeps every singular value of A; the residual is then y minus its
    projection onto Q and the coefficients are R^-1 Q^T y. From the first
    pick that fails the bound, the signal is refit after every pick as
    pinv fits it, coefficients pinv(A) y and residual y - A pinv(A) y;
    more atoms only grow ||R||_F ||R^-1||_F, so it never returns to Q.
    """
    n, N = Y.shape
    tol = 1e-12 * np.linalg.norm(Y, axis=0)
    support = np.full((N, T), -1, dtype=np.intp)
    coef = np.zeros((N, T))
    basis = np.zeros((N, T, n))
    R_inv = np.zeros((N, T, T))
    inv_sq = np.zeros(N)  # ||R^-1||_F^2
    fast = np.ones(N, dtype=bool)
    resid = Y.T.copy()
    live = np.flatnonzero(tol > 0.0)
    for t in range(T):
        if live.size == 0:
            break
        scores = np.abs(atoms.T @ resid[live].T)
        lanes = np.arange(live.size)
        scores[support[live, :t].T, lanes] = -1.0
        best = np.argmax(scores, axis=0)
        picked = scores[best, lanes] > tol[live]
        live, best = live[picked], best[picked]
        support[live, t] = best
        f = live[fast[live]]
        q = atoms.T[support[f, t]]
        prev = basis[f, :t]
        proj = 0.0
        for _ in range(2):
            c = np.einsum("ltn,ln->lt", prev, q)
            q -= np.einsum("ltn,lt->ln", prev, c)
            proj = proj + c
        norm = np.linalg.norm(q, axis=1)[:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf or nan fails the bound
            col = np.hstack([-np.einsum("lst,lt->ls", R_inv[f, :t, :t], proj), np.ones_like(norm)]) / norm
            inv_sq[f] += (col * col).sum(axis=1)
            ok = (t + 1) * inv_sq[f] <= _MAX_COND * _MAX_COND
        fast[f[~ok]] = False
        f, col, q = f[ok], col[ok], q[ok] / norm[ok]
        R_inv[f, : t + 1, t] = col
        basis[f, t] = q
        r = resid[f]
        zt = np.einsum("ln,ln->l", q, r)
        r -= q * zt[:, None]
        resid[f] = r
        coef[f, : t + 1] += col * zt[:, None]
        slow = live[~fast[live]]
        if slow.size:
            A = atoms.T[support[slow, : t + 1]].swapaxes(1, 2)  # (G, n, t + 1), in pick order
            y = Y.T[slow, :, None]
            x = pinv(A) @ y
            coef[slow, : t + 1] = x[..., 0]
            resid[slow] = (y - A @ x)[..., 0]
        live = live[np.linalg.norm(resid[live], axis=1) > tol[live]]
    return support, coef


def code_ls(dictionary: Dictionary, selection: Selection, signals: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of all signals (n rows) on the selected atoms."""
    if len(selection) > dictionary.n:
        warnings.warn(
            "selection larger than the signal dimension; coding with the "
            "least-norm pseudoinverse solution",
            stacklevel=2,
        )
    sub = dictionary.atoms[:, list(selection.indices)]
    return pinv(sub) @ float_matrix(signals, "signals", dictionary.n)


def _rank_one(E: np.ndarray, atom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K-SVD's rank-1 step: the dominant singular pair of a deflated
    residual E (n, w) as the unit atom u and its code row x = u^T E
    (= s1 v1), from the top eigenpair of E's smaller Gram matrix: u = Ev /
    |Ev| for the top eigenvector v of E^T E when w <= n, else the top
    eigenvector of E E^T. u is signed so that u^T atom >= 0: the atom
    keeps its orientation. If the Gram has no positive eigenvalue (E = 0),
    the old atom is kept and x is its row atom^T E, zero for E = 0."""
    n, w = E.shape
    if w <= n:
        lam, v = np.linalg.eigh(E.T @ E)
        u = E @ v[:, -1]
    else:
        lam, U = np.linalg.eigh(E @ E.T)
        u = U[:, -1]
    if not lam[-1] > 0.0:
        return atom, atom @ E
    u /= np.linalg.norm(u)
    if u @ atom < 0.0:
        u = -u
    return u, u @ E


def ksvd_init(
    signals: np.ndarray,
    K: int,
    T: int,
    iters: int,
    seed: int,
    trace: list | None = None,
) -> Dictionary:
    """K-SVD dictionary initialization.

    Alternates OMP coding with atom-by-atom rank-1 updates: each atom
    becomes the dominant left singular vector of its deflated residual E,
    taken from the top eigenpair of E's smaller Gram matrix (``_rank_one``)
    and oriented to keep the old atom's sign, and its code row becomes
    that vector's projection of E; an atom whose E is zero is kept, with a
    zero row. The residual Y - DX is kept through the sweep: each atom's
    deflated residual is its signals' columns of it plus the atom's own
    rank-1 term, and the update writes them back. The atoms' supports are
    read once per sweep from the OMP codes, since each update changes
    only its own row. Atoms with an empty support are replaced by the
    currently worst-represented signals, each renormalized. If ``trace``
    is given, the post-sweep objective ||Y - DX||_F^2 is appended after
    every sweep. The signals pass dataset.float_matrix.
    """
    Y = float_matrix(signals, "signals")
    n, N = Y.shape
    if K > N:
        raise ValueError("K must not exceed the number of training signals")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    rng = np.random.default_rng(seed)
    # C-ordered copy: fancy indexing gives Fortran order, which rounds the norms differently
    atoms = Y[:, rng.choice(N, size=K, replace=False)].copy()
    for k in np.flatnonzero(np.linalg.norm(atoms, axis=0) <= 1e-12):
        atoms[:, k] = rng.standard_normal(n)
    atoms = unit_columns(atoms)

    for _ in range(iters):
        d = Dictionary(atoms=unit_columns(atoms))
        X = omp_codes(d, Y, T)
        atoms = d.atoms.copy()
        resid = Y - atoms @ X
        rows, cols = np.nonzero(X)
        bounds = np.searchsorted(rows, np.arange(K + 1))
        for k in range(K):
            support = cols[bounds[k] : bounds[k + 1]]
            if support.size == 0:
                continue
            E = resid[:, support]
            E += atoms[:, k, None] * X[k, support]
            atoms[:, k], X[k, support] = _rank_one(E, atoms[:, k])
            E -= atoms[:, k, None] * X[k, support]
            resid[:, support] = E
        unused = np.flatnonzero(bounds[1:] == bounds[:-1])
        if unused.size:
            worst = np.argsort(-np.linalg.norm(resid, axis=0))
            for slot, k in enumerate(unused):
                col = Y[:, worst[slot % N]]
                atoms[:, k] = col / np.linalg.norm(col)
        if trace is not None:
            trace.append(float(np.sum(resid**2)))
    return Dictionary(atoms=unit_columns(atoms))


def rmse(Y: np.ndarray, Y_hat: np.ndarray) -> float:
    """Frobenius error normalized by sqrt(n*N); Y and Y_hat of different
    shapes raise ValueError naming both."""
    Y, Y_hat = np.asarray(Y, dtype=np.float64), np.asarray(Y_hat, dtype=np.float64)
    if Y.shape != Y_hat.shape:
        raise ValueError(f"rmse of shapes {Y.shape} and {Y_hat.shape}: they must be equal")
    return float(np.linalg.norm(Y - Y_hat) / np.sqrt(Y.size))


# ---------------------------------------------------------------------------
# persistence: binary dictionary format and selection CSV
# ---------------------------------------------------------------------------

_MAGIC = b"ITDL"
_VERSION = 1
_HEADER = struct.Struct("<4sBII")


def save_matrix(mat: np.ndarray, path) -> None:
    """Write a matrix in the binary format: magic, version, n, K, column-major float64."""
    mat = np.asarray(mat, dtype=np.float64)
    n, K = mat.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, n, K))
        fh.write(np.asfortranarray(mat).tobytes(order="F"))


def load_matrix(path) -> np.ndarray:
    """Read a ``save_matrix`` file. Bad magic bytes, a truncated header, another version,
    a payload other than n x K or a non-finite entry raises ValueError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic bytes {blob[:4]!r}")
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    _, version, n, K = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    extra = len(blob) - _HEADER.size - 8 * n * K
    if extra < 0:
        raise ValueError(f"{path}: truncated matrix payload")
    if extra > 0:
        raise ValueError(f"{path}: trailing bytes after the {n} x {K} matrix payload")
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite matrix entry (nan or inf)")
    return np.ascontiguousarray(data.reshape((n, K), order="F"))


def load_dictionary(path) -> Dictionary:
    atoms = load_matrix(path)
    try:
        return Dictionary(atoms=atoms)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_selection(selection: Selection, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(str(i) for i in selection.indices) + "\n")


def load_selection(path) -> Selection:
    """Read comma-separated atom indices written by ``save_selection``. An
    empty, non-ASCII or non-integer file raises ValueError naming it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read().strip()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not an ASCII text file") from None
    if not text:
        raise ValueError(f"{path}: empty selection file")
    try:
        return Selection(indices=tuple(int(tok) for tok in text.replace("\n", ",").split(",") if tok))
    except ValueError as exc:
        raise ValueError(f"{path}: bad selection ({exc})") from None
