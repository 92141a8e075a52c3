import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    exact_pinv,
    loop_ksvd,
    loop_omp_codes,
    random_unit_dictionary,
    somp,
    svd_pinv,
)
from itdl import sparse_coding
from itdl.sparse_coding import (
    Dictionary,
    Selection,
    code_ls,
    ksvd_init,
    load_dictionary,
    load_matrix,
    load_selection,
    omp_codes,
    pinv,
    rmse,
    save_matrix,
    save_selection,
    svd_keep,
    unit_columns,
)

EPS = np.finfo(np.float64).eps


def rank_window():
    """Atoms e1, b = unit(e1 + 1e-3 e2), c = unit(e1 + 1e-3 e2 + 1.3e-10 e3),
    unit(e3 + e4) and e5 in R^6, and 20,000 signals: sparse combinations
    of the atoms plus noise of scale 1e-14 to 0.1."""
    e = np.eye(6)
    unit = lambda v: v / np.linalg.norm(v)
    atoms = np.column_stack([
        e[0],
        unit(e[0] + 1e-3 * e[1]),
        unit(e[0] + 1e-3 * e[1] + 1.3e-10 * e[2]),
        unit(e[2] + e[3]),
        e[4],
    ])
    rng = np.random.default_rng(0)
    N = 20000
    coef = rng.standard_normal((5, N)) * (rng.random((5, N)) < 0.7)
    return atoms, atoms @ coef + rng.standard_normal((6, N)) * 10.0 ** rng.uniform(-14, -1, (6, N))


class TestOmp:
    """omp_codes on one signal column."""

    def test_identity_dictionary(self):
        d = Dictionary(atoms=np.eye(3))
        x = omp_codes(d, np.array([[0.0], [2.0], [0.0]]), 1)[:, 0]
        np.testing.assert_allclose(x, [0.0, 2.0, 0.0], atol=1e-12)

    def test_exact_atom(self):
        d = random_unit_dictionary(3, 6, 4)
        x = omp_codes(d, d.atoms[:, 2:3], 1)[:, 0]
        assert x[2] == pytest.approx(1.0, abs=1e-10)
        assert np.count_nonzero(x) == 1

    def test_zero_signal(self):
        d = random_unit_dictionary(3, 5, 4)
        np.testing.assert_array_equal(omp_codes(d, np.zeros((5, 1)), 2)[:, 0], np.zeros(4))

    def test_against_naive_oracle(self):
        # rebuild the greedy from scratch each step: argmax |d^T r|,
        # least squares on the grown support
        rng = np.random.default_rng(5)
        d = random_unit_dictionary(8, 4, 5)
        y = rng.standard_normal(4)
        support = []
        r = y.copy()
        for _ in range(2):
            scores = np.abs(d.atoms.T @ r)
            scores[support] = -np.inf
            support.append(int(np.argmax(scores)))
            coef, *_ = np.linalg.lstsq(d.atoms[:, support], y, rcond=None)
            r = y - d.atoms[:, support] @ coef
        x = omp_codes(d, y[:, None], 2)[:, 0]
        assert set(np.flatnonzero(x)) == set(support)
        np.testing.assert_allclose(x[support], coef, atol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        d = random_unit_dictionary(7, 10, 20)
        y = rng.standard_normal(10)
        x = omp_codes(d, y[:, None], 4)[:, 0]
        sel = np.flatnonzero(x)
        resid = y - d.atoms @ x
        assert np.max(np.abs(d.atoms[:, sel].T @ resid)) < 1e-8

    def test_residual_nonincreasing_in_sparsity(self):
        rng = np.random.default_rng(7)
        d = random_unit_dictionary(8, 10, 20)
        y = rng.standard_normal(10)
        norms = []
        for T in range(1, 8):
            x = omp_codes(d, y[:, None], T)[:, 0]
            norms.append(np.linalg.norm(y - d.atoms @ x))
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_bad_sparsity(self):
        d = random_unit_dictionary(3, 5, 4)
        for T in (0, 6):
            with pytest.raises(ValueError):
                omp_codes(d, np.ones((5, 1)), T)

    def test_exact_tie_goes_to_lowest_index(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(6)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(6)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        # atoms 1 and 2 are identical: their scores tie exactly
        d = Dictionary(atoms=np.column_stack([b, a, a]))
        x = omp_codes(d, 3.0 * a[:, None], 1)[:, 0]
        assert np.flatnonzero(x).tolist() == [1]


class TestBatchedOmp:
    @pytest.mark.parametrize(
        "seed, n, K, N, T", [(1, 16, 32, 60, 4), (2, 32, 128, 40, 8), (3, 8, 8, 30, 8), (4, 12, 20, 25, 12)]
    )
    def test_matches_loop_oracle(self, seed, n, K, N, T):
        d = random_unit_dictionary(seed, n, K)
        Y = np.random.default_rng(seed + 100).standard_normal((n, N))
        got = omp_codes(d, Y, T)
        want = loop_omp_codes(d, Y, T)
        np.testing.assert_array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_mixed_batch_stops_per_signal(self, monkeypatch):
        # blocks of 4 columns, so stopped and live signals share blocks
        monkeypatch.setattr(sparse_coding, "_OMP_BLOCK", 4)
        n, K = 6, 9
        d = random_unit_dictionary(21, n, K)
        rng = np.random.default_rng(22)
        Y = np.column_stack(
            [
                np.zeros(n),
                2.5 * d.atoms[:, 3],
                rng.standard_normal(n),
                np.zeros(n),
                -d.atoms[:, 7],
                rng.standard_normal(n),
                rng.standard_normal(n),
                0.5 * d.atoms[:, 0],
                rng.standard_normal(n),
            ]
        )
        T = min(n, K)
        got = omp_codes(d, Y, T)
        want = loop_omp_codes(d, Y, T)
        np.testing.assert_array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (got != 0).sum(axis=0).tolist() == [0, 1, T, 0, 1, T, T, 1, T]

    def test_exact_ties_go_to_lowest_index_in_every_column(self):
        rng = np.random.default_rng(23)
        q = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        a, b, c = q.T
        # atoms 1 = 2 and 3 = 4 are identical: their scores tie exactly
        d = Dictionary(atoms=np.column_stack([c, a, a, b, b]))
        Y = np.column_stack([3.0 * a, -2.0 * b, a + 0.5 * b, 0.25 * b + a])
        got = omp_codes(d, Y, 2)
        assert [np.flatnonzero(col).tolist() for col in got.T] == [[1], [3], [1, 3], [1, 3]]

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_near_duplicate_atoms_reach_the_same_residual(self, eps):
        # twins of six atoms, perturbed by eps; below about 1e-8 the two
        # codings may pick different twins on a few signals
        n, base, T = 10, 12, 5
        for seed in range(20):
            rng = np.random.default_rng(seed)
            atoms = rng.standard_normal((n, base))
            atoms /= np.linalg.norm(atoms, axis=0)
            twins = atoms[:, :6] + eps * rng.standard_normal((n, 6))
            d = Dictionary(atoms=np.hstack([atoms, twins / np.linalg.norm(twins, axis=0)]))
            sparse = rng.standard_normal((18, 30)) * (rng.random((18, 30)) < 0.2)
            Y = np.hstack(
                [
                    d.atoms[:, :6] @ rng.standard_normal((6, 30)),
                    d.atoms @ sparse,
                    rng.standard_normal((n, 30)),
                ]
            )
            got = omp_codes(d, Y, T)
            want = loop_omp_codes(d, Y, T)
            np.testing.assert_allclose(
                np.linalg.norm(Y - d.atoms @ got, axis=0),
                np.linalg.norm(Y - d.atoms @ want, axis=0),
                rtol=0,
                atol=1e-8,
            )

    def test_dependent_pick_leaves_the_residual_as_pinv_does(self):
        # the twin is picked first and the atom second: their difference
        # (norm 1e-11) is below the pinv cutoff, so the residual keeps its
        # e component and the third pick is the weak atom, as in the loop
        rng = np.random.default_rng(26)
        a, e, f, g = np.linalg.qr(rng.standard_normal((6, 4)))[0].T
        twin = a + 1e-11 * e
        weak = f + 5e-12 * e
        d = Dictionary(
            atoms=np.column_stack([a, g, twin / np.linalg.norm(twin), weak / np.linalg.norm(weak)])
        )
        y = (a + 3.0 * e)[:, None]
        got = omp_codes(d, y, 3)
        assert np.flatnonzero(got).tolist() == [0, 2, 3]
        np.testing.assert_array_equal(got, loop_omp_codes(d, y, 3))

    def test_rank_window_support_codes_through_the_svd_rule(self):
        # The support [unit(e3 + e4), c, b] has s_min/s_max = 4.6e-11, so
        # its R is not certified: the coefficients must be the SVD
        # pseudoinverse's, which drops the b - c direction, not R^-1 Q^T y.
        atoms, Y = rank_window()
        order = [3, 2, 1]
        s = np.linalg.svd(atoms[:, order], compute_uv=False)
        assert 4e-11 < s[-1] / s[0] < 5e-11
        support, _ = sparse_coding._omp_block(atoms, Y, 3)
        hits = np.flatnonzero((support == order).all(axis=1))
        assert hits.size >= 1
        got = omp_codes(Dictionary(atoms=atoms), Y[:, hits], 3)
        for j, i in enumerate(hits):
            assert np.flatnonzero(got[:, j]).tolist() == [1, 2, 3]
            assert got[order, j].tobytes() == (svd_pinv(atoms[:, order]) @ Y[:, i]).tobytes()

    @pytest.mark.parametrize("delta", [1e-9, 1e-8])
    def test_support_past_the_certificate_codes_through_pinv(self, delta):
        # s_max/s_min = 2/delta is above the certificate's 1e8 and inside
        # svd_keep's window, so the code is pinv's (SVD) bit for bit
        e = np.eye(4)
        b = e[0] + delta * e[1]
        atoms = np.column_stack([e[0], b / np.linalg.norm(b), e[2]])
        y = (e[0] + 0.3 * e[1])[:, None]
        got = omp_codes(Dictionary(atoms=atoms), y, 2)
        assert np.flatnonzero(got).tolist() == [0, 1]
        assert got[[1, 0], 0].tobytes() == (svd_pinv(atoms[:, [1, 0]]) @ y[:, 0]).tobytes()

    def test_rank_window_supports_code_a_4th_atom_as_the_loop_does(self):
        # Every signal whose 3 picks are b, c and unit(e3 + e4), in any
        # order, is refit through pinv from its uncertified pick on, so its
        # residual and its 4th pick are the loop oracle's.
        atoms, Y = rank_window()
        support, _ = sparse_coding._omp_block(atoms, Y, 3)
        hits = np.flatnonzero((np.sort(support, axis=1) == [1, 2, 3]).all(axis=1))
        assert hits.size >= 5
        d = Dictionary(atoms=atoms)
        got, want = omp_codes(d, Y[:, hits], 4), loop_omp_codes(d, Y[:, hits], 4)
        assert got.tobytes() == want.tobytes()

    def test_pick_after_a_rank_window_support_follows_the_relative_rule(self):
        # The same atoms. This signal picks unit(e3 + e4), c, b first. b's
        # new direction (norm 9.2e-11) fails the certificate, so the code
        # keeps pinv's top two singular directions of the support, as the
        # loop does, and its 4th pick is the loop's e5.
        atoms, _ = rank_window()
        y = np.array([[
            0.7369383737267362, 0.0007369383636025779, -1.1326980541296225,
            -1.225484097049275, 4.332030351977407e-12, -2.0711486198694326e-14,
        ]]).T
        d = Dictionary(atoms=atoms)
        assert sparse_coding._omp_block(atoms, y, 3)[0].tolist() == [[3, 2, 1]]
        assert np.flatnonzero(loop_omp_codes(d, y, 4)).tolist() == [1, 2, 3, 4]
        assert np.flatnonzero(omp_codes(d, y, 4)).tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("seed", range(6))
    def test_coefficients_match_the_exact_pseudoinverse(self, seed):
        d = random_unit_dictionary(seed, 10, 20)
        Y = np.random.default_rng(seed + 50).standard_normal((10, 8))
        X = omp_codes(d, Y, 5)
        for x, y in zip(X.T, Y.T):
            chosen = np.flatnonzero(x)
            want = exact_pinv(d.atoms[:, chosen]) @ y
            assert np.linalg.norm(x[chosen] - want) <= 1e-13 * np.linalg.norm(want)

    def test_signal_shape_checked(self):
        d = random_unit_dictionary(25, 5, 7)
        with pytest.raises(ValueError):
            omp_codes(d, np.ones((4, 3)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, bad):
        # such a signal would otherwise code to all zeros
        d = random_unit_dictionary(25, 5, 7)
        Y = np.ones((5, 3))
        Y[2, 1] = bad
        with pytest.raises(ValueError, match="signals must be finite"):
            omp_codes(d, Y, 2)


class TestSomp:
    def test_single_signal_reduces_to_omp(self):
        rng = np.random.default_rng(8)
        d = random_unit_dictionary(9, 8, 16)
        y = rng.standard_normal(8)
        sel, codes = somp(d, y[:, None], 3)
        assert set(sel.indices) == set(np.flatnonzero(omp_codes(d, y[:, None], 3)[:, 0]))

    def test_identical_signals_equal_atom(self):
        d = random_unit_dictionary(10, 6, 9)
        Y = np.tile(d.atoms[:, 4][:, None], (1, 5))
        sel, codes = somp(d, Y, 2)
        assert sel.indices[0] == 4
        np.testing.assert_allclose(codes[0], np.ones(5), atol=1e-10)

    def test_against_naive_greedy_oracle(self):
        rng = np.random.default_rng(9)
        d = random_unit_dictionary(11, 5, 5)
        Y = rng.standard_normal((5, 6))
        support = []
        R = Y.copy()
        for _ in range(2):
            scores = np.abs(d.atoms.T @ R).sum(axis=1)
            scores[support] = -np.inf
            support.append(int(np.argmax(scores)))
            coef, *_ = np.linalg.lstsq(d.atoms[:, support], Y, rcond=None)
            R = Y - d.atoms[:, support] @ coef
        sel, codes = somp(d, Y, 2)
        resid = np.linalg.norm(Y - d.atoms[:, list(sel.indices)] @ codes)
        assert resid <= (1 + 1e-9) * np.linalg.norm(R)
        assert list(sel.indices) == support


class TestUnitColumns:
    def test_matches_plain_division_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            mat = rng.standard_normal(tuple(rng.integers(1, 20, size=2))) * rng.uniform(1e-3, 1e3)
            np.testing.assert_array_equal(unit_columns(mat), mat / np.linalg.norm(mat, axis=0))


class TestRmse:
    def test_frobenius_error_over_root_of_the_size(self):
        Y = np.arange(6.0).reshape(2, 3)
        assert rmse(Y, Y + 2.0) == 2.0
        assert rmse(Y, Y) == 0.0

    @pytest.mark.parametrize("shape", [(2, 1), (3, 2), (6,), (1, 2, 3)])
    def test_shapes_must_match(self, shape):
        # (2, 1) would broadcast to a zero error, (3, 2) fail without the shapes
        msg = re.escape(f"rmse of shapes (2, 3) and {shape}: they must be equal")
        with pytest.raises(ValueError, match=msg):
            rmse(np.ones((2, 3)), np.ones(shape))


class TestKsvd:
    def test_exactly_representable_data(self):
        rng = np.random.default_rng(10)
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :4]
        Y = np.hstack([basis * s for s in (1.0, 2.0, -1.5)])
        d = ksvd_init(Y, 4, 1, 8, 0)
        codes = omp_codes(d, Y, 1)
        rmse = np.linalg.norm(Y - d.atoms @ codes) / np.sqrt(Y.size)
        assert rmse < 1e-8

    def test_iters_validation(self):
        Y = np.random.default_rng(0).standard_normal((4, 10))
        with pytest.raises(ValueError):
            ksvd_init(Y, 3, 1, 0, 0)
        d = ksvd_init(Y, 3, 1, 1, 0)
        np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-10)

    def test_too_many_atoms(self):
        Y = np.random.default_rng(0).standard_normal((4, 5))
        with pytest.raises(ValueError):
            ksvd_init(Y, 6, 1, 1, 0)

    def test_objective_nonincreasing(self):
        for seed in range(3):
            Y = np.random.default_rng(seed).standard_normal((12, 40))
            trace = []
            ksvd_init(Y, 10, 3, 5, seed, trace=trace)
            assert len(trace) == 5
            assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))

    def test_atoms_stay_unit_norm(self):
        Y = np.random.default_rng(4).standard_normal((8, 30))
        d = ksvd_init(Y, 6, 2, 4, 1)
        np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_kept_residual_matches_rebuilt_residual_oracle(self, seed):
        # K = 20 of N = 24 signals, three of them zero: the atoms drawn from
        # zero signals go unused, so the replacement step runs
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((8, 24))
        Y[:, rng.choice(24, 3, replace=False)] = 0.0
        trace = []
        got = ksvd_init(Y, 20, 2, 4, seed, trace=trace)
        want, want_trace, replaced = loop_ksvd(Y, 20, 2, 4, seed)
        assert replaced > 0
        np.testing.assert_allclose(got.atoms, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace, want_trace, rtol=1e-12)

    def test_deterministic(self):
        Y = np.random.default_rng(4).standard_normal((8, 30))
        d1 = ksvd_init(Y, 6, 2, 3, 7)
        d2 = ksvd_init(Y, 6, 2, 3, 7)
        np.testing.assert_array_equal(d1.atoms, d2.atoms)

    def test_atom_updates_take_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        Y = np.random.default_rng(5).standard_normal((8, 40))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        ksvd_init(Y, 12, 3, 3, 0)


class TestRankOne:
    @settings(max_examples=300, deadline=None)
    @example(seed=0, n=5, w=3, rank=0, log_scale=0.0, duplicate=False)
    @example(seed=0, n=3, w=3, rank=0, log_scale=0.0, duplicate=False)
    @example(seed=0, n=3, w=5, rank=0, log_scale=0.0, duplicate=False)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        w=st.integers(1, 9),
        rank=st.integers(0, 9),
        log_scale=st.floats(-3.0, 3.0),
        duplicate=st.booleans(),
    )
    def test_dominant_pair_of_the_residual(self, seed, n, w, rank, log_scale, duplicate):
        # n < w, n = w and n > w; full rank, rank-deficient and zero E (the
        # examples give zero E in each shape); a repeated column; scales
        # 1e-3 to 1e3
        rng = np.random.default_rng(seed)
        r = min(rank, n, w)
        E = rng.standard_normal((n, r)) @ rng.standard_normal((r, w)) * 10.0**log_scale
        if duplicate and w > 1:
            E[:, -1] = E[:, 0]
        atom = unit_columns(rng.standard_normal((n, 1)))[:, 0]
        u, x = sparse_coding._rank_one(E.copy(), atom.copy())
        assert np.isfinite(u).all() and np.isfinite(x).all()
        assert x.shape == (w,)
        if r == 0:
            np.testing.assert_array_equal(u, atom)
            np.testing.assert_array_equal(x, 0.0)
            return
        assert abs(np.linalg.norm(u) - 1.0) <= 4 * EPS
        assert u @ atom >= 0.0
        U, s, _ = np.linalg.svd(E)
        energy = float(np.sum(E * E))
        left = float(np.sum((E - np.outer(u, x)) ** 2))
        assert abs(left - (energy - s[0] ** 2)) <= 4 * (n + w) * EPS * energy
        if s.size == 1 or s[1] <= 0.9 * s[0]:
            assert abs(u @ U[:, 0]) >= 1.0 - 1e-12


class TestPinv:
    def test_orthonormal_is_transpose(self):
        q = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))[0]
        np.testing.assert_allclose(pinv(q), q.T, atol=1e-12)

    def test_penrose_identities_with_duplicate_column(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 3))
        a[:, 2] = a[:, 0]
        p = pinv(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-8)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-8)
        np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-8)
        np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-8)

    def test_scalar(self):
        np.testing.assert_allclose(pinv(np.array([[2.0]])), [[0.5]])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    @pytest.mark.parametrize("m, n", [(6, 3), (3, 6), (4, 4), (1, 5)])
    def test_stack_matches_per_matrix_bit_for_bit(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        stack = rng.standard_normal((5, m, n))
        stack[1, :, -1] = stack[1, :, 0]  # rank-deficient
        stack[2] = np.outer(rng.standard_normal(m), rng.standard_normal(n))  # rank one
        stack[3] = 0.0
        got = pinv(stack)
        assert got.shape == (5, n, m)
        for k in range(5):
            assert got[k].tobytes() == pinv(stack[k]).tobytes()
        nested = pinv(stack.reshape(5, 1, m, n))
        assert nested.reshape(5, n, m).tobytes() == got.tobytes()

    def test_cutoff_is_per_matrix(self):
        # 1e-12 is far below the cutoff of the first matrix but is the
        # largest singular value of the second
        stack = np.array([np.diag([1.0, 1e-12]), np.diag([1e-12, 1e-12])])
        got = pinv(stack)
        np.testing.assert_array_equal(got[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(got[1], np.diag([1e12, 1e12]))

    def test_vector_rejected(self):
        with pytest.raises(ValueError):
            pinv(np.ones(3))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4, 3, 2)])
    def test_nan_raises(self, shape):
        mat = np.ones(shape)
        mat[(0,) * len(shape)] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            pinv(mat)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        members=st.lists(
            st.tuples(
                st.sampled_from(["graded", "zero", "rank-one", "duplicate"]),
                st.floats(-12.0, 0.0),  # log10 of s_min / s_max
                st.floats(-3.0, 3.0),  # log10 of the scale
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # here the QR route is 0.8 eps kappa from the exact pseudoinverse and
    # the SVD 21 eps kappa, past the bound: the SVD is no reference for it
    @example(m=3, n=5, members=[("graded", 0.0, 0.0)] * 4 + [("duplicate", 0.0, 0.0)], seed=3)
    def test_certificate_routes_each_member(self, m, n, members, seed):
        rng = np.random.default_rng(seed)
        t = min(m, n)
        stack = np.empty((len(members), m, n))
        for k, (kind, log_ratio, log_scale) in enumerate(members):
            u = np.linalg.qr(rng.standard_normal((m, t)))[0]
            v = np.linalg.qr(rng.standard_normal((n, t)))[0]
            s = np.sort(10.0 ** rng.uniform(log_ratio, 0.0, t))[::-1]
            s[0], s[-1] = 1.0, 10.0**log_ratio if t > 1 else 1.0
            stack[k] = 10.0**log_scale * (u * s) @ v.T
            if kind == "zero":
                stack[k] = 0.0
            elif kind == "rank-one":
                stack[k] = np.outer(rng.standard_normal(m), rng.standard_normal(n))
            elif kind == "duplicate" and n > 1:
                stack[k][:, -1] = stack[k][:, 0]
        got, want = pinv(stack), svd_pinv(stack)
        wide = m < n
        _, ok = sparse_coding._certified_inverse(
            np.linalg.qr(stack.swapaxes(1, 2) if wide else stack)[1]
        )
        sv = np.linalg.svd(stack, compute_uv=False)
        for k in range(len(members)):
            kappa = sv[k, 0] / sv[k, -1] if sv[k, -1] > 0.0 else np.inf
            if kappa * t <= 1e7:
                assert ok[k]  # comfortably conditioned: the QR route is taken
            if not ok[k]:
                assert got[k].tobytes() == want[k].tobytes()
                continue
            # certified: svd_keep keeps every singular value, and the QR
            # route is within 4 max(m, n) eps kappa of the exact pseudoinverse
            assert svd_keep(sv[k]).all()
            exact = exact_pinv(stack[k])
            err = np.linalg.norm(got[k] - exact) / np.linalg.norm(exact)
            assert err <= 4 * max(m, n) * EPS * kappa


class TestCodeLs:
    def test_in_span_reconstruction(self):
        d = random_unit_dictionary(3, 8, 12)
        sel = Selection(indices=(1, 5, 7))
        rng = np.random.default_rng(4)
        Y = d.atoms[:, list(sel.indices)] @ rng.standard_normal((3, 6))
        codes = code_ls(d, sel, Y)
        recon = d.atoms[:, list(sel.indices)] @ codes
        assert np.linalg.norm(Y - recon) < 1e-8

    def test_single_atom_ones(self):
        d = random_unit_dictionary(5, 6, 9)
        sel = Selection(indices=(3,))
        Y = np.tile(d.atoms[:, 3][:, None], (1, 4))
        codes = code_ls(d, sel, Y)
        np.testing.assert_allclose(codes, np.ones((1, 4)), atol=1e-10)

    def test_least_squares_optimality_via_perturbations(self):
        rng = np.random.default_rng(6)
        d = random_unit_dictionary(7, 9, 14)
        sel = Selection(indices=(0, 4, 8, 11))
        Y = rng.standard_normal((9, 10))
        codes = code_ls(d, sel, Y)
        sub = d.atoms[:, list(sel.indices)]
        base = np.linalg.norm(Y - sub @ codes)
        for _ in range(100):
            delta = 1e-3 * rng.standard_normal(codes.shape)
            assert base <= np.linalg.norm(Y - sub @ (codes + delta)) + 1e-12

    def test_residual_matches_independent_projector(self):
        rng = np.random.default_rng(7)
        d = random_unit_dictionary(8, 9, 14)
        sel = Selection(indices=(2, 3, 9))
        Y = rng.standard_normal((9, 11))
        codes = code_ls(d, sel, Y)
        sub = d.atoms[:, list(sel.indices)]
        got = np.linalg.norm(Y - sub @ codes)
        q = np.linalg.qr(sub)[0]
        want = np.linalg.norm(Y - q @ (q.T @ Y))
        assert got == pytest.approx(want, abs=1e-8)

    def test_overcomplete_selection_warns(self):
        d = random_unit_dictionary(9, 3, 8)
        sel = Selection(indices=(0, 1, 2, 3))
        with pytest.warns(UserWarning):
            code_ls(d, sel, np.random.default_rng(0).standard_normal((3, 4)))


class TestPersistence:
    def test_dictionary_round_trip(self, tmp_path):
        d = random_unit_dictionary(11, 7, 5)
        f = tmp_path / "d.itdl"
        save_matrix(d.atoms, f)
        d2 = load_dictionary(f)
        np.testing.assert_array_equal(d.atoms, d2.atoms)

    def test_binary_layout(self, tmp_path):
        d = random_unit_dictionary(12, 3, 2)
        f = tmp_path / "d.itdl"
        save_matrix(d.atoms, f)
        blob = f.read_bytes()
        assert blob[:4] == b"ITDL"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:9], "little") == 3
        assert int.from_bytes(blob[9:13], "little") == 2
        first = np.frombuffer(blob[13:21], dtype="<f8")[0]
        assert first == d.atoms[0, 0]
        assert len(blob) == 13 + 8 * 3 * 2

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "x.itdl"
        f.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            load_dictionary(f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_names_file(self, tmp_path, bad):
        atoms = random_unit_dictionary(13, 4, 3).atoms.copy()
        atoms[2, 1] = bad
        f = tmp_path / "d.itdl"
        save_matrix(atoms, f)
        with pytest.raises(ValueError, match="non-finite") as exc:
            load_matrix(f)
        assert str(exc.value).startswith(f"{f}: ")

    def test_trailing_bytes_name_file(self, tmp_path):
        f = tmp_path / "d.itdl"
        save_matrix(random_unit_dictionary(15, 4, 3).atoms, f)
        f.write_bytes(f.read_bytes() + bytes(8))
        with pytest.raises(ValueError) as exc:
            load_matrix(f)
        assert str(exc.value) == f"{f}: trailing bytes after the 4 x 3 matrix payload"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("cut-4", "truncated header"),
            ("cut-8", "truncated header"),
            ("version-2", "unsupported version 2"),
            ("cut-payload", "truncated matrix payload"),
        ],
        ids=["cut-4", "cut-8", "version-2", "cut-payload"],
    )
    def test_damaged_file_names_it(self, tmp_path, edit, message):
        f = tmp_path / "d.itdl"
        save_matrix(random_unit_dictionary(16, 4, 3).atoms, f)
        blob = bytearray(f.read_bytes())
        if edit == "version-2":
            blob[4] = 2
        else:
            blob = blob[: {"cut-4": 4, "cut-8": 8, "cut-payload": len(blob) - 8}[edit]]
        f.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as exc:
            load_matrix(f)
        assert str(exc.value) == f"{f}: {message}"

    def test_unnormalized_dictionary_names_file(self, tmp_path):
        atoms = random_unit_dictionary(14, 4, 3).atoms.copy()
        atoms[:, 0] *= 2.0
        f = tmp_path / "d.itdl"
        save_matrix(atoms, f)
        with pytest.raises(ValueError) as exc:
            load_dictionary(f)
        assert str(exc.value) == f"{f}: every atom must have unit l2 norm"

    def test_selection_round_trip(self, tmp_path):
        sel = Selection(indices=(4, 0, 9))
        f = tmp_path / "s.csv"
        save_selection(sel, f)
        assert load_selection(f).indices == (4, 0, 9)


class TestTypes:
    def test_dictionary_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Dictionary(atoms=np.ones((3, 2)))

    def test_dictionary_rejects_nan_atom(self):
        atoms = np.eye(3)
        atoms[0, 1] = np.nan
        with pytest.raises(ValueError, match=r"atoms must be finite \(they hold nan or inf\)"):
            Dictionary(atoms=atoms)

    @pytest.mark.parametrize("atoms", [np.ones(3), np.ones((1, 1, 1)), np.ones((3, 0))])
    def test_dictionary_rejects_non_matrix(self, atoms):
        with pytest.raises(
            ValueError,
            match="atoms must be a 2-d matrix with at least one row|no atoms: the atom matrix has 0 columns",
        ):
            Dictionary(atoms=atoms)

    def test_selection_rejects_negative_index(self):
        with pytest.raises(ValueError, match="selection indices must be non-negative"):
            Selection(indices=(2, -1))

    def test_selection_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Selection(indices=(1, 1))
