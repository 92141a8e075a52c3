import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _dense_sq_dists,
    dense_median_pairwise_distance,
    gauss_kernel,
    gp_compact_gain,
    gp_total_mi,
    kde_class_density,
    kl_qd_check,
    loop_recon_gain,
    mi_quadrature_1d,
    planted_support_instance,
    qmi_grad_phi,
    qmi_grad_x,
    qmi_quadrature,
    random_unit_dictionary,
    somp,
)
from itdl.info_measures import (
    GP_JITTER,
    GpModel,
    ascent_bandwidth,
    bandwidth_rule,
    bayes_bound,
    build_gp_model,
    class_entropy,
    gp_compact_gains,
    median_pairwise_distance,
    mi_codes_labels,
    qmi,
    qmi_grad_codes,
    recon_gain,
)
from itdl.sparse_coding import Dictionary, Selection

RECON_PROPERTY = settings(max_examples=200, deadline=None)
GP_PROPERTY = settings(max_examples=300, deadline=None)


class TestGaussKernel:
    def test_origin_1d(self):
        assert gauss_kernel(np.array([0.0]), 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_separability(self):
        # a 2-d kernel is the product of its 1-d marginals
        val = gauss_kernel(np.array([1.0, 0.0]), 0.5)
        want = gauss_kernel(np.array([1.0]), 0.5) * gauss_kernel(np.array([0.0]), 0.5)
        assert val == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one(self):
        grid = np.linspace(-12, 12, 20001)
        vals = [gauss_kernel(np.array([g]), 0.8) for g in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-4)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gauss_kernel(np.array([1.0]), 0.0)


class TestKdeClassDensity:
    def test_single_sample(self):
        codes = np.array([[0.3], [1.0]])
        sigma = 0.7
        got = kde_class_density(codes, np.array([0]), 0, codes[:, 0], sigma)
        assert got == pytest.approx(gauss_kernel(np.zeros(2), 0.49), rel=1e-12)

    def test_symmetry(self):
        codes = np.array([[1.0, -1.0, 2.0, -2.0]])
        labels = np.zeros(4, dtype=int)
        sigma = 0.5
        a = kde_class_density(codes, labels, 0, np.array([0.7]), sigma)
        b = kde_class_density(codes, labels, 0, np.array([-0.7]), sigma)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mixture_identity(self):
        rng = np.random.default_rng(1)
        codes = rng.standard_normal((2, 12))
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]
        sigma = 0.6
        n = labels.size
        for _ in range(5):
            x = rng.standard_normal(2)
            mix = sum(
                kde_class_density(codes, labels, c, x, sigma) * (labels == c).sum() / n
                for c in range(3)
            )
            marginal = sum(
                gauss_kernel(x - codes[:, j], 0.36) for j in range(n)
            ) / n
            assert mix == pytest.approx(marginal, abs=1e-12)

    def test_empty_class(self):
        codes = np.ones((1, 3))
        with pytest.raises(ValueError):
            kde_class_density(codes, np.zeros(3, dtype=int), 1, np.array([0.0]), 1.0)


class TestMiCodesLabels:
    def test_identical_conditionals(self):
        pts = np.array([[0.0, 1.0, 2.0, 0.0, 1.0, 2.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert mi_codes_labels(pts, labels, 0.5) <= 1e-6

    def test_against_quadrature(self):
        codes = np.array([[-10.0, -10.3, -9.7, 10.0, 10.4, 9.8]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        sigma = 0.5
        got = mi_codes_labels(codes, labels, sigma)
        want = mi_quadrature_1d(codes, labels, sigma)
        assert got == pytest.approx(want, rel=0.02)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        codes = rng.standard_normal((2, 14))
        labels = rng.integers(0, 2, 14)
        labels[:2] = [0, 1]
        sigma = 0.8
        base = mi_codes_labels(codes, labels, sigma)
        perm = rng.permutation(14)
        assert mi_codes_labels(codes[:, perm], labels[perm], sigma) == pytest.approx(base, rel=1e-12)

    def test_bounds_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(6, 25))
            d = int(rng.integers(1, 4))
            codes = rng.standard_normal((d, n))
            labels = rng.integers(0, int(rng.integers(2, 4)), n)
            if len(np.unique(labels)) < 2:
                continue
            mi = mi_codes_labels(codes, labels, None)
            assert mi >= 0.0
            assert mi <= class_entropy(labels) + 0.05

    def test_single_class_zero(self):
        codes = np.random.default_rng(5).standard_normal((2, 8))
        assert mi_codes_labels(codes, np.zeros(8, dtype=int), None) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        n=st.integers(2, 40),
        p=st.integers(2, 5),
        zero_share=st.floats(0.0, 1.0),
        one_vs_rest=st.booleans(),
        log_sigma=st.one_of(st.none(), st.floats(-3.0, 1.0)),
    )
    def test_never_above_the_class_entropy(self, seed, d, n, p, zero_share, one_vs_rest, log_sigma):
        # Each sample's own-class kernel sum is at most its sum over all
        # samples, so the estimate is at most H(C), which a selection
        # round's discrimination gain may rely on.
        rng = np.random.default_rng(seed)
        codes = rng.standard_normal((d, n))
        codes[:, rng.random(n) < zero_share] = 0.0
        labels = rng.integers(0, p, n)
        if one_vs_rest:
            labels = (labels == 0).astype(np.int64)
        sigma = None if log_sigma is None else 10.0**log_sigma
        assert mi_codes_labels(codes, labels, sigma) <= class_entropy(labels) * (1 + 1e-12)


class TestGpCompactness:
    def test_identity_covariance_all_zero_gains(self):
        model = GpModel(cov=np.eye(7))
        gains = gp_compact_gains(model, Selection(), list(range(7)))
        np.testing.assert_allclose(gains, 0.0, atol=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            build_gp_model(random_unit_dictionary(7, 6, 9).atoms, rho=rho)

    @pytest.mark.parametrize("atoms", [np.zeros((4, 0)), np.ones(4)], ids=["no-columns", "1-d"])
    def test_atoms_must_be_a_matrix_with_a_column(self, atoms):
        with pytest.raises(
            ValueError,
            match="atoms must be a 2-d matrix with at least one row|no atoms: the atom matrix has 0 columns",
        ):
            build_gp_model(atoms)

    def test_default_rho_is_the_dense_median_distance(self):
        # the single-atom pool has no pair; its 1x1 covariance is 1 for any rho
        for seed, K in [(1, 1), (2, 2), (3, 9), (4, 40)]:
            atoms = random_unit_dictionary(seed, 6, K).atoms
            rho = max(dense_median_pairwise_distance(atoms), 1e-6) if K > 1 else 1.0
            np.testing.assert_array_equal(build_gp_model(atoms).cov, build_gp_model(atoms, rho).cov)

    def test_duplicate_atom_hits_sentinel(self):
        rng = np.random.default_rng(6)
        atoms = rng.standard_normal((6, 5))
        atoms[:, 3] = atoms[:, 1]
        atoms /= np.linalg.norm(atoms, axis=0)
        model = build_gp_model(atoms)
        gain = gp_compact_gain(model, Selection(indices=(1,)), 3)
        assert gain == -math.inf

    def test_batch_matches_single(self):
        model = build_gp_model(random_unit_dictionary(7, 6, 9).atoms)
        sel = Selection(indices=(0, 4))
        cands = [1, 2, 3, 5, 6, 7, 8]
        batch = gp_compact_gains(model, sel, cands)
        for j, c in enumerate(cands):
            assert batch[j] == pytest.approx(gp_compact_gain(model, sel, c), abs=1e-9)

    def test_greedy_within_e_fraction_of_exhaustive(self):
        model = build_gp_model(random_unit_dictionary(8, 8, 6).atoms)
        chosen = []
        for _ in range(3):
            cands = [k for k in range(6) if k not in chosen]
            gains = gp_compact_gains(model, Selection(indices=tuple(chosen)), cands)
            chosen.append(cands[int(np.argmax(gains))])
        best = max(gp_total_mi(model, list(s)) for s in combinations(range(6), 3))
        assert gp_total_mi(model, chosen) >= (1 - 1 / math.e) * best

    def test_greedy_gains_nonincreasing(self):
        for seed in range(10):
            model = build_gp_model(random_unit_dictionary(seed, 8, 10).atoms)
            chosen, accepted = [], []
            for _ in range(8):
                cands = [k for k in range(10) if k not in chosen]
                gains = gp_compact_gains(model, Selection(indices=tuple(chosen)), cands)
                j = int(np.argmax(gains))
                accepted.append(gains[j])
                chosen.append(cands[j])
            assert all(b <= a + 1e-9 for a, b in zip(accepted, accepted[1:]))

    def test_gains_telescope_to_total_mi(self):
        model = build_gp_model(random_unit_dictionary(11, 8, 9).atoms)
        chosen, total = [], 0.0
        for _ in range(4):
            cands = [k for k in range(9) if k not in chosen]
            gains = gp_compact_gains(model, Selection(indices=tuple(chosen)), cands)
            j = int(np.argmax(gains))
            total += gains[j]
            chosen.append(cands[j])
        assert total == pytest.approx(gp_total_mi(model, chosen), abs=1e-9)

    def test_preconditions(self):
        model = GpModel(cov=np.eye(3))
        with pytest.raises(ValueError):
            gp_compact_gain(model, Selection(indices=(0,)), 0)
        with pytest.raises(ValueError):
            gp_compact_gain(model, Selection(indices=(0, 1)), 2)

    def test_round_rejects_selected_candidate(self):
        model = build_gp_model(random_unit_dictionary(7, 6, 9).atoms)
        with pytest.raises(ValueError, match="already selected"):
            gp_compact_gains(model, Selection(indices=(0, 4)), [1, 4, 6])

    @pytest.mark.parametrize("K", [9, 300])
    def test_covariance_from_the_walker_tiles(self, K):
        # K = 300 spans two walker tiles, so the mirrored writes are covered
        atoms = random_unit_dictionary(K, 8, K).atoms
        rho = 0.9
        cov = build_gp_model(atoms, rho).cov
        assert np.array_equal(cov, cov.T)
        assert (np.diag(cov) == 1.0 + GP_JITTER).all()
        arg = _dense_sq_dists(atoms.T) / (2.0 * rho * rho)
        want = np.exp(-arg)
        # a few ulp of the exponent, which exp scales by its argument
        off = ~np.eye(K, dtype=bool)
        err = np.abs(cov - want)[off]
        assert (err <= 4 * np.finfo(float).eps * (1.0 + arg[off]) * want[off]).all()

    def test_near_duplicate_pool_stays_positive_definite(self):
        # four of five atoms within 1e-7 of each other: the median distance
        # falls under the rho floor 1e-6, where the one-product distances'
        # cancellation alone made the covariance indefinite
        rng = np.random.default_rng(12261)
        atoms = rng.standard_normal((3, 5))
        for a, b, scale in [(1, 3, 0.0), (3, 4, 1e-9), (3, 0, 1e-7)]:
            atoms[:, b] = atoms[:, a] + scale * rng.standard_normal(3)
        atoms /= np.linalg.norm(atoms, axis=0)
        rho = 1e-6
        assert dense_median_pairwise_distance(atoms) < rho
        cov = build_gp_model(atoms).cov
        diff = atoms[:, :, None] - atoms[:, None, :]
        want = np.exp(-(diff * diff).sum(axis=0) / (2.0 * rho * rho)) + GP_JITTER * np.eye(5)
        np.testing.assert_allclose(cov, want, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() > 0.5 * GP_JITTER

    @GP_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        extra=st.integers(0, 30),
        twins=st.lists(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5]), max_size=6),
        t=st.floats(0.0, 1.0),
    )
    def test_covariance_matches_dense_differences(self, seed, n, extra, twins, t):
        # Random unit atoms with planted exact and near duplicates, rho
        # log-uniform from 1e-8 up to the auto value: every pair's kernel
        # within a few ulp of its exponent (or both below the normal floats,
        # where exp keeps no relative precision), and the covariance SPD.
        rng = np.random.default_rng(seed)
        K = n + extra
        atoms = rng.standard_normal((n, K))
        for scale in twins:
            a, b = rng.choice(K, 2, replace=False)
            atoms[:, b] = atoms[:, a] + scale * rng.standard_normal(n)
        atoms /= np.linalg.norm(atoms, axis=0)
        auto = max(dense_median_pairwise_distance(atoms), 1e-6)
        rho = 1e-8 * (auto / 1e-8) ** t
        cov = build_gp_model(atoms, rho).cov
        diff = atoms[:, :, None] - atoms[:, None, :]
        arg = (diff * diff).sum(axis=0) / (2.0 * rho * rho)
        want = np.exp(-arg) + GP_JITTER * np.eye(K)
        assert np.array_equal(cov, cov.T)
        fp = np.finfo(float)
        assert (np.abs(cov - want) <= 4 * fp.eps * (1.0 + arg) * want + fp.tiny).all()
        assert np.linalg.eigvalsh(cov).min() > 0.5 * GP_JITTER

    def test_out_of_range_candidate_rejected(self):
        # -1 aliases the selected atom 8: compactness gave -inf, reconstruction 0
        d = random_unit_dictionary(7, 6, 9)
        model = build_gp_model(d.atoms)
        Y = np.random.default_rng(7).standard_normal((6, 3))
        selected = Selection(indices=(8,))
        for cands in ([-1, 0], [0, 9]):
            with pytest.raises(ValueError, match="outside the atom indices"):
                gp_compact_gains(model, selected, cands)
            with pytest.raises(ValueError, match="outside the atom indices"):
                recon_gain(d, selected, cands, Y, 1.0)

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            GpModel(cov=cov)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_covariance_rejected(self, bad):
        # nan passes the symmetry bound and Cholesky does not raise on it
        for i, j in [(0, 0), (0, 2)]:
            cov = np.eye(3)
            cov[i, j] = cov[j, i] = bad
            with pytest.raises(ValueError, match="covariance must be finite"):
                GpModel(cov=cov)

    def test_empty_covariance_rejected(self):
        with pytest.raises(ValueError, match="covariance must be a nonempty square matrix"):
            GpModel(cov=np.zeros((0, 0)))

    def test_nan_atom_rejected(self):
        atoms = random_unit_dictionary(7, 6, 9).atoms.copy()
        atoms[2, 3] = np.nan
        for rho in (None, 1.0):
            with pytest.raises(ValueError, match=r"atoms must be finite \(they hold nan or inf\)"):
                build_gp_model(atoms, rho)

    def test_precision_is_the_inverse(self):
        model = build_gp_model(random_unit_dictionary(7, 6, 9).atoms)
        np.testing.assert_allclose(model.prec @ model.cov, np.eye(9), atol=1e-9)

    @GP_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        extra=st.integers(2, 24),
        twins=st.lists(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3]), max_size=3),
        size=st.integers(0, 8),
    )
    def test_round_matches_per_candidate_oracle(self, seed, n, extra, twins, size):
        # Random unit atoms with planted exact and near-duplicate pairs: the
        # round's two Schur complements against per-candidate solves.
        rng = np.random.default_rng(seed)
        K = n + extra
        atoms = rng.standard_normal((n, K))
        for scale in twins:
            a, b = rng.choice(K, 2, replace=False)
            atoms[:, b] = atoms[:, a] + scale * rng.standard_normal(n)
        atoms /= np.linalg.norm(atoms, axis=0)
        model = build_gp_model(atoms)
        sel = rng.permutation(K)[: min(size, n, K - 2)].tolist()
        selected = Selection(indices=tuple(sel))
        cands = [k for k in range(K) if k not in sel]
        got = gp_compact_gains(model, selected, cands)
        want = np.array([gp_compact_gain(model, selected, c) for c in cands])
        np.testing.assert_array_equal(got == -math.inf, want == -math.inf)
        finite = want != -math.inf
        tol = 1e-10 if np.linalg.cond(model.cov) <= 1e6 else 1e-7
        np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=tol)


class TestReconGain:
    @pytest.mark.parametrize("sigma_r", [0.0, -1.0, float("nan"), float("inf")])
    def test_residual_scale_must_be_finite_and_positive(self, sigma_r):
        d = random_unit_dictionary(12, 6, 8)
        Y = np.random.default_rng(12).standard_normal((6, 3))
        with pytest.raises(ValueError, match="sigma_r must be finite and positive"):
            recon_gain(d, Selection(), [0, 1], Y, sigma_r)

    @pytest.mark.parametrize("sigma_r", [None, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signals_rejected(self, bad, sigma_r):
        d = random_unit_dictionary(12, 6, 8)
        Y = np.random.default_rng(12).standard_normal((6, 3))
        Y[2, 1] = bad
        with pytest.raises(ValueError, match=r"signals must be finite \(they hold nan or inf\)"):
            recon_gain(d, Selection(indices=(0,)), [1, 2], Y, sigma_r)

    def test_no_residual_scale_is_a_tenth_of_the_mean_signal_norm(self):
        d = random_unit_dictionary(12, 6, 8)
        Y = np.random.default_rng(12).standard_normal((6, 5)) * np.arange(1.0, 6.0)
        sel = Selection(indices=(2,))
        sigma_r = 0.1 * float(np.mean(np.linalg.norm(Y, axis=0)))
        want = recon_gain(d, sel, [0, 1, 5], Y, sigma_r)
        assert np.array_equal(recon_gain(d, sel, [0, 1, 5], Y), want)

    def test_in_span_signals_zero_gain(self):
        d = random_unit_dictionary(12, 6, 8)
        sel = Selection(indices=(0, 1))
        Y = d.atoms[:, :2] @ np.random.default_rng(0).standard_normal((2, 5))
        sigma_r = 0.5
        gains = recon_gain(d, sel, list(range(2, 8)), Y, sigma_r)
        np.testing.assert_allclose(gains, 0.0, atol=1e-9)

    def test_unit_atom_from_empty(self):
        d = random_unit_dictionary(13, 6, 8)
        y = d.atoms[:, 4][:, None]
        sigma_r = 0.3
        (got,) = recon_gain(d, Selection(), [4], y, sigma_r)
        assert got == pytest.approx(1.0 / (2 * 0.3**2), rel=1e-10)

    def test_never_negative(self):
        rng = np.random.default_rng(14)
        d = random_unit_dictionary(14, 7, 12)
        Y = rng.standard_normal((7, 9))
        sigma_r = 1.0
        for _ in range(50):
            k = int(rng.integers(0, 4))
            sel = Selection(indices=tuple(rng.choice(12, size=k, replace=False).tolist()))
            cands = [c for c in range(12) if c not in sel.indices]
            assert (recon_gain(d, sel, cands, Y, sigma_r) >= -1e-10).all()

    def test_greedy_matches_somp_on_planted_instances(self):
        for seed in range(5):
            d, Y, _ = planted_support_instance(seed)
            chosen = []
            for _ in range(4):
                cands = [k for k in range(d.K) if k not in chosen]
                gains = recon_gain(d, Selection(indices=tuple(chosen)), cands, Y)
                chosen.append(cands[int(np.argmax(gains))])
            sel, _ = somp(d, Y, 4)
            assert set(chosen) == set(sel.indices)

    @RECON_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        extra=st.integers(3, 8),
        size=st.integers(0, 11),
    )
    def test_round_matches_two_refit_oracle(self, seed, n, extra, size):
        # Random unit atoms, except that atom K-2 lies in the span of the
        # selection and atom K-1 is a selected atom perturbed by 1e-12:
        # both add nothing, so both gain exactly 0.
        rng = np.random.default_rng(seed)
        K = n + extra
        atoms = rng.standard_normal((n, K))
        sel = rng.permutation(K - 2)[: min(size, K - 3)].tolist()
        if sel:
            atoms[:, K - 2] = atoms[:, sel] @ rng.standard_normal(len(sel))
            atoms[:, K - 1] = atoms[:, sel[0]] / np.linalg.norm(atoms[:, sel[0]])
            atoms[:, K - 1] += 1e-12 * rng.standard_normal(n)
        atoms /= np.linalg.norm(atoms, axis=0)
        d = Dictionary(atoms=atoms)
        Y = rng.standard_normal((n, int(rng.integers(1, 6))))
        sigma_r = float(rng.uniform(0.1, 2.0))
        selected = Selection(indices=tuple(sel))
        cands = [k for k in range(K) if k not in sel]
        got = recon_gain(d, selected, cands, Y, sigma_r)
        want = [loop_recon_gain(d, selected, k, Y, sigma_r) for k in cands]
        scale = float(np.sum(Y * Y)) / (2.0 * sigma_r**2)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)
        if sel:
            assert got[-2] == 0.0 and got[-1] == 0.0

    def test_chosen_atoms_in_the_rank_window_match_pinv(self):
        # The chosen atoms a, b, c have s_min/s_max = 5.3e-11: pinv drops
        # that direction (below 1e-10 x s_max) although c's component off
        # span(a, b) has norm 1.3e-10, so e3 is not yet explained.
        e = np.eye(6)
        unit = lambda v: v / np.linalg.norm(v)
        atoms = np.column_stack([
            e[0],
            unit(e[0] + 1e-3 * e[1]),
            unit(e[0] + 1e-3 * e[1] + 1.3e-10 * e[2]),
            e[2],
            unit(e[2] + e[3]),
        ])
        s = np.linalg.svd(atoms[:, :3], compute_uv=False)
        assert 5e-11 < s[-1] / s[0] < 7e-11
        d = Dictionary(atoms=atoms)
        Y = np.column_stack([e[2] + 0.5 * e[3], e[3] - e[2]])
        sigma_r = 1.0
        chosen = Selection(indices=(0, 1, 2))
        got = recon_gain(d, chosen, [3, 4], Y, sigma_r)
        want = [loop_recon_gain(d, chosen, k, Y, sigma_r) for k in (3, 4)]
        np.testing.assert_allclose(want, [1.0, 0.5625], rtol=1e-12)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_candidate_in_the_rank_window_matches_pinv(self):
        # [e1, unit(e1 + 1.3e-10 e2)] has s_min/s_max = 6.5e-11: pinv drops
        # the candidate's direction, although its component off e1 has norm
        # 1.3e-10, and the kept direction turns by 6.5e-11 towards e2.
        e = np.eye(4)
        unit = lambda v: v / np.linalg.norm(v)
        d = Dictionary(atoms=np.column_stack([e[0], unit(e[0] + 1.3e-10 * e[1]), e[2], e[3]]))
        s = np.linalg.svd(d.atoms[:, :2], compute_uv=False)
        assert 6e-11 < s[-1] / s[0] < 7e-11
        Y = np.column_stack([e[1], e[0] + e[1]])
        sigma_r = 1.0
        chosen = Selection(indices=(0,))
        got = recon_gain(d, chosen, [1, 2, 3], Y, sigma_r)
        want = [loop_recon_gain(d, chosen, k, Y, sigma_r) for k in (1, 2, 3)]
        assert want[0] == pytest.approx(6.5e-11, rel=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-15)

    @pytest.mark.parametrize("eps", [3e-11, 1.3e-10, 1.9e-10, 2.1e-10, 1e-9, 1e-8])
    def test_candidate_either_side_of_the_cutoff_matches_pinv(self, eps):
        # s_min/s_max of [e1, unit(e1 + eps e2)] is about eps / 2, so pinv
        # drops the candidate's direction up to eps = 2e-10 and keeps it above
        e = np.eye(4)
        unit = lambda v: v / np.linalg.norm(v)
        d = Dictionary(atoms=np.column_stack([e[0], unit(e[0] + eps * e[1]), e[2], e[3]]))
        Y = np.column_stack([e[1], e[0] + e[1], e[0] - e[1] + 0.3 * e[2]])
        sigma_r = 1.0
        chosen = Selection(indices=(0,))
        got = recon_gain(d, chosen, [1, 2, 3], Y, sigma_r)
        want = [loop_recon_gain(d, chosen, k, Y, sigma_r) for k in (1, 2, 3)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_candidate_that_costs_a_kept_direction_matches_pinv(self):
        # The chosen e1 and unit(e1 + 2.2e-10 e2) have s_min/s_max = 1.1e-10,
        # so pinv keeps e2. The candidate unit(e1 + e3) lies well off their
        # span, but it raises s_max to 1.62, and pinv on all three drops
        # e2: the round loses e2's signal and gains only e3's.
        e = np.eye(4)
        unit = lambda v: v / np.linalg.norm(v)
        d = Dictionary(atoms=np.column_stack([e[0], unit(e[0] + 2.2e-10 * e[1]), unit(e[0] + e[2]), e[3]]))
        Y = np.column_stack([e[1], e[2], e[0] + e[2]])
        sigma_r = 1.0
        chosen = Selection(indices=(0, 1))
        got = recon_gain(d, chosen, [2, 3], Y, sigma_r)
        want = [loop_recon_gain(d, chosen, k, Y, sigma_r) for k in (2, 3)]
        np.testing.assert_allclose(want, [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_selected_candidate_rejected(self):
        d = random_unit_dictionary(15, 6, 8)
        Y = np.random.default_rng(15).standard_normal((6, 3))
        with pytest.raises(ValueError, match="already selected"):
            recon_gain(d, Selection(indices=(0, 3)), [1, 3, 5], Y, 1.0)


class TestQmi:
    def test_single_class_exact_zero(self):
        codes = np.random.default_rng(15).standard_normal((3, 9))
        assert qmi(codes, np.zeros(9, dtype=int), 0.5) == 0.0

    def test_against_quadrature_1d(self):
        codes = np.array([[-1.0, 0.2, 0.9, -0.4, 1.4, 0.1]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        sigma = 0.5
        got = qmi(codes, labels, sigma)
        want = qmi_quadrature(codes, labels, sigma)
        assert got == pytest.approx(want, rel=1e-3)

    def test_translation_invariance(self):
        rng = np.random.default_rng(16)
        codes = rng.standard_normal((2, 10))
        labels = rng.integers(0, 2, 10)
        labels[:2] = [0, 1]
        sigma = 0.6
        shifted = codes + np.array([[3.5], [-2.0]])
        assert qmi(shifted, labels, sigma) == pytest.approx(qmi(codes, labels, sigma), rel=1e-12)

    def test_class_relabeling_invariance(self):
        rng = np.random.default_rng(17)
        codes = rng.standard_normal((2, 12))
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]
        sigma = 0.7
        swapped = np.array([2, 0, 1])[labels]
        assert qmi(codes, swapped, sigma) == pytest.approx(qmi(codes, labels, sigma), rel=1e-12)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(5, 20))
            codes = rng.standard_normal((2, n))
            labels = rng.integers(0, 3, n)
            assert qmi(codes, labels, bandwidth_rule(codes)) >= 0.0


def ascent_grad_phi(phi, Y, labels, sigma):
    """The ascent's transform gradient: Y (dI/dX)^T at X = phi^T Y, from
    the value-and-gradient walk of itdu.update_dictionary."""
    return Y @ qmi(phi.T @ Y, labels, sigma, grad=True)[1].T


class TestQmiGradients:
    def test_identical_codes_zero_gradient(self):
        codes = np.ones((2, 6))
        labels = np.array([0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(
            qmi_grad_codes(codes, labels, 0.5), 0.0, atol=1e-15
        )

    def test_grad_x_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        codes = rng.standard_normal((2, 9))
        labels = rng.integers(0, 2, 9)
        labels[:2] = [0, 1]
        sigma = 0.7
        i = 3
        got = qmi_grad_x(codes, labels, i, int(labels[i]), sigma)
        h = 1e-5
        for k in range(2):
            cp, cm = codes.copy(), codes.copy()
            cp[k, i] += h
            cm[k, i] -= h
            fd = (qmi(cp, labels, sigma) - qmi(cm, labels, sigma)) / (2 * h)
            assert got[k] == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_wrong_class_rejected(self):
        codes = np.zeros((1, 4))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError):
            qmi_grad_x(codes, labels, 0, 1, 0.5)

    def test_two_point_antisymmetry(self):
        codes = np.array([[1.5, -1.5], [0.5, -0.5]])
        labels = np.array([0, 1])
        sigma = 0.8
        g0 = qmi_grad_x(codes, labels, 0, 0, sigma)
        g1 = qmi_grad_x(codes, labels, 1, 1, sigma)
        np.testing.assert_allclose(g0, -g1, atol=1e-14)

    def test_grad_phi_zero_for_identical_signals(self):
        Y = np.tile(np.array([[1.0], [2.0], [0.5]]), (1, 6))
        phi = np.random.default_rng(20).standard_normal((3, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(
            ascent_grad_phi(phi, Y, labels, 0.5), 0.0, atol=1e-12
        )

    def test_grad_phi_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((4, 10))
        phi = rng.standard_normal((4, 2))
        labels = rng.integers(0, 2, 10)
        labels[:2] = [0, 1]
        sigma = 0.9
        grad = ascent_grad_phi(phi, Y, labels, sigma)
        h = 1e-6
        for _ in range(5):
            r, c = int(rng.integers(0, 4)), int(rng.integers(0, 2))
            pp, pm = phi.copy(), phi.copy()
            pp[r, c] += h
            pm[r, c] -= h
            fd = (qmi(pp.T @ Y, labels, sigma) - qmi(pm.T @ Y, labels, sigma)) / (2 * h)
            assert grad[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_grad_phi_chain_rule_under_signal_scaling(self):
        rng = np.random.default_rng(22)
        Y = rng.standard_normal((3, 8))
        phi = rng.standard_normal((3, 2))
        labels = rng.integers(0, 2, 8)
        labels[:2] = [0, 1]
        sigma = 1.1
        alpha = 1.7
        grad_scaled = ascent_grad_phi(phi, alpha * Y, labels, sigma)
        want = alpha * qmi_grad_phi(phi.T @ (alpha * Y), Y, labels, sigma)
        np.testing.assert_allclose(grad_scaled, want, rtol=1e-12)


class TestBayesBound:
    def test_zero_when_mi_saturates(self):
        assert bayes_bound(0.8, 0.8) == 0.0

    def test_two_equiprobable_classes_no_information(self):
        h = class_entropy(np.array([0, 1, 0, 1]))
        assert bayes_bound(h, 0.0) == pytest.approx(0.5 * math.log(2))

    def test_monotone_in_mi(self):
        h = math.log(3)
        vals = [bayes_bound(h, mi) for mi in np.linspace(0, h, 20)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestKlQd:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_qd_check(p, p) == (0.0, 0.0)

    def test_direct_example(self):
        kl, qd = kl_qd_check(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
        want_kl = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert kl == pytest.approx(want_kl, rel=1e-12)
        assert qd == pytest.approx(2 * 0.4**2, rel=1e-12)
        assert kl >= 0.5 * qd

    def test_zero_in_q_gives_infinity(self):
        kl, _ = kl_qd_check(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert kl == math.inf

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            kl_qd_check(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


class TestBandwidth:
    def test_floor_for_degenerate_codes(self):
        assert bandwidth_rule(np.zeros((2, 5))) == 1e-3
        assert bandwidth_rule(np.zeros((2, 1))) == 1e-3

    def test_fixed_config_requires_positive(self):
        codes, labels = np.ones((1, 4)), np.array([0, 0, 1, 1])
        with pytest.raises(ValueError):
            mi_codes_labels(codes, labels, 0.0)
        with pytest.raises(ValueError):
            qmi(codes, labels, 0.0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_nan_sigma_rejected(self, sigma):
        codes, labels = np.ones((1, 4)), np.array([0, 0, 1, 1])
        for measure in (mi_codes_labels, qmi, qmi_grad_codes):
            with pytest.raises(ValueError, match="sigma"):
                measure(codes, labels, sigma)
        # a bad bandwidth is rejected even where one class makes the value 0
        with pytest.raises(ValueError, match="sigma"):
            mi_codes_labels(codes, np.zeros(4, dtype=int), sigma)

    def test_given_sigma_is_used_and_none_means_rule(self):
        codes = np.random.default_rng(0).standard_normal((2, 40))
        labels = np.repeat([0, 1], 20)
        rule = bandwidth_rule(codes)
        assert mi_codes_labels(codes, labels, None) == mi_codes_labels(codes, labels, rule)
        assert mi_codes_labels(codes, labels, 0.05) != mi_codes_labels(codes, labels, rule)
        # the quadratic MI has no default bandwidth
        with pytest.raises(ValueError, match="needs a given bandwidth"):
            qmi(codes, labels, None)
        assert qmi(codes, labels, 0.05) == pytest.approx(
            qmi_quadrature(codes, labels, 0.05), rel=1e-3
        )

    @pytest.mark.parametrize("labels", [[0, 0, 1, 1], [0, 0, 0, 0]], ids=["two-classes", "one-class"])
    def test_quadratic_mi_without_bandwidth_is_a_value_error(self, labels):
        codes = np.arange(8.0).reshape(2, 4)
        for measure in (qmi, qmi_grad_codes):
            with pytest.raises(ValueError, match="quadratic MI needs a given bandwidth sigma"):
                measure(codes, np.array(labels), None)


class TestMeasureInputs:
    @pytest.mark.parametrize("n_labels", [5, 7], ids=["one-short", "one-extra"])
    @pytest.mark.parametrize("grad", [False, True])
    def test_qmi_needs_one_label_per_code_column(self, n_labels, grad):
        codes = np.random.default_rng(2).standard_normal((2, 6))
        with pytest.raises(ValueError, match=f"{n_labels} labels for 6 code columns"):
            qmi(codes, np.arange(n_labels) % 2, 0.5, grad=grad)

    @pytest.mark.parametrize("n_labels", [5, 7], ids=["one-short", "one-extra"])
    @pytest.mark.parametrize("sigma", [None, 0.5])
    def test_mi_codes_labels_needs_one_label_per_code_column(self, n_labels, sigma):
        codes = np.random.default_rng(2).standard_normal((2, 6))
        with pytest.raises(ValueError, match=f"{n_labels} labels for 6 code columns"):
            mi_codes_labels(codes, np.arange(n_labels) % 2, sigma)

    @pytest.mark.parametrize(
        "measure",
        [
            lambda labels: mi_codes_labels(np.eye(3), labels),
            lambda labels: mi_codes_labels(np.eye(3), labels, 0.5),
            lambda labels: qmi(np.eye(3), labels, 0.5),
            lambda labels: qmi(np.eye(3), labels, 0.5, grad=True),
            class_entropy,
        ],
        ids=["mi_codes_labels-auto", "mi_codes_labels", "qmi", "qmi-grad", "class_entropy"],
    )
    def test_measures_name_a_negative_label(self, measure):
        with pytest.raises(ValueError, match="negative label -1"):
            measure(np.array([0, -1, 1]))

    @pytest.mark.parametrize("sigma", [None, 0.5])
    def test_mi_codes_labels_rejects_empty_codes(self, sigma):
        with pytest.raises(ValueError, match="no codes: the code matrix has 0 columns"):
            mi_codes_labels(np.zeros((2, 0)), [], sigma)

    @staticmethod
    def nan_codes():
        codes = np.random.default_rng(3).standard_normal((2, 6))
        codes[1, 4] = np.nan
        return codes, np.array([0, 0, 0, 1, 1, 1])

    @pytest.mark.parametrize("rule", [bandwidth_rule, ascent_bandwidth])
    def test_bandwidth_rules_reject_nan_codes(self, rule):
        with pytest.raises(ValueError, match="codes must be finite"):
            rule(self.nan_codes()[0])

    @pytest.mark.parametrize("rule", [bandwidth_rule, ascent_bandwidth, median_pairwise_distance])
    def test_bandwidth_rules_reject_empty_codes_and_read_1d_codes_as_one_row(self, rule):
        for empty in (np.zeros((2, 0)), np.zeros(0)):
            with pytest.raises(ValueError, match="no codes: the code matrix has 0 columns"):
                rule(empty)
        row = np.random.default_rng(4).standard_normal(7)
        assert rule(row) == rule(row[None, :])

    @pytest.mark.parametrize("shape", [(), (2, 3, 4), (1, 2, 3, 1)])
    @pytest.mark.parametrize(
        "measure",
        [
            bandwidth_rule,
            ascent_bandwidth,
            median_pairwise_distance,
            lambda codes: mi_codes_labels(codes, [0, 1]),
            lambda codes: qmi(codes, [0, 1], 0.5),
        ],
        ids=["bandwidth_rule", "ascent_bandwidth", "median", "mi_codes_labels", "qmi"],
    )
    def test_measures_reject_codes_of_other_dimensions(self, measure, shape):
        with pytest.raises(ValueError, match=rf"1-d or 2-d matrix, got shape {re.escape(str(shape))}"):
            measure(np.ones(shape))

    @pytest.mark.parametrize("codes", [np.ones((3, 1)), np.array([2.5])], ids=["2-d", "1-d"])
    def test_median_of_a_single_column_is_zero(self, codes):
        assert median_pairwise_distance(codes) == 0.0

    @pytest.mark.parametrize("sigma", [None, 0.5])
    def test_mi_codes_labels_rejects_nan_codes(self, sigma):
        with pytest.raises(ValueError, match="codes must be finite"):
            mi_codes_labels(*self.nan_codes(), sigma)

    def test_qmi_of_nan_codes_is_not_finite(self):
        # not an error: the ascent's backtracking rejects a non-finite trial
        assert not math.isfinite(qmi(*self.nan_codes(), 0.5))
        value, grad = qmi(*self.nan_codes(), 0.5, grad=True)
        assert not math.isfinite(value)
        assert not np.isfinite(grad).all()
