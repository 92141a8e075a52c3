import math
from itertools import combinations

import numpy as np
import pytest

from helpers import (
    gauss_kernel,
    gp_compact_gain,
    gp_total_mi,
    kde_class_density,
    kl_qd_check,
    mi_quadrature_1d,
    planted_support_instance,
    qmi_grad_x,
    qmi_quadrature,
    random_unit_dictionary,
)
from itdl.info_measures import (
    GpModel,
    KdeConfig,
    ResidualModel,
    bandwidth_rule,
    bayes_bound,
    build_gp_model,
    class_entropy,
    gp_compact_gains,
    mi_codes_labels,
    qmi,
    qmi_grad_codes,
    qmi_grad_phi,
    recon_gain,
)
from itdl.sparse_coding import Dictionary, Selection, somp


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
        cfg = KdeConfig(0.7)
        got = kde_class_density(codes, np.array([0]), 0, codes[:, 0], cfg)
        assert got == pytest.approx(gauss_kernel(np.zeros(2), 0.49), rel=1e-12)

    def test_symmetry(self):
        codes = np.array([[1.0, -1.0, 2.0, -2.0]])
        labels = np.zeros(4, dtype=int)
        cfg = KdeConfig(0.5)
        a = kde_class_density(codes, labels, 0, np.array([0.7]), cfg)
        b = kde_class_density(codes, labels, 0, np.array([-0.7]), cfg)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mixture_identity(self):
        rng = np.random.default_rng(1)
        codes = rng.standard_normal((2, 12))
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]
        cfg = KdeConfig(0.6)
        n = labels.size
        for _ in range(5):
            x = rng.standard_normal(2)
            mix = sum(
                kde_class_density(codes, labels, c, x, cfg) * (labels == c).sum() / n
                for c in range(3)
            )
            marginal = sum(
                gauss_kernel(x - codes[:, j], 0.36) for j in range(n)
            ) / n
            assert mix == pytest.approx(marginal, abs=1e-12)

    def test_empty_class(self):
        codes = np.ones((1, 3))
        with pytest.raises(ValueError):
            kde_class_density(codes, np.zeros(3, dtype=int), 1, np.array([0.0]), KdeConfig(1.0))


class TestMiCodesLabels:
    def test_identical_conditionals(self):
        pts = np.array([[0.0, 1.0, 2.0, 0.0, 1.0, 2.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert mi_codes_labels(pts, labels, KdeConfig(0.5)) <= 1e-6

    def test_against_quadrature(self):
        codes = np.array([[-10.0, -10.3, -9.7, 10.0, 10.4, 9.8]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        sigma = 0.5
        got = mi_codes_labels(codes, labels, KdeConfig(sigma))
        want = mi_quadrature_1d(codes, labels, sigma)
        assert got == pytest.approx(want, rel=0.02)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        codes = rng.standard_normal((2, 14))
        labels = rng.integers(0, 2, 14)
        labels[:2] = [0, 1]
        cfg = KdeConfig(0.8)
        base = mi_codes_labels(codes, labels, cfg)
        perm = rng.permutation(14)
        assert mi_codes_labels(codes[:, perm], labels[perm], cfg) == pytest.approx(base, rel=1e-12)

    def test_bounds_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(6, 25))
            d = int(rng.integers(1, 4))
            codes = rng.standard_normal((d, n))
            labels = rng.integers(0, int(rng.integers(2, 4)), n)
            if len(np.unique(labels)) < 2:
                continue
            mi = mi_codes_labels(codes, labels, KdeConfig())
            assert mi >= 0.0
            assert mi <= class_entropy(labels) + 0.05

    def test_single_class_zero(self):
        codes = np.random.default_rng(5).standard_normal((2, 8))
        assert mi_codes_labels(codes, np.zeros(8, dtype=int), KdeConfig()) == 0.0


class TestGpCompactness:
    def test_identity_covariance_all_zero_gains(self):
        model = GpModel(cov=np.eye(7), jitter=0.0)
        gains = gp_compact_gains(model, Selection(), list(range(7)))
        np.testing.assert_allclose(gains, 0.0, atol=1e-12)

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
        model = GpModel(cov=np.eye(3), jitter=0.0)
        with pytest.raises(ValueError):
            gp_compact_gain(model, Selection(indices=(0,)), 0)
        with pytest.raises(ValueError):
            gp_compact_gain(model, Selection(indices=(0, 1)), 2)

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError):
            GpModel(cov=cov)


class TestReconGain:
    def test_in_span_signals_zero_gain(self):
        d = random_unit_dictionary(12, 6, 8)
        sel = Selection(indices=(0, 1))
        Y = d.atoms[:, :2] @ np.random.default_rng(0).standard_normal((2, 5))
        model = ResidualModel(sigma_r=0.5)
        for cand in range(2, 8):
            assert recon_gain(d, sel, cand, Y, model) == pytest.approx(0.0, abs=1e-9)

    def test_unit_atom_from_empty(self):
        d = random_unit_dictionary(13, 6, 8)
        y = d.atoms[:, 4][:, None]
        model = ResidualModel(sigma_r=0.3)
        got = recon_gain(d, Selection(), 4, y, model)
        assert got == pytest.approx(1.0 / (2 * 0.3**2), rel=1e-10)

    def test_never_negative(self):
        rng = np.random.default_rng(14)
        d = random_unit_dictionary(14, 7, 12)
        Y = rng.standard_normal((7, 9))
        model = ResidualModel(sigma_r=1.0)
        for _ in range(50):
            k = int(rng.integers(0, 4))
            sel = Selection(indices=tuple(rng.choice(12, size=k, replace=False).tolist()))
            cand = int(rng.choice([c for c in range(12) if c not in sel.indices]))
            assert recon_gain(d, sel, cand, Y, model) >= -1e-10

    def test_greedy_matches_somp_on_planted_instances(self):
        for seed in range(5):
            d, Y, _ = planted_support_instance(seed)
            model = ResidualModel.from_signals(Y)
            chosen = []
            for _ in range(4):
                cands = [k for k in range(d.K) if k not in chosen]
                gains = [recon_gain(d, Selection(indices=tuple(chosen)), c, Y, model) for c in cands]
                chosen.append(cands[int(np.argmax(gains))])
            sel, _ = somp(d, Y, 4)
            assert set(chosen) == set(sel.indices)


class TestQmi:
    def test_single_class_exact_zero(self):
        codes = np.random.default_rng(15).standard_normal((3, 9))
        assert qmi(codes, np.zeros(9, dtype=int), KdeConfig(0.5)) == 0.0

    def test_against_quadrature_1d(self):
        codes = np.array([[-1.0, 0.2, 0.9, -0.4, 1.4, 0.1]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        sigma = 0.5
        got = qmi(codes, labels, KdeConfig(sigma))
        want = qmi_quadrature(codes, labels, sigma)
        assert got == pytest.approx(want, rel=1e-3)

    def test_translation_invariance(self):
        rng = np.random.default_rng(16)
        codes = rng.standard_normal((2, 10))
        labels = rng.integers(0, 2, 10)
        labels[:2] = [0, 1]
        cfg = KdeConfig(0.6)
        shifted = codes + np.array([[3.5], [-2.0]])
        assert qmi(shifted, labels, cfg) == pytest.approx(qmi(codes, labels, cfg), rel=1e-12)

    def test_class_relabeling_invariance(self):
        rng = np.random.default_rng(17)
        codes = rng.standard_normal((2, 12))
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]
        cfg = KdeConfig(0.7)
        swapped = np.array([2, 0, 1])[labels]
        assert qmi(codes, swapped, cfg) == pytest.approx(qmi(codes, labels, cfg), rel=1e-12)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(5, 20))
            codes = rng.standard_normal((2, n))
            labels = rng.integers(0, 3, n)
            assert qmi(codes, labels, KdeConfig()) >= 0.0


class TestQmiGradients:
    def test_identical_codes_zero_gradient(self):
        codes = np.ones((2, 6))
        labels = np.array([0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(
            qmi_grad_codes(codes, labels, KdeConfig(0.5)), 0.0, atol=1e-15
        )

    def test_grad_x_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        codes = rng.standard_normal((2, 9))
        labels = rng.integers(0, 2, 9)
        labels[:2] = [0, 1]
        cfg = KdeConfig(0.7)
        i = 3
        got = qmi_grad_x(codes, labels, i, int(labels[i]), cfg)
        h = 1e-5
        for k in range(2):
            cp, cm = codes.copy(), codes.copy()
            cp[k, i] += h
            cm[k, i] -= h
            fd = (qmi(cp, labels, cfg) - qmi(cm, labels, cfg)) / (2 * h)
            assert got[k] == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_wrong_class_rejected(self):
        codes = np.zeros((1, 4))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError):
            qmi_grad_x(codes, labels, 0, 1)

    def test_two_point_antisymmetry(self):
        codes = np.array([[1.5, -1.5], [0.5, -0.5]])
        labels = np.array([0, 1])
        cfg = KdeConfig(0.8)
        g0 = qmi_grad_x(codes, labels, 0, 0, cfg)
        g1 = qmi_grad_x(codes, labels, 1, 1, cfg)
        np.testing.assert_allclose(g0, -g1, atol=1e-14)

    def test_grad_phi_zero_for_identical_signals(self):
        Y = np.tile(np.array([[1.0], [2.0], [0.5]]), (1, 6))
        phi = np.random.default_rng(20).standard_normal((3, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(
            qmi_grad_phi(phi, Y, labels, KdeConfig(0.5)), 0.0, atol=1e-12
        )

    def test_grad_phi_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((4, 10))
        phi = rng.standard_normal((4, 2))
        labels = rng.integers(0, 2, 10)
        labels[:2] = [0, 1]
        cfg = KdeConfig(0.9)
        grad = qmi_grad_phi(phi, Y, labels, cfg)
        h = 1e-6
        for _ in range(5):
            r, c = int(rng.integers(0, 4)), int(rng.integers(0, 2))
            pp, pm = phi.copy(), phi.copy()
            pp[r, c] += h
            pm[r, c] -= h
            fd = (qmi(pp.T @ Y, labels, cfg) - qmi(pm.T @ Y, labels, cfg)) / (2 * h)
            assert grad[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_grad_phi_chain_rule_under_signal_scaling(self):
        rng = np.random.default_rng(22)
        Y = rng.standard_normal((3, 8))
        phi = rng.standard_normal((3, 2))
        labels = rng.integers(0, 2, 8)
        labels[:2] = [0, 1]
        cfg = KdeConfig(1.1)
        alpha = 1.7
        grad_scaled = qmi_grad_phi(phi, alpha * Y, labels, cfg)
        want = alpha * Y @ qmi_grad_codes(phi.T @ (alpha * Y), labels, cfg).T
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
        with pytest.raises(ValueError):
            KdeConfig(sigma=0.0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_negative_or_nan_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            KdeConfig(sigma=sigma)

    def test_given_sigma_is_used_and_none_means_rule(self):
        codes = np.random.default_rng(0).standard_normal((2, 40))
        assert KdeConfig(sigma=0.05).resolve(codes) == 0.05
        assert KdeConfig().resolve(codes) == bandwidth_rule(codes)
        labels = np.repeat([0, 1], 20)
        assert qmi(codes, labels, KdeConfig(sigma=0.05)) == pytest.approx(
            qmi_quadrature(codes, labels, 0.05), rel=1e-3
        )
