import numpy as np
import pytest

from helpers import gp_compact_gain, planted_support_instance, random_unit_dictionary
from itdl.dataset import synth_gaussian_classes
from itdl.info_measures import (
    GpModel,
    KdeConfig,
    ResidualModel,
    build_gp_model,
    mi_codes_labels,
    recon_gain,
)
from itdl.itds import (
    SelectionMode,
    SelectionWeights,
    WeightsError,
    estimate_lambdas,
    select_dedicated,
    select_shared,
    selection_report,
)
from itdl.sparse_coding import Dictionary, Selection, ksvd_init, omp_codes


def small_problem(seed=0, n=10, K=12, p=3, per_class=8, spread=0.25, T=3):
    ds = synth_gaussian_classes(n, p, per_class, spread, seed)
    d = ksvd_init(ds.signals, K, T, 2, seed + 100)
    codes = omp_codes(d, ds.signals, T)
    return ds, d, codes


class TestWeights:
    def test_lambda1_fixed(self):
        with pytest.raises(ValueError):
            SelectionWeights(lambda1=2.0)
        with pytest.raises(ValueError):
            SelectionWeights(lambda2=-0.1)

    def test_estimate_matches_rederivation(self):
        ds, d, codes = small_problem(seed=3)
        gp = build_gp_model(d.atoms)
        res_model = ResidualModel.from_signals(ds.signals)
        cfg = KdeConfig()
        w = estimate_lambdas(d, codes, ds.labels, ds.signals, gp, res_model, cfg)
        assert w.lambda1 == 1.0
        # literally run the three separate first greedy steps
        compact = max(gp_compact_gain(gp, Selection(), i) for i in range(d.K))
        discrim = max(
            mi_codes_labels(codes.coeffs[i : i + 1], ds.labels, cfg) for i in range(d.K)
        )
        recon = max(
            recon_gain(d, Selection(), i, ds.signals, res_model) for i in range(d.K)
        )
        assert w.lambda2 == pytest.approx(discrim / compact, rel=1e-12)
        assert w.lambda3 == pytest.approx(recon / compact, rel=1e-12)

    def test_degenerate_covariance_raises(self):
        ds, d, codes = small_problem(seed=4)
        gp = GpModel(cov=np.eye(d.K), jitter=0.0)
        with pytest.raises(WeightsError):
            estimate_lambdas(d, codes, ds.labels, ds.signals, gp)

    def test_codes_must_cover_dictionary(self):
        ds, d, codes = small_problem(seed=5)
        from itdl.sparse_coding import SparseCodes

        short = SparseCodes(coeffs=codes.coeffs[:3])
        with pytest.raises(ValueError):
            estimate_lambdas(d, short, ds.labels, ds.signals)


class TestSelectShared:
    def test_reconstruction_only_matches_somp(self):
        from itdl.sparse_coding import somp

        hits = 0
        for seed in range(5):
            d, Y, _ = planted_support_instance(seed)
            labels = np.zeros(Y.shape[1], dtype=int)
            labels[: Y.shape[1] // 2] = 1
            mode = SelectionMode(ablation=frozenset({"reconstructive"}))
            res = select_shared(d, Y, labels, 4, mode, SelectionWeights(lambda3=1.0))
            sel, _ = somp(d, Y, 4)
            hits += set(res.selection.indices) == set(sel.indices)
        assert hits >= 4

    def test_compact_only_identity_covariance_ties(self):
        ds, d, codes = small_problem(seed=6)
        mode = SelectionMode(ablation=frozenset({"compact"}))
        res = select_shared(
            d,
            ds.signals,
            ds.labels,
            3,
            mode,
            SelectionWeights(),
            initial_codes=codes,
            gp_model=GpModel(cov=np.eye(d.K), jitter=0.0),
        )
        assert res.selection.indices == (0, 1, 2)

    def test_full_objective_beats_compact_only_on_median(self):
        from itdl.classify import build_features, predict, train_linear

        diffs = []
        for seed in range(20):
            ds = synth_gaussian_classes(16, 4, 30, 0.35, seed)
            d = ksvd_init(ds.signals, 24, 3, 2, seed + 50)
            codes = omp_codes(d, ds.signals, 3)
            w = estimate_lambdas(d, codes, ds.labels, ds.signals)
            accs = {}
            for tag, mode, wts in (
                ("full", SelectionMode(), w),
                ("compact", SelectionMode(ablation=frozenset({"compact"})), SelectionWeights()),
            ):
                res = select_shared(d, ds.signals, ds.labels, 3, mode, wts, initial_codes=codes)
                feats = build_features("shared", res.codes)
                model = train_linear(feats, ds.labels, seed=seed)
                accs[tag] = float((predict(model, feats) == ds.labels).mean())
            diffs.append(accs["full"] - accs["compact"])
        assert np.median(diffs) >= 0.0

    def test_argmax_property_by_rescoring(self):
        ds, d, codes = small_problem(seed=7)
        gp = build_gp_model(d.atoms)
        res_model = ResidualModel.from_signals(ds.signals)
        cfg = KdeConfig()
        w = estimate_lambdas(d, codes, ds.labels, ds.signals, gp, res_model, cfg)
        res = select_shared(
            d, ds.signals, ds.labels, 3, SelectionMode(), w,
            initial_codes=codes, gp_model=gp, residual_model=res_model, kde_cfg=cfg,
        )
        chosen = []
        for record in res.rounds:
            sel = Selection(indices=tuple(chosen))
            mi_base = (
                mi_codes_labels(codes.coeffs[chosen, :], ds.labels, cfg) if chosen else 0.0
            )
            for cand in range(d.K):
                if cand in chosen:
                    continue
                gc = gp_compact_gain(gp, sel, cand)
                gd = mi_codes_labels(codes.coeffs[chosen + [cand], :], ds.labels, cfg) - mi_base
                gr = recon_gain(d, sel, cand, ds.signals, res_model)
                total = w.lambda1 * gc + w.lambda2 * gd + w.lambda3 * gr
                assert record.gain_total >= total - 1e-9
            chosen.append(record.index)

    def test_codes_and_reconstruction_consistent(self):
        ds, d, codes = small_problem(seed=8)
        w = SelectionWeights(lambda2=0.5, lambda3=0.5)
        res = select_shared(d, ds.signals, ds.labels, 3, SelectionMode(), w, initial_codes=codes)
        sub = d.atoms[:, list(res.selection.indices)]
        np.testing.assert_allclose(res.reconstruction, sub @ res.codes.coeffs, atol=1e-12)
        assert len(res.selection) == 3
        assert len(set(res.selection.indices)) == 3

    def test_sparsity_validation(self):
        ds, d, codes = small_problem(seed=9)
        with pytest.raises(ValueError):
            select_shared(d, ds.signals, ds.labels, d.K, SelectionMode(), SelectionWeights())
        with pytest.raises(ValueError):
            select_shared(d, ds.signals, ds.labels, 0, SelectionMode(), SelectionWeights())

    def test_deterministic(self):
        ds, d, codes = small_problem(seed=10)
        w = SelectionWeights(lambda2=0.3, lambda3=0.7)
        a = select_shared(d, ds.signals, ds.labels, 3, SelectionMode(), w, initial_codes=codes)
        b = select_shared(d, ds.signals, ds.labels, 3, SelectionMode(), w, initial_codes=codes)
        assert a.selection.indices == b.selection.indices
        np.testing.assert_array_equal(a.codes.coeffs, b.codes.coeffs)

    def test_compact_only_accepted_gains_nonincreasing(self):
        ds, d, codes = small_problem(seed=15, T=4)
        mode = SelectionMode(ablation=frozenset({"compact"}))
        res = select_shared(d, ds.signals, ds.labels, 4, mode, SelectionWeights(), initial_codes=codes)
        gains = [r.gain_total for r in res.rounds]
        assert all(b <= a + 1e-9 for a, b in zip(gains, gains[1:]))

    def test_duplicate_atom_excluded_not_selected(self):
        rng = np.random.default_rng(30)
        atoms = rng.standard_normal((8, 6))
        atoms[:, 5] = atoms[:, 0]
        atoms /= np.linalg.norm(atoms, axis=0)
        d = Dictionary(atoms=atoms)
        Y = rng.standard_normal((8, 10))
        labels = np.array([0] * 5 + [1] * 5)
        mode = SelectionMode(ablation=frozenset({"compact"}))
        res = select_shared(d, Y, labels, 4, mode, SelectionWeights())
        picked = set(res.selection.indices)
        assert not {0, 5} <= picked


class TestSelectDedicated:
    def test_single_class_degenerates_to_shared(self):
        rng = np.random.default_rng(31)
        d = random_unit_dictionary(32, 8, 10)
        Y = rng.standard_normal((8, 8))
        labels = np.zeros(8, dtype=int)
        w = SelectionWeights(lambda2=0.4, lambda3=0.6)
        ded = select_dedicated(d, Y, labels, 3, SelectionMode(variant="dedicated"), [w])
        sh = select_shared(d, Y, labels, 3, SelectionMode(), w)
        assert len(ded) == 1
        assert ded[0].selection.indices == sh.selection.indices
        assert all(abs(r.gain_discrim) < 1e-9 for r in ded[0].rounds)

    def test_disjoint_class_blocks_select_disjoint_atoms(self):
        rng = np.random.default_rng(32)
        basis = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        d = Dictionary(atoms=basis[:, :8])
        Y0 = basis[:, :3] @ np.abs(rng.standard_normal((3, 20)))
        Y1 = basis[:, 4:7] @ np.abs(rng.standard_normal((3, 20)))
        Y = np.hstack([Y0, Y1])
        labels = np.array([0] * 20 + [1] * 20)
        res = select_dedicated(d, Y, labels, 3, SelectionMode(variant="dedicated"))
        g0 = set(res[0].selection.indices)
        g1 = set(res[1].selection.indices)
        assert g0 == {0, 1, 2} and g1 == {4, 5, 6}
        assert not g0 & g1

    def test_selection_lengths_and_distinctness(self):
        ds, d, codes = small_problem(seed=12)
        res = select_dedicated(
            d, ds.signals, ds.labels, 3, SelectionMode(variant="dedicated"), initial_codes=codes
        )
        assert [r.class_id for r in res] == [0, 1, 2]
        for r in res:
            assert len(r.selection) == 3
            assert len(set(r.selection.indices)) == 3

    def test_small_class_rejected(self):
        d = random_unit_dictionary(33, 6, 8)
        Y = np.random.default_rng(33).standard_normal((6, 5))
        labels = np.array([0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            select_dedicated(d, Y, labels, 2, SelectionMode(variant="dedicated"))

    def test_per_class_codes_use_own_signals(self):
        ds, d, codes = small_problem(seed=13)
        res = select_dedicated(
            d, ds.signals, ds.labels, 3, SelectionMode(variant="dedicated"), initial_codes=codes
        )
        for r in res:
            n_c = int((ds.labels == r.class_id).sum())
            assert r.codes.coeffs.shape == (3, n_c)
            assert r.reconstruction.shape == (ds.n, n_c)


class TestSelectionReport:
    def test_report_structure_and_ablation_zeroes(self):
        ds, d, codes = small_problem(seed=14)
        mode = SelectionMode(ablation=frozenset({"compact"}))
        res = select_shared(d, ds.signals, ds.labels, 3, mode, SelectionWeights(), initial_codes=codes)
        report = selection_report([res])
        entry = report["selections"][0]
        assert entry["lambda1"] == 1.0
        assert len(entry["rounds"]) == 3
        for row in entry["rounds"]:
            assert row["weighted_discrim"] == 0.0
            assert row["weighted_recon"] == 0.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SelectionMode(variant="other")
        with pytest.raises(ValueError):
            SelectionMode(ablation=frozenset())
        with pytest.raises(ValueError):
            SelectionMode(ablation=frozenset({"bogus"}))
