import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    candidate_mi,
    gp_compact_gain,
    loop_recon_gain,
    planted_support_instance,
    random_unit_dictionary,
    somp,
)
from itdl import itds
from itdl.dataset import synth_gaussian_classes
from itdl.info_measures import (
    GpModel,
    build_gp_model,
    mi_codes_labels,
)
from itdl.itds import (
    TERMS,
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
        # compactness always has weight 1: there is no field to set
        with pytest.raises(TypeError):
            SelectionWeights(lambda1=2.0)
        with pytest.raises(ValueError):
            SelectionWeights(lambda2=-0.1)
        with pytest.raises(ValueError):
            SelectionWeights(lambda3=float("nan"))

    def test_estimate_matches_rederivation(self):
        ds, d, codes = small_problem(seed=3)
        gp = build_gp_model(d.atoms)
        w = estimate_lambdas(d, codes, ds.labels, ds.signals, gp)
        # literally run the three separate first greedy steps, sigma_r a
        # tenth of the mean signal norm
        sigma_r = 0.1 * float(np.linalg.norm(ds.signals, axis=0).mean())
        compact = max(gp_compact_gain(gp, Selection(), i) for i in range(d.K))
        discrim = max(
            mi_codes_labels(codes[i : i + 1], ds.labels) for i in range(d.K)
        )
        recon = max(
            loop_recon_gain(d, Selection(), i, ds.signals, sigma_r) for i in range(d.K)
        )
        assert w.lambda2 == pytest.approx(discrim / compact, rel=1e-12)
        assert w.lambda3 == pytest.approx(recon / compact, rel=1e-12)

    def test_degenerate_covariance_raises(self):
        ds, d, codes = small_problem(seed=4)
        gp = GpModel(cov=np.eye(d.K))
        with pytest.raises(WeightsError):
            estimate_lambdas(d, codes, ds.labels, ds.signals, gp, 1.0)

    def test_codes_must_cover_dictionary(self):
        ds, d, codes = small_problem(seed=5)
        gp = build_gp_model(d.atoms)
        with pytest.raises(ValueError):
            estimate_lambdas(d, codes[:3], ds.labels, ds.signals, gp)


@st.composite
def scored_round(draw):
    """(codes, labels, chosen, pool, sigma): (K, N) codes with some all-zero
    columns; class labels of 2-4 classes or one class against the rest; 0
    to 3 chosen atoms and the others as the pool; a given or auto sigma."""
    K, n, p = draw(st.integers(4, 8)), draw(st.integers(4, 30)), draw(st.integers(2, 4))
    values = draw(arrays(np.float64, (K, n), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    kept = draw(arrays(bool, (K, n)))
    kept[:, draw(st.lists(st.integers(0, n - 1), min_size=1))] = False
    labels = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        labels = (labels == 0).astype(np.int64)
    chosen = draw(st.lists(st.integers(0, K - 1), max_size=3, unique=True))
    pool = np.setdiff1d(np.arange(K), chosen)
    sigma = draw(st.one_of(st.none(), st.floats(0.05, 2.0)))
    return values * kept, labels, chosen, pool, sigma


class TestRoundBuffer:
    @settings(max_examples=150, deadline=None)
    @given(scored_round())
    def test_discrimination_matches_a_fresh_copy_per_candidate(self, case):
        codes, labels, chosen, pool, sigma = case
        # discrimination alone: no GP model, no signals, so no dictionary
        kept, compact, mi, recon = itds._score_round(
            None, codes, labels, None, chosen, pool, None, None, sigma
        )
        np.testing.assert_array_equal(kept, pool)
        assert not compact.any() and not recon.any()
        assert mi.tolist() == candidate_mi(codes, labels, chosen, pool, sigma).tolist()


class TestSelectShared:
    def test_reconstruction_only_matches_somp(self):
        hits = 0
        for seed in range(5):
            d, Y, _ = planted_support_instance(seed)
            labels = np.zeros(Y.shape[1], dtype=int)
            labels[: Y.shape[1] // 2] = 1
            mode = frozenset({"reconstructive"})
            res = select_shared(d, Y, labels, 4, mode, SelectionWeights(lambda3=1.0))
            sel, _ = somp(d, Y, 4)
            hits += set(res.selection.indices) == set(sel.indices)
        assert hits >= 4

    def test_compact_only_identity_covariance_ties(self):
        ds, d, codes = small_problem(seed=6)
        mode = frozenset({"compact"})
        res = select_shared(
            d,
            ds.signals,
            ds.labels,
            3,
            mode,
            SelectionWeights(),
            gp_model=GpModel(cov=np.eye(d.K)),
        )
        assert res.selection.indices == (0, 1, 2)

    def test_full_objective_beats_compact_only_on_median(self):
        from itdl.classify import predict, train_linear
        from itdl.sparse_coding import code_ls

        diffs = []
        for seed in range(20):
            ds = synth_gaussian_classes(16, 4, 30, 0.35, seed)
            d = ksvd_init(ds.signals, 24, 3, 2, seed + 50)
            codes = omp_codes(d, ds.signals, 3)
            w = estimate_lambdas(d, codes, ds.labels, ds.signals, build_gp_model(d.atoms))
            accs = {}
            for tag, mode, wts in (
                ("full", TERMS, w),
                ("compact", frozenset({"compact"}), SelectionWeights()),
            ):
                res = select_shared(d, ds.signals, ds.labels, 3, mode, wts)
                feats = np.ascontiguousarray(code_ls(d, res.selection, ds.signals).T)
                model = train_linear(feats, ds.labels)
                accs[tag] = float((predict(model, feats) == ds.labels).mean())
            diffs.append(accs["full"] - accs["compact"])
        assert np.median(diffs) >= 0.0

    def test_argmax_property_by_rescoring(self):
        ds, d, codes = small_problem(seed=7)
        gp = build_gp_model(d.atoms)
        sigma, sigma_r = 0.3, 0.2
        w = estimate_lambdas(d, codes, ds.labels, ds.signals, gp, sigma_r, sigma)
        res = select_shared(
            d, ds.signals, ds.labels, 3, TERMS, w,
            gp_model=gp, sigma_r=sigma_r, sigma=sigma,
        )
        chosen = []
        for record in res.rounds:
            sel = Selection(indices=tuple(chosen))
            mi_base = (
                mi_codes_labels(codes[chosen, :], ds.labels, sigma) if chosen else 0.0
            )
            for cand in range(d.K):
                if cand in chosen:
                    continue
                gc = gp_compact_gain(gp, sel, cand)
                gd = mi_codes_labels(codes[chosen + [cand], :], ds.labels, sigma) - mi_base
                gr = loop_recon_gain(d, sel, cand, ds.signals, sigma_r)
                total = gc + w.lambda2 * gd + w.lambda3 * gr
                assert record.gain_total >= total - 1e-9
            chosen.append(record.index)

    def test_no_weights_estimates_them(self):
        ds, d, codes = small_problem(seed=11)
        gp = build_gp_model(d.atoms)
        kw = dict(gp_model=gp, sigma_r=0.2)
        auto = select_shared(d, ds.signals, ds.labels, 3, TERMS, **kw)
        w = estimate_lambdas(d, codes, ds.labels, ds.signals, gp, 0.2)
        given = select_shared(d, ds.signals, ds.labels, 3, TERMS, w, **kw)
        assert auto.weights == w
        assert auto.selection == given.selection
        assert auto.rounds == given.rounds

    def test_sparsity_validation(self):
        ds, d, codes = small_problem(seed=9)
        with pytest.raises(ValueError):
            select_shared(d, ds.signals, ds.labels, d.K, TERMS, SelectionWeights())
        with pytest.raises(ValueError):
            select_shared(d, ds.signals, ds.labels, 0, TERMS, SelectionWeights())

    def test_sparsity_above_signal_dimension_rejected(self):
        d = random_unit_dictionary(0, 2, 5)
        with pytest.raises(ValueError, match="sparsity T=3 must not exceed the signal dimension n=2"):
            select_shared(d, np.ones((2, 4)), np.array([0, 1, 0, 1]), 3, TERMS, SelectionWeights())

    def test_deterministic(self):
        ds, d, codes = small_problem(seed=10)
        w = SelectionWeights(lambda2=0.3, lambda3=0.7)
        a = select_shared(d, ds.signals, ds.labels, 3, TERMS, w)
        b = select_shared(d, ds.signals, ds.labels, 3, TERMS, w)
        assert a.selection.indices == b.selection.indices
        assert a.rounds == b.rounds

    def test_compact_only_accepted_gains_nonincreasing(self):
        ds, d, codes = small_problem(seed=15, T=4)
        mode = frozenset({"compact"})
        res = select_shared(d, ds.signals, ds.labels, 4, mode, SelectionWeights())
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
        mode = frozenset({"compact"})
        res = select_shared(d, Y, labels, 4, mode, SelectionWeights())
        picked = set(res.selection.indices)
        assert not {0, 5} <= picked

    def test_all_remaining_duplicates_raise(self):
        # atoms 2 and 3 duplicate atoms 0 and 1: after two picks nothing is left
        rng = np.random.default_rng(31)
        base = rng.standard_normal((4, 2))
        base /= np.linalg.norm(base, axis=0)
        d = Dictionary(atoms=np.hstack([base, base]))
        Y = rng.standard_normal((4, 6))
        labels = np.array([0] * 3 + [1] * 3)
        w = SelectionWeights(lambda2=1.0, lambda3=1.0)
        first_two = select_shared(d, Y, labels, 2, TERMS, w)
        assert {i % 2 for i in first_two.selection.indices} == {0, 1}
        with pytest.raises(RuntimeError, match="excluded as duplicates"):
            select_shared(d, Y, labels, 3, TERMS, w)


class TestSelectDedicated:
    def test_single_class_degenerates_to_shared(self):
        rng = np.random.default_rng(31)
        d = random_unit_dictionary(32, 8, 10)
        Y = rng.standard_normal((8, 8))
        labels = np.zeros(8, dtype=int)
        w = SelectionWeights(lambda2=0.4, lambda3=0.6)
        ded = select_dedicated(d, Y, labels, 3, TERMS, w)
        sh = select_shared(d, Y, labels, 3, TERMS, w)
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
        res = select_dedicated(d, Y, labels, 3)
        g0 = set(res[0].selection.indices)
        g1 = set(res[1].selection.indices)
        assert g0 == {0, 1, 2} and g1 == {4, 5, 6}
        assert not g0 & g1

    def test_selection_lengths_and_distinctness(self):
        ds, d, codes = small_problem(seed=12)
        res = select_dedicated(d, ds.signals, ds.labels, 3)
        assert [r.class_id for r in res] == [0, 1, 2]
        for r in res:
            assert len(r.selection) == 3
            assert len(set(r.selection.indices)) == 3

    def test_small_class_rejected(self):
        d = random_unit_dictionary(33, 6, 8)
        Y = np.random.default_rng(33).standard_normal((6, 5))
        labels = np.array([0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            select_dedicated(d, Y, labels, 2)

    def test_per_class_reconstruction_uses_own_signals(self):
        # reconstruction-only: each class's support is the shared selection
        # run on that class's signals alone
        ds, d, codes = small_problem(seed=13)
        mode = frozenset({"reconstructive"})
        w = SelectionWeights(lambda3=1.0)
        res = select_dedicated(d, ds.signals, ds.labels, 3, mode, w)
        for r in res:
            own = ds.signals[:, ds.labels == r.class_id]
            alone = select_shared(d, own, ds.labels[ds.labels == r.class_id], 3, mode, w)
            assert r.selection.indices == alone.selection.indices
            assert r.rounds == alone.rounds

    def test_single_weights_apply_to_every_class(self):
        ds, d, codes = small_problem(seed=16)
        w = SelectionWeights(lambda2=0.3, lambda3=0.7)
        res = select_dedicated(d, ds.signals, ds.labels, 3, TERMS, w)
        assert len(res) == ds.p
        assert all(r.weights is w for r in res)
        for r in res:
            for rec in r.rounds:
                total = rec.gain_compact + w.lambda2 * rec.gain_discrim + w.lambda3 * rec.gain_recon
                assert rec.gain_total == total

    def test_no_weights_estimates_per_class(self):
        ds, d, codes = small_problem(seed=17)
        gp = build_gp_model(d.atoms)
        res = select_dedicated(d, ds.signals, ds.labels, 3, gp_model=gp)
        for r in res:
            own = ds.signals[:, ds.labels == r.class_id]
            labels01 = (ds.labels == r.class_id).astype(np.int64)
            assert r.weights == estimate_lambdas(d, codes, labels01, own, gp)


class TestInitialCodes:
    @pytest.mark.parametrize("select", [select_shared, select_dedicated])
    @pytest.mark.parametrize(
        "ablation,weights,coded",
        [
            (frozenset({"compact", "reconstructive"}), SelectionWeights(lambda3=1.0), False),
            (frozenset({"compact", "reconstructive"}), None, False),
            (frozenset(TERMS), SelectionWeights(1.0, 1.0), True),
        ],
        ids=["ablated-given", "ablated-estimated", "all-given"],
    )
    def test_codes_made_only_when_used(self, monkeypatch, select, ablation, weights, coded):
        # the OMP codes feed only the discrimination term: without it none
        # are made, and the selection is the same
        ds, d, codes = small_problem(seed=16)
        want = select(d, ds.signals, ds.labels, 3, ablation, weights)
        calls = []

        def counted(*args):
            calls.append(args)
            return omp_codes(*args)

        monkeypatch.setattr(itds, "omp_codes", counted)
        got = select(d, ds.signals, ds.labels, 3, ablation, weights)
        assert len(calls) == int(coded)
        assert got == want

    @pytest.mark.parametrize("select", [select_shared, select_dedicated])
    @pytest.mark.parametrize(
        "kept,scorers,unscored,weighed",
        [
            ("reconstructive", ("omp_codes", "mi_codes_labels"), "lambda2", "lambda3"),
            ("discriminative", ("recon_gain",), "lambda3", "lambda2"),
        ],
        ids=["discrimination", "reconstruction"],
    )
    def test_estimate_without_discrimination_makes_no_codes_and_no_kde_call(
        self, monkeypatch, select, kept, scorers, unscored, weighed
    ):
        # auto weights for a selection that leaves a term out: its lambda
        # is 0 with no call to its scorer (for discrimination neither OMP
        # codes nor a KDE estimate) behind it, and the atoms are those of
        # the same selection with the estimate as fixed weights
        ds, d, _ = small_problem(seed=18)
        ablation = frozenset({"compact", kept})
        gp = build_gp_model(d.atoms)
        calls = []
        for name in scorers:
            real = getattr(itds, name)
            spy = lambda *a, real=real, name=name: calls.append(name) or real(*a)
            monkeypatch.setattr(itds, name, spy)
        auto = select(d, ds.signals, ds.labels, 3, ablation, gp_model=gp)
        assert calls == []
        for res in auto if isinstance(auto, list) else [auto]:
            assert getattr(res.weights, unscored) == 0.0 and getattr(res.weights, weighed) > 0.0
            fixed = select(d, ds.signals, ds.labels, 3, ablation, res.weights, gp_model=gp)
            if isinstance(fixed, list):
                fixed = fixed[res.class_id]
            assert res.selection.indices == fixed.selection.indices


class TestGpModel:
    @pytest.mark.parametrize("select", [select_shared, select_dedicated])
    @pytest.mark.parametrize(
        "ablation,weights,built",
        [
            (frozenset({"reconstructive"}), SelectionWeights(lambda3=1.0), False),
            (frozenset({"discriminative", "reconstructive"}), None, True),
            (frozenset({"compact", "reconstructive"}), SelectionWeights(lambda3=1.0), True),
        ],
        ids=["unscored-given", "unscored-estimated", "scored-given"],
    )
    def test_model_built_only_when_compactness_scored(
        self, monkeypatch, select, ablation, weights, built
    ):
        ds, d, codes = small_problem(seed=18)
        assert ("compact" in itds.scored_terms(ablation, weights)) == built
        gp = build_gp_model(d.atoms)
        want = select(d, ds.signals, ds.labels, 3, ablation, weights, gp_model=gp)
        calls = []

        def counted(atoms):
            calls.append(atoms)
            return build_gp_model(atoms)

        monkeypatch.setattr(itds, "build_gp_model", counted)
        got = select(d, ds.signals, ds.labels, 3, ablation, weights)
        assert len(calls) == int(built)
        assert got == want

    def test_rounds_invert_nothing(self, monkeypatch):
        # the precision is formed once, with the model; every round of the
        # weight estimate and the per-class selections solves t x t systems
        # only (the OMP codes, whose certificate inverts, are made up front)
        ds, d, codes = small_problem(seed=19)
        gp = build_gp_model(d.atoms)
        want = select_dedicated(d, ds.signals, ds.labels, 3, gp_model=gp)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called during selection")

        monkeypatch.setattr(itds, "omp_codes", lambda *args: codes)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        got = select_dedicated(d, ds.signals, ds.labels, 3, gp_model=gp)
        assert got == want


class TestSelectionReport:
    def test_report_structure_and_ablation_zeroes(self):
        ds, d, codes = small_problem(seed=14)
        mode = frozenset({"compact"})
        res = select_shared(d, ds.signals, ds.labels, 3, mode, SelectionWeights())
        report = selection_report([res])
        entry = report["selections"][0]
        assert entry["lambda1"] == 1.0
        assert len(entry["rounds"]) == 3
        for row in entry["rounds"]:
            assert row["weighted_discrim"] == 0.0
            assert row["weighted_recon"] == 0.0

    def test_mode_validation(self):
        ds, d, codes = small_problem(seed=14)
        for ablation in (frozenset(), frozenset({"bogus"}), "compact"):
            for select in (select_shared, select_dedicated):
                with pytest.raises(ValueError, match="ablation"):
                    select(d, ds.signals, ds.labels, 3, ablation)


class TestLabels:
    @pytest.mark.parametrize("select", [select_shared, select_dedicated])
    @pytest.mark.parametrize(
        "ablation", [frozenset(TERMS), frozenset({"compact", "reconstructive"})],
        ids=["all", "compact,reconstructive"],
    )
    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda y: y[:-1], "23 labels for 24 signals"),
            (lambda y: np.append(y, 0), "25 labels for 24 signals"),
            (lambda y: np.where(np.arange(y.size) == 5, -1, y), "negative label -1"),
            (lambda y: np.where(np.arange(y.size) == 5, 0.5, y), "label 0.5 is not a whole number"),
            (lambda y: y.reshape(2, -1), r"labels must be a 1-d array, got shape \(2, 12\)"),
        ],
        ids=["too-short", "too-long", "negative", "fractional", "2-d"],
    )
    def test_labels_must_be_one_class_per_signal(self, select, ablation, change, message):
        # checked up front, also where no term reads the labels
        ds, d, _ = small_problem(seed=20)
        with pytest.raises(ValueError, match=message):
            select(d, ds.signals, change(ds.labels), 3, ablation)

    @pytest.mark.parametrize("select", [select_shared, select_dedicated])
    @pytest.mark.parametrize(
        "ablation",
        [{"reconstructive"}, {"compact"}, {"compact", "reconstructive"}, set(TERMS)],
        ids=["reconstructive", "compact", "compact,reconstructive", "all"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signals_rejected(self, select, ablation, bad):
        # checked up front, also where no term runs OMP on the signals
        ds, d, _ = small_problem(seed=20)
        Y = ds.signals.copy()
        Y[1, 4] = bad
        with pytest.raises(ValueError, match=r"signals must be finite \(they hold nan or inf\)"):
            select(d, Y, ds.labels, 3, frozenset(ablation))

    @pytest.mark.parametrize("select", [select_shared, select_dedicated])
    def test_no_signals_rejected(self, select):
        ds, d, _ = small_problem(seed=20)
        with pytest.raises(ValueError, match="no signals: the signal matrix has 0 columns"):
            select(d, ds.signals[:, :0], ds.labels[:0], 3)
