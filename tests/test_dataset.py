import numpy as np
import pytest

from itdl.dataset import (
    Dataset,
    LoadError,
    load_csv,
    load_mask,
    mask_pixels,
    save_csv,
    save_mask,
    split,
    synth_gaussian_classes,
)


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,0\n0,0,1\n1,1,1\n")
        ds = load_csv(f)
        assert ds.n == 2 and ds.size == 3 and ds.p == 2
        assert list(ds.class_counts) == [2, 1]
        np.testing.assert_array_equal(ds.labels, [0, 0, 1])

    def test_malformed_cell_names_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,x\n")
        with pytest.raises(LoadError, match="row 1"):
            load_csv(f)

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,2\n1,3\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(LoadError, match="empty"):
            load_csv(f)

    def test_label_remap_first_appearance(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("5,1,0\n7,0,1\n5,2,2\n")
        ds = load_csv(f)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.p == 2

    @pytest.mark.parametrize(
        "text",
        ["0,1,nan,2\n", "0,1,inf,2\n", "0,-inf,1,2\n", "nan,1,2,3\n", "inf,1,2,3\n", "-inf,1,2,3\n"],
        ids=["nan-feature", "inf-feature", "neg-inf-feature", "nan-label", "inf-label", "neg-inf-label"],
    )
    def test_non_finite_cell_names_row(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_text("1,1,1,1\n" + text)
        with pytest.raises(LoadError, match="row 2: non-finite"):
            load_csv(f)

    def test_non_integer_label(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.5,1,0\n")
        with pytest.raises(LoadError, match="row 1"):
            load_csv(f)

    def test_all_zero_signal_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,2\n1,0,0\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(f)

    def test_round_trip_bit_exact(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("0,0.5,0.25\n1,-1.75,3.0\n0,2.0,0.125\n")
        ds1 = load_csv(f)
        g = tmp_path / "b.csv"
        save_csv(ds1, g)
        ds2 = load_csv(g)
        np.testing.assert_array_equal(ds1.signals, ds2.signals)
        np.testing.assert_array_equal(ds1.labels, ds2.labels)

    def test_round_trip_synth(self, tmp_path):
        ds1 = synth_gaussian_classes(5, 3, 4, 0.2, 11)
        f = tmp_path / "s.csv"
        save_csv(ds1, f)
        ds2 = load_csv(f)
        np.testing.assert_array_equal(ds1.signals, ds2.signals)
        np.testing.assert_array_equal(ds1.labels, ds2.labels)


class TestSynth:
    def test_deterministic(self):
        a = synth_gaussian_classes(6, 3, 5, 0.3, 42)
        b = synth_gaussian_classes(6, 3, 5, 0.3, 42)
        np.testing.assert_array_equal(a.signals, b.signals)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_spread_collapses_classes(self):
        ds = synth_gaussian_classes(6, 3, 5, 0.0, 1)
        for c in range(3):
            block = ds.signals[:, ds.labels == c]
            assert np.all(block == block[:, :1])
            assert np.linalg.norm(block[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            synth_gaussian_classes(4, 2, 3, -0.1, 0)

    def test_ls_baseline_on_easy_data(self):
        # a plain least-squares classifier on raw signals is the oracle
        ds = synth_gaussian_classes(16, 4, 40, 0.05, 9)
        train, test = split(ds, 0.5, 10)
        design = np.vstack([train.signals, np.ones(train.size)]).T
        coef = np.linalg.lstsq(design, np.eye(4)[train.labels], rcond=None)[0]
        pred = np.argmax(np.vstack([test.signals, np.ones(test.size)]).T @ coef, axis=1)
        assert (pred == test.labels).mean() > 0.95

    def test_class_means_converge(self):
        # same seed with zero spread exposes the drawn means exactly
        exact = synth_gaussian_classes(4, 2, 10_000, 0.0, 3)
        noisy = synth_gaussian_classes(4, 2, 10_000, 0.3, 3)
        bound = 3 * 0.3 / np.sqrt(10_000)
        for c in range(2):
            mean_c = exact.signals[:, exact.labels == c][:, 0]
            sample = noisy.signals[:, noisy.labels == c].mean(axis=1)
            assert np.all(np.abs(sample - mean_c) < bound)


class TestSplit:
    def test_exact_halves(self):
        ds = synth_gaussian_classes(4, 2, 4, 0.1, 0)
        train, test = split(ds, 0.5, 1)
        assert list(train.class_counts) == [2, 2]
        assert list(test.class_counts) == [2, 2]

    def test_round_half_up(self):
        ds = synth_gaussian_classes(4, 2, 3, 0.1, 0)
        train, _ = split(ds, 0.5, 1)
        assert list(train.class_counts) == [2, 2]

    def test_deterministic(self):
        ds = synth_gaussian_classes(4, 3, 6, 0.1, 0)
        a1, b1 = split(ds, 0.4, 9)
        a2, b2 = split(ds, 0.4, 9)
        np.testing.assert_array_equal(a1.signals, a2.signals)
        np.testing.assert_array_equal(b1.signals, b2.signals)

    def test_partition(self):
        ds = synth_gaussian_classes(3, 2, 7, 0.2, 5)
        train, test = split(ds, 0.6, 2)
        combined = np.hstack([train.signals, test.signals])
        assert combined.shape == ds.signals.shape
        orig = {ds.signals[:, i].tobytes() for i in range(ds.size)}
        got = {combined[:, i].tobytes() for i in range(combined.shape[1])}
        assert orig == got
        assert train.size + test.size == ds.size

    def test_bad_fraction(self):
        ds = synth_gaussian_classes(3, 2, 4, 0.2, 5)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(ds, frac, 0)

    def test_tiny_class_rejected(self):
        ds = Dataset(
            signals=np.eye(3), labels=np.array([0, 0, 1]), p=2, class_counts=np.array([2, 1])
        )
        with pytest.raises(ValueError):
            split(ds, 0.5, 0)


class TestMaskPixels:
    def test_zero_fraction_identity(self):
        ds = synth_gaussian_classes(8, 2, 3, 0.2, 4)
        masked, mask = mask_pixels(ds, 0.0, 7)
        np.testing.assert_array_equal(masked.signals, ds.signals)
        assert mask.all()

    def test_masked_count_per_column(self):
        ds = synth_gaussian_classes(256, 2, 2, 0.1, 4)
        _, mask = mask_pixels(ds, 0.6, 7)
        assert np.all((~mask).sum(axis=0) == 154)

    def test_deterministic(self):
        ds = synth_gaussian_classes(8, 2, 3, 0.2, 4)
        _, m1 = mask_pixels(ds, 0.4, 7)
        _, m2 = mask_pixels(ds, 0.4, 7)
        np.testing.assert_array_equal(m1, m2)

    def test_masked_entries_zeroed(self):
        ds = synth_gaussian_classes(8, 2, 3, 0.5, 4)
        masked, mask = mask_pixels(ds, 0.5, 7)
        assert np.all(masked.signals[~mask] == 0.0)
        np.testing.assert_array_equal(masked.signals[mask], ds.signals[mask])

    def test_mask_csv_round_trip(self, tmp_path):
        ds = synth_gaussian_classes(8, 2, 3, 0.2, 4)
        _, mask = mask_pixels(ds, 0.4, 7)
        f = tmp_path / "m.csv"
        save_mask(mask, f)
        np.testing.assert_array_equal(load_mask(f), mask)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("1,2,0", "row 2: mask cells must be 0 or 1"),
            ("1,-1,1", "row 2: mask cells must be 0 or 1"),
            ("1,1", "row 2: expected 3 cells, got 2"),
        ],
    )
    def test_bad_mask_row_names_the_row(self, tmp_path, bad_row, message):
        f = tmp_path / "m.csv"
        f.write_text(f"1,0,1\n{bad_row}\n0,1,1\n", encoding="ascii")
        with pytest.raises(LoadError, match=message):
            load_mask(f)

    def test_bad_fraction(self):
        ds = synth_gaussian_classes(8, 2, 3, 0.2, 4)
        with pytest.raises(ValueError):
            mask_pixels(ds, 1.0, 0)
