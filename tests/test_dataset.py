import re

import numpy as np
import pytest

from itdl.dataset import (
    Dataset,
    LoadError,
    load_csv,
    mask_pixels,
    save_csv,
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
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 1: non-numeric")):
            load_csv(f)

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,2\n1,3\n")
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 2: expected 3 cells")):
            load_csv(f)

    def test_label_only_row_names_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("\n3\n")
        message = f"{f}: row 2: expected a label and at least one feature"
        with pytest.raises(LoadError, match=re.escape(message)):
            load_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(LoadError, match=re.escape(f"{f}: empty")):
            load_csv(f)

    def test_label_remap_sorted_value(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("7,1,0\n-2,0,1\n7,2,2\n5,1,1\n")
        ds = load_csv(f)
        np.testing.assert_array_equal(ds.labels, [2, 0, 2, 1])
        assert ds.p == 3
        assert ds.label_values == (-2, 5, 7)
        # the mapping does not depend on row order
        f.write_text("5,1,1\n7,2,2\n-2,0,1\n7,1,0\n")
        np.testing.assert_array_equal(load_csv(f).labels, [1, 2, 0, 2])
        # integer text is exact: 2**53 and 2**53 + 1 are two classes
        f.write_text("9007199254740993,1,0\n9007199254740992,0,1\n")
        ds = load_csv(f)
        assert ds.p == 2 and ds.label_values == (2**53, 2**53 + 1)
        # int64's extremes load; integral float text keeps its value
        f.write_text("9223372036854775807,1,0\n-9223372036854775808,0,1\n1e3,1,1\n1.0,2,1\n")
        assert load_csv(f).label_values == (-(2**63), 1, 1000, 2**63 - 1)

    @pytest.mark.parametrize(
        "text",
        ["0,1,nan,2\n", "0,1,inf,2\n", "0,-inf,1,2\n", "nan,1,2,3\n", "inf,1,2,3\n", "-inf,1,2,3\n"],
        ids=["nan-feature", "inf-feature", "neg-inf-feature", "nan-label", "inf-label", "neg-inf-label"],
    )
    def test_non_finite_cell_names_row(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_text("1,1,1,1\n" + text)
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 2: non-finite")):
            load_csv(f)

    def test_non_integer_label(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.5,1,0\n")
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 1: label '0.5' is not an integer")):
            load_csv(f)

    @pytest.mark.parametrize("label", ["1e20", "-1e19", "9223372036854775808"])
    def test_label_outside_int64_names_row(self, tmp_path, label):
        f = tmp_path / "d.csv"
        f.write_text(f"0,1,1\n{label},1.0,2.0\n")
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 2: label '{label}' is outside")):
            load_csv(f)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,0\n\n  \n1,x,1\n")
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 4: non-numeric")):
            load_csv(f)

    def test_non_ascii_file_names_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,2\n1,0.5,\u03c3\n", encoding="utf-8")
        with pytest.raises(LoadError, match=re.escape(f"{f}: not an ASCII text file")):
            load_csv(f)

    def test_all_zero_signal_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1,2\n1,0,0\n")
        with pytest.raises(LoadError, match=re.escape(f"{f}: row 2: all-zero")):
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

    def test_round_trip_keeps_raw_labels(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("3,1.0\n9,2.0\n5,3.0\n")
        g = tmp_path / "b.csv"
        save_csv(load_csv(f), g)
        assert g.read_text() == f.read_text()
        assert load_csv(g).label_values == (3, 5, 9)

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

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="spread must be finite"):
            synth_gaussian_classes(4, 2, 3, spread, 0)

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

    def test_label_values_kept_by_split_and_mask(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("".join(f"{label},{i + 1},1\n" for i, label in enumerate([4, 9] * 3)))
        ds = load_csv(f)
        train, test = split(ds, 0.5, 0)
        assert ds.label_values == train.label_values == test.label_values == (4, 9)
        assert mask_pixels(ds, 0.5, 0)[0].label_values == (4, 9)

    def test_label_values_need_one_per_class(self):
        with pytest.raises(ValueError, match="raw label"):
            Dataset(np.eye(2), np.array([0, 1]), label_values=(3,))

    def test_duplicate_label_values_rejected(self):
        # two classes with one raw label would save as one class
        with pytest.raises(ValueError, match="raw label values must be distinct"):
            Dataset(np.eye(3), np.array([0, 1, 1]), label_values=(5, 5))

    def test_class_count_and_counts_derived_from_labels(self):
        ds = Dataset(np.eye(4), np.array([2, 0, 2, 1]))
        assert ds.p == 3 and ds.label_values == (0, 1, 2)
        assert list(ds.class_counts) == [1, 1, 2]
        assert Dataset(np.eye(2), np.array([1, 0]), label_values=(4, 7)).p == 2
        with pytest.raises(TypeError):
            Dataset(np.eye(2), np.array([0, 1]), p=2)

    @pytest.mark.parametrize(
        "labels, values, message",
        [
            ([0, -1], None, "labels must lie"),
            ([0, 2], None, "at least one sample"),
            ([0, 1], (3, 4, 5), "at least one sample"),
            ([], None, "labels must lie"),
        ],
    )
    def test_bad_labels_rejected(self, labels, values, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.ones((1, len(labels))), np.array(labels, dtype=int), label_values=values)

    @pytest.mark.parametrize(
        "signals, labels, message",
        [
            (np.ones(3), np.array([0, 1, 1]), "signals must be a 2-d matrix"),
            (np.ones((2, 3)), np.array([0, 1]), "labels length must match the number of signal columns"),
        ],
    )
    def test_bad_shapes_rejected(self, signals, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(signals, labels)

    @pytest.mark.parametrize("bad", [0.5, -0.5, np.nan, np.inf, 2.0**63])
    def test_labels_that_are_not_whole_numbers_rejected(self, bad):
        with pytest.raises(ValueError, match="is not a whole number in the int64 range"):
            Dataset(np.ones((1, 3)), np.array([0.0, 1.0, bad]))
        # whole numbers held as floats are classes
        assert Dataset(np.ones((1, 3)), np.array([0.0, 1.0, 1.0])).labels.tolist() == [0, 1, 1]

    def test_tiny_class_rejected(self):
        ds = Dataset(signals=np.eye(3), labels=np.array([0, 0, 1]))
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

    def test_bad_fraction(self):
        ds = synth_gaussian_classes(8, 2, 3, 0.2, 4)
        with pytest.raises(ValueError):
            mask_pixels(ds, 1.0, 0)

    def test_fraction_rounding_to_every_entry_rejected(self):
        ds = synth_gaussian_classes(3, 2, 3, 0.2, 4)
        with pytest.raises(ValueError, match="drops 3 of n=3"):
            mask_pixels(ds, 0.9, 0)
        assert (mask_pixels(ds, 0.8, 0)[1].sum(axis=0) == 1).all()
