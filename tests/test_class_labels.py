"""One label rule, dataset.class_labels, for every exported function that
takes class labels: a label that is not a number or not a whole number,
a negative label, a label array that is not 1-d and a label count that
does not match all raise its ValueError, whichever function they reach."""

import numpy as np
import pytest

from itdl.classify import train_linear
from itdl.dataset import Dataset, class_labels, synth_gaussian_classes
from itdl.info_measures import build_gp_model, class_entropy, mi_codes_labels, qmi
from itdl.itds import estimate_lambdas, select_dedicated, select_shared
from itdl.itdu import update_all_classes, update_dictionary
from itdl.sparse_coding import ksvd_init, omp_codes

DS = synth_gaussian_classes(6, 3, 4, 0.3, 5)
D = ksvd_init(DS.signals, 8, 2, 1, 6)
CODES = omp_codes(D, DS.signals, 2)
N = DS.size

# name -> (call with the labels, what the label count is checked against)
CALLERS = {
    "Dataset": (lambda y: Dataset(DS.signals, y), "signals"),
    "select_shared": (lambda y: select_shared(D, DS.signals, y, 2), "signals"),
    "select_dedicated": (lambda y: select_dedicated(D, DS.signals, y, 2), "signals"),
    "estimate_lambdas": (
        lambda y: estimate_lambdas(D, CODES, y, DS.signals, build_gp_model(D.atoms)),
        "code columns",
    ),
    "update_dictionary": (
        lambda y: update_dictionary(D.atoms[:, :2], DS.signals, y, max_iters=1), "signals"
    ),
    "update_all_classes": (
        lambda y: update_all_classes([(None, D.atoms[:, :2])], DS.signals, y, max_iters=1),
        "signals",
    ),
    "train_linear": (lambda y: train_linear(CODES.T, y), "feature rows"),
    "mi_codes_labels(auto)": (lambda y: mi_codes_labels(CODES, y), "code columns"),
    "mi_codes_labels(sigma)": (lambda y: mi_codes_labels(CODES, y, 0.5), "code columns"),
    "qmi": (lambda y: qmi(CODES, y, 0.5), "code columns"),
    "qmi(grad)": (lambda y: qmi(CODES, y, 0.5, grad=True), "code columns"),
    # the entropy of a label array takes any count
    "class_entropy": (class_entropy, None),
}


def _at(k, value):
    y = DS.labels.astype(np.float64)
    y[k] = value
    return y


BAD = {
    "fractional": (_at(5, 1.5), "label 1.5 is not a whole number in the int64 range"),
    "negative": (_at(5, -1), "negative label -1"),
    "2-d": (DS.labels[:, None], rf"labels must be a 1-d array, got shape \({N}, 1\)"),
    "too-few": (DS.labels[:-1], f"{N - 1} labels for {N} "),
}


@pytest.mark.parametrize(
    "caller, case",
    [(c, case) for c in CALLERS for case in BAD if case != "too-few" or CALLERS[c][1]],
)
def test_every_label_taker_raises_the_one_rule(caller, case):
    call, of = CALLERS[caller]
    labels, message = BAD[case]
    with pytest.raises(ValueError, match=message + (of if case == "too-few" else "")):
        call(labels)


class TestClassLabels:
    @pytest.mark.parametrize(
        "labels",
        [np.array([0, 2, 1], dtype=np.int8), np.array([True, False, True]),
         np.array([0.0, 2.0, 1.0]), np.array([0, 2, 1], dtype=np.uint64), [0, 2, 1]],
        ids=["int8", "bool", "float", "uint64", "list"],
    )
    def test_whole_numbers_of_any_dtype_are_classes(self, labels):
        out = class_labels(labels, 3)
        assert out.dtype == np.int64 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, np.asarray(labels).astype(np.int64))

    def test_an_int64_array_is_returned_as_is(self):
        labels = np.array([0, 1, 1])
        assert class_labels(labels, 3) is labels

    def test_a_strided_array_comes_back_contiguous(self):
        out = class_labels(np.arange(6)[::2], 3)
        assert out.flags.c_contiguous and out.tolist() == [0, 2, 4]

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0, 2**64 - 1], dtype=np.uint64), "label 18446744073709551615 is not a whole"),
            (np.array([0.0, np.nan]), "label nan is not a whole"),
            (np.array([0.0, 2.0**63]), "is not a whole number in the int64 range"),
            (np.int64(1), r"got shape \(\)"),
            # numbers first: numpy's own OverflowError and TypeError, and a
            # string label read as the number 0, never reach the caller
            ([0, 2**70], "^labels must be numbers, got dtype object$"),
            ([0, None], "^labels must be numbers, got dtype object$"),
            (["0", "1"], "^labels must be numbers, got dtype <U1$"),
        ],
    )
    def test_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            class_labels(labels, None)

    def test_the_count_names_what_it_counts(self):
        with pytest.raises(ValueError, match="^2 labels for 3 code columns$"):
            class_labels([0, 1], 3, of="code columns")
