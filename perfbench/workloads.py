"""Workload table of the pipeline benchmark.

Each workload isolates one stage of the pipeline (see README.md for why
each exists). Sizes keep the call structure of the ROADMAP "medium"
configurations (classes, atoms, sparsity and iteration counts, hence
every seed-independent call count) and shrink only the training set, so
one pipeline takes a few seconds on one core and a run can take medians.
Test sets are larger than training sets: evaluation cost grows only
linearly with them, and a small test set makes accuracy swing between
seeds by more than any regression bound could allow.

Only stdlib here: the orchestrating process imports this module without
loading numpy or the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SPREAD = 0.5
MISSING_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    n: int  # signal dimension
    p: int  # classes
    train_per_class: int
    test_per_class: int
    config: dict = field(default_factory=dict)  # itdl config keys, seed excluded

    @property
    def per_class(self) -> int:
        return self.train_per_class + self.test_per_class

    @property
    def train_fraction(self) -> float:
        """Split fraction that gives exactly ``train_per_class`` per class."""
        return self.train_per_class / self.per_class


WORKLOADS = {
    # ITDS KDE discrimination: 8 classes x (128 + 128+127+126+125) = 5,072
    # mi_codes_labels calls per run, the per-class recomputation of
    # dedicated mode, and the auto weight estimation.
    "dedicated-select": Workload(
        n=32,
        p=8,
        train_per_class=16,
        test_per_class=128,
        config={"mode": "dedicated", "atoms": 128, "sparsity": 4, "ksvd_iters": 5, "iters": 20},
    ),
    # ITDU quadratic-MI ascent on one shared support; selection makes no
    # KDE call, so a discrimination-engine change should not move it.
    "shared-ascent": Workload(
        n=32,
        p=4,
        train_per_class=150,
        test_per_class=250,
        config={
            "mode": "shared",
            "atoms": 64,
            "sparsity": 8,
            "ksvd_iters": 5,
            "iters": 100,
            "ablation": "compact,reconstructive",
            "lambda3": 1,
        },
    ),
    # Reconstruction-only baseline dictionary: K-SVD/OMP dominates, then
    # the classifier and the masked-pixel experiment; no ascent, no KDE.
    "masked-ksvd": Workload(
        n=64,
        p=4,
        train_per_class=100,
        test_per_class=250,
        config={
            "mode": "dedicated",
            "atoms": 256,
            "sparsity": 8,
            "ksvd_iters": 10,
            "iters": 0,
            "ablation": "reconstructive",
            "lambda3": 1,
        },
    ),
    # Toy sizes for the benchmark's own tests; not listed in BENCHMARK.json.
    "toy-dedicated": Workload(
        n=8,
        p=3,
        train_per_class=6,
        test_per_class=6,
        config={"mode": "dedicated", "atoms": 12, "sparsity": 2, "ksvd_iters": 1, "iters": 5},
    ),
    "toy-shared": Workload(
        n=8,
        p=3,
        train_per_class=6,
        test_per_class=6,
        config={
            "mode": "shared",
            "atoms": 12,
            "sparsity": 3,
            "ksvd_iters": 1,
            "iters": 5,
            "ablation": "compact,reconstructive",
            "lambda3": 1,
        },
    ),
}
