"""The CLI in fresh processes: each run is ``python -m itdl.cli run-all``
in its own interpreter with one BLAS thread, on the toy data of
``itdl synth --dim 8 --classes 3 --per-class 12 --seed 1``.

K-SVD, selection, the ascent, classifier training and evaluation keep
no state between processes, so two processes with one configuration
write every artifact byte for byte alike. No stage raises a numpy
RuntimeWarning (a divide, overflow or invalid operation) on toy data,
and a run followed by the masked-pixel experiment never imports
numpy.ma.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import itdl
from itdl.cli import main

SRC = str(Path(itdl.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    data = tmp_path_factory.mktemp("toy")
    argv = ["synth", "--out", str(data), "--dim", "8", "--classes", "3", "--per-class", "12"]
    assert main(argv + ["--seed", "1"]) == 0
    return data


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_all(data, out, mode, *flags, ksvd_iters=1, warnings_as_errors=False):
    """Run the toy pipeline in a new interpreter; return {artifact name: bytes}."""
    python = [sys.executable] + (["-W", "error::RuntimeWarning"] if warnings_as_errors else [])
    proc = subprocess.run(
        [*python, "-m", "itdl.cli", "run-all", "--train", str(data / "train.csv"),
         "--test", str(data / "test.csv"), "--out", str(out), "--mode", mode,
         "--atoms", "12", "--sparsity", "2", "--ksvd-iters", str(ksvd_iters), "--iters", "3",
         "--seed", "1", *flags],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def assert_same_artifacts(first, second):
    assert sorted(second) == sorted(first)
    assert [name for name in first if second[name] != first[name]] == []


def test_dedicated_run_all_repeats_across_processes(toy, tmp_path):
    first = run_all(toy, tmp_path / "a", "dedicated")
    # six run-wide artifacts, and a selection, updated dictionary and
    # ascent trace per class
    assert len(first) == 6 + 3 * 3
    assert_same_artifacts(first, run_all(toy, tmp_path / "b", "dedicated"))


def test_three_ksvd_sweeps_repeat_across_processes(toy, tmp_path):
    first = run_all(toy, tmp_path / "a", "shared", ksvd_iters=3)
    assert_same_artifacts(first, run_all(toy, tmp_path / "b", "shared", ksvd_iters=3))


@pytest.mark.parametrize("mode", ["shared", "dedicated"])
def test_compactness_only_selection_repeats_across_processes(toy, tmp_path, mode):
    first = run_all(toy, tmp_path / "a", mode, "--ablation", "compact")
    assert any(name.startswith("selection") for name in first)
    assert_same_artifacts(first, run_all(toy, tmp_path / "b", mode, "--ablation", "compact"))


@pytest.mark.parametrize("ablation", ["all", "compact"])
@pytest.mark.parametrize("mode", ["shared", "dedicated"])
def test_toy_run_raises_no_runtime_warning(toy, tmp_path, mode, ablation):
    artifacts = run_all(toy, tmp_path, mode, "--ablation", ablation, warnings_as_errors=True)
    assert "eval_report.json" in artifacts


# A dedicated run-all, then the masked-pixel experiment on its class
# dictionaries, as the benchmark times them; prints whether numpy.ma was imported.
MASKED_RUN = """
import sys
from pathlib import Path
from itdl import classify, cli, dataset, sparse_coding
data, out = Path(sys.argv[1]), Path(sys.argv[2])
toy = ["--atoms", "12", "--sparsity", "2", "--ksvd-iters", "1", "--iters", "3", "--seed", "1"]
assert cli.main(["run-all", "--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                 "--out", str(out), "--mode", "dedicated", *toy]) == 0
test = dataset.load_csv(data / "test.csv")
masked, mask = dataset.mask_pixels(test, 0.5, 3)
atoms = [(c, sparse_coding.load_matrix(out / f"dict_updated_c{c}.itdl")) for c in range(3)]
recon, pred = classify.reconstruct_masked(atoms, masked, mask)
assert recon.shape == test.signals.shape
print("numpy.ma" in sys.modules)
"""


def test_pipeline_does_not_import_numpy_ma(toy, tmp_path):
    # np.median, and np.unique(..., axis=0) without return_*, import
    # numpy.ma on their first call: a fixed cost in every process
    proc = subprocess.run(
        [sys.executable, "-c", MASKED_RUN, str(toy), str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
