import json
import re

import numpy as np
import pytest

from helpers import shared_style_dataset
from itdl import classify, cli, sparse_coding
from itdl.cli import ConfigError, RunConfig, _atomic, load_config, main, substream_seed
from itdl.dataset import load_csv, save_csv, split
from itdl.info_measures import build_gp_model
from itdl.itds import TERMS
from itdl.sparse_coding import load_matrix


def write_data(tmp_path, seed=5, n=12, p=3, per_class=20):
    ds = shared_style_dataset(n, p, per_class, seed)
    train, test = split(ds, 0.5, seed + 1)
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    return tmp_path / "train.csv", tmp_path / "test.csv"


def write_config(tmp_path, **overrides):
    base = {
        "mode": "shared",
        "atoms": 10,
        "sparsity": 2,
        "ksvd_iters": 1,
        "iters": 3,
        "seed": 3,
    }
    base.update(overrides)
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("mode=dedicated\natoms=32\nseed=9\nsigma=0.5\nablation=compact,reconstructive\n")
        cfg = load_config(f)
        assert cfg.mode == "dedicated"
        assert cfg.atoms == 32
        assert cfg.sigma == 0.5
        assert cfg.ablation == frozenset({"compact", "reconstructive"})
        assert cfg.iters == 100  # default

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("bogus=1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(f)

    def test_auto_values(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("sigma=auto\nstep=auto\nseed=1\n")
        cfg = load_config(f)
        assert cfg.sigma is None and cfg.step is None

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=None).validate()

    def test_sparsity_vs_atoms(self):
        with pytest.raises(ConfigError, match="sparsity"):
            RunConfig(seed=1, atoms=8, sparsity=8).validate()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mode=both", "mode must be 'shared' or 'dedicated'"),
            ("sparsity=0", "need sparsity >= 1 and atoms >= 2"),
            ("atoms=1\nsparsity=0", "need sparsity >= 1 and atoms >= 2"),
            ("ksvd_iters=0", "ksvd_iters must be at least 1"),
            ("iters=-1", "iters must be non-negative"),
            ("ablation=bogus", "ablation must be a nonempty subset"),
            ("ablation=,", "ablation must be a nonempty subset"),
            ("atoms=ten", "atoms must be an integer, got 'ten'"),
            ("sigma=wide", "sigma must be a number or 'auto', got 'wide'"),
            ("tol=auto", "tol must be a number, got 'auto'"),
            ("normalize_signals=maybe", "normalize_signals must be 0 or 1, got 'maybe'"),
            ("iters", "c.txt:2: expected key=value, got 'iters'"),
        ],
    )
    def test_bad_config_names_the_problem(self, tmp_path, line, message):
        f = tmp_path / "c.txt"
        f.write_text(f"seed=1\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(f).validate()

    def test_key_set_twice_exit_2_names_file_line_and_key(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path, iters=3)
        cfg.write_text(cfg.read_text() + "# a second value\niters=5\n")
        out = tmp_path / "x"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out), "--iters", "0",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: configuration: {cfg}:8: config key 'iters' already set on line 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["all", "ALL", ""])
    def test_ablation_all_or_empty_keeps_every_term(self, tmp_path, raw):
        f = tmp_path / "c.txt"
        f.write_text(f"seed=1\nablation={raw}\n")
        assert load_config(f).validate().ablation == frozenset(TERMS)

    @pytest.mark.parametrize("raw", ["0", "false", "No", "OFF"])
    def test_normalize_signals_false_spellings(self, tmp_path, raw):
        f = tmp_path / "c.txt"
        f.write_text(f"seed=1\nnormalize_signals={raw}\n")
        assert load_config(f).normalize_signals is False

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("# comment\n\nseed=4  # trailing\n")
        assert load_config(f).seed == 4

    def test_substream_seeds_stable_and_distinct(self):
        a = substream_seed(7, "ksvd")
        assert a == substream_seed(7, "ksvd")
        assert a != substream_seed(7, "sgd")
        assert a != substream_seed(8, "ksvd")


class TestCliRuns:
    def test_synth_writes_loadable_data(self, tmp_path):
        rc = main([
            "synth", "--out", str(tmp_path), "--dim", "6", "--classes", "3",
            "--per-class", "8", "--spread", "0.2", "--seed", "11",
        ])
        assert rc == 0
        train = load_csv(tmp_path / "train.csv")
        test = load_csv(tmp_path / "test.csv")
        assert train.p == 3 and test.p == 3
        assert train.size + test.size == 24

    def test_run_all_artifacts_and_determinism(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        args = ["run-all", "--config", str(cfg), "--train", str(train_csv), "--test", str(test_csv)]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        for name in (
            "dict_initial.itdl", "selection.csv", "selection_report.json",
            "dict_updated.itdl", "update_trace.csv", "update_report.json",
            "model_weights.itdl", "model_bias.csv", "eval_report.json",
        ):
            assert (tmp_path / "r1" / name).exists(), name
        b1 = (tmp_path / "r1" / "eval_report.json").read_bytes()
        b2 = (tmp_path / "r2" / "eval_report.json").read_bytes()
        assert b1 == b2
        report = json.loads(b1)
        assert set(report) == {"accuracy", "rmse", "mi_estimate", "bayes_bound", "per_class_accuracy"}
        assert not list((tmp_path / "r1").glob("*.tmp"))

    def test_dedicated_mode_per_class_artifacts(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path, mode="dedicated")
        out = tmp_path / "ded"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out),
        ])
        assert rc == 0
        for c in range(3):
            assert (out / f"selection_c{c}.csv").exists()
            assert (out / f"dict_updated_c{c}.itdl").exists()
        mat = load_matrix(out / "dict_updated_c0.itdl")
        assert mat.shape == (12, 2)

    def test_stagewise_matches_run_all(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        full = tmp_path / "full"
        staged = tmp_path / "staged"
        base = ["--config", str(cfg), "--train", str(train_csv)]
        assert main(["run-all", *base, "--test", str(test_csv), "--out", str(full)]) == 0
        assert main(["select", *base, "--out", str(staged)]) == 0
        assert main(["update", *base, "--out", str(staged)]) == 0
        assert main(["evaluate", *base, "--test", str(test_csv), "--out", str(staged)]) == 0
        assert (full / "eval_report.json").read_bytes() == (staged / "eval_report.json").read_bytes()

    @pytest.mark.parametrize("mode", ["shared", "dedicated"])
    def test_reversed_test_file_same_report(self, tmp_path, mode):
        # labels map by sorted value, so row order cannot permute classes;
        # only the summation order of the test-set sums changes
        train_csv, test_csv = write_data(tmp_path)
        reversed_csv = tmp_path / "test_reversed.csv"
        reversed_csv.write_text("".join(reversed(test_csv.read_text().splitlines(keepends=True))))
        cfg = write_config(tmp_path, mode=mode)
        reports = []
        for name, path in (("fwd", test_csv), ("rev", reversed_csv)):
            out = tmp_path / name
            assert main([
                "run-all", "--config", str(cfg), "--train", str(train_csv),
                "--test", str(path), "--out", str(out),
            ]) == 0
            reports.append(json.loads((out / "eval_report.json").read_text()))
        fwd, rev = reports
        assert rev["accuracy"] == fwd["accuracy"]
        assert rev["per_class_accuracy"] == fwd["per_class_accuracy"]
        for key in ("rmse", "mi_estimate", "bayes_bound"):
            assert rev[key] == pytest.approx(fwd[key], rel=1e-12)

    def test_evaluate_twice_identical(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        base = ["--config", str(cfg), "--train", str(train_csv)]
        assert main(["select", *base, "--out", str(out)]) == 0
        assert main(["update", *base, "--out", str(out)]) == 0
        assert main(["evaluate", *base, "--test", str(test_csv), "--out", str(out)]) == 0
        first = (out / "eval_report.json").read_bytes()
        assert main(["evaluate", *base, "--test", str(test_csv), "--out", str(out)]) == 0
        assert (out / "eval_report.json").read_bytes() == first


class TestCliErrors:
    def test_config_error_exit_2(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path, sparsity=10, atoms=10)
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "sparsity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("sigma", "nan"),
            ("sigma_r", "nan"),
            ("rho", "inf"),
            ("step", "nan"),
            ("step", "inf"),
            ("tol", "nan"),
            ("tol", "inf"),
            ("tol", "-1"),
            ("lambda2", "inf"),
            ("lambda3", "nan"),
            ("lambda2", "-1"),
            ("lambda3", "-0.5"),
        ],
    )
    def test_bad_number_exit_2_names_key(self, tmp_path, capsys, key, value):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "x"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out), f"--{key.replace('_', '-')}", value,
        ])
        assert rc == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-all", "synth"])
    def test_negative_seed_exit_2_names_seed(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        if command == "synth":
            argv = ["synth", "--out", str(out)]
        else:
            train_csv, test_csv = write_data(tmp_path)
            cfg = write_config(tmp_path)
            argv = ["run-all", "--config", str(cfg), "--train", str(train_csv),
                    "--test", str(test_csv), "--out", str(out)]
        rc = main(argv + ["--seed", "-1"])
        assert rc == 2
        assert "error: configuration: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage,name", [("evaluate", "dict_updated.itdl"), ("update", "dict_initial.itdl")]
    )
    def test_bad_matrix_artifact_exit_1_names_file(self, tmp_path, capsys, stage, name):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        io = ["--config", str(cfg), "--train", str(train_csv), "--out", str(out)]
        assert main(["run-all", *io, "--test", str(test_csv)]) == 0
        capsys.readouterr()
        path = out / name
        atoms = load_matrix(path)
        if stage == "evaluate":
            atoms[0, 0] = np.nan
            expected = f"{path}: non-finite matrix entry"
        else:
            atoms[:, 0] *= 2.0
            expected = f"{path}: every atom must have unit l2 norm"
        sparse_coding.save_matrix(atoms, path)
        extra = ["--test", str(test_csv)] if stage == "evaluate" else []
        rc = main([stage, *io, *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"stage {stage} failed" in err and expected in err

    def test_truncated_dictionary_header_exit_1_names_file(self, tmp_path, capsys):
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path, mode="dedicated")
        out = tmp_path / "o"
        io = ["--config", str(cfg), "--train", str(train_csv), "--out", str(out)]
        assert main(["select", *io]) == 0
        path = out / "dict_initial.itdl"
        path.write_bytes(path.read_bytes()[:8])
        assert main(["update", *io]) == 1
        err = capsys.readouterr().err
        assert err == f"error: stage update failed: {path}: truncated header\n"
        assert not (out / "dict_updated_c0.itdl").exists()

    def test_malformed_test_file_row_exit_1_names_file(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        rows = test_csv.read_text().splitlines(keepends=True)
        bad = tmp_path / "malformed.csv"
        bad.write_text(rows[0] + rows[1].rsplit(",", 1)[0] + ",x\n" + "".join(rows[2:]))
        cfg = write_config(tmp_path)
        out = tmp_path / "x"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(bad), "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage load failed: ") and err.count("\n") == 1
        assert f"{bad}: row 2: non-numeric cell" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["scaled-atom", "extra-atom", "extra-row", "trailing-bytes"])
    def test_bad_updated_dictionary_exit_1_names_file(self, tmp_path, capsys, edit):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        io = ["--config", str(cfg), "--train", str(train_csv), "--out", str(out)]
        assert main(["run-all", *io, "--test", str(test_csv)]) == 0
        capsys.readouterr()
        path = out / "dict_updated.itdl"
        atoms = load_matrix(path)
        tail = b""
        if edit == "scaled-atom":
            atoms[:, 0] *= 50.0
            expected = f"{path}: every atom must have unit l2 norm"
        elif edit == "extra-atom":
            atoms = np.column_stack([atoms, atoms[:, 0]])
            expected = f"{path}: expected 12 x 2 atoms (signal dimension x sparsity), got 12 x 3"
        elif edit == "extra-row":
            atoms = np.vstack([atoms, np.zeros((1, atoms.shape[1]))])
            expected = f"{path}: expected 12 x 2 atoms (signal dimension x sparsity), got 13 x 2"
        else:
            tail = bytes(8)
            expected = f"{path}: trailing bytes after the 12 x 2 matrix payload"
        sparse_coding.save_matrix(atoms, path)
        path.write_bytes(path.read_bytes() + tail)
        before = (out / "eval_report.json").read_bytes()
        assert main(["evaluate", *io, "--test", str(test_csv)]) == 1
        err = capsys.readouterr().err
        assert "stage evaluate failed" in err and expected in err
        assert (out / "eval_report.json").read_bytes() == before

    @pytest.mark.parametrize("command", ["select", "synth", "run-all"])
    def test_out_naming_a_file_exit_1_names_it(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("a file\n")
        if command == "synth":
            argv = ["synth", "--out", str(out), "--seed", "1"]
        else:
            train_csv, test_csv = write_data(tmp_path)
            cfg = write_config(tmp_path)
            argv = [command, "--config", str(cfg), "--train", str(train_csv), "--out", str(out)]
            if command == "run-all":
                argv += ["--test", str(test_csv)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert out.read_text() == "a file\n"

    def test_non_ascii_config_exit_2_names_file(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes() + "sigma=0.5  # \u03c3\n".encode("utf-8"))
        out = tmp_path / "x"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: configuration: {cfg}: not an ASCII text file\n"
        assert not out.exists()

    def test_update_without_dictionary_exit_1_names_file(self, tmp_path, capsys):
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "empty"
        rc = main(["update", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: stage update failed: missing dictionary artifact: {out / 'dict_initial.itdl'}\n"
        )

    def test_missing_selection_artifact_exit_1_names_file(self, tmp_path, capsys):
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path, mode="dedicated")
        out = tmp_path / "o"
        assert main(["select", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "selection_c1.csv").unlink()
        rc = main(["update", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: stage update failed: missing selection artifact: {out / 'selection_c1.csv'}\n"
        )

    def test_missing_updated_dict_names_file(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "sel_only"
        assert main(["select", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)]) == 0
        rc = main([
            "evaluate", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out),
        ])
        assert rc == 1
        assert "dict_updated" in capsys.readouterr().err

    def test_bad_train_file_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(tmp_path / "none.csv"),
            "--test", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x"),
        ])
        assert rc == 1

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--spread", "nan", "spread must be finite"),
            ("--spread", "inf", "spread must be finite"),
            ("--spread", "-1", "spread must be finite"),
            ("--per-class", "1", "per_class >= 2"),
            ("--classes", "1", "p >= 2"),
            ("--train-fraction", "1.5", "train_fraction"),
            ("--train-fraction", "0", "train_fraction"),
        ],
        ids=["spread-nan", "spread-inf", "spread-negative", "per-class-1", "classes-1",
             "fraction-1.5", "fraction-0"],
    )
    def test_bad_synth_argument_exit_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out), "--seed", "1", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: configuration: ") and message in err
        assert not out.exists()

    def test_test_file_class_count_mismatch_exit_1(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        rows = test_csv.read_text().splitlines(keepends=True)
        two_class = tmp_path / "two_class.csv"
        two_class.write_text("".join(r for r in rows if not r.startswith("1,")))
        cfg = write_config(tmp_path)
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(two_class), "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage load failed" in err
        assert f"label 1 is in {train_csv} but not in {two_class}" in err
        assert not (tmp_path / "x" / "eval_report.json").exists()

    @pytest.mark.parametrize("edit", ["relabel", "extra"])
    def test_test_file_label_values_must_match_exit_1(self, tmp_path, capsys, edit):
        # each file maps its labels to 0..p-1, so a 0,1,7 test file would
        # otherwise be scored against the 0,1,2 classes of the training file
        train_csv, test_csv = write_data(tmp_path)
        rows = test_csv.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        if edit == "relabel":
            bad.write_text("".join("7," + r[2:] if r.startswith("2,") else r for r in rows))
            expected = f"label 2 is in {train_csv} but not in {bad}"
        else:
            bad.write_text("".join(rows) + "9," + rows[0].split(",", 1)[1])
            expected = f"label 9 is in {bad} but not in {train_csv}"
        cfg = write_config(tmp_path)
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(bad), "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage load failed" in err and expected in err
        assert not (tmp_path / "x" / "eval_report.json").exists()

    def test_test_file_signal_dimension_mismatch_exit_1(self, tmp_path, capsys):
        train_csv, test_csv = write_data(tmp_path)
        wide = tmp_path / "wide.csv"
        wide.write_text("".join(r.rstrip("\n") + ",0.5\n" for r in test_csv.read_text().splitlines()))
        cfg = write_config(tmp_path)
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(wide), "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage load failed" in err
        assert f"{wide} holds 13-dimensional signals, but {train_csv} holds 12-dimensional ones" in err
        # the check runs before any stage, so --out is never created
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag,value,expected",
        [
            ("--sparsity", "13", "sparsity 13 exceeds the signal dimension 12 of {train}"),
            ("--atoms", "31", "atoms 31 exceeds the 30 training signals of {train}"),
        ],
        ids=["sparsity", "atoms"],
    )
    @pytest.mark.parametrize("command", ["run-all", "select"])
    def test_size_beyond_training_file_exit_1(self, tmp_path, capsys, flag, value, expected, command):
        # K-SVD cannot pick more atoms per signal than its dimension, or
        # more atoms than there are training signals
        train_csv, test_csv = write_data(tmp_path)  # 12-dim, 30 training signals
        cfg = write_config(tmp_path, atoms=20)
        out = tmp_path / "x"
        argv = [command, "--config", str(cfg), "--train", str(train_csv), "--out", str(out), flag, value]
        if command == "run-all":
            argv += ["--test", str(test_csv)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "stage load failed" in err and expected.format(train=train_csv) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1,3,5", "expected 2 atom indices below 10, got [1, 3, 5]"),
            ("1", "expected 2 atom indices below 10, got [1]"),
            ("1,a", "bad selection"),
            ("1,300", "expected 2 atom indices below 10, got [1, 300]"),
            ("1,10", "expected 2 atom indices below 10, got [1, 10]"),
            ("", "empty selection file"),
            ("1,\u03c3", "not an ASCII text file"),
        ],
        ids=["too-many", "too-few", "non-integer", "out-of-range", "index-K", "empty", "non-ascii"],
    )
    def test_bad_selection_artifact_exit_1_names_file(self, tmp_path, capsys, text, message):
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path, mode="dedicated")  # atoms=10, sparsity=2
        out = tmp_path / "o"
        assert main(["select", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)]) == 0
        sel = out / "selection_c0.csv"
        sel.write_text(text + "\n", encoding="utf-8")
        rc = main(["update", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage update failed" in err and f"{sel}: {message}" in err
        assert not (out / "dict_updated_c0.itdl").exists()

    def test_flag_overrides_config(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path, iters=3)
        out = tmp_path / "o"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out), "--iters", "0",
        ])
        assert rc == 0
        report = json.loads((out / "update_report.json").read_text())
        assert report["updates"][0]["iterations"] == 0

    def test_zero_tol_runs_every_ascent_to_iters(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path, mode="dedicated", iters=6)
        out = tmp_path / "o"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out), "--tol", "0",
        ])
        assert rc == 0
        updates = json.loads((out / "update_report.json").read_text())["updates"]
        assert len(updates) == 3
        for u in updates:
            assert (u["iterations"], len(u["accepted_steps"]), u["converged"]) == (6, 6, False)

    @pytest.mark.parametrize("mode", ["shared", "dedicated"])
    def test_fixed_sigma_sets_only_the_selection_bandwidth(self, tmp_path, mode):
        from itdl.classify import code_test_signals
        from itdl.info_measures import ascent_bandwidth, mi_codes_labels

        train_csv, test_csv = write_data(tmp_path)
        out = tmp_path / "o"
        rc = main([
            "run-all", "--config", str(write_config(tmp_path, mode=mode)), "--train",
            str(train_csv), "--test", str(test_csv), "--out", str(out), "--sigma", "0.5",
        ])
        assert rc == 0
        train, test = load_csv(train_csv), load_csv(test_csv)
        d0 = sparse_coding.load_dictionary(out / "dict_initial.itdl")
        # selection: round 1 discrimination is the MI of the picked atom's codes at sigma
        codes = sparse_coding.omp_codes(d0, train.signals, 2)
        for entry in json.loads((out / "selection_report.json").read_text())["selections"]:
            c = entry["class"]
            labels = train.labels if c is None else (train.labels == c).astype(np.int64)
            first = entry["rounds"][0]
            want = mi_codes_labels(codes[[first["index"]]], labels, 0.5)
            assert first["gain_discrim"] == want
        # update: each ascent runs at the ascent bandwidth of its own initial codes
        sel_names = ["selection.csv"] if mode == "shared" else [
            f"selection_c{c}.csv" for c in range(3)
        ]
        updates = json.loads((out / "update_report.json").read_text())["updates"]
        assert len(updates) == len(sel_names)
        for u, name in zip(updates, sel_names):
            sel = sparse_coding.load_selection(out / name)
            initial = sparse_coding.pinv(d0.atoms[:, list(sel.indices)]) @ train.signals
            assert u["sigma"] == ascent_bandwidth(initial) != 0.5
        # evaluation: the MI estimate derives its bandwidth from the features
        names = ["dict_updated.itdl"] if mode == "shared" else [
            f"dict_updated_c{c}.itdl" for c in range(3)
        ]
        atoms = [(None if mode == "shared" else c, load_matrix(out / name))
                 for c, name in enumerate(names)]
        features, _ = code_test_signals(atoms, test.signals, mode == "shared")
        report = json.loads((out / "eval_report.json").read_text())
        assert report["mi_estimate"] == mi_codes_labels(features.T, test.labels)

    @pytest.mark.parametrize("mode", ["shared", "dedicated"])
    def test_sigma_leaves_a_run_without_discrimination_unchanged(self, tmp_path, mode):
        # no discrimination term, so no stage reads sigma
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path, mode=mode, ablation="compact,reconstructive")
        outs = [tmp_path / "auto", tmp_path / "fixed"]
        for out, extra in zip(outs, ([], ["--sigma", "0.001"])):
            assert main([
                "run-all", "--config", str(cfg), "--train", str(train_csv),
                "--test", str(test_csv), "--out", str(out), *extra,
            ]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "update_report.json" in names and "eval_report.json" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestNormalizeFlag:
    def test_normalized_signals_flow_through(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "norm"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out), "--normalize-signals", "1",
        ])
        assert rc == 0
        plain = tmp_path / "plain"
        assert main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(plain),
        ]) == 0
        a = json.loads((out / "eval_report.json").read_text())
        b = json.loads((plain / "eval_report.json").read_text())
        assert a["rmse"] != b["rmse"]


class TestPartialArtifacts:
    def test_failed_stage_keeps_earlier_artifacts(self, tmp_path, capsys, monkeypatch):
        train_csv, test_csv = write_data(tmp_path)
        # select and update succeed, then training the classifier fails
        def fail(*args, **kwargs):
            raise FloatingPointError("classifier diverged")

        monkeypatch.setattr(classify, "train_linear", fail)
        cfg = write_config(tmp_path)
        out = tmp_path / "partial"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out),
        ])
        assert rc == 1
        assert "evaluate" in capsys.readouterr().err
        assert (out / "dict_initial.itdl").exists()
        assert (out / "dict_updated.itdl").exists()
        assert not (out / "eval_report.json").exists()


def _failing_writer(tmp):
    tmp.write_bytes(b"partial")
    raise OSError("disk full")


class TestAtomicWriter:
    def test_raising_writer_leaves_target_absent(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(OSError, match="disk full"):
            _atomic(target, _failing_writer)
        assert list(tmp_path.iterdir()) == []

    def test_raising_writer_leaves_target_unchanged(self, tmp_path):
        target = tmp_path / "report.json"
        _atomic(target, lambda tmp: tmp.write_text("old"))
        with pytest.raises(OSError, match="disk full"):
            _atomic(target, _failing_writer)
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_stage_writer_looked_up_at_call_time(self, tmp_path, capsys, monkeypatch):
        # the stage calls the module's save_selection as bound when it runs,
        # and a failing write leaves neither the artifact nor a temp file
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setattr(sparse_coding, "save_selection", lambda sel, tmp: _failing_writer(tmp))
        rc = main(["select", "--config", str(cfg), "--train", str(train_csv), "--out", str(out)])
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["dict_initial.itdl"]


class TestAblationFlag:
    def test_compact_only_report_zeroes_other_terms(self, tmp_path):
        train_csv, test_csv = write_data(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "ab"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(test_csv), "--out", str(out), "--ablation", "compact",
        ])
        assert rc == 0
        report = json.loads((out / "selection_report.json").read_text())
        for entry in report["selections"]:
            for row in entry["rounds"]:
                assert row["weighted_discrim"] == 0.0
                assert row["weighted_recon"] == 0.0

    @pytest.mark.parametrize(
        "flags,built",
        [
            (["--ablation", "reconstructive", "--lambda3", "1"], False),
            (["--ablation", "reconstructive"], True),
            (["--ablation", "compact"], True),
        ],
        ids=["unscored-given", "unscored-estimated", "scored"],
    )
    def test_gp_model_built_only_when_compactness_scored(self, tmp_path, monkeypatch, flags, built):
        # auto weights score every term, compactness included
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path)
        calls = []

        def counted(atoms, rho=None):
            calls.append(rho)
            return build_gp_model(atoms, rho)

        monkeypatch.setattr(cli, "build_gp_model", counted)
        out = tmp_path / "out"
        rc = main(["select", "--config", str(cfg), "--train", str(train_csv), "--out", str(out), *flags])
        assert rc == 0
        assert len(calls) == int(built)


class TestUpdateBenefitPairedRun:
    def test_dedicated_update_beats_no_update(self, tmp_path):
        # paired runs differing only in the update iteration count
        ds = shared_style_dataset(16, 4, 60, seed=1)
        train, test = split(ds, 0.5, 78)
        save_csv(train, tmp_path / "train.csv")
        save_csv(test, tmp_path / "test.csv")
        common = [
            "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
            "--mode", "dedicated", "--atoms", "64", "--sparsity", "2",
            "--ksvd-iters", "1", "--seed", "7",
        ]
        assert main(["run-all", *common, "--out", str(tmp_path / "upd"), "--iters", "30"]) == 0
        assert main(["run-all", *common, "--out", str(tmp_path / "noupd"), "--iters", "0"]) == 0
        with_update = json.loads((tmp_path / "upd" / "eval_report.json").read_text())
        without = json.loads((tmp_path / "noupd" / "eval_report.json").read_text())
        assert with_update["accuracy"] > without["accuracy"]
