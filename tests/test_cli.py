import json

import numpy as np
import pytest

from helpers import shared_style_dataset
from itdl import sparse_coding
from itdl.cli import ConfigError, RunConfig, _atomic, load_config, main, substream_seed
from itdl.dataset import load_csv, save_csv, split
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

    def test_update_without_selection_exit_1(self, tmp_path, capsys):
        train_csv, _ = write_data(tmp_path)
        cfg = write_config(tmp_path)
        rc = main(["update", "--config", str(cfg), "--train", str(train_csv), "--out", str(tmp_path / "empty")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "artifact" in err and "update" in err

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
    def test_failed_stage_keeps_earlier_artifacts(self, tmp_path, capsys):
        train_csv, _ = write_data(tmp_path)
        # dimension-mismatched test set: select and update succeed, evaluate fails
        bad_test = tmp_path / "bad.csv"
        bad_test.write_text("0,1.0,2.0\n1,2.0,1.0\n")
        cfg = write_config(tmp_path)
        out = tmp_path / "partial"
        rc = main([
            "run-all", "--config", str(cfg), "--train", str(train_csv),
            "--test", str(bad_test), "--out", str(out),
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
