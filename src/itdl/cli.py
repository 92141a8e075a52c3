"""Command-line experiment runner.

Wires dataset loading, K-SVD initialization, greedy atom selection,
gradient-ascent atom update, classifier training and evaluation into
reproducible runs. Configuration is a flat key=value file; every key has
a same-named CLI flag that overrides it. All randomness flows from the
single mandatory seed through named substreams, and every artifact is
written to a temporary name and renamed on completion.

Exit codes: 0 success, 1 runtime/numeric failure (stage named on stderr),
2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classify, dataset, itds, itdu, sparse_coding
from .info_measures import KdeConfig, ResidualModel, build_gp_model, save_mi_trace

CONFIG_KEYS = (
    "mode",
    "atoms",
    "sparsity",
    "ksvd_iters",
    "sigma",
    "sigma_r",
    "rho",
    "step",
    "iters",
    "tol",
    "seed",
    "ablation",
    "lambda2",
    "lambda3",
    "normalize_signals",
)


class ConfigError(ValueError):
    """Invalid configuration: maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    mode: str = "shared"
    atoms: int = 64
    sparsity: int = 4
    ksvd_iters: int = 10
    sigma: float | None = None
    sigma_r: float | None = None
    rho: float | None = None
    step: float | None = None
    iters: int = 100
    tol: float = 1e-6
    seed: int | None = None
    ablation: frozenset = frozenset(itds.TERMS)
    lambda2: float | None = None
    lambda3: float | None = None
    normalize_signals: bool = False

    def validate(self) -> "RunConfig":
        if self.mode not in ("shared", "dedicated"):
            raise ConfigError("mode must be 'shared' or 'dedicated'")
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if self.sparsity >= self.atoms:
            raise ConfigError(
                f"sparsity ({self.sparsity}) must be smaller than atoms ({self.atoms})"
            )
        if self.sparsity < 1 or self.atoms < 2:
            raise ConfigError("need sparsity >= 1 and atoms >= 2")
        if self.ksvd_iters < 1:
            raise ConfigError("ksvd_iters must be at least 1")
        if self.iters < 0:
            raise ConfigError("iters must be non-negative")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        for name in ("sigma", "sigma_r", "rho", "step"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"{name} must be positive or 'auto'")
        if not self.ablation or not self.ablation <= set(itds.TERMS):
            raise ConfigError(f"ablation must be a nonempty subset of {itds.TERMS}")
        return self


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "mode":
        return raw
    if key in ("atoms", "sparsity", "ksvd_iters", "iters", "seed"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if key in ("sigma", "sigma_r", "rho", "step", "lambda2", "lambda3"):
        if raw.lower() == "auto":
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a number or 'auto', got {raw!r}") from None
    if key == "tol":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"tol must be a number, got {raw!r}") from None
    if key == "ablation":
        if raw.lower() in ("all", ""):
            return frozenset(itds.TERMS)
        terms = frozenset(tok.strip() for tok in raw.split(",") if tok.strip())
        return terms
    if key == "normalize_signals":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"normalize_signals must be 0 or 1, got {raw!r}")
    raise ConfigError(f"unknown config key {key!r}")


def load_config(path) -> RunConfig:
    cfg = RunConfig()
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg = replace(cfg, **{key: _parse_value(key, raw)})
    return cfg


def substream_seed(seed: int, name: str) -> int:
    """Stable per-stage child seed derived from the master seed."""
    digest = hashlib.sha256(name.encode("ascii")).digest()
    child = np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little")])
    return int(child.generate_state(1, dtype=np.uint64)[0])


def _atomic(path: Path, write) -> None:
    """Call ``write(tmp)`` on a sibling temporary name, then rename it to
    ``path``: the artifact is either fully written or left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _atomic(path, lambda tmp: tmp.write_text(text, encoding="ascii"))


def _load_dataset(path, normalize: bool) -> dataset.Dataset:
    ds = dataset.load_csv(path)
    if not normalize:
        return ds
    norms = np.linalg.norm(ds.signals, axis=0)
    signals = ds.signals / np.where(norms > 0, norms, 1.0)
    return dataset.Dataset(
        signals=signals, labels=ds.labels, p=ds.p, class_counts=ds.class_counts
    )


def _selection_paths(cfg: RunConfig, out: Path, p: int) -> list[tuple[int | None, Path]]:
    if cfg.mode == "shared":
        return [(None, out / "selection.csv")]
    return [(c, out / f"selection_c{c}.csv") for c in range(p)]


def _updated_dict_paths(cfg: RunConfig, out: Path, p: int) -> list[tuple[int | None, Path]]:
    if cfg.mode == "shared":
        return [(None, out / "dict_updated.itdl")]
    return [(c, out / f"dict_updated_c{c}.itdl") for c in range(p)]


def stage_select(cfg: RunConfig, train: dataset.Dataset, out: Path) -> None:
    rng_seed = substream_seed(cfg.seed, "ksvd")
    d0 = sparse_coding.ksvd_init(
        train.signals, cfg.atoms, cfg.sparsity, cfg.ksvd_iters, rng_seed
    )
    _atomic(out / "dict_initial.itdl", lambda tmp: sparse_coding.save_matrix(d0.atoms, tmp))
    codes0 = sparse_coding.omp_codes(d0, train.signals, cfg.sparsity)
    gp = build_gp_model(d0.atoms, rho=cfg.rho)
    kde_cfg = KdeConfig(cfg.sigma)
    mode = itds.SelectionMode(variant=cfg.mode, ablation=cfg.ablation)
    override = None
    if cfg.lambda2 is not None or cfg.lambda3 is not None:
        override = itds.SelectionWeights(
            lambda1=1.0,
            lambda2=cfg.lambda2 if cfg.lambda2 is not None else 0.0,
            lambda3=cfg.lambda3 if cfg.lambda3 is not None else 0.0,
        )
    if cfg.mode == "shared":
        res_model = (
            ResidualModel(cfg.sigma_r)
            if cfg.sigma_r is not None
            else ResidualModel.from_signals(train.signals)
        )
        weights = override or itds.estimate_lambdas(
            d0, codes0, train.labels, train.signals, gp, res_model, kde_cfg
        )
        results = [
            itds.select_shared(
                d0,
                train.signals,
                train.labels,
                cfg.sparsity,
                mode,
                weights,
                initial_codes=codes0,
                gp_model=gp,
                residual_model=res_model,
                kde_cfg=kde_cfg,
            )
        ]
    else:
        res_model = ResidualModel(cfg.sigma_r) if cfg.sigma_r is not None else None
        weights_per_class = [override] * train.p if override is not None else None
        results = itds.select_dedicated(
            d0,
            train.signals,
            train.labels,
            cfg.sparsity,
            mode,
            weights_per_class,
            initial_codes=codes0,
            gp_model=gp,
            residual_model=res_model,
            kde_cfg=kde_cfg,
        )
    for (_, path), res in zip(_selection_paths(cfg, out, train.p), results):
        _atomic(path, lambda tmp: sparse_coding.save_selection(res.selection, tmp))
    _write_json(out / "selection_report.json", itds.selection_report(results))


def stage_update(cfg: RunConfig, train: dataset.Dataset, out: Path) -> None:
    dict_path = out / "dict_initial.itdl"
    if not dict_path.exists():
        raise FileNotFoundError(f"missing dictionary artifact: {dict_path}")
    d0 = sparse_coding.load_dictionary(dict_path)
    selected = []
    for class_id, path in _selection_paths(cfg, out, train.p):
        if not path.exists():
            raise FileNotFoundError(f"missing selection artifact: {path}")
        sel = sparse_coding.load_selection(path)
        selected.append((class_id, d0.atoms[:, list(sel.indices)]))
    results = itdu.update_all_classes(
        selected,
        train.signals,
        train.labels,
        shared=cfg.mode == "shared",
        step=cfg.step,
        max_iters=cfg.iters,
        tol=cfg.tol,
        kde_cfg=None if cfg.sigma is None else KdeConfig(cfg.sigma),
    )
    for (class_id, path), res in zip(_updated_dict_paths(cfg, out, train.p), results):
        _atomic(path, lambda tmp: sparse_coding.save_matrix(res.atoms, tmp))
        suffix = "" if class_id is None else f"_c{class_id}"
        _atomic(out / f"update_trace{suffix}.csv", lambda tmp: save_mi_trace(res.state.trace, tmp))
    _write_json(out / "update_report.json", itdu.update_report(results))


def stage_evaluate(
    cfg: RunConfig, train: dataset.Dataset, test: dataset.Dataset, out: Path
) -> None:
    atoms_by_class = []
    for class_id, path in _updated_dict_paths(cfg, out, train.p):
        if not path.exists():
            raise FileNotFoundError(f"missing updated dictionary artifact: {path}")
        atoms_by_class.append((class_id, sparse_coding.load_matrix(path)))
    shared = cfg.mode == "shared"
    features, _ = classify.code_test_signals(atoms_by_class, train.signals, shared)
    model = classify.train_linear(
        features, train.labels, seed=substream_seed(cfg.seed, "sgd")
    )
    weights = model.weights.T
    _atomic(out / "model_weights.itdl", lambda tmp: sparse_coding.save_matrix(weights, tmp))
    bias = ",".join(repr(float(v)) for v in model.bias) + "\n"
    _atomic(out / "model_bias.csv", lambda tmp: tmp.write_text(bias, encoding="ascii"))
    report = classify.evaluate(
        model, atoms_by_class, test, shared=shared, kde_cfg=KdeConfig(cfg.sigma)
    )
    _write_json(out / "eval_report.json", report.to_dict())


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for key in CONFIG_KEYS:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg = replace(cfg, **{key: _parse_value(key, raw)})
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _apply_overrides(cfg, args).validate()


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _add_io_flags(parser: argparse.ArgumentParser, train=True, test=False) -> None:
    if train:
        parser.add_argument("--train", required=True, help="training dataset CSV")
    if test:
        parser.add_argument("--test", required=True, help="test dataset CSV")
    parser.add_argument("--out", required=True, help="artifact output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itdl",
        description="Information-theoretic dictionary learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic class-blob dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--dim", type=int, default=16)
    synth.add_argument("--classes", type=int, default=4)
    synth.add_argument("--per-class", type=int, default=60)
    synth.add_argument("--spread", type=float, default=0.3)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--train-fraction", type=float, default=0.5)

    for name, needs_test in (
        ("run-all", True),
        ("select", False),
        ("update", False),
        ("evaluate", True),
    ):
        cmd = sub.add_parser(name)
        _add_config_flags(cmd)
        _add_io_flags(cmd, test=needs_test)
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = dataset.synth_gaussian_classes(
        args.dim, args.classes, args.per_class, args.spread, args.seed
    )
    train, test = dataset.split(
        ds, args.train_fraction, substream_seed(args.seed, "split")
    )
    for name, part in (("train.csv", train), ("test.csv", test)):
        _atomic(out / name, lambda tmp: dataset.save_csv(part, tmp))
    print(f"wrote {out / 'train.csv'} ({train.size} samples) and {out / 'test.csv'} ({test.size})")
    return 0


def _run_stages(args: argparse.Namespace, stages: list[str]) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        train = _load_dataset(args.train, cfg.normalize_signals)
        test = None
        if getattr(args, "test", None):
            test = _load_dataset(args.test, cfg.normalize_signals)
    except Exception as exc:
        print(f"error: stage load failed: {exc}", file=sys.stderr)
        return 1
    for stage in stages:
        try:
            if stage == "select":
                stage_select(cfg, train, out)
            elif stage == "update":
                stage_update(cfg, train, out)
            elif stage == "evaluate":
                stage_evaluate(cfg, train, test, out)
        except Exception as exc:
            print(f"error: stage {stage} failed: {exc}", file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "run-all":
            return _run_stages(args, ["select", "update", "evaluate"])
        if args.command == "select":
            return _run_stages(args, ["select"])
        if args.command == "update":
            return _run_stages(args, ["update"])
        if args.command == "evaluate":
            return _run_stages(args, ["evaluate"])
    except ConfigError as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
