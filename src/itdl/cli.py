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
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import classify, dataset, itds, itdu, sparse_coding
from .info_measures import build_gp_model, save_mi_trace

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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        for name in ("sigma", "sigma_r", "rho", "step"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        # tol 0 runs every ascent to iters
        for name in ("tol", "lambda2", "lambda3"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {v}")
        if not self.ablation or not self.ablation <= set(itds.TERMS):
            raise ConfigError(f"ablation must be a nonempty subset of {itds.TERMS}")
        return self


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


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
    # normalize_signals
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"normalize_signals must be 0 or 1, got {raw!r}")


def load_config(path) -> RunConfig:
    cfg = RunConfig()
    seen = {}
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not an ASCII text file") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in seen:
                raise ConfigError(
                    f"{path}:{lineno}: config key {key!r} already set on line {seen[key]}"
                )
            seen[key] = lineno
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
    return replace(ds, signals=sparse_coding.unit_columns(ds.signals))


def _class_paths(cfg: RunConfig, out: Path, p: int, name: str) -> list[tuple[int | None, Path]]:
    """The artifact ``name`` once in shared mode, or ``<stem>_c<class><suffix>`` per class."""
    if cfg.mode == "shared":
        return [(None, out / name)]
    stem, suffix = name.split(".")
    return [(c, out / f"{stem}_c{c}.{suffix}") for c in range(p)]


def stage_select(cfg: RunConfig, train: dataset.Dataset, out: Path) -> None:
    rng_seed = substream_seed(cfg.seed, "ksvd")
    d0 = sparse_coding.ksvd_init(
        train.signals, cfg.atoms, cfg.sparsity, cfg.ksvd_iters, rng_seed
    )
    _atomic(out / "dict_initial.itdl", lambda tmp: sparse_coding.save_matrix(d0.atoms, tmp))
    weights = None
    if cfg.lambda2 is not None or cfg.lambda3 is not None:
        weights = itds.SelectionWeights(
            lambda2=cfg.lambda2 if cfg.lambda2 is not None else 0.0,
            lambda3=cfg.lambda3 if cfg.lambda3 is not None else 0.0,
        )
    compact = itds.scores_compactness(cfg.ablation, weights)
    gp = build_gp_model(d0.atoms, rho=cfg.rho) if compact else None
    select = itds.select_shared if cfg.mode == "shared" else itds.select_dedicated
    results = select(
        d0,
        train.signals,
        train.labels,
        cfg.sparsity,
        cfg.ablation,
        weights,
        gp_model=gp,
        sigma_r=cfg.sigma_r,
        sigma=cfg.sigma,
    )
    if cfg.mode == "shared":
        results = [results]
    for (_, path), res in zip(_class_paths(cfg, out, train.p, "selection.csv"), results):
        _atomic(path, lambda tmp: sparse_coding.save_selection(res.selection, tmp))
    _write_json(out / "selection_report.json", itds.selection_report(results))


def stage_update(cfg: RunConfig, train: dataset.Dataset, out: Path) -> None:
    dict_path = out / "dict_initial.itdl"
    if not dict_path.exists():
        raise FileNotFoundError(f"missing dictionary artifact: {dict_path}")
    d0 = sparse_coding.load_dictionary(dict_path)
    selected = []
    for class_id, path in _class_paths(cfg, out, train.p, "selection.csv"):
        if not path.exists():
            raise FileNotFoundError(f"missing selection artifact: {path}")
        sel = sparse_coding.load_selection(path)
        if len(sel) != cfg.sparsity or max(sel.indices) >= d0.K:
            raise ValueError(
                f"{path}: expected {cfg.sparsity} atom indices below {d0.K}, got {list(sel.indices)}"
            )
        selected.append((class_id, d0.atoms[:, list(sel.indices)]))
    results = itdu.update_all_classes(
        selected,
        train.signals,
        train.labels,
        step=cfg.step,
        max_iters=cfg.iters,
        tol=cfg.tol,
    )
    for (_, path), (_, trace), res in zip(
        _class_paths(cfg, out, train.p, "dict_updated.itdl"),
        _class_paths(cfg, out, train.p, "update_trace.csv"),
        results,
    ):
        _atomic(path, lambda tmp: sparse_coding.save_matrix(res.atoms, tmp))
        _atomic(trace, lambda tmp: save_mi_trace(res.state.objective_trace, tmp))
    _write_json(out / "update_report.json", itdu.update_report(results))


def stage_evaluate(
    cfg: RunConfig, train: dataset.Dataset, test: dataset.Dataset, out: Path
) -> None:
    atoms_by_class = []
    for class_id, path in _class_paths(cfg, out, train.p, "dict_updated.itdl"):
        if not path.exists():
            raise FileNotFoundError(f"missing updated dictionary artifact: {path}")
        atoms = sparse_coding.load_dictionary(path).atoms
        if atoms.shape != (train.n, cfg.sparsity):
            raise ValueError(
                f"{path}: expected {train.n} x {cfg.sparsity} atoms "
                f"(signal dimension x sparsity), got {atoms.shape[0]} x {atoms.shape[1]}"
            )
        atoms_by_class.append((class_id, atoms))
    features, _ = classify.code_test_signals(atoms_by_class, train.signals, cfg.mode == "shared")
    model = classify.train_linear(features, train.labels)
    weights = model.weights.T
    _atomic(out / "model_weights.itdl", lambda tmp: sparse_coding.save_matrix(weights, tmp))
    bias = ",".join(repr(float(v)) for v in model.bias) + "\n"
    _atomic(out / "model_bias.csv", lambda tmp: tmp.write_text(bias, encoding="ascii"))
    report = classify.evaluate(model, atoms_by_class, test)
    _write_json(out / "eval_report.json", asdict(report))


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


def _add_io_flags(parser: argparse.ArgumentParser, test=False) -> None:
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
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    try:
        ds = dataset.synth_gaussian_classes(
            args.dim, args.classes, args.per_class, args.spread, args.seed
        )
        train, test = dataset.split(
            ds, args.train_fraction, substream_seed(args.seed, "split")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train.csv", train), ("test.csv", test)):
        _atomic(out / name, lambda tmp: dataset.save_csv(part, tmp))
    print(f"wrote {out / 'train.csv'} ({train.size} samples) and {out / 'test.csv'} ({test.size})")
    return 0


def _check_test_file(args: argparse.Namespace, train: dataset.Dataset, test: dataset.Dataset) -> None:
    """The test file must hold the training file's labels and signal dimension."""
    # each file maps its own labels to 0..p-1, so both need the same labels
    only = sorted(set(train.label_values) ^ set(test.label_values))
    if only:
        has, lacks = (args.train, args.test)
        if only[0] in test.label_values:
            has, lacks = lacks, has
        raise ValueError(f"label {only[0]} is in {has} but not in {lacks}")
    dim, test_dim = train.signals.shape[0], test.signals.shape[0]
    if test_dim != dim:
        raise ValueError(
            f"{args.test} holds {test_dim}-dimensional signals, "
            f"but {args.train} holds {dim}-dimensional ones"
        )


def _check_sizes(args: argparse.Namespace, cfg: RunConfig, train: dataset.Dataset) -> None:
    """K-SVD needs sparsity <= the signal dimension and atoms <= the training signals."""
    if cfg.sparsity > train.n:
        raise ValueError(
            f"sparsity {cfg.sparsity} exceeds the signal dimension {train.n} of {args.train}"
        )
    if cfg.atoms > train.size:
        raise ValueError(
            f"atoms {cfg.atoms} exceeds the {train.size} training signals of {args.train}"
        )


def _run_stages(args: argparse.Namespace, stages: list[str]) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    # every input is loaded and checked before any stage writes to out
    try:
        train = _load_dataset(args.train, cfg.normalize_signals)
        _check_sizes(args, cfg, train)
        test = None
        if getattr(args, "test", None):
            test = _load_dataset(args.test, cfg.normalize_signals)
            _check_test_file(args, train, test)
    except Exception as exc:
        print(f"error: stage load failed: {exc}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
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
        run_all = args.command == "run-all"
        return _run_stages(args, ["select", "update", "evaluate"] if run_all else [args.command])
    except ConfigError as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
