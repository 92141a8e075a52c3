"""Golden artifacts: show that a change leaves every pipeline artifact identical.

Usage (from any directory):

    python3 experiments/golden.py write DIR [--workloads NAME ...] [--seeds N ...] [--no-large]
    python3 experiments/golden.py compare A B

``write`` runs ``perfbench.pipeline.run_one`` for each workload and data
seed (by default the benchmark's three workloads on data seeds
1001-1006) into ``DIR/<workload>-<seed>/``, and the large N=1000
configuration through ``cli.main`` into ``DIR/large-n1000/``: ``itdl
synth --dim 64 --classes 8 --per-class 250 --spread 0.5 --seed 7``, then
``run-all`` in dedicated mode with K=256, T=6, 5 K-SVD sweeps, 20 ascent
iterations and seed 1. It keeps every input and artifact and writes
``DIR/golden.json``: the sha256 of each file, and the masked-pixel
experiment's ``masked_accuracy`` and ``masked_rmse`` of each run. It
reads no timing, so two writes on one host are byte-identical. DIR must
be empty or absent.

``compare`` prints each file of two written directories that differs or
exists on one side only and, for a JSON file, the largest relative
change among its numeric fields. It exits 0 when every file is
identical, else 1. To check a change, write DIR from a checkout of the
parent commit and from the change, then compare the two.

BLAS is pinned to one thread, as the benchmark pins its pipelines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402  (stdlib only: numpy is not loaded yet)

os.environ.update(run.child_env())

WORKLOADS = ("dedicated-select", "shared-ascent", "masked-ksvd")
SEEDS = tuple(range(1001, 1007))
LARGE = "large-n1000"
SYNTH = ["--dim", "64", "--classes", "8", "--per-class", "250", "--spread", "0.5", "--seed", "7"]
RUN_ALL = ["--mode", "dedicated", "--atoms", "256", "--sparsity", "6", "--ksvd-iters", "5",
           "--iters", "20", "--seed", "1"]
RECORD = "golden.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(top: Path) -> dict[str, Path]:
    """Every file under top by its POSIX path relative to top."""
    return {p.relative_to(top).as_posix(): p for p in sorted(top.rglob("*")) if p.is_file()}


def write(out: Path, workloads, seeds, large: bool) -> None:
    from perfbench import pipeline

    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    pipeline.load_program()
    masked = {}
    for name in workloads:
        for seed in seeds:
            result = pipeline.run_one(name, seed, out / f"{name}-{seed}")
            masked[f"{name}-{seed}"] = {k: result[k] for k in ("masked_accuracy", "masked_rmse")}
    if large:
        from itdl import cli

        data, art = out / LARGE / "data", out / LARGE / "artifacts"
        steps = (["synth", "--out", str(data), *SYNTH],
                 ["run-all", "--train", str(data / "train.csv"), "--test",
                  str(data / "test.csv"), "--out", str(art), *RUN_ALL])
        for argv in steps:
            if cli.main(argv) != 0:
                raise SystemExit(f"error: itdl {argv[0]} failed")
    files = {rel: _sha256(path) for rel, path in _files(out).items()}
    record = {"files": files, "masked": masked}
    (out / RECORD).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")


def _numbers(obj, at=""):
    """(path, value) of every int or float field of a parsed JSON document."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield at, float(obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(value, f"{at}.{key}" if at else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _numbers(value, f"{at}[{i}]")


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def json_change(a: Path, b: Path) -> str:
    """One line on how the numeric fields of two JSON files differ."""
    try:
        na, nb = (dict(_numbers(json.loads(p.read_text(encoding="utf-8")))) for p in (a, b))
    except ValueError as exc:
        return f"not comparable as JSON ({exc})"
    common = sorted(set(na) & set(nb))
    changes = [(_relative_change(na[k], nb[k]), k) for k in common]
    changed = [c for c in changes if c[0] > 0]
    line = f"{len(changed)} of {len(common)} numeric fields changed"
    if changed:
        rel, field = max(changed)
        line += f", the largest by a relative {rel:.3g} at {field} ({na[field]!r} -> {nb[field]!r})"
    one_side = len(set(na) ^ set(nb))
    if one_side:
        line += f"; {one_side} numeric fields exist on one side only"
    return line


def compare(a: Path, b: Path) -> int:
    fa, fb = _files(a), _files(b)
    if not fa or not fb:
        raise SystemExit(f"error: {a if not fa else b} holds no files")
    differ = 0
    for rel in sorted(set(fa) | set(fb)):
        if rel not in fb or rel not in fa:
            print(f"only in {a if rel in fa else b}: {rel}")
        elif fa[rel].read_bytes() == fb[rel].read_bytes():
            continue
        else:
            detail = f": {json_change(fa[rel], fb[rel])}" if rel.endswith(".json") else ""
            print(f"differs: {rel}{detail}")
        differ += 1
    if differ:
        print(f"{differ} of {len(set(fa) | set(fb))} files differ")
        return 1
    print(f"all {len(fa)} files identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="run the pipelines and record their artifacts")
    w.add_argument("dir", type=Path)
    w.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=sorted(run.WORKLOADS))
    w.add_argument("--seeds", nargs="+", type=int, default=SEEDS)
    w.add_argument("--no-large", dest="large", action="store_false",
                   help="skip the large N=1000 configuration")
    c = sub.add_parser("compare", help="compare two written directories")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.dir, args.workloads, args.seeds, args.large)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
