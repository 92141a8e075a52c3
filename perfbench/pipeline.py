"""One pipeline run of one workload, in a child process of ``perfbench.run``.

Usage: python3 -m perfbench.pipeline --workload NAME --seed N --out DIR
       [--trace 1 --spans FILE]

Set-up (imports, data synthesis, CSV and config writing) is timed first.
Then the timed pipeline drives the package only through its public entry
points: ``cli.main(["run-all", ...])`` on the written CSVs and config
file, then the masked-pixel experiment (``dataset.mask_pixels`` and
``classify.reconstruct_masked``) on the written dictionaries. The outputs
are checked, and one JSON line with the measurements is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from perfbench.workloads import MISSING_FRACTION, SPREAD, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent


class CheckError(RuntimeError):
    """The program's outputs failed the benchmark's output check."""


def load_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import itdl

    if Path(itdl.__file__).resolve().parent != src / "itdl":
        raise ImportError(f"itdl imported from {itdl.__file__}, not from {src}")
    return itdl


def write_inputs(workload: Workload, seed: int, out: Path) -> dict:
    """Synthesize the workload's data from the seed; write CSVs and config."""
    from itdl import dataset

    out.mkdir(parents=True, exist_ok=True)
    ds = dataset.synth_gaussian_classes(workload.n, workload.p, workload.per_class, SPREAD, seed)
    train, test = dataset.split(ds, workload.train_fraction, seed + 1)
    paths = {"train": out / "train.csv", "test": out / "test.csv", "config": out / "config.txt"}
    dataset.save_csv(train, paths["train"])
    dataset.save_csv(test, paths["test"])
    lines = [f"{key}={value}" for key, value in workload.config.items()] + [f"seed={seed}"]
    paths["config"].write_text("\n".join(lines) + "\n", encoding="ascii")
    digest = hashlib.sha256()
    for key in ("train", "test", "config"):
        digest.update(paths[key].read_bytes())
    return {"paths": paths, "input_digest": digest.hexdigest()}


def masked_experiment(workload: Workload, test_csv: Path, out: Path, seed: int) -> dict:
    """Classify and reconstruct the test set with half of each signal's pixels missing.

    Dedicated dictionaries classify by the smallest observed-entry residual
    (``reconstruct_masked``). A shared dictionary has no per-class
    residual, so its reconstructions are coded and classified by the
    trained linear model.
    """
    import numpy as np

    from itdl import classify, dataset, sparse_coding

    test = dataset.load_csv(test_csv)
    masked, mask = dataset.mask_pixels(test, MISSING_FRACTION, seed + 2)
    shared = workload.config["mode"] == "shared"
    if shared:
        atoms_by_class = [(0, sparse_coding.load_matrix(out / "dict_updated.itdl"))]
    else:
        atoms_by_class = [
            (c, sparse_coding.load_matrix(out / f"dict_updated_c{c}.itdl"))
            for c in range(workload.p)
        ]
    recon, pred = classify.reconstruct_masked(atoms_by_class, masked, mask)
    if shared:
        bias = (out / "model_bias.csv").read_text(encoding="ascii").strip().split(",")
        model = classify.LinearModel(
            weights=sparse_coding.load_matrix(out / "model_weights.itdl").T,
            bias=np.array([float(b) for b in bias]),
        )
        features, _ = classify.code_test_signals([(None, atoms_by_class[0][1])], recon, True)
        pred = classify.predict(model, features)
    return {
        "masked_accuracy": float(np.mean(pred == test.labels)),
        "masked_rmse": sparse_coding.rmse(test.signals, recon),
    }


def run_pipeline(workload: Workload, paths: dict, out: Path, seed: int, tracer=None) -> dict:
    """The timed region: ``run-all`` plus the masked experiment."""
    from itdl import cli

    argv = ["run-all", "--config", str(paths["config"]), "--train", str(paths["train"])]
    argv += ["--test", str(paths["test"]), "--out", str(out)]
    t0 = time.perf_counter()
    with tracer.span("bench.pipeline") if tracer else nullcontext():
        status = cli.main(argv)
        if status != 0:
            raise CheckError(f"cli.main exited with status {status}")
        result = masked_experiment(workload, paths["test"], out, seed)
    result["pipeline_s"] = time.perf_counter() - t0
    if tracer:
        root = tracer.spans[0]
        result["pipeline_s"] = root.end - root.start
    return result


def _numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    else:
        for value in obj:
            yield from _numbers(value)


def check_outputs(workload: Workload, out: Path, measured: dict) -> dict:
    """Check the written reports; return them with the result digest.

    Raises CheckError on a non-finite value, an accuracy outside [0, 1], a
    selection without exactly T distinct in-range indices, or a decreasing
    ascent objective trace.
    """
    raw = {
        name: (out / f"{name}_report.json").read_bytes()
        for name in ("selection", "update", "eval")
    }
    reports = {name: json.loads(data) for name, data in raw.items()}
    for name, report in list(reports.items()) + [("masked experiment", measured)]:
        if not all(math.isfinite(v) for v in _numbers(report)):
            raise CheckError(f"{name} report holds a non-finite value")
    for key, value in (
        ("accuracy", reports["eval"]["accuracy"]),
        ("masked_accuracy", measured["masked_accuracy"]),
    ):
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"{key} {value} outside [0, 1]")
    T, K = workload.config["sparsity"], workload.config["atoms"]
    expected = 1 if workload.config["mode"] == "shared" else workload.p
    selections = reports["selection"]["selections"]
    if len(selections) != expected:
        raise CheckError(f"{len(selections)} selections, expected {expected}")
    for entry in selections:
        idx = entry["indices"]
        if len(idx) != T or len(set(idx)) != T or not all(0 <= i < K for i in idx):
            raise CheckError(f"class {entry['class']}: selection {idx} is not {T} distinct atoms")
    for entry in reports["update"]["updates"]:
        trace = entry["objective_trace"]
        if any(b < a for a, b in zip(trace, trace[1:])):
            raise CheckError(f"class {entry['class']}: ascent objective trace decreases")
    digest = hashlib.sha256(raw["selection"] + raw["eval"]).hexdigest()
    return {"reports": reports, "digest": digest}


def environment() -> dict:
    import numpy as np

    from itdl import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
    }


def run_one(name: str, seed: int, out: Path, trace: bool = False, run_id: int = 0) -> dict:
    """Set up, run, check and (when tracing) derive layer metrics for one pipeline.

    Returns the measurements; with ``trace`` also the spans and layer
    metrics. Raises on any failure of the pipeline or of its output check.
    """
    t0 = time.perf_counter()
    load_program()
    workload = WORKLOADS[name]
    inputs = write_inputs(workload, seed, out / "inputs")
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from perfbench import tracing

        tracer = tracing.Tracer(run_id)
        tracing.instrument(tracer)
    try:
        measured = run_pipeline(workload, inputs["paths"], out / "artifacts", seed, tracer)
    finally:
        if tracer:
            tracer.restore()
    checked = check_outputs(workload, out / "artifacts", measured)
    ev = checked["reports"]["eval"]
    result = {
        "setup_s": setup_s,
        **measured,
        "accuracy": ev["accuracy"],
        "rmse": ev["rmse"],
        "digest": checked["digest"],
        "input_digest": inputs["input_digest"],
        "env": environment(),
    }
    if tracer:
        result["layer"] = tracing.layer_metrics(
            tracer.spans, checked["reports"]["selection"], checked["reports"]["update"]
        )
        result["spans"] = tracer.to_records()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for inputs and artifacts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans", help="file the traced run's spans are written to")
    args = parser.parse_args(argv)
    try:
        result = run_one(args.workload, args.seed, Path(args.out), bool(args.trace), args.run_id)
    except Exception as exc:  # boundary: report the failure as a result
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        return 1
    spans = result.pop("spans", None)
    if spans is not None and args.spans:
        with open(args.spans, "a", encoding="ascii") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ok": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
