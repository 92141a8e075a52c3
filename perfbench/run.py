"""Layered pipeline benchmark of itdl.

Usage (from the repository root):

    python3 -m perfbench.run --workload dedicated-select --seed 1 --seconds 30 --trace 0

Closed loop: one pipeline after another, each in a fresh child process,
until ``--seconds`` have passed (at least ``MIN_PIPELINES``). Pipeline i
of a run gets its own data set, made from ``data_seed(seed, i)``: the
learned model, and so the accuracy, varies between data sets by more
than any regression bound, and a median over several of them is steady.
To check that results repeat, the untraced run ends by running the first
data set again; in a traced run, untraced and traced pipelines alternate
on the same data set. Both copies must write identical selection and
evaluation reports.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics plus the tracing
overhead. The line before it records the environment and result digest.
The full record goes to ``perfbench/_work/results/``, spans included.

This process imports neither numpy nor the package, and pins the BLAS
thread count of its children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"
BLAS_THREADS = 1
MIN_PIPELINES = {False: 3, True: 4}
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "frac",
    "rmse": "1",
    "masked_accuracy": "frac",
    "masked_rmse": "1",
    "success_rate": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload: str, seed: int, out: Path, traced: bool, run_id: int,
              spans: Path, timeout: float) -> dict:
    """One pipeline in a child process; its parsed result line."""
    cmd = [sys.executable, "-m", "perfbench.pipeline", "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(traced)),
           "--run-id", str(run_id), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"pipeline exceeded {timeout:.0f} s", "traced": traced,
                "data_seed": seed}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "error": f"no result line (exit {proc.returncode})"}
    if not result.get("ok"):
        sys.stderr.write(proc.stderr)
    result["traced"] = traced
    result["data_seed"] = seed
    return result


def median(values) -> float:
    return float(statistics.median(values))


def data_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def judge(samples: list[dict]) -> None:
    """Fail every pipeline whose reports differ from the first good one of its data seed."""
    first: dict[int, str] = {}
    for s in samples:
        if not s["ok"]:
            continue
        expected = first.setdefault(s["data_seed"], s["digest"])
        if s["digest"] != expected:
            s["ok"] = False
            s["error"] = f"data seed {s['data_seed']}: reports differ between identical runs"


def summarize(samples: list[dict], trace: bool) -> dict:
    """Metric values of a judged run: medians over the pipelines that passed."""
    plain = [s for s in samples if s["ok"] and not s["traced"]]
    if not trace:
        values = {k: median(s[k] for s in plain) for k in END_TO_END if k != "success_rate"}
        values["success_rate"] = sum(s["ok"] for s in samples) / len(samples)
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    from perfbench.tracing import LAYER_METRICS

    traced = [s["layer"] for s in samples if s["ok"] and s["traced"]]
    values = {k: median(t[k] for t in traced) for k in LAYER_METRICS if k != "trace.overhead_s"}
    values["trace.overhead_s"] = values["trace.pipeline_s"] - median(s["pipeline_s"] for s in plain)
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}


def reference_digest(workload: str, seed: int, digest: str) -> str:
    """Compare with the digest recorded for this workload and seed, if any."""
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digest else "differs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "itdl" / "__init__.py").is_file():
        print(f"error: no itdl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    label = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    run_dir = WORK / f"{label}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = results / f"{label}.spans.jsonl"
    spans.unlink(missing_ok=True)

    samples: list[dict] = []
    start = time.monotonic()

    def pipeline(i: int, traced: bool) -> bool:
        left = RUN_LIMIT_S - (time.monotonic() - start)
        if left <= 0:
            return False
        n = len(samples)
        samples.append(run_child(args.workload, data_seed(args.seed, i), run_dir / f"p{n}",
                                 traced, n, spans, left))
        return samples[-1]["ok"] or "exceeded" not in samples[-1]["error"]

    try:
        while len(samples) < MIN_PIPELINES[trace] or time.monotonic() - start < args.seconds:
            i = len(samples)
            if not pipeline(i // 2 if trace else i, trace and i % 2 == 1):
                break
        if not trace:
            pipeline(0, False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    judge(samples)
    good = [s for s in samples if s["ok"]]
    if not any(not s["traced"] for s in good) or (trace and all(not s["traced"] for s in good)):
        print(f"error: no complete pipeline of each kind in {len(samples)} attempts",
              file=sys.stderr)
        return 1
    metrics = summarize(samples, trace)
    failures = [s["error"] for s in samples if not s["ok"]]
    info = {
        "env": {
            **good[0]["env"],
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(trace),
        },
        "input_digest": good[0]["input_digest"],
        "digest": good[0]["digest"],
        "digest_reference": reference_digest(args.workload, args.seed, good[0]["digest"]),
        "failures": failures,
    }
    record = {**info, "metrics": metrics, "samples": samples}
    (results / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
