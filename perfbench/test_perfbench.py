"""Tests of the benchmark itself, at toy size (a few seconds in all)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import pipeline, run, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "perfbench.run", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def last_lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


@pytest.fixture(scope="module")
def untraced_runs():
    return {seed: last_lines(bench("toy-dedicated", seed, 0)) for seed in (1, 2)}


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, pipeline.run_one("toy-dedicated", 3, out, trace=True)


def test_benchmark_json_matches_emitted_metric_names():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "dedicated-select", "shared-ascent", "masked-ksvd"]
    assert all(w["name"] in WORKLOADS for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


def test_every_metric_is_emitted_with_its_unit(untraced_runs):
    _, result = untraced_runs[1]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    info, traced = last_lines(bench("toy-shared", 1, 1))
    assert traced["correct"] and info["env"]["blas_threads"] == 1
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == tracing.LAYER_METRICS
    assert traced["metrics"]["info_measures.mi_codes_labels_calls"]["value"] == 0


def test_other_seed_changes_inputs_but_not_metric_set(untraced_runs):
    (info1, res1), (info2, res2) = untraced_runs[1], untraced_runs[2]
    assert info1["input_digest"] != info2["input_digest"]
    assert res1["metrics"].keys() == res2["metrics"].keys()


def test_spans_nest_and_self_times_add_up(traced_pipeline):
    _, result = traced_pipeline
    spans = [tracing.Span(**{k: v for k, v in r.items() if k != "id"}) for r in result["spans"]]
    assert spans[0].name == tracing.ROOT and spans[0].parent == -1
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    leaf = sum(t for s in spans for _, t in s.leaf_calls.values())
    layer = result["layer"]
    assert sum(own) + leaf == pytest.approx(layer["trace.pipeline_s"], abs=1e-9)
    layers = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    assert layers == pytest.approx(layer["trace.pipeline_s"], abs=1e-9)
    assert layer["trace.pipeline_s"] == result["pipeline_s"]


def test_seed_independent_counts_repeat_exactly(traced_pipeline, tmp_path):
    wl = WORKLOADS["toy-dedicated"]
    K, T, p = wl.config["atoms"], wl.config["sparsity"], wl.p
    other = (tmp_path, pipeline.run_one("toy-dedicated", 4, tmp_path, trace=True))
    for out, result in (traced_pipeline, other):
        layer = result["layer"]
        assert layer["itds.duplicates_excluded"] == 0
        mi_calls = p * (K + sum(K - t for t in range(T)))
        assert layer["info_measures.mi_codes_labels_calls"] == mi_calls
        updates = json.loads((out / "artifacts" / "update_report.json").read_text())["updates"]
        accepted = sum(len(u["accepted_steps"]) for u in updates)
        # per update: the initial objective, every backtracking trial and
        # the recomputation after each accepted step
        evals = layer["itdu.objective_evals"]
        assert layer["info_measures.qmi_calls"] == len(updates) + evals + accepted
        assert layer["itdu.iterations"] == p * wl.config["iters"]


def test_output_check_rejects_a_decreasing_ascent_trace(traced_pipeline, tmp_path):
    out, result = traced_pipeline
    arts = tmp_path / "artifacts"
    shutil.copytree(out / "artifacts", arts)
    measured = {k: result[k] for k in ("masked_accuracy", "masked_rmse")}
    wl = WORKLOADS["toy-dedicated"]
    assert pipeline.check_outputs(wl, arts, measured)["digest"] == result["digest"]
    report = json.loads((arts / "update_report.json").read_text())
    report["updates"][0]["objective_trace"][-1] = -1.0
    (arts / "update_report.json").write_text(json.dumps(report))
    with pytest.raises(pipeline.CheckError, match="decreases"):
        pipeline.check_outputs(wl, arts, measured)


def test_reports_that_differ_within_a_run_count_as_failures():
    samples = [
        {"ok": True, "data_seed": 1000, "digest": "a"},
        {"ok": True, "data_seed": 1001, "digest": "b"},
        {"ok": False, "data_seed": 1002, "error": "boom"},
        {"ok": True, "data_seed": 1000, "digest": "c"},
    ]
    run.judge(samples)
    assert [s["ok"] for s in samples] == [True, True, False, False]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("dedicated-select", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
