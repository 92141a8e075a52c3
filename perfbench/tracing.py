"""Spans around the package's public functions, recorded from outside.

The benchmark does not change the program: ``instrument`` replaces the
module bindings through which the package calls its own public functions
(``itds.mi_codes_labels``, ``info_measures.class_kernel_sums``, the
``pinv`` binding of each module, ...) by wrappers that open a span, call
the original and close the span. Spans live in memory and are written out
when the pipeline ends. ``pinv`` fires tens of thousands of times inside
OMP, so it is aggregated into a call count and a time on the enclosing
span instead of getting spans of its own.

A span's self time is its duration minus the durations of its child
spans and of the aggregated leaf calls made under it. Calls are
sequential in one thread, so children never overlap and the self times of
all spans plus the leaf times add up to the root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

ROOT = "bench.pipeline"
LAYERS = (
    "bench",
    "cli",
    "dataset",
    "sparse_coding",
    "info_measures",
    "kernels",
    "itds",
    "itdu",
    "classify",
)
STAGES = ("cli.stage_select", "cli.stage_update", "cli.stage_evaluate")
SELECT_CALLERS = ("itds.select_shared", "itds.select_dedicated")
ARTIFACT_IO = (
    "sparse_coding.save_matrix",
    "sparse_coding.save_selection",
    "sparse_coding.load_dictionary",
    "sparse_coding.load_selection",
    "sparse_coding.load_matrix",
    "info_measures.save_mi_trace",
)

# Per-layer metrics of a traced pipeline, with their units. The pairing of
# each metric with the end-to-end metric it should move is in README.md.
LAYER_METRICS = {
    "cli.select_s": "s",
    "cli.update_s": "s",
    "cli.evaluate_s": "s",
    "cli.artifact_io_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.mask_pixels_s": "s",
    "sparse_coding.ksvd_init_s": "s",
    "sparse_coding.omp_codes_s": "s",
    "sparse_coding.omp_codes_calls": "count",
    "sparse_coding.pinv_calls": "count",
    "sparse_coding.pinv_s": "s",
    "info_measures.mi_codes_labels_calls": "count",
    "info_measures.mi_codes_labels_s": "s",
    "info_measures.bandwidth_s": "s",
    "info_measures.bandwidth_floor_frac": "frac",
    "info_measures.gp_compact_gains_s": "s",
    "info_measures.recon_gain_calls": "count",
    "info_measures.recon_gain_s": "s",
    "info_measures.qmi_calls": "count",
    "info_measures.qmi_s": "s",
    "info_measures.qmi_grad_calls": "count",
    "info_measures.qmi_grad_s": "s",
    "kernels.kde_pairs": "count",
    "kernels.qmi_pairs": "count",
    "kernels.kde_pairs_per_s": "1/s",
    "kernels.qmi_pairs_per_s": "1/s",
    "kernels.temp_bytes": "B",
    "kernels.max_temp_bytes": "B",
    "itds.estimate_lambdas_calls": "count",
    "itds.estimate_lambdas_s": "s",
    "itds.rounds": "count",
    "itds.candidates_scored": "count",
    "itds.duplicates_excluded": "count",
    "itds.discrim_s": "s",
    "itds.recon_s": "s",
    "itds.compact_s": "s",
    "itdu.update_s": "s",
    "itdu.iterations": "count",
    "itdu.objective_evals": "count",
    "itdu.grad_evals": "count",
    "itdu.accept_ratio": "frac",
    "itdu.backtrack_halvings": "count",
    "itdu.pinv_calls": "count",
    "itdu.converged": "count",
    "itdu.aborted": "count",
    "classify.train_linear_s": "s",
    "classify.sgd_steps": "count",
    "classify.evaluate_s": "s",
    "classify.reconstruct_masked_s": "s",
    "classify.mask_groups": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = 0
    attrs: dict = field(default_factory=dict)
    leaf_calls: dict = field(default_factory=dict)  # key -> [calls, seconds]


class Tracer:
    """In-memory span recorder for one pipeline run (``run`` is its id)."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run=self.run))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def patch(self, module, attr: str, name: str, observe=None, alloc: bool = False) -> None:
        """Give every call through ``module.attr`` a span called ``name``.

        ``observe(attrs, args, kwargs, result)`` records counts on the span
        after the call; ``alloc`` records the peak bytes the call allocated
        (numpy reports its buffers to tracemalloc).
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                if alloc:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                    if alloc:
                        sp.attrs["temp_bytes"] = tracemalloc.get_traced_memory()[1]
                finally:
                    if alloc:
                        tracemalloc.stop()
            if observe is not None:
                observe(sp.attrs, args, kwargs, result)
            return result

        self._set(module, attr, wrapper)

    def patch_leaf(self, module, attr: str, key: str) -> None:
        """Count calls through ``module.attr`` and their time on the enclosing span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg = self.spans[self._stack[-1]].leaf_calls.setdefault(key, [0, 0.0])
                agg[0] += 1
                agg[1] += dt

        self._set(module, attr, wrapper)

    def _set(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def to_records(self) -> list[dict]:
        return [dict(asdict(s), id=i) for i, s in enumerate(self.spans)]


# -- observers: counts taken at a boundary from arguments and results --------

def _pairs(attrs, args, kwargs, result):
    attrs["pairs"] = int(args[0].shape[0]) ** 2


def _floor_hit(attrs, args, kwargs, result):
    attrs["floor"] = int(result <= 1e-3)


def _gp_gains(attrs, args, kwargs, result):
    attrs["candidates"] = len(result)
    attrs["excluded"] = sum(1 for g in result if g == -math.inf)


def _make_sgd_steps(train_linear):
    sig = inspect.signature(train_linear)

    def observe(attrs, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        features, labels = bound.arguments["features"], bound.arguments["labels"]
        attrs["steps"] = (int(max(labels)) + 1) * bound.arguments["epochs"] * len(features)

    return observe


def _mask_groups(attrs, args, kwargs, result):
    mask = args[2]
    attrs["groups"] = len({mask[:, i].tobytes() for i in range(mask.shape[1])})


def _accepted(attrs, args, kwargs, result):
    attrs["accepted"] = int(result[0] > 0.0)


def instrument(tracer: Tracer) -> None:
    """Wrap the package's public call boundaries; undo with ``tracer.restore()``."""
    from itdl import classify, cli, dataset, info_measures, itds, itdu, sparse_coding

    p = tracer.patch
    p(cli, "main", "cli.main")
    for stage in STAGES:
        p(cli, stage.split(".")[1], stage)
    p(cli, "build_gp_model", "info_measures.build_gp_model")
    p(cli, "save_mi_trace", "info_measures.save_mi_trace")
    for attr in ("load_csv", "mask_pixels"):
        p(dataset, attr, f"dataset.{attr}")
    for attr in (
        "ksvd_init",
        "omp_codes",
        "save_matrix",
        "save_selection",
        "load_dictionary",
        "load_selection",
        "load_matrix",
    ):
        p(sparse_coding, attr, f"sparse_coding.{attr}")
    p(itds, "omp_codes", "sparse_coding.omp_codes")
    p(itds, "code_ls", "sparse_coding.code_ls")
    for module in (sparse_coding, info_measures, itdu, classify):
        tracer.patch_leaf(module, "pinv", "pinv@" + module.__name__.rsplit(".", 1)[1])
    for module in (itds, classify):
        p(module, "mi_codes_labels", "info_measures.mi_codes_labels")
    p(info_measures, "bandwidth_rule", "info_measures.bandwidth_rule", _floor_hit)
    p(info_measures, "median_pairwise_distance", "info_measures.median_pairwise_distance")
    p(itds, "gp_compact_gains", "info_measures.gp_compact_gains", _gp_gains)
    p(itds, "recon_gain", "info_measures.recon_gain")
    p(itdu, "qmi", "info_measures.qmi")
    p(itdu, "qmi_grad_codes", "info_measures.qmi_grad_codes")
    p(itdu, "ascent_bandwidth", "info_measures.ascent_bandwidth")
    for attr, name in (
        ("class_kernel_sums", "kernels.class_kernel_sums"),
        ("qmi_value", "kernels.qmi_value"),
        ("qmi_grad", "kernels.qmi_grad"),
    ):
        p(info_measures, attr, name, _pairs, alloc=True)
    for attr in ("estimate_lambdas", "select_shared", "select_dedicated", "selection_report"):
        p(itds, attr, f"itds.{attr}")
    for attr in ("update_all_classes", "update_dictionary", "update_report"):
        p(itdu, attr, f"itdu.{attr}")
    p(itdu, "backtrack_step", "itdu.backtrack_step", _accepted)
    p(classify, "train_linear", "classify.train_linear", _make_sgd_steps(classify.train_linear))
    for attr in ("code_test_signals", "evaluate", "predict"):
        p(classify, attr, f"classify.{attr}")
    p(classify, "reconstruct_masked", "classify.reconstruct_masked", _mask_groups)


# -- derivation of the per-layer metrics --------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus its child spans and aggregated leaf calls."""
    own = [s.end - s.start - sum(t for _, t in s.leaf_calls.values()) for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], selection_report: dict, update_report: dict) -> dict:
    """Per-layer metric values of one traced pipeline (``trace.overhead_s`` excluded)."""
    if not spans or spans[0].name != ROOT:
        raise ValueError(f"first span must be the root {ROOT!r}")
    stage: list[str | None] = []
    for s in spans:
        stage.append(s.name if s.name in STAGES else (stage[s.parent] if s.parent >= 0 else None))

    def select(name, where=lambda i: True):
        return [i for i, s in enumerate(spans) if s.name == name and where(i)]

    def seconds(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    def attr_sum(idx, key):
        return sum(spans[i].attrs.get(key, 0) for i in idx)

    def under_select(i):
        return stage[i] == "cli.stage_select"

    def in_rounds(i):
        return spans[spans[i].parent].name in SELECT_CALLERS

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    leaf = {}
    for s in spans:
        for key, (n, t) in s.leaf_calls.items():
            acc = leaf.setdefault(key, [0, 0.0])
            acc[0] += n
            acc[1] += t

    mi_sel = select("info_measures.mi_codes_labels", under_select)
    bw_sel = select("info_measures.bandwidth_rule", under_select)
    gp = select("info_measures.gp_compact_gains")
    gp_rounds = [i for i in gp if in_rounds(i)]
    mi_rounds = [i for i in mi_sel if in_rounds(i)]
    recon = select("info_measures.recon_gain")
    recon_rounds = [i for i in recon if in_rounds(i)]
    qmi = select("info_measures.qmi")
    qmi_grad = select("info_measures.qmi_grad_codes")
    kde = select("kernels.class_kernel_sums")
    qk = select("kernels.qmi_value") + select("kernels.qmi_grad")
    kern = kde + qk
    backtracks = select("itdu.backtrack_step")
    objective = [i for i in qmi if spans[spans[i].parent].name == "itdu.backtrack_step"]
    updates = update_report["updates"]
    accepted = sum(len(u["accepted_steps"]) for u in updates)

    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s.name.split(".", 1)[0]] += t
    layer_self["sparse_coding"] += sum(t for _, t in leaf.values())

    return {
        "cli.select_s": seconds(select("cli.stage_select")),
        "cli.update_s": seconds(select("cli.stage_update")),
        "cli.evaluate_s": seconds(select("cli.stage_evaluate")),
        "cli.artifact_io_s": sum(
            seconds(select(n, lambda i: spans[spans[i].parent].name not in ARTIFACT_IO))
            for n in ARTIFACT_IO
        ),
        "dataset.load_csv_s": seconds(select("dataset.load_csv")),
        "dataset.mask_pixels_s": seconds(select("dataset.mask_pixels")),
        "sparse_coding.ksvd_init_s": seconds(select("sparse_coding.ksvd_init")),
        "sparse_coding.omp_codes_s": seconds(select("sparse_coding.omp_codes")),
        "sparse_coding.omp_codes_calls": len(select("sparse_coding.omp_codes")),
        "sparse_coding.pinv_calls": sum(n for n, _ in leaf.values()),
        "sparse_coding.pinv_s": sum(t for _, t in leaf.values()),
        "info_measures.mi_codes_labels_calls": len(mi_sel),
        "info_measures.mi_codes_labels_s": seconds(mi_sel),
        "info_measures.bandwidth_s": seconds(select("info_measures.median_pairwise_distance")),
        "info_measures.bandwidth_floor_frac": rate(attr_sum(bw_sel, "floor"), len(bw_sel)),
        "info_measures.gp_compact_gains_s": seconds(gp),
        "info_measures.recon_gain_calls": len(recon),
        "info_measures.recon_gain_s": seconds(recon),
        "info_measures.qmi_calls": len(qmi),
        "info_measures.qmi_s": seconds(qmi),
        "info_measures.qmi_grad_calls": len(qmi_grad),
        "info_measures.qmi_grad_s": seconds(qmi_grad),
        "kernels.kde_pairs": attr_sum(kde, "pairs"),
        "kernels.qmi_pairs": attr_sum(qk, "pairs"),
        "kernels.kde_pairs_per_s": rate(attr_sum(kde, "pairs"), seconds(kde)),
        "kernels.qmi_pairs_per_s": rate(attr_sum(qk, "pairs"), seconds(qk)),
        "kernels.temp_bytes": attr_sum(kern, "temp_bytes"),
        "kernels.max_temp_bytes": max((spans[i].attrs["temp_bytes"] for i in kern), default=0),
        "itds.estimate_lambdas_calls": len(select("itds.estimate_lambdas")),
        "itds.estimate_lambdas_s": seconds(select("itds.estimate_lambdas")),
        "itds.rounds": sum(len(e["rounds"]) for e in selection_report["selections"]),
        "itds.candidates_scored": max(
            attr_sum(gp_rounds, "candidates") - attr_sum(gp_rounds, "excluded"),
            len(mi_rounds),
            len(recon_rounds),
        ),
        "itds.duplicates_excluded": attr_sum(gp, "excluded"),
        "itds.discrim_s": seconds(mi_rounds),
        "itds.recon_s": seconds(recon_rounds),
        "itds.compact_s": seconds(gp_rounds),
        "itdu.update_s": seconds(select("itdu.update_all_classes")),
        "itdu.iterations": sum(u["iterations"] for u in updates),
        "itdu.objective_evals": len(objective),
        "itdu.grad_evals": len(qmi_grad),
        "itdu.accept_ratio": rate(accepted, len(objective)),
        "itdu.backtrack_halvings": len(objective) - attr_sum(backtracks, "accepted"),
        "itdu.pinv_calls": leaf.get("pinv@itdu", [0, 0.0])[0],
        "itdu.converged": sum(bool(u["converged"]) for u in updates),
        "itdu.aborted": sum(bool(u["aborted"]) for u in updates),
        "classify.train_linear_s": seconds(select("classify.train_linear")),
        "classify.sgd_steps": attr_sum(select("classify.train_linear"), "steps"),
        "classify.evaluate_s": seconds(select("classify.evaluate")),
        "classify.reconstruct_masked_s": seconds(select("classify.reconstruct_masked")),
        "classify.mask_groups": attr_sum(select("classify.reconstruct_masked"), "groups"),
        **{f"{layer}.self_s": t for layer, t in layer_self.items()},
        "trace.pipeline_s": spans[0].end - spans[0].start,
        "trace.spans": len(spans),
    }
