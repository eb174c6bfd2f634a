"""Metric definitions for the pipeline benchmark.

End-to-end metrics come from untraced runs; per-layer metrics come from a
traced run. Each per-layer metric names its layer (a module of
``src/ffusion``), the workload whose traced cycles it is measured on, and
the end-to-end metric it should move there. ``BENCHMARK.json`` lists the
same names and units; ``smoke.py`` checks that the two agree.

Times marked "self" exclude the time spent in traced child spans; times
marked "total" include it. Counts are exact per cycle and must repeat
between cycles of one run. "computed" values are derived from sizes
(bytes of files or arrays), not timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

TRAIN = "train_loop"
SAFETY = "safety_campaign"
ROUNDTRIP = "dataset_roundtrip"

WORKLOADS = {
    TRAIN: "ffusion train per cycle: autodiff and the model blocks do most "
           "of the work; p_drop=0.3 also runs the one-modality-dropped path",
    SAFETY: "ffusion eval per cycle: repeated feature prep (geometry, health, "
            "fault injection) plus forward-only inference dominate",
    ROUNDTRIP: "ffusion generate then load_dataset per cycle: scene rendering "
               "and the ASCII dataset writers and readers dominate",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("items_per_ref", "items/ref", "higher", 0.25),
    EndToEnd("cycle_ref_p50", "ref", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    home: Optional[str]  # workload measured on; None: the run's own workload
    moves: str
    kind: str  # "self", "total", "count" or "computed"
    value: Callable  # (Aggregate) -> float


def _self_per_call(span):
    return lambda a: a.ms(a.self_time(span), a.calls(span))


def _total_per_call(span):
    return lambda a: a.ms(a.total_time(span), a.calls(span))


def _total_per_cycle(*spans):
    return lambda a: a.ms(sum(a.total_time(s) for s in spans), a.cycles)


def _count_per_cycle(key):
    return lambda a: a.count(key)


def _calls_per_cycle(span):
    return lambda a: a.ratio(a.calls(span), a.cycles)


# Ops a training step records on the tape, named after their functions in
# ffusion.autodiff.ops.
TAPE_OPS = ("add", "concat", "cross_entropy", "embedding_lookup", "gelu",
            "layer_norm", "matmul", "mul", "reshape", "scale", "slice_",
            "softmax", "transpose")

_HEALTH = ("model.health.camera", "model.health.depth", "model.health.text")

PER_LAYER = (
    PerLayer("scene.synthesize_ms_per_sample", "ms", "lower", "scene", ROUNDTRIP,
             "dataset_roundtrip items_per_ref", "total",
             _total_per_call("scene.synthesize_sample")),
    PerLayer("scene.write_ms_per_sample", "ms", "lower", "scene", ROUNDTRIP,
             "dataset_roundtrip items_per_ref", "self",
             lambda a: a.ms(a.self_time("scene.build_dataset"),
                            a.calls("scene.synthesize_sample"))),
    PerLayer("scene.read_ms_per_sample", "ms", "lower", "scene", ROUNDTRIP,
             "dataset_roundtrip items_per_ref; cycle_ref_p50 of the other two a little",
             "total", _total_per_call("scene.load_sample")),
    PerLayer("scene.bytes_per_sample", "bytes", "lower", "scene", ROUNDTRIP,
             "dataset_roundtrip items_per_ref", "computed",
             lambda a: a.ratio(a.count("dataset_bytes"), a.count("dataset_samples"))),
    PerLayer("geometry.project_ms_per_call", "ms", "lower", "geometry", SAFETY,
             "safety_campaign items_per_ref; train_loop less", "self",
             _self_per_call("geometry.project_point_cloud")),
    PerLayer("geometry.densify_ms_per_call", "ms", "lower", "geometry", SAFETY,
             "safety_campaign items_per_ref; train_loop less", "self",
             _self_per_call("geometry.densify_depth")),
    PerLayer("model.health.ms_per_sample", "ms", "lower", "model.health", SAFETY,
             "safety_campaign items_per_ref", "self",
             lambda a: a.ms(sum(a.self_time(s) for s in _HEALTH),
                            a.calls("model.inputs.prepare_features"))),
    PerLayer("model.inputs.prepare_calls_per_cycle", "count", "lower",
             "model.inputs", SAFETY, "safety_campaign items_per_ref", "count",
             _calls_per_cycle("model.inputs.prepare_features")),
    PerLayer("model.inputs.prepare_distinct_ratio", "ratio", "higher",
             "model.inputs", SAFETY, "safety_campaign items_per_ref", "count",
             lambda a: a.ratio(a.count("prepare_distinct"),
                               a.count("model.inputs.prepare_features"))),
    PerLayer("model.inputs.prepare_ms_per_call", "ms", "lower", "model.inputs",
             SAFETY, "safety_campaign items_per_ref", "self",
             _self_per_call("model.inputs.prepare_features")),
    PerLayer("model.inputs.stack_ms_per_call", "ms", "lower", "model.inputs",
             SAFETY, "safety_campaign items_per_ref", "self",
             _self_per_call("model.inputs.stack_features")),
    *(PerLayer(f"model.encoders.{m}_ms_per_call", "ms", "lower", "model.encoders",
               TRAIN, "train_loop items_per_ref; safety_campaign via forward-only calls",
               "self", _self_per_call(f"model.encoders.{m}"))
      for m in ("camera", "depth", "text")),
    PerLayer("model.fusion.fuse_ms_per_call", "ms", "lower", "model.fusion", TRAIN,
             "train_loop items_per_ref; safety_campaign via forward-only calls",
             "self", _self_per_call("model.fusion.fuse")),
    PerLayer("model.decoders.heads_ms_per_call", "ms", "lower", "model.decoders",
             TRAIN, "train_loop items_per_ref; safety_campaign via forward-only calls",
             "self", _self_per_call("model.decoders.heads")),
    PerLayer("model.network.forward_calls_per_cycle", "count", "lower",
             "model.network", TRAIN, "train_loop items_per_ref", "count",
             _calls_per_cycle("model.network.forward")),
    PerLayer("model.network.loss_ms_per_call", "ms", "lower", "model.network",
             TRAIN, "train_loop items_per_ref", "self",
             _self_per_call("model.network.loss")),
    PerLayer("autodiff.forward_taped_ms_per_step", "ms", "lower", "autodiff", TRAIN,
             "train_loop items_per_ref", "total",
             lambda a: a.ms(a.total_time("autodiff.tape"), a.calls("autodiff.backward"))),
    PerLayer("autodiff.backward_ms_per_step", "ms", "lower", "autodiff", TRAIN,
             "train_loop items_per_ref and peak_rss_mb", "self",
             _self_per_call("autodiff.backward")),
    PerLayer("autodiff.adam_ms_per_step", "ms", "lower", "autodiff", TRAIN,
             "train_loop items_per_ref", "self", _self_per_call("autodiff.adam_step")),
    PerLayer("autodiff.checkpoint_save_ms", "ms", "lower", "autodiff", TRAIN,
             "train_loop items_per_ref", "self",
             _self_per_call("autodiff.save_checkpoint")),
    PerLayer("autodiff.checkpoint_load_ms", "ms", "lower", "autodiff", SAFETY,
             "safety_campaign items_per_ref", "self",
             _self_per_call("autodiff.load_checkpoint")),
    PerLayer("autodiff.tape_records_per_cycle", "count", "lower", "autodiff", TRAIN,
             "train_loop items_per_ref and peak_rss_mb", "count",
             _count_per_cycle("tape_records")),
    *(PerLayer(f"autodiff.tape_records_{kind}_step", "count", "lower", "autodiff",
               TRAIN, "train_loop items_per_ref", "count",
               _count_per_cycle(f"tape_records_step.{kind}"))
      for kind in ("full", "drop_camera", "drop_depth", "drop_text")),
    *(PerLayer(f"autodiff.tape_records.{op}", "count", "lower", "autodiff", TRAIN,
               "train_loop items_per_ref", "count",
               _count_per_cycle(f"tape_records.{op}"))
      for op in TAPE_OPS),
    PerLayer("autodiff.tape_bytes_per_step", "bytes", "lower", "autodiff", TRAIN,
             "train_loop peak_rss_mb and items_per_ref", "computed",
             lambda a: a.ratio(a.count("tape_bytes"), a.count("autodiff.backward"))),
    PerLayer("safety.inject_ms_per_sample", "ms", "lower", "safety", SAFETY,
             "safety_campaign items_per_ref", "self",
             _self_per_call("safety.inject_faults")),
    PerLayer("safety.fail_operational_ms", "ms", "lower", "safety", SAFETY,
             "safety_campaign items_per_ref", "total",
             _total_per_cycle("safety.fail_operational_eval")),
    PerLayer("safety.probe_ms", "ms", "lower", "safety", SAFETY,
             "safety_campaign items_per_ref", "total",
             _total_per_cycle("safety.single_modality_probe")),
    PerLayer("safety.pooled_embeddings_calls_per_cycle", "count", "lower", "safety",
             SAFETY, "safety_campaign items_per_ref", "count",
             _calls_per_cycle("safety.pooled_embeddings")),
    PerLayer("safety.enrichment_ms", "ms", "lower", "safety", SAFETY,
             "safety_campaign items_per_ref", "total",
             _total_per_cycle("safety.snr_enrichment_eval")),
    PerLayer("safety.independence_ms", "ms", "lower", "safety", SAFETY,
             "safety_campaign items_per_ref", "total",
             _total_per_cycle("safety.verify_independence")),
    PerLayer("safety.report_write_ms", "ms", "lower", "safety", SAFETY,
             "safety_campaign items_per_ref", "total",
             _total_per_cycle("safety.write_json_report", "safety.write_text_report")),
    PerLayer("trace_overhead", "ratio", "higher", "pipebench", None,
             "none: traced items_per_s over untraced items_per_s of the run's "
             "workload", "computed", None),
)
