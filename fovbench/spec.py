"""Metric definitions: the end-to-end metrics of every run and the per-layer
metrics of the traced run, each with the end-to-end metric it should move.

Per-layer times are wall-clock milliseconds per call, summed over every stage unless a
stage is named. The ``fwd`` metrics of the UNet layers come from MC-dropout
passes (batch 1) and the ``bwd`` ones from training (batch 10). A layer that a
workload bypasses reads 0.
"""

from __future__ import annotations

import statistics

from fovlab.segnet.network import NetConfig, conv_specs

# name, unit, better; values come from run.end_to_end()
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_cpu_s", "s", "lower"),
    ("estimate_cpu_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

STAGES = ("setup", "synth", "read", "spoof", "rayq", "rayc", "concave", "check", "train", "mle",
          "mcd", "score")

CONVS = tuple(name for name, *_ in conv_specs(NetConfig(depth=4, base_channels=8, resolution=128)))

_RAYS = "estimate_cpu_ms, pass_cpu_s @ synth-rays"
_SYNTH = "pass_cpu_s @ synth-rays; setup_s @ unet"
_CONCAVE = "pass_cpu_s @ synth-rays"


def _ms(span, stages=None):
    return lambda rec, ctx: rec.span_ms(span, stages)


def _per(counter, per):
    return lambda rec, ctx: rec.counts.get(counter, 0) / rec.counts[per] if rec.counts.get(per) else 0.0


def _stage_ms(stage, scale=1e3):
    def value(rec, ctx):
        items = rec.stage_items.get(stage)
        return rec.stage_ns[stage] / 1e9 / items * scale if items else 0.0
    return value


def _coverage(stage):
    return lambda rec, ctx: (rec.stage_child_ns[stage] / rec.stage_ns[stage]
                             if rec.stage_ns.get(stage) else 0.0)


def _mean_score(key):
    return lambda rec, ctx: statistics.fmean(ctx["scores"][key]) if ctx["scores"].get(key) else 0.0


def _calls_per(span, stage, per):
    def value(rec, ctx):
        calls, _ = rec.span_stats(span, (stage,))
        return calls / rec.counts[per] if rec.counts.get(per) else 0.0
    return value


def _per_mcd_pass(counter, scale):
    def value(rec, ctx):
        passes, _ = rec.span_stats("network.forward_batch.infer", ("mcd",))
        return rec.counts.get(counter, 0) / passes * scale if passes else 0.0
    return value


# name -> (unit, better, moves, value(rec, ctx))
PER_LAYER: dict = {
    "stage.synth.ms": ("ms", "lower", _SYNTH, _stage_ms("synth")),
    "stage.rayq.ms": ("ms", "lower", _RAYS, _stage_ms("rayq")),
    "stage.rayc.ms": ("ms", "lower", _RAYS, _stage_ms("rayc")),
    "stage.concave.ms": ("ms", "lower", _CONCAVE, _stage_ms("concave")),
    "stage.train_epoch.s": ("s", "lower", "pass_cpu_s @ unet", _stage_ms("train", 1.0)),
    "stage.mle.ms": ("ms", "lower", "estimate_cpu_ms, pass_cpu_s @ unet", _stage_ms("mle")),
    "stage.mcd.ms": ("ms", "lower", "estimate_cpu_ms, pass_cpu_s @ unet", _stage_ms("mcd")),
    "quality.rayq_f1": ("ratio", "higher", "none: outputs are pinned", _mean_score("rayq_f1")),
    "quality.rayc_f1": ("ratio", "higher", "none: outputs are pinned", _mean_score("rayc_f1")),
    "quality.concave_f1": ("ratio", "higher", "none: outputs are pinned", _mean_score("concave_f1")),
    "quality.mcd_auprc": ("ratio", "higher", "none: outputs are pinned", _mean_score("mcd_auprc_pooled")),
    "scenes.generate_scene.ms": ("ms", "lower", _SYNTH, _ms("scenes.generate_scene")),
    "scenes.simulate_lidar.ms": ("ms", "lower", _SYNTH, _ms("scenes.simulate_lidar")),
    "scenes.ground_truth_fov.ms": ("ms", "lower", _SYNTH, _ms("scenes.ground_truth_fov")),
    "scenes.edges": ("count", "lower", "input size: nothing should move it",
                     _per("scenes.edges", "scenes.scenes")),
    "io.write.ms": ("ms", "lower", _SYNTH, _ms("io.write")),
    "io.read.ms": ("ms", "lower", "pass_cpu_s @ synth-rays; setup_s @ unet",
                   _ms("io.read")),
    "io.bytes_written": ("B", "lower", "pass_cpu_s @ synth-rays",
                         _per("io.bytes_written", "scenes.scenes")),
    "geometry.project_to_bev.ms": ("ms", "lower", _RAYS + "; estimate_cpu_ms @ unet",
                                   _ms("geometry.project_to_bev")),
    "geometry.filter_points.ms": ("ms", "lower", _RAYS + "; estimate_cpu_ms @ unet",
                                  _ms("geometry.filter_points")),
    "geometry.quantize.ms": ("ms", "lower", "estimate_cpu_ms @ unet; setup_s @ unet",
                             _ms("geometry.quantize")),
    "geometry.points_kept": ("count", "higher", "input size: nothing should move it",
                             _per("geometry.points_kept", "geometry.filter_calls")),
    "attacks.spoof.ms": ("ms", "lower", "pass_cpu_s @ synth-rays", _ms("attacks.spoof")),
    "attacks.spoofed_kept": ("count", "lower", "estimate_cpu_ms @ synth-rays",
                             _per("attacks.spoofed_kept", "attacks.spoofed_clouds")),
    "classical.raytrace_quantized.ms": ("ms", "lower", _RAYS, _ms("classical.raytrace_quantized")),
    "classical.polar_to_mask.ms": ("ms", "lower", _RAYS, _ms("classical.polar_to_mask")),
    "classical.raytrace_continuous.ms": ("ms", "lower", _RAYS, _ms("classical.raytrace_continuous")),
    "classical.rasterize_polygon.ms": ("ms", "lower", _RAYS + "; " + _CONCAVE,
                                       _ms("classical.rasterize_polygon")),
    "classical.concave_hull.ms": ("ms", "lower", _CONCAVE, _ms("classical.concave_hull")),
    "classical.concave_vertices": ("count", "lower", "none: the polygons are pinned",
                                   _per("classical.concave_vertices", "classical.concave_hulls")),
    # closure attempts per hull, against the one that is accepted
    "classical.points_in_polygon.calls": ("count", "lower", _CONCAVE,
                                          _calls_per("classical.points_in_polygon", "concave",
                                                     "classical.concave_hulls")),
    "classical.points_in_polygon.ms": ("ms", "lower", _CONCAVE,
                                       _ms("classical.points_in_polygon", ("concave",))),
    "metrics.confusion.ms": ("ms", "lower", "pass_cpu_s @ all", _ms("metrics.confusion")),
    "metrics.auprc_arrays.ms": ("ms", "lower", "pass_cpu_s @ all", _ms("metrics.auprc_arrays")),
    "network.forward_batch.train.ms": ("ms", "lower", "pass_cpu_s @ unet",
                                       _ms("network.forward_batch.train")),
    "network.forward_batch.infer.ms": ("ms", "lower", "estimate_cpu_ms, pass_cpu_s @ unet",
                                       _ms("network.forward_batch.infer")),
    "network.backward_batch.ms": ("ms", "lower", "pass_cpu_s @ unet", _ms("network.backward_batch")),
    "network.normalize_counts.ms": ("ms", "lower", "estimate_cpu_ms, pass_cpu_s @ unet",
                                    _ms("network.normalize_counts")),
}
for _conv in CONVS:
    PER_LAYER[f"layers.{_conv}.fwd.ms"] = ("ms", "lower", "estimate_cpu_ms @ unet",
                                            _ms(f"layers.{_conv}.fwd", ("mcd",)))
for _conv in CONVS:
    PER_LAYER[f"layers.{_conv}.bwd.ms"] = ("ms", "lower", "pass_cpu_s @ unet",
                                            _ms(f"layers.{_conv}.bwd", ("train",)))
for _fn in ("maxpool2_forward", "upsample2_forward", "relu_forward", "dropout_forward", "sigmoid"):
    PER_LAYER[f"layers.{_fn}.ms"] = ("ms", "lower", "estimate_cpu_ms @ unet",
                                      _ms(f"layers.{_fn}", ("mcd",)))
for _fn in ("maxpool2_backward", "upsample2_backward", "relu_backward", "dropout_backward"):
    PER_LAYER[f"layers.{_fn}.ms"] = ("ms", "lower", "pass_cpu_s @ unet", _ms(f"layers.{_fn}", ("train",)))
PER_LAYER.update({
    # computed from tensor shapes, not measured: per MC-dropout forward pass
    "layers.conv.gflop": ("GFLOP", "lower", "computed; estimate_cpu_ms @ unet",
                          _per_mcd_pass("layers.conv.flop", 1e-9)),
    "layers.im2col.mb": ("MB", "lower", "computed; estimate_cpu_ms @ unet",
                         _per_mcd_pass("layers.im2col.bytes", 1e-6)),
    "training.adam_step.ms": ("ms", "lower", "pass_cpu_s @ unet", _ms("training.adam_step")),
    "trace.overhead_s": ("s", "lower", "traced pass_cpu_s minus untraced pass_cpu_s",
                         lambda rec, ctx: ctx["overhead_s"]),
})
for _stage in STAGES:
    PER_LAYER[f"coverage.{_stage}"] = ("ratio", "higher", "share of the stage inside layer spans",
                                       _coverage(_stage))


def per_layer_values(rec, ctx: dict) -> dict:
    """Every per-layer metric from a traced Recorder; `ctx` holds the pass
    scores and the tracing overhead."""
    return {name: float(value(rec, ctx)) for name, (_, _, _, value) in PER_LAYER.items()}
