"""Stage timing for every run, plus layer spans and counts for the traced run.

Stages are opened by the benchmark itself (``with rec.stage("rayq"):``) and
are always timed: the end-to-end metrics come from them. Tracing installs
wrappers around fovlab's public functions, each in the namespace of the module
that calls it, so the library itself is never edited. Every wrapped call is a
span; its time is charged to the innermost open stage, and its duration is
subtracted from its parent span's self time. ``restore()`` puts every original
object back.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Stage times and, when tracing, per-(span, stage) call counts and times."""

    def __init__(self):
        self.stage_ns = defaultdict(int)       # stage -> total ns
        self.stage_child_ns = defaultdict(int)  # stage -> ns covered by direct child spans
        self.stage_items = defaultdict(int)    # stage -> frames / estimates / epochs
        self.instances: list = []              # (stage, ns, cpu ns, items) of every stage, in order
        self.spans = defaultdict(lambda: [0, 0, 0])  # (name, stage) -> [calls, ns, self ns]
        self.counts = defaultdict(int)         # counter name -> total
        self.conv_names: dict = {}             # id(conv weight) -> conv name
        self._stages: list[str] = []
        self._child: list[int] = []            # per open span: ns of its direct children
        self._patched: list = []

    @contextmanager
    def stage(self, name: str, items: int = 1):
        """Time one stage of the workflow covering `items` frames (or epochs)."""
        self._stages.append(name)
        self._child.append(0)
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            yield
        finally:
            dt, dc = time.perf_counter_ns() - t0, time.process_time_ns() - c0
            child = self._child.pop()
            self._stages.pop()
            if self._child:
                self._child[-1] += dt
            self.stage_ns[name] += dt
            self.stage_child_ns[name] += child
            self.stage_items[name] += items
            self.instances.append((name, dt, dc, items))

    def stage_seconds(self, name: str) -> float:
        """Total seconds spent in a stage."""
        return self.stage_ns[name] / 1e9

    # ------------------------------------------------------------------ tracing

    def wrap(self, owner, attr: str, label, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        `label` is the span name, or a callable of the call's arguments that
        returns it. `before(args)` runs ahead of the call and `after(args,
        result)` after it, both outside the timed interval.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_of = label if callable(label) else (lambda args: label)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            name = name_of(args)
            stage = self._stages[-1] if self._stages else ""
            self._child.append(0)
            t0 = time.perf_counter_ns()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                rec = self.spans[(name, stage)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        """Put back every original object, most recent wrapper first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def span_stats(self, name: str, stages=None) -> tuple[int, int]:
        """(calls, ns) of span `name`, summed over `stages` (all when None)."""
        calls = ns = 0
        for (n, stage), (c, t, _) in self.spans.items():
            if n == name and (stages is None or stage in stages):
                calls += c
                ns += t
        return calls, ns

    def span_ms(self, name: str, stages=None) -> float:
        """Mean milliseconds per call of span `name`; 0.0 when never called."""
        calls, ns = self.span_stats(name, stages)
        return ns / calls / 1e6 if calls else 0.0


def install(rec: Recorder) -> None:
    """Wrap every traced fovlab function; undo with ``rec.restore()``."""
    import fovlab.attacks as attacks
    import fovlab.classical as classical
    import fovlab.datasets as datasets
    import fovlab.geometry as geometry
    import fovlab.io as fio
    import fovlab.metrics as metrics
    import fovlab.segnet.layers as layers
    import fovlab.segnet.network as network
    import fovlab.segnet.training as training

    def name_convs(args):
        net = args[0]
        rec.conv_names = {id(net.params[f"{n}.W"]): n for n, *_ in network.conv_specs(net.config)}

    # synthesis: datasets imported these by name, so wrap them there
    def count_edges(args, _out):
        rec.count("scenes.scenes")
        rec.count("scenes.edges", args[0].edges().shape[0])

    rec.wrap(datasets, "generate_scene", "scenes.generate_scene")
    rec.wrap(datasets, "simulate_lidar", "scenes.simulate_lidar")
    rec.wrap(datasets, "ground_truth_fov", "scenes.ground_truth_fov", after=count_edges)

    # file formats: datasets calls them through the module object
    def count_bytes(args, _out):
        rec.count("io.bytes_written", os.path.getsize(args[0]))

    for fn in ("save_point_cloud", "save_mask_pgm", "save_scene"):
        rec.wrap(fio, fn, "io.write", after=count_bytes)
    for fn in ("load_point_cloud", "load_mask_pgm", "load_scene"):
        rec.wrap(fio, fn, "io.read")

    # preprocessing: the benchmark and geometry.cloud_to_bev both look these up
    # in the geometry module
    def count_kept(_args, out):
        rec.count("geometry.filter_calls")
        rec.count("geometry.points_kept", out.shape[0])

    rec.wrap(geometry, "project_to_bev", "geometry.project_to_bev")
    rec.wrap(geometry, "filter_points", "geometry.filter_points", after=count_kept)
    rec.wrap(geometry, "quantize", "geometry.quantize")

    rec.wrap(attacks, "spoof", "attacks.spoof")

    for fn in ("raytrace_quantized", "polar_to_mask", "raytrace_continuous",
               "rasterize_polygon"):
        rec.wrap(classical, fn, f"classical.{fn}")

    # the concave hull tests each closure of a boundary walk with
    # points_in_polygon, which it looks up in the classical module
    def count_vertices(_args, out):
        rec.count("classical.concave_hulls")
        rec.count("classical.concave_vertices", out.vertices.shape[0])

    rec.wrap(classical, "concave_hull", "classical.concave_hull", after=count_vertices)
    rec.wrap(classical, "points_in_polygon", "classical.points_in_polygon")

    rec.wrap(metrics, "confusion", "metrics.confusion")
    rec.wrap(metrics, "auprc_arrays", "metrics.auprc_arrays")

    # the UNet: training.train calls forward_batch/backward_batch by name in
    # the training module, network.forward calls forward_batch in its own
    rec.wrap(training, "forward_batch", "network.forward_batch.train", before=name_convs)
    rec.wrap(network, "forward_batch", "network.forward_batch.infer", before=name_convs)
    rec.wrap(training, "backward_batch", "network.backward_batch", before=name_convs)
    rec.wrap(training, "normalize_counts", "network.normalize_counts")
    rec.wrap(network, "normalize_counts", "network.normalize_counts")
    rec.wrap(training.Adam, "step", "training.adam_step")

    # layers: network calls them as attributes of the layers module
    def conv_fwd(args):
        x, W = args[0], args[1]
        n, h, w, c = x.shape
        taps = 9 if W.shape[2] == 3 else 1
        rec.count("layers.conv.flop", 2 * n * h * w * taps * c * W.shape[0])
        if taps == 9:
            rec.count("layers.im2col.bytes", n * h * w * 9 * c * x.itemsize)

    def conv_label(direction, weight_of):
        return lambda args: f"layers.{rec.conv_names.get(id(weight_of(args)), '?')}.{direction}"

    def in_mcd(args):
        if rec._stages and rec._stages[-1] == "mcd":
            conv_fwd(args)

    # forward args are (x, W, b); backward caches end in W for 3x3, (x, W) for 1x1
    rec.wrap(layers, "conv3x3_forward", conv_label("fwd", lambda a: a[1]), before=in_mcd)
    rec.wrap(layers, "conv1x1_forward", conv_label("fwd", lambda a: a[1]), before=in_mcd)
    rec.wrap(layers, "conv3x3_backward", conv_label("bwd", lambda a: a[1][2]))
    rec.wrap(layers, "conv1x1_backward", conv_label("bwd", lambda a: a[1][1]))
    for fn in LAYER_PRIMITIVES:
        rec.wrap(layers, fn, f"layers.{fn}")


# forward primitives are reported from MCD passes (batch 1), backward ones
# from training (batch 10), matching the per-conv fwd/bwd metrics
LAYER_PRIMITIVES = ("maxpool2_forward", "maxpool2_backward", "upsample2_forward",
                    "upsample2_backward", "relu_forward", "relu_backward",
                    "dropout_forward", "dropout_backward", "sigmoid")
