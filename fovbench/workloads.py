"""The benchmark's workloads, driven through fovlab's public functions.

Each workload builds its inputs from the workload seed in ``setup()`` and then
runs ``run_pass()``, one pass of its workflow over the same inputs, as often
as the run length allows. Library functions are always looked up as module
attributes (``classical.raytrace_quantized``), so the traced run's wrappers
see every call.

Why these workloads (sizes measured on a 2-core, 8 GB machine with OpenBLAS):

- ``synth-rays``: the synthesize-then-estimate workflow. ``synthesize_dataset``
  at res 256 for all three scene families (78-247 edges per scene), read
  back, then rayq (360 bins) and rayc with rasterization, scored, on each
  frame as synthesized and again with 150 uniformly spoofed points (the
  security-sweep path). The oracle ``ground_truth_fov`` (about 110-250 ms a
  frame) dominates it, against 2-9 ms for the LiDAR and 15-35 ms for rayc.
  The first frame of each family, in seed order, also goes through the
  concave hull (k=16) on its benign points, thinned in scan order to at most
  48, and every input point must lie inside the hull. At full size (about
  700 points) a hull fails 1-150 boundary walks at 0.35 s each, so one frame
  costs 10 ms to over 50 s and no run of bounded length could average it
  out. At 48 points a walk costs about 30 ms and a hull takes 1-15 walks
  (more than one on about half the ``outdoor-dense`` frames), 5 ms to 0.5 s.
  Three hulls a pass keep that spread to a few per cent of the pass; fewer
  than 48 points would hide the failed walks (at 32 nearly every hull closes
  on its first walk). It bypasses the UNet.
- ``unet``: ``outdoor-sparse`` at res 128, depth 4, base width 8: one
  training epoch on 20 frames (batch 10, with a 5-frame validation pass),
  then MLE and MC-dropout (T=20) inference on 3 test frames, about 4 s, 40 ms
  and 1 s a frame. Res 256 training peaks near 5 GB of memory, too close to
  the machine's 8 GB for repeated runs. Its compute does not depend on the data,
  and its working set far exceeds the caches (the im2col matrix of enc0.c2 alone
  is 4.7 MB at batch 1). It bypasses the oracle in its timed section and
  every classical estimator.
"""

from __future__ import annotations

import hashlib
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fovlab import attacks, classical, datasets, geometry, metrics
from fovlab.scenes import SceneFamily, default_grid, default_lidar
from fovlab.segnet import inference, network, training
from fovlab.types import FilterSpec

N_BINS = 360
N_SPOOF = 150
CONCAVE_K = 16
CONCAVE_CAP = 48  # points a concave hull is built from
MCD_PASSES = 20
FAMILIES = ("outdoor-sparse", "outdoor-dense", "indoor")

# "full" is what a run measures; "small" runs the same code on a few frames,
# for the benchmark's own smoke tests. `passes` is how many untraced passes
# the end-to-end metrics take their medians over, the same on every commit.
SCALES = {
    "synth-rays": {"full": {"datasets": 4, "frames": 2, "passes": 5},
                   "small": {"datasets": 1, "frames": 1, "passes": 1}},
    "unet": {
        "full": {"res": 128, "train": 20, "val": 5, "test": 3, "mcd": MCD_PASSES, "passes": 5},
        "small": {"res": 32, "train": 2, "val": 1, "test": 1, "mcd": 2, "passes": 1},
    },
}


class Attempts:
    """Failure accounting at the benchmark boundary.

    Every estimate, inference and training epoch is one attempt. An exception
    in it counts as a failure by type, so a degenerate frame is recorded
    instead of aborting the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()
        self.first_traceback: dict = {}

    def run(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # boundary: record the failure, keep running
            kind = type(e).__name__
            self.failed[kind] += 1
            self.first_traceback.setdefault(kind, traceback.format_exc())
            return None

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


@dataclass
class PassOutput:
    """What one pass produced: a digest of every output, in order, plus scores."""

    digest: str
    scores: dict = field(default_factory=dict)  # score name -> per-estimate values
    probs: list = field(default_factory=list)    # UNet probability maps
    problems: list = field(default_factory=list)  # outputs that failed a check


def _env(family_name: str, res: int):
    lidar = default_lidar(family_name)
    return (SceneFamily.preset(family_name), lidar, default_grid(family_name, res),
            FilterSpec(max_range=lidar.max_range))


def _hash_files(h, root: Path, manifest: dict) -> None:
    for split in datasets.SPLITS:
        for row in manifest["splits"].get(split, []):
            for key in ("cloud", "mask", "scene"):
                h.update((root / row[key]).read_bytes())


def _estimate_classical(rec, acct, out: PassOutput, h, cloud, gt, grid, filt) -> list:
    """rayq and rayc on one cloud, each with its preprocessing, rasterized and
    scored. Returns the number of filtered points per successful estimate."""
    kept = []
    for est in ("rayq", "rayc"):
        def one():
            with rec.stage(est):
                pts = geometry.filter_points(geometry.project_to_bev(cloud), filt)[:, :2]
                if est == "rayq":
                    mask = classical.polar_to_mask(classical.raytrace_quantized(pts, N_BINS), grid)
                else:
                    mask = classical.rasterize_polygon(classical.raytrace_continuous(pts), grid)
            with rec.stage("score"):
                f1 = metrics.metrics(metrics.confusion(mask, gt)).f1
                auprc = metrics.auprc_arrays(mask.mask.astype(np.float64).ravel(), gt.mask.ravel())
            return mask, pts.shape[0], f1, auprc

        res = acct.run(one)
        if res is None:
            continue
        mask, n_pts, f1, auprc = res
        h.update(mask.mask.tobytes())
        out.scores.setdefault(f"{est}_f1", []).append(f1)
        out.scores.setdefault("auprc", []).append(auprc)
        kept.append(n_pts)
    return kept


def _estimate_concave(rec, acct, out: PassOutput, h, cloud, gt, grid, filt) -> None:
    """The concave hull on at most CONCAVE_CAP of the cloud's filtered points,
    rasterized and scored; every one of those points must lie in the hull."""
    def one():
        with rec.stage("concave"):
            pts = geometry.filter_points(geometry.project_to_bev(cloud), filt)[:, :2]
            pts = pts[::max(1, -(-pts.shape[0] // CONCAVE_CAP))]
            poly = classical.concave_hull(pts, CONCAVE_K)
            mask = classical.rasterize_polygon(poly, grid)
        with rec.stage("check"):
            contained = bool(np.all(classical.points_in_polygon(pts, poly.vertices)))
        with rec.stage("score"):
            f1 = metrics.metrics(metrics.confusion(mask, gt)).f1
        return poly, mask, contained, f1

    res = acct.run(one)
    if res is None:
        return
    poly, mask, contained, f1 = res
    if not contained:
        out.problems.append("a concave hull leaves some of its input points outside")
    h.update(poly.vertices.tobytes())
    h.update(mask.mask.tobytes())
    out.scores.setdefault("concave_f1", []).append(f1)


class SynthRays:
    name = "synth-rays"
    estimator_stages = ("rayq", "rayc")

    def __init__(self, workdir: Path, seed: int, scale: str = "full"):
        self.workdir, self.seed = Path(workdir), seed
        size = SCALES[self.name][scale]
        self.frames, self.passes = size["frames"], size["passes"]
        # several small datasets per family, seeded from the run's seed
        self.dataset_seeds = [int(np.random.SeedSequence((seed, j)).generate_state(1)[0])
                              for j in range(size["datasets"])]

    def setup(self) -> None:
        """Nothing to synthesize ahead: synthesis is the timed work."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, rec, acct) -> PassOutput:
        h = hashlib.sha256()
        out = PassOutput("")
        for fam_name in FAMILIES:
            family, lidar, grid, filt = _env(fam_name, 256)
            for j, dataset_seed in enumerate(self.dataset_seeds):
                root = self.workdir / f"{fam_name}-{j}"
                with rec.stage("synth", items=self.frames):
                    manifest = datasets.synthesize_dataset(
                        root, family, lidar, grid, filt, {"test": self.frames},
                        seed=dataset_seed, force=True)
                with rec.stage("read", items=self.frames):
                    frames = datasets.load_frames(root, "test")
                _hash_files(h, root, manifest)
                for fi, frame in enumerate(frames):
                    self._estimate_frame(rec, acct, out, h, frame, dataset_seed, fi, grid, filt)
                if j == 0:
                    _estimate_concave(rec, acct, out, h, frames[0].cloud, frames[0].mask, grid,
                                      filt)
        out.digest = h.hexdigest()
        return out

    @staticmethod
    def _estimate_frame(rec, acct, out, h, frame, dataset_seed, fi, grid, filt) -> None:
        """rayq and rayc on the frame as synthesized and with spoofed points."""
        kept = _estimate_classical(rec, acct, out, h, frame.cloud, frame.mask, grid, filt)
        # the security-sweep path: uniformly spoofed points under the
        # per-frame attack seed that experiments.security_sweep derives
        atk = attacks.AttackSpec(
            kind="uniform", n_points=N_SPOOF, budget=N_SPOOF, bounds=grid.extent,
            seed=int(np.random.SeedSequence((dataset_seed, fi, N_SPOOF)).generate_state(1)[0]))
        with rec.stage("spoof"):
            cloud = attacks.spoof(frame.cloud, atk)
        kept_spoofed = _estimate_classical(rec, acct, out, h, cloud, frame.mask, grid, filt)
        if kept and kept_spoofed:
            # spoofed points are appended, so the filter keeps the benign ones
            # exactly as it does without the attack
            rec.count("attacks.spoofed_kept", kept_spoofed[0] - kept[0])
            rec.count("attacks.spoofed_clouds")


class Unet:
    name = "unet"
    estimator_stages = ("mle", "mcd")

    def __init__(self, workdir: Path, seed: int, scale: str = "full"):
        self.workdir, self.seed = Path(workdir), seed
        self.size = SCALES[self.name][scale]
        self.passes = self.size["passes"]
        self.family, self.lidar, self.grid, self.filt = _env("outdoor-sparse", self.size["res"])
        self.net_cfg = network.NetConfig(depth=4, base_channels=8, dropout_rate=0.10,
                                         resolution=self.size["res"])
        self.train_cfg = training.TrainConfig(learning_rate=1e-3, max_epochs=1,
                                              batch_size=10, seed=seed)

    def setup(self) -> None:
        """Synthesize, preprocess the training pairs and initialize the net."""
        counts = {k: self.size[k] for k in ("train", "val", "test")}
        self.manifest = datasets.synthesize_dataset(
            self.workdir, self.family, self.lidar, self.grid, self.filt, counts,
            seed=self.seed, force=True)
        self.train_pairs = datasets.frames_to_pairs(
            datasets.load_frames(self.workdir, "train"), self.grid, self.filt)
        self.val_pairs = datasets.frames_to_pairs(
            datasets.load_frames(self.workdir, "val"), self.grid, self.filt)
        self.test = datasets.load_frames(self.workdir, "test")
        self.net0 = network.unet_init(self.net_cfg, seed=self.seed)

    def run_pass(self, rec, acct) -> PassOutput:
        h = hashlib.sha256()
        _hash_files(h, self.workdir, self.manifest)
        out = PassOutput("")
        net = self.net0.copy()

        def epoch():
            with rec.stage("train"):
                training.train(net, self.train_pairs, self.val_pairs, self.train_cfg)
            return True

        if acct.run(epoch) is None:
            out.digest = h.hexdigest()
            return out
        h.update(b"".join(net.params[k].tobytes() for k in net.param_names()))

        mcd_scores, mcd_truth = [], []
        for i, frame in enumerate(self.test):
            for mode in ("mle", "mcd"):
                def one():
                    with rec.stage(mode):
                        img = geometry.cloud_to_bev(frame.cloud, self.grid, self.filt)
                        if mode == "mle":
                            pm = inference.infer_mle(net, img)
                        else:
                            sub = int(np.random.SeedSequence((self.seed, i)).generate_state(1)[0])
                            pm, _ = inference.infer_mcd(net, img, T=self.size["mcd"], seed=sub)
                    with rec.stage("score"):
                        f1 = metrics.metrics(metrics.confusion(
                            inference.binarize(pm), frame.mask)).f1
                        auprc = metrics.auprc_arrays(pm.values, frame.mask.mask)
                    return pm, f1, auprc

                res = acct.run(one)
                if res is None:
                    continue
                pm, f1, auprc = res
                h.update(pm.values.tobytes())
                out.probs.append(pm.values)
                out.scores.setdefault(f"{mode}_f1", []).append(f1)
                out.scores.setdefault("auprc", []).append(auprc)
                if mode == "mcd":
                    mcd_scores.append(pm.values.ravel())
                    mcd_truth.append(frame.mask.mask.ravel())
        if mcd_scores:
            def pooled():
                with rec.stage("score"):
                    return metrics.auprc_arrays(np.concatenate(mcd_scores), np.concatenate(mcd_truth))

            value = acct.run(pooled)
            if value is not None:
                out.scores["mcd_auprc_pooled"] = [value]
        out.digest = h.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (SynthRays, Unet)}
