"""fovlab benchmark: one command, two workloads, end-to-end or per-layer metrics.

Run from the repository root:

    python3 fovbench/run.py --workload synth-rays --seed 0 --seconds 40 --trace 0

The run builds its inputs from ``--seed`` in set-up (three times, median
reported). It then runs one pass at the reference seed and compares its
outputs with those stored in ``reference.json``; that pass is also the
warm-up. Then it runs passes of the workload's workflow over the run's own
inputs until ``--seconds`` is used up and at least the workload's fixed
number of passes is done. It checks every output and prints each metric with
its unit. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run: medians over
the workload's fixed number of passes. ``--trace 1`` alternates untraced
passes with passes in which every traced fovlab function is wrapped, and
reports the per-layer metrics, the tracing overhead and how much of each
stage the layer spans cover. Full results, with per-frame
medians and the run record, go to ``.fovbench_out/`` under the repository
root.

Exit codes: 0 ok, 1 an output check failed (no metrics are reported), 2 the
fovlab sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a small shared machine OpenBLAS's spinning worker threads
# stall for seconds whenever another process takes a core. Set before numpy
# loads; an explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("synth-rays", "unet")
SETUP_REPEATS = 3
REFERENCE_SEED = 0
# tolerance on UNet probabilities against the stored reference, fixed before
# any kernel change: computing the reference in float64 instead of float32
# moves them by 4e-7, so a change of float32 summation order stays inside it
PROB_ATOL = 1e-5


def _load_modules():
    """Import fovlab and the benchmark modules; returns the import seconds."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import recorder  # noqa: F401
    import spec  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - _T_START


# --------------------------------------------------------------------------- record


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    """The checked-out commit, or None outside a git repository."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def run_record(seed: int) -> dict:
    """What produced a result: machine, libraries, threads, commit, seed, code size."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "FOVLAB_THREADS": os.environ.get("FOVLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
        "src_lines": src_lines,
    }


# --------------------------------------------------------------------------- running


def _run_pass(wl, rec, acct):
    """One pass; returns its outputs and its wall time, CPU time and, per
    stage, CPU seconds and items.

    The workloads are single-threaded (one BLAS thread), so on an idle
    machine CPU time is wall time; on a shared one, CPU time leaves out the
    spells in which the host runs something else.
    """
    first = len(rec.instances)
    t, c = time.perf_counter(), time.process_time()
    out = wl.run_pass(rec, acct)
    wall, cpu = time.perf_counter() - t, time.process_time() - c
    stages: dict = {}
    for stage, _, cpu_ns, items in rec.instances[first:]:
        seconds, n = stages.get(stage, (0.0, 0))
        stages[stage] = (seconds + cpu_ns / 1e9, n + items)
    return out, {"wall_s": wall, "cpu_s": cpu, "stages": stages}


def _timed_passes(wl, acct, seconds: float, plain, traced=None) -> dict:
    """Run passes until enough are done and the next one would overrun `seconds`.

    Untraced, enough is the workload's fixed pass count. With a traced
    Recorder, passes alternate untraced and traced, at least one of each, so
    both halves see the same machine. Returns, for False (untraced) and True
    (traced), a list of (outputs, pass record).
    """
    from recorder import install

    passes = {False: [], True: []}
    needed = {False: 1, True: 1} if traced else {False: wl.passes, True: 0}
    t0 = time.perf_counter()
    for tracing in itertools.cycle((False, True) if traced else (False,)):
        if tracing:
            install(traced)
            try:
                passes[True].append(_run_pass(wl, traced, acct))
            finally:
                traced.restore()
        else:
            passes[False].append(_run_pass(wl, plain, acct))
        walls = [p["wall_s"] for runs in passes.values() for _, p in runs]
        done = all(len(passes[k]) >= n for k, n in needed.items())
        if done and time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return passes


def _setups(wl) -> list:
    """Set the workload up SETUP_REPEATS times; returns the seconds of each."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t)
    return times


def output_problems(outs: list) -> list[str]:
    """Checks on the outputs of every pass of one run."""
    import numpy as np

    problems = sorted({p for o in outs for p in o.problems})
    if len({o.digest for o in outs}) != 1:
        problems.append("passes over the same inputs produced different outputs")
    for key, values in outs[0].scores.items():
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"score {key} outside [0, 1]")
    for p in outs[0].probs:
        if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
            problems.append("UNet probabilities not finite or outside [0, 1]")
            break
    return problems


def _unet_reference_path(scale: str) -> Path:
    return HERE / f"unet_reference_{scale}.npy"


def reference_outputs(name: str, workdir: Path, scale: str) -> dict:
    """Outputs of one pass of the workload at the reference seed."""
    import hashlib

    import numpy as np
    from recorder import Recorder
    from workloads import WORKLOADS, Attempts, _hash_files

    wl = WORKLOADS[name](workdir, REFERENCE_SEED, scale)
    wl.setup()
    acct = Attempts()
    out = wl.run_pass(Recorder(), acct)
    got = {"failed": acct.n_failed, "problems": out.problems}
    if name != "unet":
        return {**got, "digest": out.digest}
    h = hashlib.sha256()
    _hash_files(h, wl.workdir, wl.manifest)
    return {**got, "files": h.hexdigest(), "probs": np.stack(out.probs)}


def reference_check(name: str, workdir: Path, scale: str) -> list[str]:
    """Compare one pass at the reference seed, at the run's own scale, with
    the outputs stored at the defining commit.

    Synthesized files, rayq/rayc masks and concave polygons and masks must
    match byte for byte. UNet probabilities may differ by PROB_ATOL, which
    allows a change of float32 summation order but not a changed result.
    """
    import numpy as np

    got = reference_outputs(name, workdir, scale)
    stored = json.loads((HERE / "reference.json").read_text())[name][scale]
    problems = [f"{name}: reference run: {p}" for p in got["problems"]]
    if got["failed"]:
        problems.append(f"{name}: reference run had {got['failed']} failed operations")
    if name != "unet":
        if got["digest"] != stored["digest"]:
            problems.append(f"{name}: synthesized files or estimates differ from the reference")
        return problems
    if got["files"] != stored["files"]:
        problems.append("unet: synthesized files differ from the reference")
    want = np.load(_unet_reference_path(scale))
    if got["probs"].shape != want.shape:
        problems.append("unet: reference output shape changed")
    elif not np.all(np.isfinite(got["probs"])) or \
            np.max(np.abs(got["probs"] - want)) > PROB_ATOL:
        problems.append("unet: probabilities differ from the reference by more than "
                        f"{PROB_ATOL}")
    return problems


def write_reference(workdir: Path) -> None:
    """Record the reference outputs of every workload (run once, at the
    commit whose outputs are the reference)."""
    import numpy as np

    doc = {}
    for name, scale in itertools.product(WORKLOAD_NAMES, ("full", "small")):
        got = reference_outputs(name, workdir / f"{name}-{scale}", scale)
        if got["failed"] or got["problems"]:
            raise SystemExit(f"{name}: reference run failed: {got['problems']}")
        if name == "unet":
            # float32 rounding moves a probability by at most 6e-8, far inside PROB_ATOL
            np.save(_unet_reference_path(scale), got["probs"].astype(np.float32))
            doc.setdefault(name, {})[scale] = {"files": got["files"]}
        else:
            doc.setdefault(name, {})[scale] = {"digest": got["digest"]}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _stage_summary(rec) -> dict:
    """Per stage: items, total seconds, and per-item median and p95 in ms."""
    per_item = {}
    for stage, ns, _, items in rec.instances:
        if items:
            per_item.setdefault(stage, []).append(ns / 1e6 / items)
    out = {}
    for stage, ms in per_item.items():
        ms.sort()
        out[stage] = {
            "items": rec.stage_items[stage],
            "total_s": rec.stage_seconds(stage),
            "median_ms": statistics.median(ms),
            "p95_ms": ms[min(len(ms) - 1, int(0.95 * len(ms)))],
            "samples": len(ms),
        }
    return out


def _per_item_ms(record, stages) -> float:
    """CPU milliseconds per frame, estimate or epoch over `stages` in one pass."""
    seconds = sum(record["stages"].get(s, (0.0, 0))[0] for s in stages)
    items = sum(record["stages"].get(s, (0.0, 0))[1] for s in stages)
    return seconds * 1e3 / items if items else 0.0


def end_to_end(wl, measured, setup_s, peak_rss_mb) -> dict:
    """The end-to-end metrics of an untraced run: medians over the measured
    passes, whose number is fixed per workload so that it is the same on
    every commit."""
    return {
        "setup_s": setup_s,
        "pass_cpu_s": statistics.median(r["cpu_s"] for r in measured),
        "estimate_cpu_ms": statistics.median(_per_item_ms(r, wl.estimator_stages)
                                             for r in measured),
        "peak_rss_mb": peak_rss_mb,
    }


def stage_metrics(measured, scores, acct) -> dict:
    """The per-stage figures of the workflow where the workload runs them:
    medians over the measured passes of CPU time per frame, estimate or epoch."""
    out = {}
    for name, stage, scale in (("synth_ms", "synth", 1.0), ("rayq_ms", "rayq", 1.0),
                               ("rayc_ms", "rayc", 1.0), ("concave_ms", "concave", 1.0),
                               ("train_epoch_s", "train", 1e-3), ("mle_ms", "mle", 1.0),
                               ("mcd_ms", "mcd", 1.0)):
        if stage in measured[0]["stages"]:
            out[name] = statistics.median(_per_item_ms(r, (stage,)) for r in measured) * scale
    for key in ("rayq_f1", "rayc_f1", "concave_f1", "mle_f1", "mcd_f1"):
        if scores.get(key):
            out[key] = statistics.fmean(scores[key])
    if scores.get("mcd_auprc_pooled"):
        out["mcd_auprc"] = scores["mcd_auprc_pooled"][0]
    out["failed_frac"] = acct.n_failed / acct.attempted if acct.attempted else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 import_s: float = 0.0, out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (final JSON object, full raw result)."""
    import resource

    from recorder import Recorder, install
    from spec import END_TO_END, per_layer_values
    from workloads import WORKLOADS, Attempts

    work = ROOT / ".fovbench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[name](work / "run", seed, scale)
        traced = Recorder() if trace else None
        if trace:
            install(traced)
            try:
                with traced.stage("setup", items=0):
                    setup_times = _setups(wl)
            finally:
                traced.restore()
        else:
            setup_times = _setups(wl)
        setup_s = import_s + statistics.median(setup_times)

        # the pass at the reference seed runs first, so that it is also the
        # warm-up: the timed passes start with the code, caches and allocator warm
        problems = reference_check(name, work / "reference", scale)
        rec, acct = Recorder(), Attempts()
        passes = _timed_passes(wl, acct, seconds, rec, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outs = [out for runs in passes.values() for out, _ in runs]
        records = [r for _, r in passes[False]]
        walls = [r["wall_s"] for r in records]
        problems = output_problems(outs) + problems
        measured = records[:wl.passes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # gone once no other run is using it
        except OSError:
            pass

    scores = outs[0].scores
    raw = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "scale": scale, "record": run_record(seed),
        "correct": not problems, "problems": problems,
        "attempted": acct.attempted, "failed": acct.n_failed,
        "failures": dict(acct.failed), "failure_tracebacks": acct.first_traceback,
        "passes": len(walls), "measured_passes": wl.passes, "pass_wall_s": walls,
        "pass_cpu_s": [r["cpu_s"] for r in records],
        "pass_estimate_cpu_ms": [_per_item_ms(r, wl.estimator_stages) for r in records],
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "stages": _stage_summary(rec),
        "stage_metrics": stage_metrics(measured, scores, acct),
    }
    units = {n: u for n, u, _ in END_TO_END}
    if trace:
        from spec import PER_LAYER

        traced_walls = [r["wall_s"] for _, r in passes[True]]
        overhead_s = (statistics.median(r["cpu_s"] for _, r in passes[True])
                      - statistics.median(r["cpu_s"] for r in records))
        values = per_layer_values(traced, {"scores": scores, "overhead_s": overhead_s})
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
        raw.update({
            "traced_pass_wall_s": traced_walls,
            "overhead_s": overhead_s,
            "coverage": {s: values[f"coverage.{s}"] for s in traced.stage_ns},
            "traced_stages": _stage_summary(traced),
            "per_layer": {k: {"value": v, "unit": PER_LAYER[k][0], "moves": PER_LAYER[k][2]}
                          for k, v in values.items()},
            "spans": [{"span": n, "stage": s, "calls": c, "total_ms": t / 1e6,
                       "self_ms": st / 1e6}
                      for (n, s), (c, t, st) in sorted(traced.spans.items())],
        })
    else:
        values = end_to_end(wl, measured, setup_s, peak_rss_mb)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        raw["end_to_end"] = metrics
    final = {"correct": not problems, "attempted": acct.attempted, "failed": acct.n_failed,
             "metrics": metrics if not problems else {}}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{name}-seed{seed}-trace{int(bool(trace))}.json"
        path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
        raw["path"] = str(path)
    return final, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference outputs that runs are checked against")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fovlab" / "__init__.py").is_file():
        print(f"fovlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = _load_modules()
    if args.write_reference:
        work = ROOT / ".fovbench_work" / f"reference-{os.getpid()}"
        try:
            write_reference(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    final, raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              import_s=import_s, out_dir=ROOT / ".fovbench_out")
    for problem in raw["problems"]:
        print(f"output check failed: {problem}", file=sys.stderr)
    if final["correct"]:
        for k, m in final["metrics"].items():
            print(f"{args.workload}  {k}  {m['value']:.6g} {m['unit']}")
        for k, v in raw["stage_metrics"].items():
            print(f"{args.workload}  stage {k}  {v:.6g}")
        if args.trace:
            print(f"{args.workload}  trace overhead  {raw['overhead_s']:.4g} s")
    print(f"{args.workload}  attempted {final['attempted']}  failed {final['failed']} "
          f"{raw['failures'] or ''}  passes {raw['passes']}  results {raw['path']}")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
