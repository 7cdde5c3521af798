"""The benchmark's own tests: result schema, a small run of every workload,
failure accounting, output checks, and restoration of traced functions.

Run from the repository root: ``python3 -m pytest -q fovbench/tests``.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import recorder  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from fovlab.types import FilterSpec, FovMask, GridSpec, PointCloud  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_functions():
    """Every function object a traced run may replace, by (owner, name)."""
    rec = recorder.Recorder()
    recorder.install(rec)
    targets = [(owner, attr, orig) for owner, attr, orig in rec._patched]
    rec.restore()
    return targets


def _small_run(name, trace, **kw):
    return run.run_workload(name, seed=3, seconds=0.01, trace=trace, scale="small", **kw)


def test_benchmark_json_matches_the_metrics_a_run_reports():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] \
        == list(spec.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [(k, v[0], v[1]) for k, v in spec.PER_LAYER.items()]
    # the traced run names one layer per conv of the measured network
    assert len(spec.CONVS) == 23


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_small_untraced_run_reports_every_end_to_end_metric(name):
    final, raw = _small_run(name, trace=False)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"], raw["problems"]
    assert final["failed"] == 0 and final["attempted"] >= 1
    units = {n: u for n, u, _ in spec.END_TO_END}
    assert set(final["metrics"]) == set(units)
    for key, m in final["metrics"].items():
        assert m["unit"] == units[key]
        assert isinstance(m["value"], float) and m["value"] > 0, key
    assert raw["record"]["seed"] == 3 and raw["record"]["src_lines"] > 0
    json.dumps(final)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_small_traced_run_reports_layers_and_restores_functions(name):
    targets = _traced_functions()
    final, raw = _small_run(name, trace=True)
    assert final["correct"], raw["problems"]
    assert set(final["metrics"]) == set(spec.PER_LAYER)
    assert all(np.isfinite(m["value"]) for m in final["metrics"].values())
    for owner, attr, orig in targets:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is orig, f"{owner.__name__}.{attr} left wrapped"
    # every stage the workload ran is mostly inside layer spans (synth-rays
    # has nothing to set up)
    for stage, share in raw["coverage"].items():
        if stage != "setup":
            assert 0.5 < share <= 1.0, (stage, share)


def test_unet_traced_run_names_every_conv():
    final, _ = _small_run("unet", trace=True)
    for conv in spec.CONVS:
        assert final["metrics"][f"layers.{conv}.fwd.ms"]["value"] > 0, conv
        assert final["metrics"][f"layers.{conv}.bwd.ms"]["value"] > 0, conv


def test_failures_are_counted_by_type_not_raised():
    grid = GridSpec(extent=10.0, resolution=16)
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    all_invisible = FovMask(grid, np.zeros((16, 16), dtype=bool))
    acct = workloads.Attempts()
    out = workloads.PassOutput("")
    kept = workloads._estimate_classical(recorder.Recorder(), acct, out, hashlib.sha256(),
                                         cloud, all_invisible, grid, FilterSpec())
    # rayc needs 3 azimuths; AUPRC is undefined without a visible cell
    assert kept == [] and acct.attempted == 2
    assert acct.failed == {"ValueError": 2}
    assert "ValueError" in acct.first_traceback


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_changed_outputs_fail_the_run(name, tmp_path, monkeypatch):
    fake = tmp_path / "fovbench"
    shutil.copytree(HERE, fake, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    doc = json.loads((fake / "reference.json").read_text())
    if name == "unet":
        want = np.load(fake / "unet_reference_small.npy")
        np.save(fake / "unet_reference_small.npy", want + 10 * run.PROB_ATOL)
    else:
        doc[name]["small"]["digest"] = "0" * 64
    (fake / "reference.json").write_text(json.dumps(doc))
    monkeypatch.setattr(run, "HERE", fake)
    final, raw = _small_run(name, trace=False)
    assert not final["correct"] and final["metrics"] == {}
    assert raw["problems"]


def test_concave_hull_that_leaves_points_outside_fails_the_run(monkeypatch):
    from fovlab import classical
    from fovlab.classical import FovPolygon

    tiny = FovPolygon(np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]))
    monkeypatch.setattr(classical, "concave_hull", lambda pts, k: tiny)
    final, raw = _small_run("synth-rays", trace=False)
    assert not final["correct"] and final["metrics"] == {}
    assert any("outside" in p for p in raw["problems"])


def test_run_refuses_without_fovlab_sources(tmp_path):
    import subprocess

    (tmp_path / "fovbench").mkdir()
    shutil.copy(HERE / "run.py", tmp_path / "fovbench" / "run.py")
    p = subprocess.run([sys.executable, "fovbench/run.py", "--workload", "unet"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
