import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from fovlab.cli import main
from fovlab.datasets import load_manifest
from fovlab.errors import FovlabError

CONFIG = {
    "family": {"name": "outdoor-sparse"},
    "lidar": {"n_beams": 180, "max_range": 75.0, "range_noise_sigma": 0.01,
              "dropout_prob": 0.01},
    "grid": {"extent": 75.0, "resolution": 64},
    "filter": {"max_range": 75.0, "z_min": -1.0, "z_max": 3.0},
    "net": {"depth": 3, "base_channels": 4, "dropout_rate": 0.05},
    "train": {"learning_rate": 0.001, "max_epochs": 2, "batch_size": 4,
              "patience": 5, "seed": 0},
    "frames": {"train": 6, "val": 3, "test": 3},
    "seed": 9,
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "exp.json"
    path.write_text(json.dumps(CONFIG))
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, dataset, config_path):
    ckpt = tmp_path_factory.mktemp("ckpt") / "net.fvnt"
    assert main(["train", "--dataset", str(dataset), "--config", str(config_path),
                 "--out", str(ckpt), "--epochs", "1"]) == 0
    return ckpt


def _read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_synth_writes_expected_frames(dataset):
    manifest = load_manifest(dataset)
    assert {s: len(r) for s, r in manifest["splits"].items()} == \
        {"train": 6, "val": 3, "test": 3}


def test_synth_refuses_overwrite(dataset, config_path):
    assert main(["synth", "--config", str(config_path), "--out", str(dataset)]) == 3


def test_synth_rerun_byte_identical(tmp_path, config_path, dataset):
    out2 = tmp_path / "again"
    assert main(["synth", "--config", str(config_path), "--out", str(out2)]) == 0
    m = load_manifest(dataset)
    for rows in m["splits"].values():
        for row in rows:
            for key in ("cloud", "mask", "scene"):
                assert (dataset / row[key]).read_bytes() == (out2 / row[key]).read_bytes()
    assert (dataset / "manifest.json").read_text() == (out2 / "manifest.json").read_text()


def test_attack_and_mask_identity(dataset, tmp_path):
    out = tmp_path / "adv"
    assert main(["attack", "--dataset", str(dataset), "--out", str(out),
                 "--kind", "uniform", "--n-points", "25", "--bounds", "75",
                 "--seed", "1"]) == 0
    m = load_manifest(dataset)
    from fovlab import io as fio
    for rows in m["splits"].values():
        for row in rows:
            benign = fio.load_point_cloud(dataset / row["cloud"])
            attacked = fio.load_point_cloud(out / row["cloud"])
            assert len(attacked) - len(benign) == 25
            assert (dataset / row["mask"]).read_bytes() == (out / row["mask"]).read_bytes()


def test_estimate_rayq(dataset, tmp_path):
    out = tmp_path / "est"
    assert main(["estimate", "--dataset", str(dataset), "--split", "test",
                 "--method", "rayq", "--n-bins", "180", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert rows[-1]["frame"] == "pooled"
    assert rows[-1]["precision"] > 0.5
    assert len(list(out.glob("pred_*.pgm"))) == 3


def test_estimate_bad_method(dataset, tmp_path, capsys):
    # argparse rejects unknown choices with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--dataset", str(dataset), "--method", "voronoi",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_sweep_unknown_estimator(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dataset", str(dataset), "--estimators", "rayq,foo",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "foo" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--counts", "x"], ["--counts", "0,-5"],
                                   ["--counts", "-5"], ["--mcd", "0"], ["--mcd", "two"]])
def test_sweep_bad_counts_or_mcd_is_usage_error(dataset, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dataset", str(dataset), "--estimators", "rayq",
              "--out", str(tmp_path / "x"), *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, code, named", [
    ("crossval", ["--base-channels", "x"], 2, "--base-channels: need comma-separated integers, got 'x'"),
    ("crossval", ["--base-channels", "4,0"], 2, "--base-channels: need integers >= 1, got '4,0'"),
    ("bench", ["--frames", "0"], 2, "--frames: need an integer >= 1, got '0'"),
    ("bench", ["--frames", "-2"], 2, "--frames: need an integer >= 1, got '-2'"),
    ("train", ["--epochs", "0"], 2, "--epochs: need an integer >= 1, got '0'"),
    ("crossval", ["--epochs", "0"], 2, "--epochs: need an integer >= 1, got '0'"),
    ("train", ["--lr", "0"], 2, "--lr: need a number > 0, got '0'"),
    ("crossval", ["--dropout", "0"], 2, "--dropout: invalid choice: 0.0"),
    ("crossval", ["--base-channels", "4,5"], 2,
     "--base-channels: need integers from (4, 8, 16, 32), got '4,5'"),
    ("crossval", ["--lr", "0"], 2, "--lr: invalid choice: 0.0"),
    ("estimate", ["--method", "concave", "--k", "2"], 2, "--k: need an integer >= 3, got '2'"),
    ("estimate", ["--method", "rayq", "--n-bins", "4"], 2, "--n-bins: need an integer >= 8, got '4'"),
    ("sweep", ["--k", "0"], 2, "--k: need an integer >= 3, got '0'"),
    ("sweep", ["--n-bins", "7"], 2, "--n-bins: need an integer >= 8, got '7'"),
    ("bench", ["--k", "-1"], 2, "--k: need an integer >= 3, got '-1'"),
    ("bench", ["--n-bins", "x"], 2, "--n-bins: need an integer >= 8, got 'x'"),
    ("crossval", ["--depth", "0"], 2, "--depth: need an integer in [3, 6], got '0'"),
    ("crossval", ["--depth", "7"], 2, "--depth: need an integer in [3, 6], got '7'"),
    ("crossval", ["--folds", "1"], 2, "--folds: need an integer >= 2, got '1'"),
    ("attack", ["--n-points", "-1"], 2, "--n-points: need an integer >= 0, got '-1'"),
    ("infer", ["--mcd", "-1"], 2, "--mcd: need an integer >= 0, got '-1'"),
    ("eval", ["--mcd", "-1"], 2, "--mcd: need an integer >= 0, got '-1'"),
    ("infer", ["--threshold", "0"], 2, "--threshold: need a number in (0, 1), got '0'"),
    ("eval", ["--threshold", "1.5"], 2, "--threshold: need a number in (0, 1), got '1.5'"),
    ("train", ["--lr", "nan"], 2, "--lr: need a number > 0, got 'nan'"),
    ("train", ["--lr", "inf"], 2, "--lr: need a number > 0, got 'inf'"),
    ("attack", ["--sigma", "-1"], 2, "--sigma: need a number >= 0, got '-1'"),
    ("attack", ["--bounds", "0"], 2, "--bounds: need a number > 0, got '0'"),
    ("attack", ["--sigma", "nan"], 2, "--sigma: need a number >= 0, got 'nan'"),
    ("attack", ["--bounds", "inf"], 2, "--bounds: need a number > 0, got 'inf'"),
    ("attack", ["--kind", "cluster", "--center-x", "nan"], 2,
     "--center-x: need a finite number, got 'nan'"),
    ("attack", ["--kind", "cluster", "--center-y", "nan"], 2,
     "--center-y: need a finite number, got 'nan'"),
])
def test_bad_flag_value_is_refused(dataset, tmp_path, capsys, command, flags, code, named):
    ckpt = tmp_path / "net.fvnt"
    out = str(tmp_path / "out")
    base = {"train": ["--out", str(ckpt), "--epochs", "1"],
            "crossval": ["--folds", "2", "--epochs", "1", "--base-channels", "4"],
            "bench": ["--method", "rayq"],
            "estimate": ["--out", out],
            "sweep": ["--estimators", "rayq,concave", "--out", out],
            "attack": ["--out", out],
            "infer": ["--checkpoint", str(ckpt), "--out", out],
            "eval": ["--checkpoint", str(ckpt)]}[command]
    try:
        got = main([command, "--dataset", str(dataset), *base, *flags])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert named in capsys.readouterr().err
    assert not ckpt.exists() and not (tmp_path / "out").exists()


def _copy_dataset(dataset, tmp_path):
    from fovlab.datasets import manifest_grid
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    manifest = load_manifest(copy)
    return copy, manifest, manifest_grid(manifest)


def _blank_test_mask(dataset, tmp_path, index):
    """Copy of the dataset whose test frame `index` has no visible cell."""
    from fovlab import io as fio
    from fovlab.types import FovMask
    copy, manifest, grid = _copy_dataset(dataset, tmp_path)
    blank = FovMask(grid, np.zeros((grid.resolution, grid.resolution), dtype=bool))
    fio.save_mask_pgm(copy / manifest["splits"]["test"][index]["mask"], blank)
    return copy


def test_estimate_degenerate_frame_is_error_row(dataset, tmp_path):
    from fovlab import io as fio
    from fovlab.types import PointCloud
    copy, manifest, _ = _copy_dataset(dataset, tmp_path)
    two_points = PointCloud(np.array([[5.0, 0.0, 0.5], [0.0, 5.0, 0.5]]))
    fio.save_point_cloud(copy / manifest["splits"]["test"][1]["cloud"], two_points)
    out = tmp_path / "est"
    assert main(["estimate", "--dataset", str(copy), "--method", "rayc",
                 "--out", str(out)]) == 0
    rows = {r["frame"]: r for r in _read_jsonl(out / "metrics.jsonl")}
    assert list(rows) == [0, 1, 2, "pooled"]
    assert "need >= 3 points" in rows[1]["error"] and "precision" not in rows[1]
    for frame in (0, 2, "pooled"):
        assert "error" not in rows[frame] and 0.0 < rows[frame]["precision"] <= 1.0
    assert sorted(p.name for p in out.glob("pred_*.pgm")) == ["pred_00000.pgm", "pred_00002.pgm"]


def _empty_test_clouds(dataset, tmp_path, indices):
    """Copy of the dataset whose test frames `indices` have no points."""
    from fovlab import io as fio
    from fovlab.types import PointCloud
    copy, manifest, _ = _copy_dataset(dataset, tmp_path)
    for i in indices:
        fio.save_point_cloud(copy / manifest["splits"]["test"][i]["cloud"],
                             PointCloud(np.zeros((0, 3))))
    return copy


@pytest.mark.parametrize("method", ("rayc", "concave"))
def test_bench_skips_and_counts_degenerate_frames(dataset, tmp_path, capsys, method):
    """Frame 0 has no points: it fails in the warm-up and in each of its two
    timed turns, and the other four are timed."""
    copy = _empty_test_clouds(dataset, tmp_path, [0])
    capsys.readouterr()
    assert main(["bench", "--dataset", str(copy), "--method", method, "--frames", "6"]) == 0
    stats = json.loads([l for l in capsys.readouterr().out.splitlines() if l.startswith("{")][-1])
    assert (stats["frames"], stats["failed"]) == (4, 2)
    assert stats["median_hz"] > 0


def test_bench_without_a_working_frame_is_data_error(dataset, tmp_path, capsys):
    copy = _empty_test_clouds(dataset, tmp_path, [0, 1, 2])
    capsys.readouterr()
    assert main(["bench", "--dataset", str(copy), "--method", "rayc", "--frames", "4"]) == 3
    assert "no frame could be estimated: all 4 raised ValueError" in capsys.readouterr().err


def test_train_eval_bench_roundtrip(dataset, tmp_path, config_path, capsys):
    ckpt = tmp_path / "net.fvnt"
    assert main(["train", "--dataset", str(dataset), "--config", str(config_path),
                 "--out", str(ckpt)]) == 0
    assert ckpt.exists()
    log = Path(str(ckpt) + ".log.jsonl")
    assert log.exists()
    history = [json.loads(line) for line in log.read_text().splitlines()]
    assert {"epoch", "train_loss", "val_loss", "seconds"} <= set(history[0])

    metrics_a = tmp_path / "a.jsonl"
    metrics_b = tmp_path / "b.jsonl"
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--split", "test", "--out", str(metrics_a), "--seed", "3"]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--split", "test", "--out", str(metrics_b), "--seed", "3"]) == 0
    assert metrics_a.read_bytes() == metrics_b.read_bytes()
    rows = _read_jsonl(metrics_a)
    assert [r["frame"] for r in rows] == [0, 1, 2, "pooled"]
    for row in rows:
        for key in ("precision", "recall", "f1", "auprc"):
            assert 0.0 <= row[key] <= 1.0, (row["frame"], key, row[key])

    capsys.readouterr()
    assert main(["bench", "--dataset", str(dataset), "--method", "rayq",
                 "--frames", "10", "--n-bins", "180"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")][-1]
    stats = json.loads(line)
    assert stats["median_hz"] > 0
    assert stats["p95_hz"] > 0
    assert (stats["frames"], stats["failed"]) == (10, 0)


def test_eval_mcd_reproducible(dataset, checkpoint, tmp_path):
    outs = [tmp_path / "mcd_a.jsonl", tmp_path / "mcd_b.jsonl"]
    for out in outs:
        assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--split", "test", "--mcd", "2", "--seed", "3",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert [r["frame"] for r in _read_jsonl(outs[0])] == [0, 1, 2, "pooled"]


def test_eval_all_invisible_frame_records_null_auprc(dataset, checkpoint, tmp_path):
    copy = _blank_test_mask(dataset, tmp_path, 1)
    out = tmp_path / "eval.jsonl"
    assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(copy),
                 "--split", "test", "--out", str(out)]) == 0
    rows = {r["frame"]: r for r in _read_jsonl(out)}
    assert rows[1]["auprc"] is None
    assert rows[1]["recall"] == 0.0
    for frame in (0, 2, "pooled"):
        assert isinstance(rows[frame]["auprc"], float)
        assert 0.0 < rows[frame]["auprc"] <= 1.0


def test_train_checkpoint_reproducible(dataset, tmp_path, config_path):
    c1, c2 = tmp_path / "n1.fvnt", tmp_path / "n2.fvnt"
    assert main(["train", "--dataset", str(dataset), "--config", str(config_path),
                 "--out", str(c1)]) == 0
    assert main(["train", "--dataset", str(dataset), "--config", str(config_path),
                 "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_infer_writes_outputs(dataset, tmp_path, config_path):
    ckpt = tmp_path / "net.fvnt"
    assert main(["train", "--dataset", str(dataset), "--config", str(config_path),
                 "--out", str(ckpt), "--epochs", "1"]) == 0
    out = tmp_path / "preds"
    assert main(["infer", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--split", "test", "--mcd", "3", "--out", str(out)]) == 0
    assert len(list(out.glob("prob_*.npy"))) == 3
    assert len(list(out.glob("pred_*.pgm"))) == 3
    assert len(list(out.glob("conf_*.npy"))) == 3


def test_sweep_outputs(dataset, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", str(dataset), "--split", "test",
                 "--estimators", "rayq", "--counts", "0,50", "--n-bins", "180",
                 "--out", str(out)]) == 0
    rows = [json.loads(l) for l in (out / "sweep.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert (out / "sweep_frames.csv").exists()


def test_sweep_all_invisible_frame(dataset, tmp_path):
    copy = _blank_test_mask(dataset, tmp_path, 1)
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", str(copy), "--estimators", "rayq",
                 "--counts", "0", "--out", str(out)]) == 0
    (row,) = _read_jsonl(out / "sweep.jsonl")
    assert 0.0 < row["auprc"] <= 1.0
    per_frame = (out / "sweep_frames.csv").read_text().splitlines()
    header = per_frame[0].split(",")
    assert per_frame[2].split(",")[header.index("auprc")] == ""


def test_missing_files_exit_code(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "none.fvnt"),
                 "--dataset", str(tmp_path), "--split", "test"]) == 3
    assert main(["train", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "x.fvnt")]) == 3


def _json_edit(edit):
    """A bytes edit applying `edit` to the parsed JSON document."""
    def apply(raw):
        doc = json.loads(raw)
        edit(doc)
        return json.dumps(doc).encode()
    return apply


# file (a manifest key of test frame 0, or manifest.json) -> bytes edit
MALFORMED_FILES = {
    "pgm-width-2x6": ("mask", lambda b: b.replace(b"64 64", b"2x6 64", 1)),
    "quaternion-norm-2.24": ("cloud", lambda b: b[:32] + struct.pack("<4d", 1, 2, 0, 0) + b[64:]),
    "nan-point": ("cloud", lambda b: b[:68] + struct.pack("<f", float("nan")) + b[72:]),
    "manifest-not-json": ("manifest.json", lambda b: b"{not json"),
    "grid-extent-negative": ("manifest.json", _json_edit(lambda m: m["grid"].update(extent=-1))),
    "filter-unknown-key": ("manifest.json", _json_edit(lambda m: m["filter"].update(bogus=1))),
    "grid-without-resolution": ("manifest.json",
                                _json_edit(lambda m: m["grid"].pop("resolution"))),
    "test-row-without-mask": ("manifest.json",
                              _json_edit(lambda m: m["splits"]["test"][0].pop("mask"))),
    "test-row-not-object": ("manifest.json",
                            _json_edit(lambda m: m["splits"]["test"].__setitem__(0, "x.fvpc"))),
    "splits-not-object": ("manifest.json", _json_edit(lambda m: m.update(splits=[]))),
}


@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_malformed_dataset_file_is_data_error(dataset, tmp_path, capsys, case):
    """A corrupted dataset file exits 3 with an error that names it."""
    target, edit = MALFORMED_FILES[case]
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    if target != "manifest.json":
        target = load_manifest(copy)["splits"]["test"][0][target]
    path = copy / target
    path.write_bytes(edit(path.read_bytes()))
    assert main(["estimate", "--dataset", str(copy), "--method", "rayq",
                 "--out", str(tmp_path / "est")]) == 3
    assert str(path) in capsys.readouterr().err


def test_crossval_dataset_that_does_not_fit_is_data_error(dataset, tmp_path, capsys):
    """Too few train frames for --folds, or a resolution that --depth cannot
    halve that often, is the dataset's fault: exit 3, before any training."""
    assert main(["crossval", "--dataset", str(dataset), "--folds", "7", "--depth", "3",
                 "--epochs", "1", "--base-channels", "4"]) == 3
    assert "do not fit the train split: 6 frames" in capsys.readouterr().err
    cfg = tmp_path / "res40.json"
    cfg.write_text(json.dumps({**CONFIG, "grid": {"extent": 75.0, "resolution": 40},
                               "frames": {"train": 2, "val": 1, "test": 1}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ds40")]) == 0
    assert main(["crossval", "--dataset", str(tmp_path / "ds40"), "--folds", "2",
                 "--depth", "4", "--epochs", "1", "--base-channels", "4"]) == 3
    assert "at resolution 40" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ValueError, FovlabError])
def test_other_errors_are_not_data_errors(monkeypatch, tmp_path, exc):
    """Only DataError and OSError read as exit 3; anything else a command
    raises is a bug and propagates with its traceback."""
    import fovlab.cli as cli

    def broken(args):
        raise exc("a bug")

    monkeypatch.setattr(cli, "cmd_synth", broken)
    with pytest.raises(exc, match="a bug"):
        main(["synth", "--out", str(tmp_path / "o")])


def test_bad_config_rejected(tmp_path, dataset, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_section": 1}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    bad.write_text(json.dumps({"net": {"depth": 3, "bogus_key": 2}}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    bad.write_text(json.dumps({"attack": {"n_points": 25}}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    bad.write_text(json.dumps({"family": "indoor"}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "family: expected an object" in capsys.readouterr().err
    for rate in ("NaN", "Infinity"):
        bad.write_text(f'{{"train": {{"learning_rate": {rate}}}}}')
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "positive and finite" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_commands_echo_resolved_config(dataset, capsys):
    main(["bench", "--dataset", str(dataset), "--method", "rayq", "--frames", "5",
          "--n-bins", "180"])
    out = capsys.readouterr().out
    assert out.startswith("resolved config:")
