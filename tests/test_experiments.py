import numpy as np
import pytest

from fovlab.datasets import Frame
from fovlab.experiments import (LEARNED_ESTIMATORS, crossval, evaluate, format_table,
                                make_estimator, measure_hz, security_sweep, write_csv,
                                write_jsonl)
from fovlab.errors import DataError
from fovlab.scenes import (LidarModel, SceneFamily, generate_scene, ground_truth_fov,
                           simulate_lidar)
from fovlab.segnet import NetConfig, TrainConfig, unet_init
from fovlab.types import FilterSpec, FovMask, GridSpec


def fake_train(loss_by_channels):
    """Injected trainer: deterministic loss keyed on base_channels."""

    def fn(net, train_set, val_set, cfg):
        loss = loss_by_channels[net.config.base_channels]
        return net, [{"epoch": 1, "train_loss": loss, "val_loss": loss, "seconds": 0.0}]

    return fn


def grid_pairs(channels=(4, 8), lr=1e-3, dropout=0.10, resolution=64):
    return [(NetConfig(depth=3, base_channels=b, dropout_rate=dropout, resolution=resolution),
             TrainConfig(learning_rate=lr, max_epochs=1, seed=0)) for b in channels]


def test_crossval_single_config(tiny_pairs):
    grid = grid_pairs(channels=(4,))
    net_cfg, train_cfg, table = crossval(tiny_pairs, grid, folds=5, seed=0,
                                         train_fn=fake_train({4: 0.5}))
    assert net_cfg.base_channels == 4
    assert len(table) == 5
    assert {row["fold"] for row in table} == set(range(5))


def test_crossval_fold_partition(tiny_pairs):
    """Folds cover all samples with sizes differing by at most 1."""
    seen = []

    def spy_train(net, train_set, val_set, cfg):
        seen.append(len(val_set))
        return net, [{"epoch": 1, "train_loss": 0.1, "val_loss": 0.1, "seconds": 0.0}]

    crossval(tiny_pairs, grid_pairs(channels=(4,)), folds=5, seed=0, train_fn=spy_train)
    assert sum(seen) == len(tiny_pairs)
    assert max(seen) - min(seen) <= 1


def test_crossval_planted_optimum(tiny_pairs):
    net_cfg, _, _ = crossval(tiny_pairs, grid_pairs(channels=(4, 8, 16)), folds=3,
                             seed=0, train_fn=fake_train({4: 0.9, 8: 0.2, 16: 0.7}))
    assert net_cfg.base_channels == 8


def test_crossval_tie_breaks_smaller_params(tiny_pairs):
    net_cfg, train_cfg, _ = crossval(tiny_pairs, grid_pairs(channels=(16, 4)), folds=3,
                                     seed=0, train_fn=fake_train({4: 0.5, 16: 0.5}))
    assert net_cfg.base_channels == 4


def test_crossval_tie_breaks_lower_lr(tiny_pairs):
    grid = grid_pairs(channels=(4,), lr=1e-2) + grid_pairs(channels=(4,), lr=1e-4)
    net_cfg, train_cfg, _ = crossval(tiny_pairs, grid, folds=3, seed=0,
                                     train_fn=fake_train({4: 0.5}))
    assert train_cfg.learning_rate == 1e-4


def test_crossval_rejects_off_grid(tiny_pairs):
    bad = [(NetConfig(depth=3, base_channels=5, dropout_rate=0.10, resolution=64),
            TrainConfig(learning_rate=1e-3))]
    with pytest.raises(ValueError):
        crossval(tiny_pairs, bad, folds=3, seed=0, train_fn=fake_train({5: 0.1}))
    bad = grid_pairs(channels=(4,), dropout=0.2)
    with pytest.raises(ValueError):
        crossval(tiny_pairs, bad, folds=3, seed=0, train_fn=fake_train({4: 0.1}))
    bad = grid_pairs(channels=(4,), lr=5e-3)
    with pytest.raises(ValueError):
        crossval(tiny_pairs, bad, folds=3, seed=0, train_fn=fake_train({4: 0.1}))


@pytest.mark.parametrize("folds", [0, 1, 10**6])
def test_crossval_rejects_fold_count(tiny_pairs, folds):
    """One fold would train on nothing; more folds than samples leave some empty."""
    with pytest.raises(ValueError, match=f"got {folds} folds"):
        crossval(tiny_pairs, grid_pairs(channels=(4,)), folds=folds, seed=0,
                 train_fn=fake_train({4: 0.5}))


def test_crossval_too_few_samples(tiny_pairs):
    with pytest.raises(ValueError):
        crossval(tiny_pairs[:3], grid_pairs(channels=(4,)), folds=5, seed=0,
                 train_fn=fake_train({4: 0.1}))


@pytest.fixture(scope="module")
def sweep_setup():
    family = SceneFamily.preset("outdoor-sparse")
    lidar = LidarModel(n_beams=180, max_range=75.0, range_noise_sigma=0.0, dropout_prob=0.0)
    grid = GridSpec(extent=75.0, resolution=64)
    filt = FilterSpec(max_range=75.0)
    frames = []
    for seed in range(6):
        scene = generate_scene(family, seed)
        frames.append(Frame(simulate_lidar(scene, lidar, seed),
                            ground_truth_fov(scene, lidar, grid)))
    return frames, grid, filt


def test_sweep_zero_count_equals_benign(sweep_setup):
    frames, grid, filt = sweep_setup
    rows, _ = security_sweep(frames, grid, filt, estimators=("rayq",),
                             spoof_counts=(0,), n_bins=180, seed=0)
    rows2, _ = security_sweep(frames, grid, filt, estimators=("rayq",),
                              spoof_counts=(0, 50), n_bins=180, seed=0)
    assert rows[0] == rows2[0]


def test_sweep_classical_precision_monotone_trend(sweep_setup):
    frames, grid, filt = sweep_setup
    rows, _ = security_sweep(frames, grid, filt, estimators=("rayq",),
                             spoof_counts=(0, 150), n_bins=180, seed=0)
    benign, attacked = rows[0], rows[1]
    assert attacked["precision"] < benign["precision"]


def test_sweep_learned_requires_model(sweep_setup):
    frames, grid, filt = sweep_setup
    with pytest.raises(DataError):
        security_sweep(frames, grid, filt, estimators=("mle",), spoof_counts=(0,))


def test_sweep_per_frame_rows(sweep_setup):
    frames, grid, filt = sweep_setup
    _, per_frame = security_sweep(frames, grid, filt, estimators=("rayq",),
                                  spoof_counts=(0, 25), n_bins=180, seed=0)
    assert len(per_frame) == 2 * len(frames)
    assert {r["n_spoof"] for r in per_frame} == {0, 25}


def test_make_estimator_checks_parameters_up_front(small_grid, default_filter):
    """Bad parameters raise when the estimator is built, not as per-frame errors."""
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.05,
                              resolution=64), seed=0)
    for name, kwargs in [("voronoi", {}), ("rayq", {"n_bins": 4}), ("concave", {"k": 2}),
                         ("mcd", {"net": net, "mcd_passes": 0}),
                         ("mle", {"net": net, "threshold": 1.5})]:
        with pytest.raises(ValueError):
            make_estimator(name, small_grid, default_filter, **kwargs)
    with pytest.raises(DataError):
        make_estimator("mle", small_grid, default_filter)
    with pytest.raises(DataError):
        make_estimator("mle", GridSpec(extent=75.0, resolution=32), default_filter, net=net)


def test_evaluate_all_invisible_auprc_null(sweep_setup):
    """With no visible cell in any frame AUPRC ranks nothing: null per frame and pooled."""
    frames, grid, filt = sweep_setup
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.05,
                              resolution=64), seed=0)
    blank = [FovMask(grid, np.zeros((64, 64), dtype=bool))] * 2
    for name in LEARNED_ESTIMATORS:
        estimate = make_estimator(name, grid, filt, net=net, mcd_passes=2)
        rows, pooled = evaluate(lambda i: estimate(frames[i].cloud, i), blank)
        assert [r["auprc"] for r in rows] == [None, None]
        assert pooled["auprc"] is None and pooled["recall"] == 0.0


def test_measure_hz_reports_quantiles():
    stats = measure_hz(lambda x: sum(range(1000)), list(range(60)))
    assert stats["frames"] == 60
    assert stats["median_hz"] > 0
    assert stats["p95_hz"] <= stats["median_hz"] * 1.0001


def test_measure_hz_counts_failed_frames():
    def fn(x):
        if x % 3 == 0:
            raise ValueError("degenerate")
        return sum(range(1000))
    stats = measure_hz(fn, list(range(60)))
    assert (stats["frames"], stats["failed"]) == (40, 20)
    with pytest.raises(DataError, match="all 2 raised"):
        measure_hz(fn, [0, 3])
    with pytest.raises(KeyError):  # any other exception is a bug and propagates
        measure_hz(lambda x: {}[x], [1])


def test_writers_and_table(tmp_path):
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    write_jsonl(tmp_path / "r.jsonl", rows)
    lines = (tmp_path / "r.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    write_csv(tmp_path / "r.csv", rows)
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == "a,b"
    table = format_table(rows)
    assert "0.5000" in table and table.startswith("a")
