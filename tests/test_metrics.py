import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovlab.metrics import (ConfusionCounts, auprc_arrays, confusion, iou, metrics)
from fovlab.scenes import SceneFamily, default_grid, default_lidar, generate_scene, ground_truth_fov
from fovlab.types import FovMask, GridSpec

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_confusion_all_visible():
    spec = GridSpec(extent=8.0, resolution=8)
    full = FovMask(spec, np.ones((8, 8), dtype=bool))
    c = confusion(full, full)
    assert (c.tp, c.fp, c.tn, c.fn) == (64, 0, 0, 0)


def test_confusion_inverted():
    spec = GridSpec(extent=8.0, resolution=8)
    rng = np.random.default_rng(0)
    gt = FovMask(spec, rng.uniform(size=(8, 8)) > 0.5)
    pred = FovMask(spec, ~gt.mask)
    c = confusion(pred, gt)
    assert c.tp == 0 and c.tn == 0
    assert c.fp + c.fn == 64


def test_confusion_matches_loop_oracle():
    rng = np.random.default_rng(1)
    spec = GridSpec(extent=8.0, resolution=16)
    pred = FovMask(spec, rng.uniform(size=(16, 16)) > 0.3)
    gt = FovMask(spec, rng.uniform(size=(16, 16)) > 0.6)
    c = confusion(pred, gt)
    tp = fp = tn = fn = 0
    for i in range(16):
        for j in range(16):
            p, g = pred.mask[i, j], gt.mask[i, j]
            tp += p and g
            fp += p and not g
            tn += not p and not g
            fn += not p and g
    assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)


def test_confusion_shape_mismatch():
    a = FovMask(GridSpec(extent=8.0, resolution=8), np.ones((8, 8), bool))
    b = FovMask(GridSpec(extent=8.0, resolution=16), np.ones((16, 16), bool))
    with pytest.raises(ValueError):
        confusion(a, b)


def test_metrics_perfect():
    m = metrics(ConfusionCounts(tp=10, fp=0, tn=20, fn=0))
    assert m.precision == m.recall == m.accuracy == m.f1 == 1.0


def test_metrics_zero_convention():
    m = metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_metrics_hand_computed():
    m = metrics(ConfusionCounts(tp=9, fp=1, tn=87, fn=3))
    assert m.precision == pytest.approx(0.9, abs=1e-15)
    assert m.recall == pytest.approx(0.75, abs=1e-15)
    assert m.accuracy == pytest.approx(0.96, abs=1e-15)
    assert m.f1 == pytest.approx(9.0 / 11.0, abs=1e-15)


def test_metrics_match_formulas_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, 4))
        m = metrics(ConfusionCounts(tp, fp, tn, fn))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        assert m.precision == p and m.recall == r
        total = tp + fp + tn + fn
        assert m.accuracy == ((tp + tn) / total if total else 0.0)
        assert m.f1 == (2 * p * r / (p + r) if p + r else 0.0)


def brute_force_auprc(scores, labels):
    """Exhaustive threshold sweep; one point per distinct score, step-wise sum."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, bool)
    n_pos = labels.sum()
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        sel = scores >= t
        tp = int((sel & labels).sum())
        precision = tp / int(sel.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def _auprc_reference(scores, positives):
    """auprc_arrays as it was: a stable argsort of the negated scores, so ties
    keep index order, and a cumulative sum of the positives in that order."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positives = np.asarray(positives, dtype=bool).ravel()
    n_pos = int(np.count_nonzero(positives))
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = positives[order].astype(np.float64)
    # last index of each tied group
    group_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tp = np.cumsum(t)[group_end]
    count = group_end + 1.0
    precision = tp / count
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


# scores that rank specially: signed zeros, infinities and NaN of either sign
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 0.5, 1.0])


@st.composite
def scored_cells(draw):
    """(scores, positives) of 1 to 300 cells with at least one positive, or
    with every cell positive."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["binary", "two_values", "rounded", "signed_zeros", "special",
                                 "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "binary":
        scores = (rng.uniform(size=n) < rng.uniform()).astype(np.float64)
    elif kind == "two_values":  # two finite values, or one, with 0.0 and -0.0 mixed
        scores = rng.choice(rng.choice(np.array([0.0, 1.0, 0.25, -3.0, 1e300]), 2), n)
        scores[(scores == 0.0) & (rng.uniform(size=n) < 0.5)] = -0.0
    elif kind == "rounded":  # ties
        scores = np.round(rng.uniform(size=n), int(rng.integers(0, 3)))
    elif kind == "signed_zeros":
        scores = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), n)
    elif kind == "special":  # rounded scores, some replaced at random positions
        scores = np.round(rng.standard_normal(n), 1)
        hit = rng.uniform(size=n) < rng.uniform()
        scores[hit] = rng.choice(SPECIAL, int(hit.sum()))
    else:
        scores = np.full(n, rng.choice(SPECIAL))
    positives = rng.uniform(size=n) < rng.uniform()
    positives[rng.integers(n)] = True
    if draw(st.booleans()) and draw(st.booleans()):
        positives[:] = True
    return scores, positives


def assert_same_float(got: float, want: float) -> None:
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cells=scored_cells())
def test_auprc_matches_reference_property(cells):
    """Ranking by a value sort gives the argsort path's float exactly: the
    threshold groups and their counts are the same, whatever the order of
    cells inside a group."""
    scores, positives = cells
    assert_same_float(auprc_arrays(scores, positives), _auprc_reference(scores, positives))


def test_auprc_matches_reference_on_res256_oracle_masks():
    """Binary (with 0.0 and -0.0 mixed), constant and tied scores over a whole
    res-256 oracle mask, and against all-visible ground truth."""
    family = SceneFamily.preset("outdoor-sparse")
    grid, lidar = default_grid("outdoor-sparse", 256), default_lidar("outdoor-sparse")
    truth, other = (ground_truth_fov(generate_scene(family, seed), lidar, grid).mask
                    for seed in (0, 1))
    rng = np.random.default_rng(5)
    signed = np.where(other, 1.0, np.where(rng.uniform(size=other.shape) < 0.5, -0.0, 0.0))
    for scores in (other.astype(np.float64), signed, np.zeros(other.shape),
                   np.round(np.clip(other + rng.normal(0.0, 0.3, other.shape), 0.0, 1.0), 2)):
        for positives in (truth, np.ones_like(truth)):
            assert_same_float(auprc_arrays(scores, positives), _auprc_reference(scores, positives))


def test_auprc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([True, True, False, False])
    assert auprc_arrays(scores, labels) == pytest.approx(1.0, abs=1e-15)


def test_auprc_constant_equals_prevalence():
    scores = np.full(10, 0.4)
    labels = np.array([True] * 3 + [False] * 7)
    assert auprc_arrays(scores, labels) == pytest.approx(0.3, abs=1e-15)


def test_auprc_requires_positive_cells():
    with pytest.raises(ValueError):
        auprc_arrays(np.array([0.1, 0.2]), np.array([False, False]))


def test_auprc_exhaustive_small_instances():
    """All score/label combinations on up to 12 cells, quantized score grid."""
    levels = np.array([0.1, 0.5, 0.9])
    rng = np.random.default_rng(3)
    for n in range(2, 13):
        for _ in range(40):
            scores = levels[rng.integers(0, 3, n)]
            labels = rng.uniform(size=n) > 0.5
            if not labels.any():
                continue
            got = auprc_arrays(scores, labels)
            want = brute_force_auprc(scores, labels)
            assert got == pytest.approx(want, abs=1e-12), (scores, labels)


def test_auprc_random_large_instances():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(20, 200))
        scores = rng.uniform(size=n)
        if rng.uniform() < 0.5:
            scores = np.round(scores, 1)  # force ties
        labels = rng.uniform(size=n) > rng.uniform(0.2, 0.8)
        if not labels.any():
            labels[0] = True
        got = auprc_arrays(scores, labels)
        want = brute_force_auprc(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_iou():
    spec = GridSpec(extent=8.0, resolution=8)
    m1 = FovMask(spec, np.zeros((8, 8), bool))
    m2 = FovMask(spec, np.zeros((8, 8), bool))
    m1.mask[:4] = True
    m2.mask[2:6] = True
    assert iou(m1, m2) == pytest.approx(2.0 / 6.0)
