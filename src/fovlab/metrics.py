"""Cell-level segmentation metrics: confusion counts, P/R/F1/accuracy, AUPRC.

Visible is the positive class. Undefined ratios (0/0) are reported as 0,
which keeps all-invisible degenerate frames well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import FovMask


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)


@dataclass
class MetricRecord:
    precision: float
    recall: float
    accuracy: float
    f1: float
    labels: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        return {**self.labels, "precision": self.precision, "recall": self.recall,
                "accuracy": self.accuracy, "f1": self.f1}


def confusion(pred: FovMask, gt: FovMask) -> ConfusionCounts:
    if pred.mask.shape != gt.mask.shape:
        raise ValueError("prediction and ground-truth shapes differ")
    p, g = pred.mask, gt.mask
    tp = int(np.count_nonzero(p & g))
    n_p, n_g = int(np.count_nonzero(p)), int(np.count_nonzero(g))
    return ConfusionCounts(tp=tp, fp=n_p - tp, tn=p.size - n_p - n_g + tp, fn=n_g - tp)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(c: ConfusionCounts, labels: dict | None = None) -> MetricRecord:
    precision = _safe_div(c.tp, c.tp + c.fp)
    recall = _safe_div(c.tp, c.tp + c.fn)
    accuracy = _safe_div(c.tp + c.tn, c.total)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return MetricRecord(precision, recall, accuracy, f1, labels=dict(labels or {}))


def iou(pred: FovMask, gt: FovMask) -> float:
    c = confusion(pred, gt)
    return _safe_div(c.tp, c.tp + c.fp + c.fn)


def auprc_arrays(scores: np.ndarray, positives: np.ndarray) -> float:
    """Area under the precision-recall curve, step-wise (right-continuous) sum.

    Cells are ranked by descending score, and cells of equal score form one
    threshold group: -0.0 and 0.0 are one group, +inf ranks first and -inf
    after every finite score. NaN scores rank last, each its own group, in
    index order. Only the groups matter, not the order inside one, so the
    scores are sorted by value and each group's true positives are counted
    by searching its score among the sorted scores of the positive cells.
    Finite scores of at most two values, such as a binary mask's, need no
    sort: the groups are the cells at the top value and all cells.
    Requires at least one positive cell.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positives = np.asarray(positives, dtype=bool).ravel()
    if scores.shape != positives.shape:
        raise ValueError("score and label shapes differ")
    n_pos = int(np.count_nonzero(positives))
    if n_pos == 0:
        raise ValueError("AUPRC undefined: ground truth has no positive cells")
    lo, hi = scores.min(), scores.max()
    top = scores == hi
    if np.isfinite(lo) and np.isfinite(hi) and np.all(top | (scores == lo)):
        group_end = np.array([np.count_nonzero(top), scores.size]) - 1
        tp = np.array([np.count_nonzero(top & positives), n_pos])
        if lo == hi:  # one group holds every cell
            group_end, tp = group_end[1:], tp[1:]
    else:
        keys = -scores  # ascending keys rank descending scores, NaN last
        s = np.sort(keys)
        # last index of each tied group; NaN != NaN, so each NaN is a group of its own
        group_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
        tp = np.searchsorted(np.sort(keys[positives]), s[group_end], "right")
        # a search for NaN counts every positive NaN, so each NaN group, one of the
        # last, takes off the positive NaNs that come after it in index order
        nan_pos = positives[np.isnan(scores)]
        tp[tp.size - nan_pos.size:] -= np.count_nonzero(nan_pos) - np.cumsum(nan_pos)
    count = group_end + 1.0
    precision = tp / count
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


__all__ = ["ConfusionCounts", "MetricRecord", "confusion", "metrics", "iou",
           "auprc_arrays"]
