"""Inference modes: deterministic MLE, Monte Carlo dropout, binarization."""

from __future__ import annotations

import numpy as np

from ..types import BevImage, FovMask, ProbMap, seeded_rng
from .network import Network, forward_maps

DEFAULT_THRESHOLD = 0.7  # visibility decision threshold on probability maps


def infer_mle(net: Network, image: BevImage) -> ProbMap:
    """Maximum-likelihood estimate: one forward pass with dropout off."""
    return ProbMap(image.spec, forward_maps(net, image, [None])[0])


def infer_mcd(net: Network, image: BevImage, T: int = 20,
              seed: int = 0) -> tuple[ProbMap, np.ndarray]:
    """T stochastic forward passes with dropout active.

    Pass t draws its dropout masks from `seeded_rng(seed, t)`, so passes may
    run in any order (or in parallel) with identical results. Returns the
    per-cell mean map and the confidence map: the (H, W) float64 population
    standard deviation of the passes.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    stack = forward_maps(net, image, [seeded_rng(seed, t) for t in range(T)])
    return ProbMap(image.spec, stack.mean(axis=0)), stack.std(axis=0)


def binarize(pm: ProbMap, threshold: float = DEFAULT_THRESHOLD) -> FovMask:
    """Visible iff probability strictly greater than threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return FovMask(pm.spec, pm.values > threshold)
