"""Inference modes: deterministic MLE, Monte Carlo dropout, binarization."""

from __future__ import annotations

from ..types import BevImage, ConfidenceMap, FovMask, ProbMap, seeded_rng
from .network import Network, forward, forward_maps

DEFAULT_THRESHOLD = 0.7  # visibility decision threshold on probability maps


def infer_mle(net: Network, image: BevImage) -> ProbMap:
    """Maximum-likelihood estimate: one forward pass with dropout off."""
    return forward(net, image)


def infer_mcd(net: Network, image: BevImage, T: int = 20,
              seed: int = 0) -> tuple[ProbMap, ConfidenceMap]:
    """T stochastic forward passes with dropout active.

    Pass t draws its dropout masks from `seeded_rng(seed, t)`, so passes may
    run in any order (or in parallel) with identical results. Returns the
    per-cell mean map and the population standard deviation as a confidence map.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    stack = forward_maps(net, image, [seeded_rng(seed, t) for t in range(T)])
    mean = stack.mean(axis=0)
    sigma = stack.std(axis=0)  # population std (divide by T)
    return ProbMap(image.spec, mean), ConfidenceMap(image.spec, sigma)


def binarize(pm: ProbMap, threshold: float = DEFAULT_THRESHOLD) -> FovMask:
    """Visible iff probability strictly greater than threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return FovMask(pm.spec, pm.values > threshold)
