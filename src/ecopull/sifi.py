"""Retrieval-quality score of a finished round (significance and fidelity).

The score runs over the images whose true similarity clears the server-side
threshold: a delivered one contributes the compression's fidelity distance,
a lost one the penalty, and the score is one minus their mean. With no such
images the round scores a perfect 1. The simulator's round kernel computes
it; this module holds the fidelity distance.
"""

from __future__ import annotations

__all__ = [
    "FIDELITY_BASE",
    "fidelity_distance",
]

# Fitted normalized perceptual distance of the generative compressor vs. rate.
FIDELITY_BASE = 0.0725


def fidelity_distance(rate: float) -> float:
    """Normalized reconstruction distance at a compression rate, in [0, 1]."""
    if not rate >= 0:
        raise ValueError(f"rate={rate} must be >= 0")
    return FIDELITY_BASE ** rate
