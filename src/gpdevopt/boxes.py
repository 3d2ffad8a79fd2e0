"""Bound boxes for the log10 inverse-lengthscale search space."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box with an optional multiplicative expansion factor.

    The stored bounds are the nominal ones; `bounds()` applies the scale
    factor about the box center, which is how every consumer sees the box.
    """

    lower: np.ndarray
    upper: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        # An overflowing scale yields infinite bounds; the check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = self.bounds()
        if not np.isfinite([lo, hi]).all():
            raise ValueError("box bounds must be finite after scaling")
        if np.any(lo >= hi):
            raise ValueError("box is empty after scaling")

    @property
    def d(self) -> int:
        return self.lower.size

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective (lower, upper) after expanding about the center."""
        center = 0.5 * (self.lower + self.upper)
        half = 0.5 * self.scale * (self.upper - self.lower)
        return center - half, center + half


def default_beta_box(d: int, scale: float = 1.0) -> SearchBox:
    """Default search box for start generation.

    Per dimension: -2 - log10(d) <= beta_k <= log10(500) - log10(d).
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    lo = -2.0 - math.log10(d)
    hi = math.log10(500.0) - math.log10(d)
    return SearchBox(np.full(d, lo), np.full(d, hi), scale)


def if_beta_box(d: int, scale: float = 1.0) -> SearchBox:
    """Wider box used as the bound constraint for implicit filtering.

    Per dimension: d * (-2 - log10(d)) <= beta_k <= log10(500).  The negative
    region is enlarged because optimal lengthscale exponents are rarely large
    and positive.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    lo = d * (-2.0 - math.log10(d))
    hi = math.log10(500.0)
    return SearchBox(np.full(d, lo), np.full(d, hi), scale)
