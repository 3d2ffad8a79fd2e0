"""Bound boxes for the log10 inverse-lengthscale search space."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box with finite bounds, lower < upper in every dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not np.isfinite([lower, upper]).all():
            raise ValueError("box bounds must be finite")
        if np.any(lower >= upper):
            raise ValueError("box is empty")

    @property
    def d(self) -> int:
        return self.lower.size


def _box(d: int, lo: float, hi: float) -> SearchBox:
    # Bounds as center -+ half, not lo/hi: the two differ in the last bit at some d, d = 12 too.
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return SearchBox(np.full(d, center - half), np.full(d, center + half))


def default_beta_box(d: int) -> SearchBox:
    """Default search box for start generation.

    Per dimension: -2 - log10(d) <= beta_k <= log10(500) - log10(d).
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return _box(d, -2.0 - math.log10(d), math.log10(500.0) - math.log10(d))


def if_beta_box(d: int) -> SearchBox:
    """Wider box used as the bound constraint for implicit filtering.

    Per dimension: d * (-2 - log10(d)) <= beta_k <= log10(500).  The negative
    region is enlarged because optimal lengthscale exponents are rarely large
    and positive.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return _box(d, d * (-2.0 - math.log10(d)), math.log10(500.0))
