"""Problem primitives: market parameters and belief handling."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bayes updates accumulate rounding; beliefs this far outside [0, 1] clamp to it.
BELIEF_TOL = 1e-12


def belief(value):
    """Validate a probability weight on the high valuation.

    Values in [-1e-12, 0) or (1, 1 + 1e-12] are clamped to the endpoint;
    anything further outside [0, 1] is rejected.  Interior values pass
    unchanged, however close to an endpoint: cutoffs can lie there.  A
    scalar comes back as a float, a 1-D array of weights as a float array.
    """
    if not (isinstance(value, (float, int)) or np.ndim(value) == 0):
        v = np.asarray(value, dtype=float)
        if v.size:
            # the scalar rule rejects NaN and the extremes outside the tolerance
            belief(float(v.min()))
            belief(float(v.max()))
        return np.clip(v, 0.0, 1.0)
    v = float(value)
    if math.isnan(v):
        raise ValueError("belief must be a number, got NaN")
    if v < -BELIEF_TOL or v > 1.0 + BELIEF_TOL:
        raise ValueError(f"belief {value!r} lies outside [0, 1]")
    if v <= 0.0:
        return 0.0
    if v >= 1.0:
        return 1.0
    return v


@dataclass(frozen=True)
class MarketParams:
    """One market: the two valuations and the common discount factor."""

    v_low: float
    v_high: float
    delta: float

    def __post_init__(self):
        if not (0.0 <= self.v_low < self.v_high and math.isfinite(self.v_high)):
            raise ValueError(
                f"need 0 <= v_low < v_high < inf, got v_low={self.v_low}, v_high={self.v_high}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"discount factor must lie in (0, 1), got {self.delta}")

    @property
    def delta_v(self) -> float:
        """Valuation gap v_high - v_low, the high type's per-unit rent."""
        return self.v_high - self.v_low


def mu_bar_1(p: MarketParams) -> float:
    """First interior cutoff: the belief at which the virtual value hits zero."""
    return p.v_low / p.v_high

