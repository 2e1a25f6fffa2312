"""Problem primitives: market parameters, the belief rule, a probability
in [0, 1] exactly, and a prior's odds."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def belief(value):
    """Validate a probability weight on the high valuation: NaN and a value
    outside [0, 1] by any amount are rejected, and values close to an
    endpoint pass unchanged: cutoffs can lie there.  A scalar comes back as
    a float (-0.0 as 0.0), an array of weights as a new float array.
    """
    v = np.array(value, dtype=float)
    # NaN fails both tests; initial= lets an empty array pass
    if not (v.min(initial=0.0) >= 0.0 and v.max(initial=1.0) <= 1.0):
        first = float(v[~((v >= 0.0) & (v <= 1.0))].flat[0])  # one line for an array too
        raise ValueError(f"belief {first!r} lies outside [0, 1]")
    return float(v) + 0.0 if v.ndim == 0 else v


def prior_odds(m0):
    """Odds m0 / (1 - m0) of a checked prior or array of priors, finite at a
    subnormal prior; prior 1, of infinite odds, raises ValueError."""
    if (m0 == 1.0) if isinstance(m0, float) else (m0 == 1.0).any():
        raise ValueError("prior 1 has infinite odds: a prior must lie below 1")
    return m0 / (1.0 - m0)


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
        object.__setattr__(self, "v_low", self.v_low + 0)  # -0.0 as 0.0, as belief folds it

    @property
    def delta_v(self) -> float:
        """Valuation gap v_high - v_low, the high type's per-unit rent."""
        return self.v_high - self.v_low


def mu_bar_1(p: MarketParams) -> float:
    """First interior cutoff: the belief at which the virtual value hits zero."""
    return p.v_low / p.v_high

