"""Cutoff sequence, delay classes and the class lines.

The belief interval [0, 1] splits into classes D_n = [mu_bar_n, mu_bar_{n+1});
a seller whose prior sits in D_n lets n periods pass before trading with the
low-valuation buyer.  Write z = mu / (1 - mu) for the odds of a belief and
r = v_low / v_high, and take values in units of v_high.  A class-n seller's
revenue per unit of low-type mass is then a line in the odds, p_n z + b_n,
whose slope is the class price p_n = 1 - delta^n (1 - r).  Consecutive lines
cross at the next cutoff, and the sale/delay split gives each intercept from
the one below, so from (z_0, b_0) = (0, r) the whole chain is

    z_{n+1} = (z_n + b_n) / (delta^n (1 - r)),
    b_{n+1} = delta b_n - (1 - delta) z_n.

The chain depends only on r and delta.  It runs up to belief 1, stopping only
where the next cutoff rounds to 1 or onto the last one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import MarketParams, belief, mu_bar_1

# Longest chain compute_cutoffs builds.  The count levels off near 30,000 as
# delta -> 1 at v_low / v_high = 1e-3, but grows without bound as the ratio
# -> 0 and delta -> 1 together (12,032 at 1e-300 and 1 - 1e-5).  Longer
# chains lie outside the domain.
MAX_CUTOFFS = 80_000
# The chain runs on (z, b) times this power of two, which is exact, so that
# odds and intercepts of subnormal size keep their precision.
SCALE = 2.0**64


@dataclass(frozen=True, eq=False)
class CutoffTable:
    """The class lines' odds z_n and intercepts b_n (see the module
    docstring) as the chain computed them, with z_0 = 0, and the cutoffs
    they place: mu_bar_0 = 0 <= mu_bar_1 < mu_bar_2 < ... up to belief 1,
    the last class running to 1.  Each cutoff is the belief of its odds,
    except mu_bar_1 = v_low / v_high, which holds by definition.
    """

    params: MarketParams
    odds: np.ndarray = field(repr=False)
    intercepts: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = self.odds
        if (len(z) < 2 or z[0] != 0.0 or len(self.intercepts) != len(z)
                or np.any(self.cutoff_array[2:] <= self.cutoff_array[1:-1])):
            raise ValueError(
                "need odds z_0 = 0, one intercept per odds entry and cutoffs "
                f"mu_bar_1 < mu_bar_2 < ..., got odds {z}")

    @cached_property
    def cutoff_array(self) -> np.ndarray:
        # 1 - mu is the accurate side of the top half, as in compute_cutoffs
        z = self.odds * SCALE
        c = np.where(z < SCALE, z / (SCALE + z), 1.0 - SCALE / (SCALE + z))
        c[1] = mu_bar_1(self.params)
        return c

    @cached_property
    def cutoffs(self) -> tuple[float, ...]:
        return tuple(self.cutoff_array.tolist())

    @property
    def degenerate(self) -> bool:
        """v_low = 0 collapses the partition: every positive prior delays at
        posterior 0 and the low type is never served."""
        return self.params.v_low == 0.0

    @cached_property
    def discounts(self) -> np.ndarray:
        """delta^k per class k, the discount on the low type's sale k periods
        out, as scalar powers so that every value built on them matches the
        scalar rent and price formulas bit for bit.  Zero when v_low = 0,
        where that sale never happens."""
        if self.degenerate:
            return np.zeros(len(self.cutoffs))
        d = self.params.delta
        return np.asarray([d**k for k in range(len(self.cutoffs))])

    @cached_property
    def rents(self) -> np.ndarray:
        """The high type's rent delta^k (1 - r) per class k, in units of
        v_high: one minus the class line's slope."""
        return self.discounts * (1.0 - mu_bar_1(self.params))

    def delay_class(self, mu):
        """Number of periods until the no-trade belief path hits 0.

        Ties at a cutoff belong to the higher class (indifference is broken
        in favor of delay).  Beliefs at or beyond the last cutoff belong to
        the final class, which runs to belief 1.  A scalar belief gives an
        int, a 1-D array of beliefs an integer array.
        """
        m = belief(mu)
        if self.degenerate:
            n = np.greater(m, 0.0).astype(np.intp)
        else:
            n = np.searchsorted(self.cutoff_array, m, side="right") - 1
        return int(n) if isinstance(m, float) else n


def indifference_gap(p: MarketParams, table_prefix: CutoffTable, n: int, mu: float) -> float:
    """Value of delaying n+1 periods minus the value of delaying n periods.

    The class-(n+1) line minus the class-n line, read at belief mu:
    v_high (1 - delta) (delta^n (1 - r) mu - (1 - mu)(z_n + b_n)).  Affine
    and strictly increasing in mu, negative at mu_bar_n, and zero exactly
    at mu_bar_{n+1}; this is the equation that pins each cutoff.
    """
    if table_prefix.degenerate:
        raise ValueError("indifference gap is undefined when v_low = 0")
    if not 1 <= n < len(table_prefix.cutoffs):
        raise ValueError(f"need a table prefix holding cutoffs 0..{n}, got {len(table_prefix.cutoffs)}")
    m = belief(mu)
    t = table_prefix
    return float(p.v_high * (1.0 - p.delta) * (
        t.rents[n] * m - (1.0 - m) * (t.odds[n] + t.intercepts[n])))


def compute_cutoffs(p: MarketParams) -> CutoffTable:
    """Build the cutoff table for one parameter set.

    Starts from mu_bar_0 = 0 and mu_bar_1 = v_low / v_high and runs the
    odds recurrence of the module docstring, on (z, b) times SCALE, placing
    mu_bar_n = z_n / (1 + z_n).  The chain stops when the next cutoff is not
    below 1 or not above the last one, which covers a NaN too.  A chain that
    would pass MAX_CUTOFFS entries raises ValueError, as does a ratio that
    underflows to 0, or a market where class 1's posted price rounds onto
    v_low; no table is ever truncated.

    With v_low = 0 the chain stops at once on the table (0, 0), with zero
    odds and intercepts: every positive prior then delays at posterior 0
    forever on the low-type path.
    """
    d, r = p.delta, mu_bar_1(p)
    # with v_low > 0: r == 0 is an underflow, the second test class_price(p, 1) > v_low
    if p.v_low > 0.0 and (r == 0.0 or not p.v_high - d * p.delta_v > p.v_low):
        raise ValueError(
            f"float64 cannot place the cutoff chain at v_low/v_high = {p.v_low!r}/{p.v_high!r}, "
            f"delta = {d!r}: " + ("the ratio is too small, it underflows to 0" if r == 0.0 else
            "class 1's price v_high - delta (v_high - v_low) rounds onto v_low, with delta "
            "too close to 1 or v_low within rounding of v_high, not because the ratio is too small")
        )
    z = [0.0, r * SCALE / (1.0 - r)]
    b = [r * SCALE, d * (r * SCALE)]
    last = r
    while True:
        n = len(z) - 1
        z_next = (z[n] + b[n]) / (d**n * (1.0 - r))
        # 1 - mu is the accurate side of the top half
        mu = z_next / (SCALE + z_next) if z_next < SCALE else 1.0 - SCALE / (SCALE + z_next)
        if not last < mu < 1.0:
            break
        if len(z) >= MAX_CUTOFFS:
            raise ValueError(
                f"the cutoff chain at v_low/v_high = {r:g}, delta = {d!r} "
                f"needs more than {MAX_CUTOFFS} cutoffs"
            )
        last = mu
        z.append(z_next)
        b.append(d * b[n] - (1.0 - d) * z[n])

    return CutoffTable(p, np.asarray(z) / SCALE, np.asarray(b) / SCALE)
