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

The chain depends only on r and delta.  It runs in odds up to ODDS_TOP, the
highest odds of a float64 belief below 1, and a prior's class is decided by
its odds alone: each cutoff is the first float belief whose odds reach z_n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import MarketParams, belief, mu_bar_1

# Longest chain compute_cutoffs runs, counted before the cut at the first
# belief tie.  It grows without bound as v_low / v_high -> 0 and delta -> 1
# together; 110,000 admits every market an 80,000 bound on the cut table did
# (the longest, at 10^-3.45 and 1 - 10^-9.816, runs 101,424).
MAX_CUTOFFS = 110_000
# The chain runs on (z, b) times this power of two, which is exact, so that
# odds and intercepts of subnormal size keep their precision.
SCALE = 2.0**64
# The odds of 1 - 2^-53, the highest odds of a float64 belief below 1: no
# float prior falls in a class whose odds exceed it.
ODDS_TOP = 2.0**53 - 1.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CutoffTable:
    """The class lines' odds z_n and intercepts b_n (see the module
    docstring) as the chain computed them, 0 = z_0 <= z_1 < z_2 < ..., and
    the cutoffs they place below belief 1, the last class running to 1.
    Each cutoff is the first float belief of its class, the least mu whose
    odds mu / (1 - mu) reach z_n, except mu_bar_1 = v_low / v_high, which
    holds by definition.  `cutoffs` is one float64 array; the table makes
    every array it holds read-only.
    """

    params: MarketParams
    odds: np.ndarray = field(repr=False)
    intercepts: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = self.odds
        if (len(z) < 2 or z[0] != 0.0 or len(self.intercepts) != len(z) or np.any(z[2:] <= z[1:-1])
                or np.any(self.cutoffs[2:] < self.cutoffs[1])):
            raise ValueError(
                "need odds z_0 = 0 and z_1 < z_2 < ..., one intercept per odds entry "
                f"and no cutoff below mu_bar_1, got odds {z}")
        _read_only(z)
        _read_only(self.intercepts)

    @cached_property
    def cutoffs(self) -> np.ndarray:
        # the least mu whose odds, formed as core.prior_odds forms a
        # prior's, reach z_n; z / (1 + z) lies within two ulps of it
        z = self.odds
        c = z / (1.0 + z)
        with np.errstate(divide="ignore"):  # belief 1 has odds inf
            while (short := c / (1.0 - c) < z).any():
                c[short] = np.nextafter(c[short], 1.0)
            prev = np.nextafter(c, -1.0)
            while (reach := prev / (1.0 - prev) >= z).any():
                c[reach] = prev[reach]
                prev = np.nextafter(c, -1.0)
        c[1] = mu_bar_1(self.params)
        return _read_only(c)

    @property
    def degenerate(self) -> bool:
        """v_low = 0 collapses the partition: every positive prior delays at
        posterior 0 and the low type is never served."""
        return self.params.v_low == 0.0

    @cached_property
    def discounts(self) -> np.ndarray:
        """delta^k per class k, the discount on the low type's sale k periods
        out, as scalar powers so that every value built on them matches one
        formed from the scalar delta**k bit for bit.  Zero when v_low = 0,
        where that sale never happens."""
        if self.degenerate:
            return _read_only(np.zeros(len(self.odds)))
        d = self.params.delta
        return _read_only(np.asarray([d**k for k in range(len(self.odds))]))

    @cached_property
    def rents(self) -> np.ndarray:
        """The high type's rent delta^k (1 - r) per class k, in units of
        v_high: one minus the class line's slope."""
        return _read_only(self.discounts * (1.0 - mu_bar_1(self.params)))

    @cached_property
    def prices(self) -> np.ndarray:
        """The price v_high - delta^k (v_high - v_low) a class-k seller
        posts, v_low at k = 0 by assignment; v_high at every k >= 1 when
        v_low = 0."""
        p = self.params
        prices = p.v_high - self.discounts * p.delta_v
        prices[0] = p.v_low
        return _read_only(prices)

    def delay_class(self, mu):
        """Number of periods until the no-trade belief path hits 0.

        Ties at a cutoff belong to the higher class (indifference is broken
        in favor of delay).  Beliefs at or beyond the last cutoff belong to
        the final class, which runs to belief 1.  A scalar belief gives an
        int, a 1-D array of beliefs an integer array.
        """
        m = belief(mu)
        n = self.classes(m)
        return int(n) if isinstance(m, float) else n

    def classes(self, m):
        """delay_class of beliefs m already checked to lie in [0, 1], as an
        integer array of m's shape; NaN is not checked for."""
        if self.degenerate:
            return np.greater(m, 0.0).astype(np.intp)
        return np.searchsorted(self.cutoffs, m, side="right") - 1


def indifference_gap(table: CutoffTable, n: int, mu: float) -> float:
    """Value of delaying n+1 periods minus delaying n, in the table's market.

    The class-(n+1) line minus the class-n line, read at belief mu:
    v_high (1 - delta) (delta^n (1 - r) mu - (1 - mu)(z_n + b_n)).  Affine
    and strictly increasing in mu, negative at mu_bar_n, and zero exactly
    at mu_bar_{n+1}; this is the equation that pins each cutoff.
    """
    if table.degenerate:
        raise ValueError("indifference gap is undefined when v_low = 0")
    if not 1 <= n < len(table.cutoffs):
        raise ValueError(f"need a table holding cutoffs 0..{n}, got {len(table.cutoffs)}")
    m = belief(mu)
    p = table.params
    return float(p.v_high * (1.0 - p.delta) * (
        table.rents[n] * m - (1.0 - m) * (table.odds[n] + table.intercepts[n])))


def compute_cutoffs(p: MarketParams) -> CutoffTable:
    """Build the cutoff table for one parameter set.

    Starts from z_0 = 0 and z_1 = r / (1 - r), r = v_low / v_high, and runs
    the odds recurrence of the module docstring, on (z, b) times SCALE.  The
    chain stops when the next odds are not above the last or exceed
    ODDS_TOP, which covers a NaN too, and when delta^n (1 - r) underflows
    to 0, as it does at n = 1 for a subnormal delta; CutoffTable places
    the cutoffs.  The table is then cut at the first belief tie.  A chain
    that would pass MAX_CUTOFFS entries raises ValueError, as does a ratio
    that underflows to 0, or a market where class 1's posted price rounds
    onto v_low.

    With v_low = 0 the chain stops at once on the table (0, 0), with zero
    odds and intercepts: every positive prior then delays at posterior 0
    forever on the low-type path.
    """
    d, r = p.delta, mu_bar_1(p)
    # with v_low > 0: r == 0 is an underflow, the second test CutoffTable.prices[1] > v_low
    if p.v_low > 0.0 and (r == 0.0 or not p.v_high - d * p.delta_v > p.v_low):
        raise ValueError(
            f"float64 cannot place the cutoff chain at v_low/v_high = {p.v_low!r}/{p.v_high!r}, "
            f"delta = {d!r}: " + ("the ratio is too small, it underflows to 0" if r == 0.0 else
            "class 1's price v_high - delta (v_high - v_low) rounds onto v_low, with delta "
            "too close to 1 or v_low within rounding of v_high, not because the ratio is too small")
        )
    z = [0.0, r * SCALE / (1.0 - r)]
    b = [r * SCALE, d * (r * SCALE)]
    top = ODDS_TOP * SCALE
    while True:
        n = len(z) - 1
        step = d**n * (1.0 - r)
        if not step or not z[n] < (z_next := (z[n] + b[n]) / step) <= top:
            break
        if len(z) >= MAX_CUTOFFS:
            raise ValueError(
                f"the cutoff chain at v_low/v_high = {r:g}, delta = {d!r} "
                f"needs more than {MAX_CUTOFFS} cutoffs"
            )
        z.append(z_next)
        b.append(d * b[n] - (1.0 - d) * z[n])

    table = CutoffTable(p, np.asarray(z) / SCALE, np.asarray(b) / SCALE)
    # stop at the first class no float prior reaches alone, so that the
    # cutoffs strictly increase; the classes above it go uncovered
    c = table.cutoffs
    ties = np.flatnonzero(c[2:] == c[1:-1])
    if len(ties):
        table = CutoffTable(p, table.odds[:ties[0] + 2], table.intercepts[:ties[0] + 2])
    return table
