"""Cutoff sequence and delay classes.

The belief interval [0, 1] splits into classes D_n = [mu_bar_n, mu_bar_{n+1});
a seller whose prior sits in D_n lets n periods pass before trading with the
low-valuation buyer.  Each cutoff beyond mu_bar_1 = v_low / v_high is the root
of a one-period-more vs one-period-less indifference equation.  That equation
is affine in the belief, so each root has a closed form.

The chain depends only on v_low / v_high and delta, so it is built at
v_high = 1.  It always runs up to belief 1, stopping only where float64 can
no longer place a further cutoff below 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MarketParams, belief, mu_bar_1

# Within this distance of belief 1 (scaled by 1 - delta) the indifference
# equation is so steep that no float64 belief can hold its residual below
# 1e-10 * v_high, so the chain stops there instead of emitting numerically
# meaningless cutoffs.
RESOLUTION_GUARD = 2.3e-5
# The chain also stops once its last cutoff lies this close to belief 1.
PROXIMITY_TO_ONE = 1e-10
# Longest chain compute_cutoffs builds.  The count levels off near 23,000 as
# delta -> 1 at v_low / v_high = 1e-3, but grows without bound as the ratio
# -> 0 and delta -> 1 together (11,925 at 1e-300 and 1 - 1e-5).  `solve`
# takes about a second at this length; longer chains lie outside the domain.
MAX_CUTOFFS = 60_000


@dataclass(frozen=True)
class CutoffTable:
    """Increasing cutoffs mu_bar_0 = 0 <= mu_bar_1 < mu_bar_2 < ... up to
    belief 1; the last class runs to 1."""

    params: MarketParams
    cutoffs: tuple[float, ...]

    def __post_init__(self):
        c = self.cutoffs
        if len(c) < 2 or c[0] != 0.0 or c[1] < 0.0 or any(b <= a for a, b in zip(c[1:], c[2:])):
            raise ValueError(f"need cutoffs 0 = mu_bar_0 <= mu_bar_1 < mu_bar_2 < ..., got {c}")

    @property
    def degenerate(self) -> bool:
        """v_low = 0 collapses the partition: every positive prior delays at
        posterior 0 and the low type is never served."""
        return self.params.v_low == 0.0

    @cached_property
    def cutoff_array(self) -> np.ndarray:
        return np.asarray(self.cutoffs)

    @cached_property
    def alphas(self) -> np.ndarray:
        """Discounted probability of eventually trading with the high type,
        evaluated at each cutoff treated as a member of its own class."""
        d = self.params.delta
        out = [0.0]
        for k in range(1, len(self.cutoffs)):
            out.append(_alpha_step(d, self.cutoffs[k], self.cutoffs[k - 1], out[-1]))
        return np.asarray(out)

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
    def gammas(self) -> np.ndarray:
        """Discount weight (1 - mu_bar_k) * delta^k carried by the virtual value."""
        return (1.0 - self.cutoff_array) * self.discounts

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


def unit_params(p: MarketParams) -> MarketParams:
    """The same market with v_high = 1, on which the cutoff chain is built."""
    return MarketParams(mu_bar_1(p), 1.0, p.delta)


def _alpha_step(d: float, mu, prev: float, alpha_prev: float):
    """alpha at belief mu in the class whose delay posterior is the cutoff
    prev, given alpha_prev, the alpha at prev."""
    return (mu - prev) / (1.0 - prev) + d * (1.0 - mu) / (1.0 - prev) * alpha_prev


def _split_value(p: MarketParams, mu, c: float, alpha_c: float, gamma_c: float):
    """Value at prior mu of splitting between posterior 1 (sell) and posterior
    c (delay), with continuation alpha_c * v_high + gamma_c * vhat(mu).

    The (1 - mu) * vhat(mu) product is expanded so the expression stays finite
    as mu approaches 1.
    """
    one_minus = 1.0 - mu
    r_scaled = alpha_c * p.v_high * one_minus + gamma_c * (one_minus * p.v_low - mu * p.delta_v)
    return ((mu - c) * p.v_high + p.delta * r_scaled) / (1.0 - c)


def _gap(p: MarketParams, mu, cuts, alphas, gammas, n):
    """Split value with delay posterior cuts[n] minus that with cuts[n - 1];
    affine in mu.  With array sequences, n and mu may be arrays."""
    hi = _split_value(p, mu, cuts[n], alphas[n], gammas[n])
    lo = _split_value(p, mu, cuts[n - 1], alphas[n - 1], gammas[n - 1])
    return hi - lo


def indifference_gap(p: MarketParams, table_prefix: CutoffTable, n: int, mu: float) -> float:
    """Value of delaying n+1 periods minus the value of delaying n periods.

    Affine and strictly increasing in mu, negative at mu_bar_n, and zero
    exactly at mu_bar_{n+1}; this is the equation that pins each cutoff.
    """
    if table_prefix.degenerate:
        raise ValueError("indifference gap is undefined when v_low = 0")
    cuts = table_prefix.cutoffs
    if not 1 <= n < len(cuts):
        raise ValueError(f"need a table prefix holding cutoffs 0..{n}, got {len(cuts)}")
    m = belief(mu)
    if m == 1.0:
        raise ValueError("indifference gap has a pole at belief 1")
    return float(_gap(p, m, cuts, table_prefix.alphas, table_prefix.gammas, n))


def compute_cutoffs(p: MarketParams) -> CutoffTable:
    """Build the cutoff table for one parameter set.

    Starts from mu_bar_0 = 0 and mu_bar_1 = v_low / v_high.  The gap between
    delaying n+1 and n periods is affine in the belief, so mu_bar_{n+1} is
    its exact root g(0) / (g(0) - g(1)).  The gap is evaluated at v_high = 1,
    since the chain depends only on v_low / v_high and delta; the table keeps
    the caller's params.  The chain stops only at belief 1: when the last
    cutoff is within PROXIMITY_TO_ONE of it, when the remaining interval is
    too close to 1 for float64 to resolve the root (see RESOLUTION_GUARD),
    or when the next root rounds to 1.  A chain that would pass MAX_CUTOFFS
    entries raises ValueError, as does a ratio so small, or a delta so close
    to 1, that g(0) rounds to 0; no table is ever truncated.

    v_low = 0 short-circuits to the two-entry table (0, 0): every positive
    prior then delays at posterior 0 forever on the low-type path.
    """
    if p.v_low == 0.0:
        return CutoffTable(p, (0.0, 0.0))

    d = p.delta
    unit = unit_params(p)
    cuts = [0.0, unit.v_low]
    alpha, gamma = unit.v_low, (1.0 - unit.v_low) * d  # at the last cutoff
    # split values at beliefs 0 and 1 with the next-to-last cutoff as delay posterior
    lo0, lo1 = _split_value(unit, 0.0, 0.0, 0.0, 1.0), _split_value(unit, 1.0, 0.0, 0.0, 1.0)
    guard = RESOLUTION_GUARD * (1.0 - d)

    while True:
        last = cuts[-1]
        if last >= 1.0 - PROXIMITY_TO_ONE or 1.0 - last < guard:
            break
        if len(cuts) >= MAX_CUTOFFS:
            raise ValueError(
                f"the cutoff chain at v_low/v_high = {unit.v_low:g}, delta = {d!r} "
                f"needs more than {MAX_CUTOFFS} cutoffs"
            )

        n = len(cuts) - 1
        # the gap between delay posteriors cuts[n] and cuts[n - 1], at beliefs
        # 0 and 1; this step's split values are the next step's lo0 and lo1
        hi0 = _split_value(unit, 0.0, last, alpha, gamma)
        hi1 = _split_value(unit, 1.0, last, alpha, gamma)
        g0, g1 = hi0 - lo0, hi1 - lo1
        if g1 <= 0.0:
            # g(1) = delta^n (1 - delta)(1 - ratio) > 0 is the difference of two
            # split values that round to the same float once delta^n < eps
            g1 = d**n * (1.0 - d) * unit.delta_v
        root = g0 / (g0 - g1)
        if not (g0 < 0.0 and last < root):
            # g(0) has rounded to 0, as it does at a tiny ratio or at a delta
            # within rounding of 1
            raise ValueError(
                f"float64 cannot place cutoff {n + 1} of the chain at v_low/v_high = "
                f"{p.v_low!r}/{p.v_high!r}, delta = {d!r}: the ratio is too small or delta "
                f"too close to 1"
            )
        if root >= 1.0:
            # the root lies within rounding of belief 1: no further cutoff
            break
        alpha = _alpha_step(d, root, last, alpha)
        gamma = (1.0 - root) * d ** (n + 1)
        cuts.append(root)
        lo0, lo1 = hi0, hi1

    return CutoffTable(p, tuple(cuts))
