"""Equilibrium value surface and buyer rents.

Every value is read off the class lines of cutoffs.py.  With z0 the prior's
odds mu0 / (1 - mu0), inducing a posterior mu' of class n' is worth

    R(mu', mu0) = v_high (mu' + (1 - mu') (b_{n'} - delta^{n'} (1 - r) z0)),

and at mu' = mu0 of class n this is the revenue
R(mu0, mu0) = v_high (mu0 p_n + (1 - mu0) b_n).  Both are formed in units of
v_high and scaled once, so the revenue stays finite up to the float64
maximum, and a continuation value overflows only where it lies beyond it.
"""
from __future__ import annotations

import numpy as np

from .core import belief, prior_odds
from .cutoffs import CutoffTable


def eval_R(table: CutoffTable, mu_prime, mu0):
    """Continuation value of inducing posterior mu_prime when the prior is mu0.

    Below mu_bar_1 this is the one-shot virtual surplus; in class D_n it is
    the class-n line.  At a cutoff exactly, the delay branch applies (ties
    favor delay); beliefs at or beyond the last cutoff land in the last
    class.  Arrays of posteriors and priors broadcast against each other.
    """
    z0 = prior_odds(belief(mu0))
    m = np.asarray(mu_prime, dtype=float)
    # NaN fails both tests; initial= lets an empty array pass
    if not (m.min(initial=0.0) >= 0.0 and m.max(initial=1.0) <= 1.0):
        raise ValueError("posterior outside [0, 1]")
    n = table.classes(m)
    # near the float64 maximum a posterior far below the prior can be worth
    # less than -1.8e308 (R(0, mu0) = v_low - z0 (v_high - v_low)), which
    # rounds to -inf as any float64 result beyond the range does
    with np.errstate(over="ignore"):
        r = table.params.v_high * (m + (1.0 - m) * (table.intercepts[n] - table.rents[n] * z0))
    return float(r) if np.ndim(r) == 0 else r


def seller_revenue(table: CutoffTable, mu0):
    """Equilibrium revenue R(mu0, mu0); exactly mu0 * v_high when v_low = 0.
    A scalar prior gives a float, a 1-D array of priors an array."""
    return eval_R(table, mu0, mu0)


def buyer_rent(table: CutoffTable, mu0):
    """High type's equilibrium payoff delta^n * (v_high - v_low) on class D_n.

    The low type's rent is identically zero.  With v_low = 0 the high type
    pays her full valuation and the rent is zero at every belief.  A scalar
    prior gives a float, a 1-D array of priors an array.
    """
    n = table.delay_class(mu0)
    rent = table.discounts[n] * table.params.delta_v
    return float(rent) if isinstance(n, int) else rent
