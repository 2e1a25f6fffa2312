"""Equilibrium value surface and buyer rents.

The continuation value of inducing posterior mu' at prior mu0 is linear in
the prior's virtual value:

    R(mu', mu0) = alpha(mu') * v_high + gamma(mu') * vhat(mu0),

where gamma(mu') = (1 - mu') * delta^n for mu' in class D_n (0 if v_low = 0)
and alpha follows the split recursion down the cutoff chain.  Everything here
is evaluated iteratively off that decomposition, so there is no
recursion-depth risk.
"""
from __future__ import annotations

import numpy as np

from .core import belief, virtual_value
from .cutoffs import CutoffTable, _alpha_step

def _alpha_gamma(table: CutoffTable, mu_prime):
    """Vectorized (alpha, gamma) over posteriors; scalars in, scalars out."""
    scalar = np.ndim(mu_prime) == 0
    m = np.atleast_1d(np.asarray(mu_prime, dtype=float))
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise ValueError("posterior outside [0, 1]")

    # beliefs at or beyond the last cutoff land in the last class
    idx = np.searchsorted(table.cutoff_array, m, side="right") - 1
    alpha, gamma = _class_alpha_gamma(table, m, idx)
    return (float(alpha[0]), float(gamma[0])) if scalar else (alpha, gamma)


def _class_alpha_gamma(table: CutoffTable, m: np.ndarray, idx: np.ndarray):
    """(alpha, gamma) at beliefs m on the affine pieces of classes idx.

    The pieces extend to their class's closed ends, so this also gives the
    left limit of R at a cutoff (the piece of the class below it).
    """
    prev = np.maximum(idx - 1, 0)
    alpha_hi = _alpha_step(table.params.delta, m, table.cutoff_array[prev], table.alphas[prev])
    alpha = np.where(idx == 0, m, alpha_hi)
    gamma = (1.0 - m) * table.discounts[idx]
    return alpha, gamma


def eval_R(table: CutoffTable, mu_prime, mu0):
    """Continuation value of inducing posterior mu_prime when the prior is mu0.

    Below mu_bar_1 this is the one-shot virtual surplus; in class D_n it
    chains the sale/delay split down to the previous cutoff.  At a cutoff
    exactly, the delay branch applies (ties favor delay).  Arrays of
    posteriors and priors broadcast against each other.
    """
    vhat = virtual_value(table.params, mu0)  # validates mu0 and rejects 1
    alpha, gamma = _alpha_gamma(table, mu_prime)
    return alpha * table.params.v_high + gamma * vhat


def seller_revenue(table: CutoffTable, mu0):
    """Equilibrium revenue R(mu0, mu0); exactly mu0 * v_high when v_low = 0.
    A scalar prior gives a float, a 1-D array of priors an array."""
    m0 = belief(mu0)
    return eval_R(table, m0, m0)


def buyer_rent(table: CutoffTable, mu0):
    """High type's equilibrium payoff delta^n * (v_high - v_low) on class D_n.

    The low type's rent is identically zero.  With v_low = 0 the high type
    pays her full valuation and the rent is zero at every belief.  A scalar
    prior gives a float, a 1-D array of priors an array.
    """
    n = table.delay_class(mu0)
    rent = table.discounts[n] * table.params.delta_v
    return float(rent) if isinstance(n, int) else rent

