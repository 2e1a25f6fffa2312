"""Equilibrium value surface, its linear decomposition, and buyer rents.

The continuation value of inducing posterior mu' at prior mu0 is linear in
the prior's virtual value:

    R(mu', mu0) = alpha(mu') * v_high + gamma(mu') * vhat(mu0),

where gamma(mu') = (1 - mu') * delta^n for mu' in class D_n and alpha follows
the split recursion down the cutoff chain.  Everything here is evaluated
iteratively off that decomposition, so there is no recursion-depth risk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import belief, virtual_value
from .cutoffs import CutoffTable, _alpha_step

CUTOFF_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class RDecomposition:
    """Coefficients of R(mu', .) on v_high and on the prior's virtual value."""

    alpha: float
    gamma: float


def _alpha_gamma(table: CutoffTable, mu_prime):
    """Vectorized (alpha, gamma) over posteriors; scalars in, scalars out."""
    scalar = np.ndim(mu_prime) == 0
    m = np.atleast_1d(np.asarray(mu_prime, dtype=float))
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise ValueError("posterior outside [0, 1]")

    if table.degenerate:
        alpha, gamma = m.copy(), np.zeros_like(m)
        return (float(alpha[0]), float(gamma[0])) if scalar else (alpha, gamma)

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


def decompose_R(table: CutoffTable, mu_prime: float) -> RDecomposition:
    """Coefficients (alpha, gamma) with R(mu', mu0) = alpha v_high + gamma vhat(mu0)."""
    alpha, gamma = _alpha_gamma(table, belief(mu_prime))
    return RDecomposition(alpha=alpha, gamma=gamma)


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
    rent = table.discounts[n] * (0.0 if table.degenerate else table.params.delta_v)
    return float(rent) if isinstance(n, int) else rent


def rent_correspondence(table: CutoffTable, mu0: float) -> tuple[float, float]:
    """High-type rent set at mu0: a singleton off cutoffs, the closed interval
    [delta^i dv, delta^(i-1) dv] at cutoff i >= 1.  Only the nearer of the
    two cutoffs bounding mu0's class can match, within 1e-12 relative to it."""
    m0 = belief(mu0)
    if table.degenerate:
        return (0.0, 0.0)
    p, c = table.params, table.cutoffs
    i = table.delay_class(m0)
    if i + 1 < len(c) and c[i + 1] - m0 < m0 - c[i]:
        i += 1
    if i >= 1 and abs(m0 - c[i]) <= CUTOFF_MATCH_TOL * c[i]:
        return (p.delta**i * p.delta_v, p.delta ** (i - 1) * p.delta_v)
    r = buyer_rent(table, m0)
    return (r, r)
