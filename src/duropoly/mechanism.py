"""Optimal mechanism at one prior: communication device, allocation, transfers,
and the equivalent posted price."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import belief, prior_odds
from .cutoffs import CutoffTable

INDIFFERENCE_TOL = 1e-12


class MechanismConsistencyError(Exception):
    """The posted-price indifference identity failed beyond tolerance."""


class Split(NamedTuple):
    """Bayes-plausible two-point distribution over posteriors with a trade
    probability at each posterior."""

    posterior_delay: float
    posterior_sale: float
    weight_delay: float
    weight_sale: float
    q_delay: float
    q_sale: float


class Mechanism(NamedTuple):
    """Canonical mechanism: report-indexed posterior distributions plus a
    deterministic allocation and transfer at each posterior."""

    prior: float
    n: int
    device: dict  # {"low": {posterior: prob}, "high": {posterior: prob}}
    trade_prob: dict  # {posterior: probability of trade}
    transfer: dict  # {posterior: payment}


class PostedPrice(NamedTuple):
    """A mechanism as a take-it-or-leave-it offer: the price (in v_high's units), the high
    type's probability of accepting it, and the seller's belief after a rejection."""
    price: float
    accept_prob_high: float
    reject_posterior: float


class ConstraintResiduals(NamedTuple):
    """Residuals of the two constraints that bind at the optimum: the low
    type's participation and the high type's truth-telling."""

    participation_low: float
    truthtelling_high: float


def _class_split(table: CutoffTable, m0: np.ndarray, n: np.ndarray) -> Split:
    """The class-n[i] split at each prior m0[i], fields as arrays.  Class 0
    sells at the prior with no information (with v_low = 0 it never trades);
    class n >= 1 splits between cutoff n - 1 (delay), at or below the prior,
    and posterior 1 (sell)."""
    c = table.cutoffs[np.maximum(n - 1, 0)]
    pool = n == 0
    trade = 0.0 if table.degenerate else 1.0  # class 0's trade probability
    w_sale = np.where(pool, trade, (m0 - c) / (1.0 - c))
    return Split(np.where(pool, m0, c), np.where(pool, m0, 1.0), 1.0 - w_sale, w_sale,
                 np.where(pool, trade, 0.0), np.where(pool, trade, 1.0))


def equilibrium_split(table: CutoffTable, mu0) -> Split:
    """Sale/delay split at one prior, or at each of a 1-D array of priors
    (then every field is an array): the split of the prior's delay class.

    With v_low = 0, every positive prior splits between 1 and an absorbing
    no-trade posterior 0, and belief 0 itself never trades.
    """
    m0 = np.atleast_1d(belief(mu0))
    split = _class_split(table, m0, table.classes(m0))
    if np.ndim(mu0) == 0:
        split = Split(*(float(f[0]) for f in split))
    return split


def build_mechanism(table: CutoffTable, mu0: float) -> Mechanism:
    """Construct the optimal canonical mechanism at one prior.

    For class n >= 1 the low report is pooled onto the previous cutoff, the
    high report mixes between that cutoff and posterior 1, the sale transfer
    is the class-n posted price, and no-trade posteriors pay nothing.  At a
    prior sitting exactly on a cutoff the seller is indifferent between the
    two adjacent class mechanisms; the tie goes to the longer delay, as in
    `CutoffTable.delay_class`.  Prior 1 raises ValueError.
    """
    m0 = belief(mu0)
    p = table.params
    n = int(table.classes(m0))  # m0 is checked: classes skips delay_class's second check
    if n == 0:
        if table.degenerate:  # belief 0 with v_low = 0: no trade
            return Mechanism(m0, 0, {"low": {0.0: 1.0}, "high": {0.0: 1.0}}, {0.0: 0.0}, {0.0: 0.0})
        return Mechanism(m0, 0, {"low": {m0: 1.0}, "high": {m0: 1.0}}, {m0: 1.0}, {m0: p.v_low})

    c = float(table.cutoffs[n - 1])
    # z_{n-1} / z0, so that 1 - b_delay_high is, bit for bit, the period-0
    # acceptance probability simulate_path and monte_carlo test a draw against
    b_delay_high = float(table.odds[n - 1] / prior_odds(m0))
    return Mechanism(
        m0,
        n,
        {"low": {c: 1.0}, "high": {c: b_delay_high, 1.0: 1.0 - b_delay_high}},
        {1.0: 1.0, c: 0.0},
        {1.0: float(table.prices[n]), c: 0.0},
    )


def posted_price_view(m: Mechanism, table: CutoffTable) -> PostedPrice:
    """Read a mechanism as a take-it-or-leave-it price.

    For n >= 1, checks the defining indifference v_high - price = delta *
    rent, the rent read by the reject posterior's class n - 1, not searched
    by its belief, which can tie with the cutoff above it; and that the low
    type strictly rejects.  A violation beyond 1e-12 * v_high raises
    MechanismConsistencyError.
    Class 0 has no rejection on path: both types accept v_low.
    """
    p = table.params
    if m.n == 0:
        if table.degenerate:
            # belief 0 with v_low = 0: the null mechanism, never any trade
            return PostedPrice(price=p.v_high, accept_prob_high=0.0, reject_posterior=0.0)
        return PostedPrice(price=p.v_low, accept_prob_high=1.0, reject_posterior=m.prior)

    reject_posterior = min(post for post in m.trade_prob if m.trade_prob[post] == 0.0)
    price = m.transfer[1.0]
    gap = (p.v_high - price) - p.delta * (table.discounts[m.n - 1] * p.delta_v)
    if abs(gap) > INDIFFERENCE_TOL * p.v_high:
        raise MechanismConsistencyError(
            f"high-type indifference off by {gap} at prior {m.prior}"
        )
    if not price > p.v_low:
        raise MechanismConsistencyError(f"price {price} does not exclude the low type")
    return PostedPrice(
        price=price,
        accept_prob_high=m.device["high"].get(1.0, 0.0),
        reject_posterior=reject_posterior,
    )


def check_binding_constraints(m: Mechanism, table: CutoffTable) -> ConstraintResiduals:
    """Evaluate both binding constraints at a constructed mechanism.

    Participation of the low type:  sum_mu' beta(mu'|low) (v_low q - t).
    Truth-telling of the high type: sum_mu' (beta(mu'|high) - beta(mu'|low))
    times (v_high q + (1 - q) delta * rent(mu') - t), where rent is the
    high type's continuation at the induced posterior: at a no-trade
    posterior, the rent of class n - 1 (class 0 for the null mechanism).
    """
    p = table.params
    support = sorted(set(m.trade_prob) | set(m.transfer))
    pc = 0.0
    ic = 0.0
    for post in support:
        q = m.trade_prob.get(post, 0.0)
        t = m.transfer.get(post, 0.0)
        b_low = m.device["low"].get(post, 0.0)
        b_high = m.device["high"].get(post, 0.0)
        pc += b_low * (p.v_low * q - t)
        cont = 0.0 if q == 1.0 else p.delta * (table.discounts[max(m.n - 1, 0)] * p.delta_v)
        ic += (b_high - b_low) * (p.v_high * q + (1.0 - q) * cont - t)
    return ConstraintResiduals(participation_low=pc, truthtelling_high=ic)
