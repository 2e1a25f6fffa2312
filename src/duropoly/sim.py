"""Equilibrium play simulation: declining posted prices, stochastic acceptance,
belief updating, and Monte Carlo summaries."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import belief
from .cutoffs import CutoffTable
from .mechanism import class_price

RNG_ALGORITHM = "pcg64(seed); uniform row i of a pre-drawn matrix is path i's substream"


@dataclass(frozen=True)
class PathStep:
    period: int
    belief: float
    price: float
    buyer_type: str
    action: str  # "accept" or "reject"


@dataclass(frozen=True)
class PathRecord:
    """One simulated play-through.  trade_period is None when the good is
    never sold (the v_low = 0 low-type path, or a truncated horizon)."""

    steps: tuple[PathStep, ...]
    trade_period: int | None
    discounted_revenue: float
    discounted_buyer_payoff: float
    buyer_type: str


@dataclass(frozen=True)
class MonteCarloSummary:
    n_paths: int
    mean_revenue: float
    se_revenue: float
    mean_rent_high: float
    mean_rent_low: float
    trade_time_histogram: dict  # period -> count, -1 for never-trade paths
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


class _RowStream:
    """Sequential uniform draws from one pre-drawn row."""

    def __init__(self, row):
        self._row = row
        self._next = 0

    def random(self) -> float:
        u = self._row[self._next]
        self._next += 1
        return float(u)


def simulate_path(
    table: CutoffTable,
    mu0: float,
    buyer_type: str,
    rng,
    horizon: int = 1000,
) -> PathRecord:
    """Play the equilibrium strategy once for a fixed buyer type.

    Each period the class-n posted price v_low + (1 - delta^n) dv is quoted;
    the high type accepts with the probability that makes a rejection update
    the belief exactly onto the next cutoff, the low type rejects anything
    above v_low.  With v_low = 0 the price is v_high, a rejection drops the
    belief to 0, and the low type never trades (the path ends flagged as a
    no-sale once belief 0 is reached, since no further period can trade).
    """
    if buyer_type not in ("low", "high"):
        raise ValueError(f"buyer_type must be 'low' or 'high', got {buyer_type!r}")
    mu = belief(mu0)
    if mu == 1.0:
        raise ValueError("simulation starts from a prior below 1")
    p = table.params
    v_buyer = p.v_high if buyer_type == "high" else p.v_low

    steps = []
    disc = 1.0
    for t in range(horizon):
        if table.degenerate:
            if mu == 0.0:
                # absorbing no-trade state: the seller quotes v_high forever
                steps.append(PathStep(t, mu, p.v_high, buyer_type, "reject"))
                break
            price = p.v_high
            next_mu = 0.0
            accept_prob = 1.0
        else:
            n = table.delay_class(mu)
            if n == 0:
                steps.append(PathStep(t, mu, p.v_low, buyer_type, "accept"))
                return PathRecord(
                    tuple(steps), t, disc * p.v_low, disc * (v_buyer - p.v_low), buyer_type
                )
            price = class_price(p, n)
            next_mu = table.cutoffs[n - 1]
            accept_prob = 1.0 - (1.0 - mu) / mu * (next_mu / (1.0 - next_mu))

        accepts = buyer_type == "high" and rng.random() < accept_prob
        if accepts:
            steps.append(PathStep(t, mu, price, buyer_type, "accept"))
            return PathRecord(
                tuple(steps), t, disc * price, disc * (v_buyer - price), buyer_type
            )
        steps.append(PathStep(t, mu, price, buyer_type, "reject"))
        mu = next_mu
        disc *= p.delta

    return PathRecord(tuple(steps), None, 0.0, 0.0, buyer_type)


def _draw_budget(table: CutoffTable, mu0: float) -> int:
    """Uniform draws a single path can consume: one per class step plus the
    type draw."""
    return table.delay_class(belief(mu0)) + 1


def iter_paths(
    table: CutoffTable,
    mu0: float,
    type_draw: str,
    n_paths: int,
    seed: int,
    horizon: int = 1000,
):
    """Yield the play-throughs that monte_carlo summarizes, in path order.

    type_draw is "fixed_low", "fixed_high", or "prior" (high with probability
    mu0).  Path i consumes row i of a uniform matrix drawn once from
    pcg64(seed), so each path depends only on (seed, path index).
    """
    if type_draw not in ("fixed_low", "fixed_high", "prior"):
        raise ValueError(f"unknown type_draw {type_draw!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    m0 = belief(mu0)
    rng = np.random.default_rng(seed)
    draws = rng.random((n_paths, _draw_budget(table, m0)))
    for i in range(n_paths):
        stream = _RowStream(draws[i])
        if type_draw == "prior":
            btype = "high" if stream.random() < m0 else "low"
        else:
            btype = "high" if type_draw == "fixed_high" else "low"
        yield simulate_path(table, m0, btype, stream, horizon)


def monte_carlo(
    table: CutoffTable,
    mu0: float,
    type_draw: str,
    n_paths: int,
    seed: int,
    horizon: int = 1000,
) -> MonteCarloSummary:
    """Simulate n_paths independent plays and summarize revenue and rents.

    Substreams are schedule independent (see iter_paths); identical seeds
    reproduce the summary bit for bit.
    """
    revenue = np.empty(n_paths)
    payoff = np.empty(n_paths)
    is_high = np.empty(n_paths, dtype=bool)
    times = np.empty(n_paths, dtype=int)
    for i, rec in enumerate(iter_paths(table, mu0, type_draw, n_paths, seed, horizon)):
        revenue[i] = rec.discounted_revenue
        payoff[i] = rec.discounted_buyer_payoff
        is_high[i] = rec.buyer_type == "high"
        times[i] = -1 if rec.trade_period is None else rec.trade_period

    se = float(revenue.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    hist: dict[int, int] = {}
    for t in times:
        hist[int(t)] = hist.get(int(t), 0) + 1
    return MonteCarloSummary(
        n_paths=n_paths,
        mean_revenue=float(revenue.mean()),
        se_revenue=se,
        mean_rent_high=float(payoff[is_high].mean()) if is_high.any() else 0.0,
        mean_rent_low=float(payoff[~is_high].mean()) if (~is_high).any() else 0.0,
        trade_time_histogram=hist,
        seed=seed,
    )
