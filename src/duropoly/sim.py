"""Equilibrium play simulation: declining posted prices, stochastic acceptance,
belief updating, and Monte Carlo summaries.

On the no-trade path the seller's belief is deterministic: it walks down the
cutoff chain, one posted price per belief.  So every path that has not traded
shares one belief, price and acceptance probability in a given period, and
monte_carlo plays all paths at once, one masked array step per period.
simulate_path and iter_paths play the same equilibrium one path at a time;
they are the single-path reference the array kernel is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import belief
from .cutoffs import CutoffTable
from .mechanism import class_price

RNG_ALGORITHM = "pcg64(seed); uniform row i of a pre-drawn matrix is path i's substream"

# Rows of uniform draws monte_carlo holds at once.  Blocks drawn in sequence
# from one generator are the rows of one large draw, so results do not depend
# on it; memory stays bounded at any path count.
DRAW_BLOCK_ROWS = 1 << 12


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
class PathArrays:
    """Every path of one Monte Carlo run, indexed by path: the buyer type,
    the trade period (-1 for no sale), discounted revenue and buyer payoff."""

    is_high: np.ndarray
    trade_period: np.ndarray
    revenue: np.ndarray
    payoff: np.ndarray


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
    # the per-path results summarized above; not part of equality or repr
    paths: PathArrays | None = field(default=None, compare=False, repr=False)


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


def _draw_budget(table: CutoffTable, mu0: float, horizon: int) -> int:
    """Uniform draws a single path can consume: the type draw plus one per
    period played, which is at most the prior's class and at most horizon."""
    return min(table.delay_class(belief(mu0)), horizon) + 1


def _check_run(type_draw: str, n_paths: int) -> None:
    if type_draw not in ("fixed_low", "fixed_high", "prior"):
        raise ValueError(f"unknown type_draw {type_draw!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")


def iter_paths(
    table: CutoffTable,
    mu0: float,
    type_draw: str,
    n_paths: int,
    seed: int,
    horizon: int = 1000,
):
    """Yield, one simulate_path record at a time, the paths monte_carlo plays.

    type_draw is "fixed_low", "fixed_high", or "prior" (high with probability
    mu0).  Path i consumes row i of a uniform matrix drawn once from
    pcg64(seed), so each path depends only on (seed, path index).
    """
    _check_run(type_draw, n_paths)
    m0 = belief(mu0)
    rng = np.random.default_rng(seed)
    draws = rng.random((n_paths, _draw_budget(table, m0, horizon)))
    for i in range(n_paths):
        stream = _RowStream(draws[i])
        if type_draw == "prior":
            btype = "high" if stream.random() < m0 else "low"
        else:
            btype = "high" if type_draw == "fixed_high" else "low"
        yield simulate_path(table, m0, btype, stream, horizon)


def _play_paths(
    table: CutoffTable, m0: float, type_draw: str, n_paths: int, seed: int, horizon: int
) -> PathArrays:
    """Play every path at once with the draws iter_paths reads.

    Each period the shared scalars (price, next belief, acceptance
    probability, discount) are those of simulate_path; one masked step then
    settles every live high type whose draw falls below the acceptance
    probability.  The uniform matrix is drawn in blocks of DRAW_BLOCK_ROWS.
    """
    p = table.params
    budget = _draw_budget(table, m0, horizon)
    first = 1 if type_draw == "prior" else 0  # column of the period-0 accept draw
    is_high = np.empty(n_paths, dtype=bool)
    trade_period = np.full(n_paths, -1)
    revenue = np.zeros(n_paths)
    payoff = np.zeros(n_paths)
    rng = np.random.default_rng(seed)
    for lo in range(0, n_paths, DRAW_BLOCK_ROWS):
        rows = slice(lo, min(lo + DRAW_BLOCK_ROWS, n_paths))
        draws = rng.random((rows.stop - lo, budget))
        high, period, rev, pay = is_high[rows], trade_period[rows], revenue[rows], payoff[rows]
        high[:] = (draws[:, 0] < m0) if type_draw == "prior" else (type_draw == "fixed_high")
        alive = np.ones(len(draws), dtype=bool)
        mu, disc = m0, 1.0
        for t in range(horizon):
            if table.degenerate:
                if mu == 0.0:
                    break  # absorbing no-trade state
                price, next_mu, accept_prob = p.v_high, 0.0, 1.0
            else:
                n = table.delay_class(mu)
                if n == 0:
                    # both types buy at v_low; the low type's payoff is 0
                    period[alive] = t
                    rev[alive] = disc * p.v_low
                    pay[alive & high] = disc * (p.v_high - p.v_low)
                    break
                price = class_price(p, n)
                next_mu = table.cutoffs[n - 1]
                accept_prob = 1.0 - (1.0 - mu) / mu * (next_mu / (1.0 - next_mu))
            acc = alive & high & (draws[:, first + t] < accept_prob)
            period[acc] = t
            rev[acc] = disc * price
            pay[acc] = disc * (p.v_high - price)
            alive &= ~acc
            mu = next_mu
            disc *= p.delta
    return PathArrays(is_high, trade_period, revenue, payoff)


def monte_carlo(
    table: CutoffTable,
    mu0: float,
    type_draw: str,
    n_paths: int,
    seed: int,
    horizon: int = 1000,
) -> MonteCarloSummary:
    """Simulate n_paths independent plays and summarize revenue and rents.

    The paths are those of iter_paths, bit for bit, played as arrays; the
    summary carries them in `paths`.  Identical seeds reproduce the summary
    bit for bit.
    """
    _check_run(type_draw, n_paths)
    m0 = belief(mu0)
    if m0 == 1.0:
        raise ValueError("simulation starts from a prior below 1")
    paths = _play_paths(table, m0, type_draw, n_paths, seed, horizon)
    revenue, payoff, is_high = paths.revenue, paths.payoff, paths.is_high

    # in units of v_high, so squaring revenues near the float64 floor cannot underflow
    v_high = table.params.v_high
    se = float(v_high * (revenue / v_high).std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    counts = np.bincount(paths.trade_period + 1)  # index 0 counts the no-sale paths
    return MonteCarloSummary(
        n_paths=n_paths,
        mean_revenue=float(revenue.mean()),
        se_revenue=se,
        mean_rent_high=float(payoff[is_high].mean()) if is_high.any() else 0.0,
        mean_rent_low=float(payoff[~is_high].mean()) if (~is_high).any() else 0.0,
        trade_time_histogram={t - 1: k for t, k in enumerate(counts.tolist()) if k},
        seed=seed,
        paths=paths,
    )
