"""Equilibrium play simulation: declining posted prices, stochastic acceptance,
belief updating, and Monte Carlo summaries.

On the no-trade path the seller's belief is deterministic: a class-n prior
walks down the cutoff chain, posts n declining prices and sells to the low
type at v_low in period n.  So every untraded path shares one price and
acceptance probability per period, and monte_carlo computes that schedule
once and plays all paths at once, one array step per period.  simulate_path
and iter_paths play the same equilibrium one path at a time; they are the
single-path reference the array kernel is tested against.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import belief
from .cutoffs import CutoffTable
from .mechanism import class_price

RNG_ALGORITHM = "pcg64(seed); uniform row i of a pre-drawn matrix is path i's substream"

# Uniform draws monte_carlo holds at once, in whole rows of class + 1 draws.
# Blocks drawn in sequence from one generator are the rows of one large draw,
# so results do not depend on it; memory stays bounded at any path count and
# any class.
DRAW_BLOCK_SIZE = 4096 * 1001


@dataclass(frozen=True)
class PathStep:
    period: int
    belief: float
    price: float
    buyer_type: str
    action: str  # "accept" or "reject"


@dataclass(frozen=True)
class PathRecord:
    """One simulated play-through.  trade_period is None only on the
    v_low = 0 low-type path, where the good is never sold."""

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


def simulate_path(table: CutoffTable, mu0: float, buyer_type: str, rng) -> PathRecord:
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
    for t in itertools.count():
        if table.degenerate:
            if mu == 0.0:
                # absorbing no-trade state: the seller quotes v_high forever
                steps.append(PathStep(t, mu, p.v_high, buyer_type, "reject"))
                return PathRecord(tuple(steps), None, 0.0, 0.0, buyer_type)
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


def _check_run(type_draw: str, n_paths: int) -> None:
    if type_draw not in ("fixed_low", "fixed_high", "prior"):
        raise ValueError(f"unknown type_draw {type_draw!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")


def iter_paths(table: CutoffTable, mu0: float, type_draw: str, n_paths: int, seed: int):
    """Yield, one simulate_path record at a time, the paths monte_carlo plays.

    type_draw is "fixed_low", "fixed_high", or "prior" (high with probability
    mu0).  Path i consumes row i of a uniform matrix drawn once from
    pcg64(seed), so each path depends only on (seed, path index).  A row
    holds class + 1 draws: the type draw and one per period the high type
    can decline.
    """
    _check_run(type_draw, n_paths)
    m0 = belief(mu0)
    rng = np.random.default_rng(seed)
    draws = rng.random((n_paths, table.delay_class(m0) + 1))
    for i in range(n_paths):
        stream = _RowStream(draws[i])
        if type_draw == "prior":
            btype = "high" if stream.random() < m0 else "low"
        else:
            btype = "high" if type_draw == "fixed_high" else "low"
        yield simulate_path(table, m0, btype, stream)


def _play_paths(table: CutoffTable, m0: float, type_draw: str, n_paths: int, seed: int) -> PathArrays:
    """Play every path at once with the draws iter_paths reads.

    The no-trade schedule is built once: in period t < n the belief is m0,
    then cutoffs[n-1] ... cutoffs[1], and the price is class_price(p, n - t).
    The live high types whose draw falls below the acceptance probability buy
    and leave; once none is left, every path still untraded buys at v_low in
    period n.  With v_low = 0 a positive prior posts v_high once, accepted for
    sure, and belief 0 then never trades.  Draws come in blocks of at most
    DRAW_BLOCK_SIZE.
    """
    p = table.params
    n = table.delay_class(m0)
    # discounts by repeated multiplication, as simulate_path builds them
    disc = list(itertools.accumulate(itertools.repeat(p.delta, n), operator.mul, initial=1.0))
    if table.degenerate:
        price, accept = [p.v_high] * n, [1.0] * n
    else:
        cuts = table.cutoff_array
        mu = cuts[n:0:-1].copy()  # the belief in period t, m0 at t = 0
        mu[:1] = m0
        next_mu = cuts[:n][::-1]
        accept = 1.0 - (1.0 - mu) / mu * (next_mu / (1.0 - next_mu))
        price = p.v_high - table.discounts[n:0:-1] * p.delta_v  # class_price(p, n - t)
    first = 1 if type_draw == "prior" else 0  # column of the period-0 accept draw
    is_high = np.empty(n_paths, dtype=bool)
    trade_period = np.full(n_paths, -1)
    revenue = np.zeros(n_paths)
    payoff = np.zeros(n_paths)
    rng = np.random.default_rng(seed)
    block = max(1, DRAW_BLOCK_SIZE // (n + 1))
    for lo in range(0, n_paths, block):
        rows = slice(lo, min(lo + block, n_paths))
        draws = rng.random((rows.stop - lo, n + 1))
        high, period, rev, pay = is_high[rows], trade_period[rows], revenue[rows], payoff[rows]
        high[:] = (draws[:, 0] < m0) if type_draw == "prior" else (type_draw == "fixed_high")
        live = np.flatnonzero(high)  # high types not yet traded
        for t in range(n):
            if not live.size:
                break
            acc = draws[live, first + t] < accept[t]
            hit = live[acc]
            period[hit] = t
            rev[hit] = disc[t] * price[t]
            pay[hit] = disc[t] * (p.v_high - price[t])
            live = live[~acc]
        if not table.degenerate:
            # both types buy at v_low; the low type's payoff is 0
            rest = period == -1
            period[rest] = n
            rev[rest] = disc[n] * p.v_low
            pay[live] = disc[n] * (p.v_high - p.v_low)
    return PathArrays(is_high, trade_period, revenue, payoff)


def monte_carlo(
    table: CutoffTable, mu0: float, type_draw: str, n_paths: int, seed: int
) -> MonteCarloSummary:
    """Simulate n_paths independent plays and summarize revenue and rents.

    Every path is played to its trade, which comes by period n for a class-n
    prior; only the v_low = 0 low type never trades.  The paths are those
    of iter_paths, bit for bit, played as arrays; the summary carries them
    in `paths`.  Identical seeds reproduce the summary bit for bit.
    """
    _check_run(type_draw, n_paths)
    m0 = belief(mu0)
    if m0 == 1.0:
        raise ValueError("simulation starts from a prior below 1")
    paths = _play_paths(table, m0, type_draw, n_paths, seed)
    revenue, payoff, is_high = paths.revenue, paths.payoff, paths.is_high

    # in units of v_high, so squaring revenues near the float64 floor cannot underflow
    v_high = table.params.v_high
    se = float(v_high * (revenue / v_high).std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    counts = np.bincount(paths.trade_period + 1)  # index 0 counts the no-sale paths
    seen = np.flatnonzero(counts)
    return MonteCarloSummary(
        n_paths=n_paths,
        mean_revenue=float(revenue.mean()),
        se_revenue=se,
        mean_rent_high=float(payoff[is_high].mean()) if is_high.any() else 0.0,
        mean_rent_low=float(payoff[~is_high].mean()) if (~is_high).any() else 0.0,
        trade_time_histogram=dict(zip((seen - 1).tolist(), counts[seen].tolist())),
        seed=seed,
        paths=paths,
    )
