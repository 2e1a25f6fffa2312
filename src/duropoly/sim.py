"""Equilibrium play simulation: declining posted prices, stochastic acceptance,
belief updating, and Monte Carlo summaries.

On the no-trade path the seller's belief is deterministic: a class-n prior
walks down the cutoff chain, posts n declining prices and sells to the low
type at v_low in period n.  So every untraded path shares one price and
acceptance probability per period, and the kernel computes that schedule
once and plays all paths at once, one array step per period.  The schedule
depends on the prior only through its class, except for the type draw's
threshold and the period-0 acceptance probability, and a run's draw matrix
depends only on (seed, class); so one kernel pass plays a whole class of
priors on shared draws.  monte_carlo plays one prior, mean_revenues one pass
per class of a prior grid.  simulate_path and iter_paths play the same
equilibrium one path at a time; they are the single-path reference the
array kernel is tested against.
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
# (prior, path) cells one mean_revenues kernel pass plays; each pass draws
# its class's uniforms afresh from pcg64(seed), so results do not depend on it.
PRIOR_BLOCK_SIZE = 1 << 13


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


def _accept_prob(mu, next_odds):
    """The high type's acceptance probability at belief mu > 0 that makes a
    rejection update the belief onto odds next_odds: 1 - next_odds / odds(mu).
    Scaling by 2^64 is exact, so this rounds as 1 - (1 - mu) / mu * next_odds
    wherever that is finite, and it stays finite (exactly 1 at next_odds 0)
    at a subnormal mu, where (1 - mu) / mu overflows."""
    s = 2.0**64
    return 1.0 - (1.0 - mu) / (mu * s) * (next_odds * s)


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
            accept_prob = _accept_prob(mu, next_mu / (1.0 - next_mu))

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


def _play_paths(table: CutoffTable, m0: np.ndarray, type_draw: str, n_paths: int, seed: int):
    """Play every path at every prior of m0, a 1-D array of priors of one
    delay class n, with the draws iter_paths reads: all priors share them.

    Returns (is_high, trade_period, revenue, payoff), each a (priors x paths)
    array, trade period -1 for no sale.  Only the type threshold and the
    period-0 acceptance probability depend on the prior: from period 1 the
    belief is cutoffs[n-1] ... cutoffs[1] and the price class_price(p, n - t)
    in every class-n play.  So each path's first accepting period t >= 1 is
    found once, for all priors, by a loop over periods on the compacted live
    paths; a high type takes period 0 if its draw accepts the prior's own
    period-0 price, else that period, and every path still untraded buys at
    v_low in period n.  With v_low = 0 a positive prior posts v_high once,
    accepted for sure, and belief 0 then never trades.  Draws come in blocks
    of at most DRAW_BLOCK_SIZE.
    """
    p = table.params
    n = table.delay_class(m0[0])
    # discounts by repeated multiplication, as simulate_path builds them
    disc = np.fromiter(itertools.accumulate(itertools.repeat(p.delta, n), operator.mul,
                                            initial=1.0), float, n + 1)
    next_mu = table.cutoff_array[:n][::-1]  # the belief after a rejection in period t
    odds = next_mu / (1.0 - next_mu)
    if table.degenerate:
        price, accept = np.full(n, p.v_high), np.ones(n)
    else:
        price = p.v_high - table.discounts[n:0:-1] * p.delta_v  # class_price(p, n - t)
        mu = table.cutoff_array[n:0:-1]  # the belief in period t >= 1
        accept = _accept_prob(mu, odds)
    # by trade period, and last for no sale: the price paid and the high type's payoff
    paid = np.append(price, p.v_low)
    revenue_at = np.append(disc * paid, 0.0)
    payoff_at = np.append(disc * (p.v_high - paid), 0.0)
    last = -1 if table.degenerate else n  # the period of a path that declines every price

    if n:
        # each prior's own period-0 acceptance probability, as a column; 1 when v_low = 0
        accept0 = (np.ones((len(m0), 1)) if table.degenerate
                   else _accept_prob(m0[:, None], odds[0]))
    first = 1 if type_draw == "prior" else 0  # column of the period-0 accept draw
    shape = (len(m0), n_paths)
    is_high = np.empty(shape, dtype=bool)
    trade_period = np.empty(shape, dtype=np.intp)
    rng = np.random.default_rng(seed)
    block = max(1, DRAW_BLOCK_SIZE // (n + 1))
    for lo in range(0, n_paths, block):
        rows = slice(lo, min(lo + block, n_paths))
        draws = rng.random((rows.stop - lo, n + 1))
        if type_draw == "prior":
            high = draws[:, 0] < m0[:, None]
        else:
            high = np.full((len(m0), len(draws)), type_draw == "fixed_high")
        is_high[:, rows] = high
        period = trade_period[:, rows]
        period[:] = last
        if n:
            at_once = draws[:, first] < accept0
            later = np.full(len(draws), last)  # per path: its first accepting period t >= 1
            live = np.flatnonzero((high & ~at_once).any(axis=0))
            for t in range(1, n):
                if not live.size:
                    break
                acc = draws[live, first + t] < accept[t]
                later[live[acc]] = t
                live = live[~acc]
            period[:] = later
            period[at_once] = 0
        period[~high] = last
    revenue = revenue_at[trade_period]
    payoff = payoff_at[trade_period]
    payoff[~is_high] = 0.0  # the low type pays what the good is worth to it
    return is_high, trade_period, revenue, payoff


def mean_revenues(table: CutoffTable, priors, n_paths: int, seed: int) -> np.ndarray:
    """monte_carlo(table, m0, "prior", n_paths, seed).mean_revenue at every
    prior m0 of a 1-D array, bit for bit.

    All priors of one delay class read the same draws, so each run of
    consecutive priors of one class is played by one kernel pass, in chunks
    of at most PRIOR_BLOCK_SIZE (prior, path) cells; sorted priors make one
    run per class.
    """
    _check_run("prior", n_paths)
    m0 = belief(priors)
    if np.any(m0 == 1.0):
        raise ValueError("simulation starts from a prior below 1")
    n = table.delay_class(m0)
    starts = np.flatnonzero(np.diff(n, prepend=-1))
    stops = np.append(starts[1:], len(m0))
    chunk = max(1, PRIOR_BLOCK_SIZE // n_paths)
    out = np.empty(len(m0))
    for lo, hi in zip(starts.tolist(), stops.tolist()):
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            out[a:b] = _play_paths(table, m0[a:b], "prior", n_paths, seed)[2].mean(axis=1)
    return out


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
    paths = PathArrays(*(rows[0] for rows in _play_paths(table, np.array([m0]), type_draw,
                                                          n_paths, seed)))
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
