"""Equilibrium play simulation: declining posted prices, stochastic acceptance,
belief updating, and Monte Carlo summaries.

On the no-trade path the seller's belief is deterministic: a class-n prior
walks down the cutoff chain, posts n declining prices and sells to the low
type at v_low in period n.  In odds z = mu / (1 - mu) each rejection is one
division: a class-k high type accepts with probability 1 - z_{k-1} / z,
z_{k-1} read from the table's odds and z the prior's own odds in period 0,
z_k after.  So every untraded path shares one price and acceptance
probability per period.  The schedule depends on the prior only through its
class, except for the type draw's threshold and the period-0 acceptance
probability, and a run's draw matrix depends only on (seed, class): class
n's is the first n_paths (n + 1) uniforms of the pcg64(seed) stream.  So the
kernel has two parts: a class step reads a class's draws once from the run's
one stream and keeps three numbers per path (its type draw, its period-0
accept draw and its first accepting period t >= 1), and a read-out gives
results at any priors of the class.  One driver, _play, groups priors by
class, plays each class once from the one stream and yields each class step
chunk by chunk, and each caller reads what it needs.  monte_carlo, the
one-prior case, gathers each path's buyer type and trade period with
trade_periods and reads revenue and payoff by trade period.  mean_revenues
takes each prior's mean revenue from mean_revenue, which gathers only where
it must.  In class 0 every path trades in the same period whatever the
prior, so one mean serves the class.  With v_low = 0 a class-1 path earns 1
or 0 in units of v_high, so the mean is the count of type draws below the
prior over the path count: the pairwise mean bit for bit, as every partial
sum of 0s and 1s is an exact integer.
Per-path selections on a random mask use ndarray.compress or arithmetic
on the mask, never a boolean subscript or np.where, whose branch per element
is slow on random masks; the same elements come out in the same order, so
results stay bit for bit.  A low type pays its value, so every low path's
payoff is +0.0 and mean_rent_low is 0 by construction.
simulate_path and iter_paths play the same equilibrium one path at a time;
they are the single-path reference the array kernel is tested against.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import belief, prior_odds
from .cutoffs import CutoffTable

RNG_ALGORITHM = "pcg64(seed); uniform row i of a pre-drawn matrix is path i's substream"

# Uniform draws a run holds at once: the stream's shared prefix, or one block
# of whole rows of class + 1 draws.  Every block is a slice of the one stream,
# so results do not depend on it; memory stays bounded at any path count and
# any class.
DRAW_BLOCK_SIZE = 4096 * 1001
# (prior, path) cells one read-out plays: no (priors x paths) array is larger.
# Every read-out reads its class's per-path numbers, drawn once, so results
# do not depend on it; class 0 and the v_low = 0 class 1 take their means
# without such an array.
PRIOR_BLOCK_SIZE = 1 << 13


class PathStep(NamedTuple):
    """One period of a path: its index, the seller's belief and undiscounted posted price
    (in v_high's units) in that period, the buyer's type and its response."""
    period: int
    belief: float
    price: float
    buyer_type: str
    action: str  # "accept" or "reject"


class PathRecord(NamedTuple):
    """One simulated play-through.  trade_period is None only on the
    v_low = 0 low-type path, where the good is never sold."""

    steps: tuple[PathStep, ...]
    trade_period: int | None
    discounted_revenue: float
    discounted_buyer_payoff: float
    buyer_type: str


class PathArrays(NamedTuple):
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


def simulate_path(table: CutoffTable, mu0: float, buyer_type: str, draw) -> PathRecord:
    """Play the equilibrium strategy once for a fixed buyer type, draw()
    giving the next uniform (rng.random, say).

    Each period a class-n seller quotes table.prices[n], which is v_high
    with v_low = 0; the high type accepts a draw below 1 - z_{n-1} / z, the
    probability that makes a rejection move the belief's odds z onto the
    next cutoff's, both read from table.odds except the prior's own,
    core.prior_odds(mu0); the low type rejects anything above v_low.  Class 0
    sells at v_low, except that with v_low = 0 belief 0 is absorbing: the
    path ends there flagged as a no-sale.  The prior is classified once;
    each rejection steps to the class below and its cutoff.
    """
    if buyer_type not in ("low", "high"):
        raise ValueError(f"buyer_type must be 'low' or 'high', got {buyer_type!r}")
    mu = belief(mu0)
    odds = prior_odds(mu)
    p = table.params
    v_buyer = p.v_high if buyer_type == "high" else p.v_low

    steps = []
    disc = 1.0
    n = table.delay_class(mu)
    for t in itertools.count():
        if n == 0:
            if p.v_low == 0.0:
                # absorbing no-trade state: the seller quotes v_high forever
                steps.append(PathStep(t, mu, p.v_high, buyer_type, "reject"))
                return PathRecord(tuple(steps), None, 0.0, 0.0, buyer_type)
            steps.append(PathStep(t, mu, p.v_low, buyer_type, "accept"))
            return PathRecord(
                tuple(steps), t, disc * p.v_low, disc * (v_buyer - p.v_low), buyer_type
            )
        price = table.prices[n]
        if buyer_type == "high" and draw() < 1.0 - table.odds[n - 1] / odds:
            steps.append(PathStep(t, mu, price, buyer_type, "accept"))
            return PathRecord(
                tuple(steps), t, disc * price, disc * (v_buyer - price), buyer_type
            )
        steps.append(PathStep(t, mu, price, buyer_type, "reject"))
        n -= 1
        mu, odds = float(table.cutoffs[n]), table.odds[n]
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
    holds class + 1 draws, read in order: under "prior" the type draw, high
    below mu0, then one per period the high type can decline; a fixed type
    starts at the period-0 accept draw and never reads the last.
    """
    _check_run(type_draw, n_paths)
    m0 = belief(mu0)
    rng = np.random.default_rng(seed)
    draws = rng.random((n_paths, table.delay_class(m0) + 1))
    for i in range(n_paths):
        draw = iter(draws[i].tolist()).__next__
        if type_draw == "prior":
            btype = "high" if draw() < m0 else "low"
        else:
            btype = "high" if type_draw == "fixed_high" else "low"
        yield simulate_path(table, m0, btype, draw)


class _Run:
    """What every delay class of one run shares, up to its top class: the
    table, first (1 where a row opens with a type draw, 0 for a fixed type),
    the path count, the discounts delta^t, by repeated multiplication as
    simulate_path builds them, and the uniforms of one pcg64(seed) stream.

    Class n's draw matrix, n_paths rows of n + 1, is the stream's first
    n_paths (n + 1) uniforms, row-major, so all classes read one stream.
    Its prefix, up to the top class's matrix but no larger than a block, is
    drawn once and sliced; a read past it comes from the
    generator reset to the seed and advanced to the read's start, which
    gives the same uniforms.
    """

    def __init__(self, table: CutoffTable, first: int, n_paths: int, seed: int, top: int):
        self.table, self.first, self.n_paths = table, first, n_paths
        self.disc = np.fromiter(itertools.accumulate(itertools.repeat(table.params.delta, top),
                                                     operator.mul, initial=1.0), float, top + 1)
        self._bits = np.random.PCG64(seed)
        self._seeded = self._bits.state
        self._gen = np.random.Generator(self._bits)
        # a block is at most DRAW_BLOCK_SIZE uniforms, or one row where a row is longer
        self._prefix = self._gen.random(min(n_paths * (top + 1), max(DRAW_BLOCK_SIZE, top + 1)))

    def uniforms(self, start: int, count: int) -> np.ndarray:
        """Uniforms [start, start + count) of the stream.  The first read
        past the prefix releases it, so that reads hold one block at a
        time from then on; any later read of the prefix's range is drawn
        again, to the same uniforms."""
        if start + count <= len(self._prefix):
            return self._prefix[start:start + count]
        self._prefix = np.empty(0)  # not a view, which would keep the prefix alive
        self._bits.state = self._seeded
        self._bits.advance(start)
        return self._gen.random(count)


class _ClassPaths:
    """Every path of one delay class n, played once for priors of that
    class, of odds z0 and type thresholds below, on the draws iter_paths
    reads: all priors of a class share them.  A path is high where its type
    uniform u_type, 0 for a fixed type, falls below the prior's threshold.

    Only the type threshold and the period-0 acceptance probability depend
    on the prior: from period 1 the belief is cutoffs[n-1] ... cutoffs[1],
    the price class n - t's and the acceptance probability
    1 - odds[n-t-1] / odds[n-t] in every class-n play.  So the class step
    reads the draws once from the run's stream, in blocks of at most
    DRAW_BLOCK_SIZE, and keeps three numbers per path: its type draw, its
    period-0 accept draw and its first accepting period t >= 1, found by a
    loop over periods on the compacted live paths, those high and declining
    period 0 at some prior of the class.  The one gather, trade_periods,
    then plays priors lo:hi: a high type takes period 0 if its draw accepts
    the prior's own period-0 price, else that later period, which is n if
    it declines every price; a low type buys at v_low in period n.  Revenue
    and payoff are read from revenue_at and payoff_at by trade period.
    With v_low = 0 a positive prior posts v_high once, accepted for sure,
    and belief 0 then never trades.
    """

    def __init__(self, run: _Run, z0: np.ndarray, below: np.ndarray, n: int):
        table, n_paths = run.table, run.n_paths
        p = table.params
        odds = table.odds[:n][::-1]  # the odds after a rejection in period t
        # the acceptance probability in period t >= 1, at odds[t - 1]
        accept = 1.0 - odds[1:] / odds[:-1]
        # by trade period, and last for no sale: the price paid, class n - t's,
        # and the high type's payoff
        paid = table.prices[n::-1]
        disc = run.disc[:n + 1]
        self.v_high = p.v_high
        self.revenue_at = np.append(disc * paid, 0.0)
        self.payoff_at = np.append(disc * (p.v_high - paid), 0.0)
        self.last = -1 if table.degenerate else n  # the period of a path declining every price

        self.below, self.n, self.first = below, n, run.first
        # each prior's own period-0 acceptance probability, from its odds z0
        self.accept0 = 1.0 - odds[0] / z0 if n else None
        self.u_type = np.zeros(n_paths)
        self.u0 = np.empty(n_paths) if n else None
        self.later = np.full(n_paths, self.last)
        block = max(1, DRAW_BLOCK_SIZE // (n + 1))
        for lo in range(0, n_paths, block):
            size = min(block, n_paths - lo)
            # a block's draws are freed when _read_block returns, before the next is read
            self._read_block(slice(lo, lo + size), accept,
                             run.uniforms(lo * (n + 1), size * (n + 1)).reshape(size, n + 1))

    def _read_block(self, rows: slice, accept: np.ndarray, draws: np.ndarray) -> None:
        """Keep the three numbers of the paths in rows from their draws."""
        if self.first:
            self.u_type[rows] = draws[:, 0]
        if not self.n:
            return
        self.u0[rows] = draws[:, self.first]  # the period-0 accept draw
        if self.n == 1:
            return  # no period t >= 1 to test
        # the paths high and declining period 0 at some prior of the class
        live = self.u0[rows] >= self.accept0.min()
        live &= self.u_type[rows] < self.below.max()
        live = np.flatnonzero(live)
        later = self.later[rows]
        for t, (u, threshold) in enumerate(zip(draws.T[self.first + 1:], accept), 1):
            if not live.size:
                break
            acc = u[live] < threshold
            # compress picks the same elements as a boolean subscript, without
            # its branch per element of a random mask
            later[live.compress(acc)] = t
            live = live.compress(~acc)

    def trade_periods(self, lo: int, hi: int):
        """(is_high, trade_period) of every path at the priors lo:hi, as
        (priors x paths) arrays: whether it is a high type, and its trade
        period, -1 for no sale.  In class 0 trade_period is one row, which
        broadcasts over the priors."""
        is_high = self.u_type < self.below[lo:hi, None]
        if not self.n:
            # every path trades in period last whatever the prior, so one
            # row serves every prior
            return is_high, self.later[None]
        declines = self.u0 >= self.accept0[lo:hi, None]
        # later, 0 or last by arithmetic on the masks, which beats np.where's
        # branches on random masks
        return is_high, (declines * self.later - self.last) * is_high + self.last

    def mean_revenue(self, lo: int, hi: int):
        """The mean revenue at each of the priors lo:hi: v_high times the
        pairwise mean of the paths' revenues in units of v_high, as
        monte_carlo takes it, bit for bit."""
        if not self.n:
            return self._class_mean
        if self.n == 1 and self.last < 0:
            return self._count_means[lo:hi]
        _, trade_period = self.trade_periods(lo, hi)
        return self.v_high * (self.revenue_at / self.v_high)[trade_period].mean(axis=1)

    @cached_property
    def _class_mean(self) -> float:
        # class 0: every path trades in period last whatever the prior, so
        # one row's mean serves every prior of the class
        return self.v_high * (self.revenue_at / self.v_high)[self.later].mean()

    @cached_property
    def _count_means(self) -> np.ndarray:
        # the v_low = 0 class 1: a high type pays v_high in period 0, 1.0 in
        # units of v_high, and a low type nothing; a type draw equal to the
        # prior is a low type's, so the count is searchsorted's left side
        high = np.sort(self.u_type).searchsorted(self.below)
        return self.v_high * (high / len(self.later))


def _play(table: CutoffTable, priors, type_draw: str, n_paths: int, seed: int):
    """Play n_paths paths at every prior, a float or a 1-D array.  The
    priors are grouped by delay class, in any order, and each class is
    played once from one _Run; yields (rows, class step, lo, hi) for chunks
    of at most PRIOR_BLOCK_SIZE (prior, path) cells, rows the chunk's
    indices into the priors and lo:hi its slice of the class step's priors."""
    _check_run(type_draw, n_paths)
    m0 = np.atleast_1d(belief(priors))
    n = table.classes(m0)
    order = np.argsort(n, kind="stable")
    m0, n = m0[order], n[order]
    z0 = prior_odds(m0)
    below = m0 if type_draw == "prior" else np.full_like(m0, type_draw == "fixed_high")
    starts = np.flatnonzero(np.diff(n, prepend=-1))
    stops = np.append(starts[1:], len(m0))
    run = _Run(table, int(type_draw == "prior"), n_paths, seed, int(n.max(initial=0)))
    chunk = max(1, PRIOR_BLOCK_SIZE // n_paths)
    for lo, hi in zip(starts.tolist(), stops.tolist()):
        paths = _ClassPaths(run, z0[lo:hi], below[lo:hi], int(n[lo]))
        if hi == len(m0):
            del run  # every class is read: free the stream's prefix before the last read-outs
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            yield order[a:b], paths, a - lo, b - lo


def mean_revenues(table: CutoffTable, priors, n_paths: int, seed: int) -> np.ndarray:
    """monte_carlo(table, m0, "prior", n_paths, seed).mean_revenue at every
    prior m0 of a 1-D array, bit for bit: the mean, in units of v_high, of
    the revenue at each path's trade period."""
    out = np.empty(len(priors))
    for rows, paths, lo, hi in _play(table, priors, "prior", n_paths, seed):
        out[rows] = paths.mean_revenue(lo, hi)
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
    ((_, paths, lo, hi),) = _play(table, mu0, type_draw, n_paths, seed)
    is_high, trade_period = paths.trade_periods(lo, hi)
    is_high, trade_period = is_high[0], trade_period[0]
    revenue = paths.revenue_at[trade_period]
    # a low type pays its value; payoff_at is finite and at least +0.0, so
    # the product is np.where(is_high, ..., 0.0) bit for bit, without its branches
    payoff = paths.payoff_at[trade_period] * is_high
    del paths  # the class step's per-path numbers, before the summary's arrays

    # means in units of v_high, so squaring revenues near the float64 floor
    # cannot underflow, and neither sums nor squares near its maximum overflow
    v_high = table.params.v_high
    r = revenue / v_high
    se = float(v_high * r.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    # the high types' payoffs in path order: compress picks the same elements
    # as payoff[is_high], without its branch per element of a random mask
    high = payoff.compress(is_high)
    counts = np.bincount(trade_period + 1)  # index 0 counts the no-sale paths
    seen = np.flatnonzero(counts)
    return MonteCarloSummary(
        n_paths=n_paths,
        mean_revenue=float(v_high * r.mean()),
        se_revenue=se,
        mean_rent_high=float(v_high * (high / v_high).mean()) if high.size else 0.0,
        mean_rent_low=0.0,  # every low path's payoff is the product's +0.0
        trade_time_histogram=dict(zip((seen - 1).tolist(), counts[seen].tolist())),
        seed=seed,
        paths=PathArrays(is_high, trade_period, revenue, payoff),
    )
