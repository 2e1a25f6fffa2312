import functools
from decimal import Decimal, localcontext

import numpy as np
import pytest

from duropoly import (
    MarketParams,
    build_mechanism,
    buyer_rent,
    compute_cutoffs,
    iter_paths,
    monte_carlo,
    posted_price_view,
    seller_revenue,
    simulate_path,
)
from duropoly import sim

from helpers import EXACT_DIGITS, exact_chain


def test_no_delay_prior_trades_immediately(table08):
    rng = np.random.default_rng(0)
    for btype in ("low", "high"):
        rec = simulate_path(table08, 0.3, btype, rng.random)
        assert rec.trade_period == 0
        assert rec.discounted_revenue == 1.0
        assert rec.steps[0].price == 1.0


def test_one_delay_high_type(table08):
    # the delay posterior is 0, so the high type accepts at once
    rec = simulate_path(table08, 0.6, "high", np.random.default_rng(1).random)
    assert rec.trade_period == 0
    assert rec.discounted_revenue == 1.2
    assert rec.discounted_buyer_payoff == 0.8


def test_high_type_rent_path_invariant(table08, p08):
    m0 = 0.85  # class 2
    want = p08.delta**2 * p08.delta_v
    rng = np.random.default_rng(2)
    seen_periods = set()
    for _ in range(2000):
        rec = simulate_path(table08, m0, "high", rng.random)
        assert abs(rec.discounted_buyer_payoff - want) < 1e-12
        seen_periods.add(rec.trade_period)
    assert seen_periods <= {0, 1, 2}
    assert len(seen_periods) > 1  # the acceptance time really is random


def test_low_type_trades_at_class_period(table08, p08):
    rng = np.random.default_rng(3)
    for m0 in (0.3, 0.6, 0.85):
        n = table08.delay_class(m0)
        rec = simulate_path(table08, m0, "low", rng.random)
        assert rec.trade_period == n
        assert rec.discounted_buyer_payoff == 0.0
        assert rec.discounted_revenue == pytest.approx(p08.delta**n * p08.v_low, abs=1e-15)
        assert rec.steps[-1].price == p08.v_low


def test_beliefs_walk_down_the_cutoff_chain(table08):
    rec = simulate_path(table08, 0.85, "low", np.random.default_rng(4).random)
    beliefs = [step.belief for step in rec.steps]
    assert beliefs == [0.85, table08.cutoffs[1], 0.0]
    assert all(type(b) is float for b in beliefs)  # Python floats, read off the cutoff array
    prices = [step.price for step in rec.steps]
    assert prices == [table08.prices[2], table08.prices[1], 1.0]


def test_low_type_never_accepts_above_v_low(table08):
    rng = np.random.default_rng(5)
    rec = simulate_path(table08, 0.95, "low", rng.random)
    for step in rec.steps:
        if step.action == "accept":
            assert step.price <= table08.params.v_low


def test_degenerate_low_type_never_trades(tabledeg):
    rec = simulate_path(tabledeg, 0.5, "low", np.random.default_rng(6).random)
    assert rec.trade_period is None
    assert rec.discounted_revenue == 0.0
    assert rec.discounted_buyer_payoff == 0.0


def test_degenerate_high_type_pays_full_value(tabledeg):
    # the posted price is v_high = 1 in the table, the mechanism, its
    # posted-price view and the path, not v_high - delta (v_high - v_low) = 0.1
    assert tabledeg.prices[1] == 1.0
    for m0 in (0.5, 0.3):
        rec = simulate_path(tabledeg, m0, "high", np.random.default_rng(7).random)
        assert rec.trade_period == 0
        assert rec.discounted_revenue == 1.0
        assert rec.discounted_buyer_payoff == 0.0
        assert rec.steps[0].price == 1.0
        mech = build_mechanism(tabledeg, m0)
        assert mech.transfer[1.0] == 1.0
        assert posted_price_view(mech, tabledeg).price == 1.0


def test_simulate_path_input_validation(table08):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_path(table08, 0.5, "medium", rng.random)
    with pytest.raises(ValueError):
        simulate_path(table08, 1.0, "high", rng.random)


def test_monte_carlo_deterministic(table08):
    a = monte_carlo(table08, 0.6, "prior", 5000, seed=42)
    b = monte_carlo(table08, 0.6, "prior", 5000, seed=42)
    assert a == b
    c = monte_carlo(table08, 0.6, "prior", 5000, seed=43)
    assert c != a


def test_monte_carlo_mean_matches_analytic(table08):
    mc = monte_carlo(table08, 0.6, "prior", 50_000, seed=0)
    assert abs(mc.mean_revenue - seller_revenue(table08, 0.6)) <= 3.0 * mc.se_revenue


def test_monte_carlo_se_at_tiny_scale():
    # revenues near 1e-303 would square to 0 in physical units
    table = compute_cutoffs(MarketParams(2.69e-318, 1e-300, 0.9999986))
    mc = monte_carlo(table, 0.5, "prior", 5000, seed=0)
    assert mc.se_revenue > 0.0
    assert abs(mc.mean_revenue - seller_revenue(table, 0.5)) <= 3.0 * mc.se_revenue


def test_monte_carlo_zero_variance_rent(table08, p08):
    mc = monte_carlo(table08, 0.85, "fixed_high", 20_000, seed=1)
    assert mc.mean_rent_high == pytest.approx(p08.delta**2 * p08.delta_v, abs=1e-12)
    assert mc.mean_rent_low == 0.0
    assert set(mc.trade_time_histogram) <= {0, 1, 2}


def test_monte_carlo_low_type(table08, p08):
    mc = monte_carlo(table08, 0.85, "fixed_low", 500, seed=2)
    assert mc.mean_rent_low == 0.0
    assert mc.trade_time_histogram == {2: 500}
    assert mc.se_revenue < 1e-15  # identical paths, up to summation rounding


def test_monte_carlo_revenue_decomposition(table08):
    m0 = 0.85
    pooled = monte_carlo(table08, m0, "prior", 60_000, seed=3)
    high = monte_carlo(table08, m0, "fixed_high", 60_000, seed=3)
    low = monte_carlo(table08, m0, "fixed_low", 1000, seed=3)
    combo = m0 * high.mean_revenue + (1.0 - m0) * low.mean_revenue
    assert abs(pooled.mean_revenue - combo) <= 3.0 * (pooled.se_revenue + high.se_revenue)


def test_monte_carlo_degenerate(tabledeg):
    mc = monte_carlo(tabledeg, 0.3, "prior", 20_000, seed=4)
    assert abs(mc.mean_revenue - 0.3) <= 3.0 * mc.se_revenue
    assert mc.mean_rent_high == 0.0
    assert mc.mean_rent_low == 0.0
    assert set(mc.trade_time_histogram) <= {-1, 0}


def test_monte_carlo_input_validation(table08):
    with pytest.raises(ValueError):
        monte_carlo(table08, 0.5, "both", 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(table08, 0.5, "prior", 0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(table08, 1.0, "prior", 10, seed=0)


def test_paths_schedule_independent(table08):
    # path i depends only on (seed, i), not on how many paths are run
    short = list(iter_paths(table08, 0.85, "prior", 10, seed=6))
    long = list(iter_paths(table08, 0.85, "prior", 50, seed=6))
    assert short == long[:10]


def test_rng_algorithm_recorded(table08):
    mc = monte_carlo(table08, 0.5, "prior", 10, seed=0)
    assert "pcg64" in mc.rng_algorithm
    assert mc.seed == 0


def test_high_rent_equals_analytic_everywhere(table08):
    # the simulated rent is the analytic one, not just on average
    for m0 in (0.55, 0.8, 0.93):
        mc = monte_carlo(table08, m0, "fixed_high", 3000, seed=5)
        assert mc.mean_rent_high == pytest.approx(buyer_rent(table08, m0), abs=1e-12)


def _middle(c, k):
    """The middle of class k, the interval [c[k], c[k + 1]), kept inside it:
    the top class can be the single float 1 - 2^-53."""
    return min(0.5 * (c[k] + c[k + 1]), np.nextafter(c[k + 1], 0.0))


def _class_priors(table):
    """Prior 0 and the middle of classes 0, 1, 2 and the top class (the
    degenerate table has classes 0 = {0} and 1 only), plus the cutoff
    mu_bar_2 itself, a tie that belongs to class 2."""
    c = np.append(table.cutoffs, 1.0)
    top = len(table.cutoffs) - 1
    priors = [0.0]
    for k in sorted({0, 1, 2, top} & set(range(top + 1))):
        m = _middle(c, k)
        assert table.delay_class(m) == k
        priors.append(m)
    if top >= 2:
        priors.append(c[2])
    return priors


LONG_CLASS = 1500


@pytest.mark.parametrize(
    "args",
    [(1.0, 2.0, 0.8), (1.0, 2.0, 0.99), (0.0, 1.0, 0.9), (1e-100, 1.0, 0.99999),
     (1e-310, 1.0, 0.9)],
)
def test_array_kernel_matches_path_oracle(args):
    # monte_carlo plays all paths as arrays; each must be iter_paths' path
    table = compute_cutoffs(MarketParams(*args))
    if len(table.cutoffs) > LONG_CLASS + 1:
        # one prior of a long class, on few paths: the oracle walks it step by step
        c = table.cutoffs
        priors, n_paths = [0.5 * (c[LONG_CLASS] + c[LONG_CLASS + 1])], 20
        assert table.delay_class(priors[0]) == LONG_CLASS
    else:
        priors, n_paths = _class_priors(table), 200
    v_high = table.params.v_high
    for m0 in priors:
        for type_draw in ("prior", "fixed_high", "fixed_low"):
            summary = monte_carlo(table, m0, type_draw, n_paths, seed=11)
            got = summary.paths
            recs = list(iter_paths(table, m0, type_draw, n_paths, seed=11))
            case = (m0, type_draw)
            assert got.is_high.tolist() == [r.buyer_type == "high" for r in recs], case
            assert got.trade_period.tolist() == [
                -1 if r.trade_period is None else r.trade_period for r in recs
            ], case
            assert got.revenue.tolist() == [r.discounted_revenue for r in recs], case
            assert got.payoff.tolist() == [r.discounted_buyer_payoff for r in recs], case
            # the rents from the oracle's payoffs, the high types picked out in Python
            h = [r.discounted_buyer_payoff for r in recs if r.buyer_type == "high"]
            want_high = float(v_high * (np.array(h) / v_high).mean()) if h else 0.0
            assert summary.mean_rent_high == want_high, case
            low = [r.discounted_buyer_payoff for r in recs if r.buyer_type == "low"]
            assert all(x == 0.0 and not np.signbit(x) for x in low), case
            assert summary.mean_rent_low == 0.0 and not np.signbit(summary.mean_rent_low), case


def _played(table, priors, type_draw, n_paths, seed):
    """(is_high, trade_period, revenue, payoff) of every path at every prior,
    each a (priors x paths) array, put together from the chunks sim._play
    yields; revenue and payoff are read by trade period as monte_carlo
    reads them."""
    rows = [np.empty((len(priors), n_paths), dtype) for dtype in (bool, np.intp, float, float)]
    for idx, paths, lo, hi in sim._play(table, priors, type_draw, n_paths, seed):
        is_high, trade_period = paths.trade_periods(lo, hi)
        played = (is_high, trade_period, paths.revenue_at[trade_period],
                  paths.payoff_at[trade_period] * is_high)
        for out, got in zip(rows, played):
            out[idx] = got
    return rows


def _count_draws(monkeypatch):
    """Patch numpy's PCG64 and Generator to count bit-generator seedings and
    advances, and to record the size of every uniform draw."""
    seen = {"seedings": 0, "advances": 0, "draws": []}

    class CountedPCG64(np.random.PCG64):
        def __init__(self, *args):
            seen["seedings"] += 1
            super().__init__(*args)

        def advance(self, delta):
            seen["advances"] += 1
            return super().advance(delta)

    class RecordedGenerator(np.random.Generator):
        def random(self, size=None, *args):
            seen["draws"].append(int(np.prod(size)))
            return super().random(size, *args)

    monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
    monkeypatch.setattr(np.random, "Generator", RecordedGenerator)
    return seen


def test_monte_carlo_draw_blocks_do_not_change_results(monkeypatch):
    # one seeding per run; blocks past the first come from the advanced generator
    table = compute_cutoffs(MarketParams(1.0, 2.0, 0.99))
    whole = monte_carlo(table, 0.999, "prior", 1000, seed=9)
    monkeypatch.setattr(sim, "DRAW_BLOCK_SIZE", 1)  # one row per block
    seen = _count_draws(monkeypatch)
    blocked = monte_carlo(table, 0.999, "prior", 1000, seed=9)
    assert seen["seedings"] == 1 and seen["advances"] == 999
    assert set(seen["draws"]) == {table.delay_class(0.999) + 1}
    assert blocked == whole
    for name in ("is_high", "trade_period", "revenue", "payoff"):
        assert getattr(blocked.paths, name).tolist() == getattr(whole.paths, name).tolist()


def test_long_class_paths_all_trade():
    # every path is played to its trade, however long the prior's class
    table = compute_cutoffs(MarketParams(1e-100, 1.0, 0.99999))
    n = table.delay_class(0.9)
    assert n == 6778
    mc = monte_carlo(table, 0.9, "prior", 2000, seed=0)
    assert -1 not in mc.trade_time_histogram
    low = ~mc.paths.is_high
    assert low.any() and (mc.paths.trade_period[low] == n).all()
    assert abs(mc.mean_revenue - seller_revenue(table, 0.9)) <= 3.0 * mc.se_revenue


def test_monte_carlo_seed_0_summaries_pinned():
    # recorded from the per-path loop that preceded the array kernel
    t08 = compute_cutoffs(MarketParams(1.0, 2.0, 0.8))
    mc = monte_carlo(t08, 0.6, "prior", 20_000, seed=0)
    assert mc.mean_revenue == 1.0399599999999998
    assert mc.se_revenue == 0.0013857329947708683
    assert mc.mean_rent_high == 0.7999999999999998
    assert mc.mean_rent_low == 0.0
    assert mc.trade_time_histogram == {0: 11998, 1: 8002}

    t099 = compute_cutoffs(MarketParams(1.0, 2.0, 0.99))
    mc = monte_carlo(t099, 0.999, "prior", 20_000, seed=0)
    assert mc.mean_revenue == 1.0745731335769535
    assert mc.se_revenue == 0.00016060338015352776
    assert mc.mean_rent_high == 0.9135172474836409
    assert mc.mean_rent_low == 0.0
    assert mc.trade_time_histogram == {
        0: 13654, 1: 3402, 2: 1557, 3: 703, 4: 336, 5: 184, 6: 80, 7: 46, 8: 15, 9: 23,
    }


@pytest.mark.parametrize("args", [(1.0, 2.0, 0.8), (1.0, 2.0, 0.99), (0.0, 1.0, 0.9)])
def test_class_kernel_matches_per_prior_runs(monkeypatch, args):
    # one kernel pass over several priors of one class plays, at each prior,
    # the very paths of that prior's own monte_carlo, draw blocks or not
    table = compute_cutoffs(MarketParams(*args))
    if table.degenerate:
        groups = [[0.0], [5e-324, 1e-9, 0.3, 0.99]]
    else:
        c = np.append(table.cutoffs, 1.0)
        # each class's bottom cutoff, middle and last float, for classes 0-4 and the top one
        groups = [[c[k], _middle(c, k), np.nextafter(c[k + 1], 0.0)]
                  for k in [0, 1, 2, 3, 4, len(c) - 2]]
    for group in groups:
        priors = np.array(group)
        assert len(set(table.delay_class(priors).tolist())) == 1
        for type_draw in ("prior", "fixed_high", "fixed_low"):
            for block in (sim.DRAW_BLOCK_SIZE, 5):
                monkeypatch.setattr(sim, "DRAW_BLOCK_SIZE", block)
                rows = _played(table, priors, type_draw, 300, seed=3)
                monkeypatch.undo()
                for i, m0 in enumerate(priors.tolist()):
                    one = monte_carlo(table, m0, type_draw, 300, seed=3).paths
                    for name, got in zip(("is_high", "trade_period", "revenue", "payoff"), rows):
                        assert got[i].tolist() == getattr(one, name).tolist(), (m0, type_draw, name)


@pytest.mark.parametrize("args", [(1.0, 2.0, 0.8), (1.0, 2.0, 0.99), (0.0, 1.0, 0.9)])
def test_mean_revenues_live_set_bounds(monkeypatch, args):
    # the class step follows only the paths high and declining period 0 at
    # some prior of the class; a class's bottom cutoff, middle and last float
    # set those bounds, and each prior still gets its own monte_carlo mean
    table = compute_cutoffs(MarketParams(*args))
    if table.degenerate:
        priors = [0.0, 5e-324, 1e-9, 0.3, 0.99]
    else:
        c = np.append(table.cutoffs, 1.0)
        priors = [m for k in [0, 1, 2, 3, 4, len(c) - 2]
                  for m in (c[k], _middle(c, k), np.nextafter(c[k + 1], 0.0))]
    want = [monte_carlo(table, m0, "prior", 300, seed=3).mean_revenue for m0 in priors]
    for block in (sim.DRAW_BLOCK_SIZE, 5):
        monkeypatch.setattr(sim, "DRAW_BLOCK_SIZE", block)
        assert sim.mean_revenues(table, np.array(priors), 300, seed=3).tolist() == want, block


@pytest.mark.parametrize("market, grid", [((1.0, 2.0, 0.8), 251), ((0.0, 1.0, 0.9), 201)])
def test_mean_revenues_plays_each_class_once(monkeypatch, market, grid):
    # one class step per delay class, whatever the prior order and however
    # many chunks a class takes; shuffled priors get the sorted priors'
    # means, permuted, bit for bit.  Class 0 takes one mean per class, not
    # one per chunk, and neither it nor the v_low = 0 class 1 gathers
    table = compute_cutoffs(MarketParams(*market))
    priors = np.linspace(0.0, 1.0, grid)[:-1]
    shuffle = np.random.default_rng(0).permutation(len(priors))
    classes = sorted(set(table.delay_class(priors).tolist()))
    gathered = [] if table.degenerate else classes[1:]
    # the class of each class step, class-0 mean and gather
    steps, means, gathers = [], [], []

    class Counted(sim._ClassPaths):
        def __init__(self, run, z0, below, n):
            steps.append(n)
            super().__init__(run, z0, below, n)

        @functools.cached_property
        def _class_mean(self):
            means.append(self.n)
            return super()._class_mean

        def trade_periods(self, lo, hi):
            gathers.append(self.n)
            return super().trade_periods(lo, hi)

    monkeypatch.setattr(sim, "_ClassPaths", Counted)
    want = sim.mean_revenues(table, priors, 200, seed=0)
    assert sorted(steps) == classes
    for block in (sim.PRIOR_BLOCK_SIZE, 3 * 200):
        monkeypatch.setattr(sim, "PRIOR_BLOCK_SIZE", block)
        for record in (steps, means, gathers):
            record.clear()
        got = sim.mean_revenues(table, priors[shuffle], 200, seed=0)
        assert sorted(steps) == classes, block
        assert means == [0], block
        assert sorted(set(gathers)) == gathered, block
        assert got.tolist() == want[shuffle].tolist(), block


@pytest.mark.parametrize("v_high", [1.0, 3.0, 1e300])
@pytest.mark.parametrize("n_paths", [1, 7, 200])
def test_v_low_0_mean_revenue_is_a_count(v_high, n_paths):
    # with v_low = 0 a class-1 path earns v_high or nothing, so the mean is
    # v_high times the count of type draws below the prior over n_paths: the
    # per-prior monte_carlo mean bit for bit, at prior 0, a subnormal and
    # 1 - 2^-53, and at priors equal to a path's type draw, which is a low type's
    table = compute_cutoffs(MarketParams(0.0, v_high, 0.9))
    u_type = np.random.default_rng(5).random((n_paths, 2))[:, 0]  # class 1's type draws
    ties = u_type[:5]
    priors = np.concatenate([[0.0, 5e-324, 0.5, 1.0 - 2.0**-53], ties, np.nextafter(ties, 1.0)])
    want = [monte_carlo(table, m0, "prior", n_paths, seed=5).mean_revenue for m0 in priors.tolist()]
    assert want == (v_high * ((u_type < priors[:, None]).sum(axis=1) / n_paths)).tolist()
    assert want[0] == 0.0
    assert sim.mean_revenues(table, priors, n_paths, seed=5).tolist() == want


def test_mean_revenues_reads_one_stream(monkeypatch):
    # every class's draws are a prefix of one pcg64(seed) stream, seeded once
    # per call: at 146 classes each prior gets its own monte_carlo mean bit
    # for bit when the stream's prefix holds every class, when the classes
    # above 39 are read past it from the advanced generator, and when every
    # block is one row; no draw holds more than DRAW_BLOCK_SIZE uniforms, or
    # one row where a row is longer
    table = compute_cutoffs(MarketParams(1e-3, 1.0, 0.999))
    priors = np.linspace(0.0, 1.0, 1001)[:-1]
    classes = table.delay_class(priors)
    assert len(set(classes.tolist())) >= 100
    want = [monte_carlo(table, m0, "prior", 20, seed=4).mean_revenue for m0 in priors]
    for block in (sim.DRAW_BLOCK_SIZE, 20 * 40, 7):
        monkeypatch.setattr(sim, "DRAW_BLOCK_SIZE", block)
        seen = _count_draws(monkeypatch)
        assert sim.mean_revenues(table, priors, 20, seed=4).tolist() == want, block
        assert seen["seedings"] == 1, block
        assert (seen["advances"] > 0) == (20 * (classes.max() + 1) > block), block
        assert 0 < max(seen["draws"]) <= max(block, classes.max() + 1), block
        monkeypatch.undo()


def test_subnormal_prior_with_v_low_0_trades_at_once():
    # the prior's odds m0 / (1 - m0) stay finite, and the next belief's odds
    # are 0; with v_low = 0 the high type buys in period 0 for sure, at the
    # smallest subnormal prior too
    table = compute_cutoffs(MarketParams(0.0, 1.0, 0.9))
    priors = np.array([5e-324, 1e-310, 0.3])
    for type_draw in ("prior", "fixed_high"):
        rows = _played(table, priors, type_draw, 50, seed=2)
        for i, m0 in enumerate(priors.tolist()):
            recs = list(iter_paths(table, m0, type_draw, 50, seed=2))
            assert rows[1][i].tolist() == [
                -1 if r.trade_period is None else r.trade_period for r in recs
            ], (m0, type_draw)
            assert rows[2][i].tolist() == [r.discounted_revenue for r in recs], (m0, type_draw)
    assert monte_carlo(table, 5e-324, "fixed_high", 50, seed=2).mean_revenue == 1.0


def test_subnormal_class_2_prior_accepts_in_period_0():
    # at v_low / v_high = 1e-310 the low cutoffs are subnormal, and so is
    # m0 = 3e-310, a class-2 prior, whose odds m0 / (1 - m0) stay finite; the
    # high type buys in period 0 with probability 1 - odds(mu_bar_1) / odds(m0),
    # about 2/3, and else in period 1, where the next belief is 0, for sure
    table = compute_cutoffs(MarketParams(1e-310, 1.0, 0.9))
    assert table.delay_class(3e-310) == 2
    hist = monte_carlo(table, 3e-310, "fixed_high", 1000, seed=0).trade_time_histogram
    assert set(hist) == {0, 1} and abs(hist[0] / 1000 - 2 / 3) < 0.05


class _DeclineUntil:
    """A uniform stream that declines every period before t (draw 1), draws
    u in period t, and declines after it."""

    def __init__(self, t: int, u: float):
        self.t, self.u, self.k = t, u, -1

    def random(self) -> float:
        self.k += 1
        return self.u if self.k == self.t else 1.0


@pytest.mark.parametrize("market, m0", [((1.0, 2.0, 0.99), 1.0 - 1e-14),
                                        ((1.0, 2.0, 0.8), 1.0 - 2.0**-52)])
def test_accept_thresholds_are_the_exact_chains(market, m0):
    # in period t a class-n high type accepts below 1 - z_{n-t-1} / z_{n-t},
    # z_n the 60-digit chain's odds and z_n at t = 0 the prior's own: a draw
    # 1e-9 below that threshold, relative, trades in period t, one 1e-9 above
    # does not
    table = compute_cutoffs(MarketParams(*market))
    n = table.delay_class(m0)
    chain = exact_chain(market[0] / market[1], market[2], n)
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        odds = chain.odds + (Decimal(m0) / (1 - Decimal(m0)),)
        thresholds = [float(1 - odds[n - t - 1] / odds[n - t]) for t in range(n)]
    assert n > 10
    misses = []
    for t, a in enumerate(thresholds):
        for u, trades in ((a * (1.0 - 1e-9), True), (a * (1.0 + 1e-9), False)):
            if (simulate_path(table, m0, "high", _DeclineUntil(t, u).random).trade_period == t) != trades:
                misses.append((t, u, trades))
    assert misses == []


@pytest.mark.parametrize("args", [(1.0, 2.0, 0.8, 0.95), (1.0, 2.0, 0.99, 0.999), (0.1, 1.0, 0.9, 0.9)])
def test_histogram_follows_the_law_of_play(args):
    # both types pooled, a class-n prior's good is unsold entering period t
    # with probability S_t = (1 + z_{n-t}) / (1 + z0) for 1 <= t <= n, S_0 = 1
    # and S_{n+1} = 0, so period t trades with probability S_t - S_{t+1};
    # each period's share of 100,000 paths lies within 5 binomial se of it
    *market, m0 = args
    table = compute_cutoffs(MarketParams(*market))
    n, n_paths = table.delay_class(m0), 100_000
    s = np.concatenate([[1.0], (1.0 + table.odds[n - 1::-1]) / (1.0 + m0 / (1.0 - m0)), [0.0]])
    law = s[:-1] - s[1:]
    hist = monte_carlo(table, m0, "prior", n_paths, seed=0).trade_time_histogram
    assert set(hist) <= set(range(n + 1))
    share = np.array([hist.get(t, 0) for t in range(n + 1)]) / n_paths
    assert np.all(np.abs(share - law) <= 5.0 * np.sqrt(law * (1.0 - law) / n_paths))
