import numpy as np
import pytest

from duropoly import (
    MarketParams,
    buyer_rent,
    class_price,
    compute_cutoffs,
    iter_paths,
    monte_carlo,
    seller_revenue,
    simulate_path,
)
from duropoly import sim


def test_no_delay_prior_trades_immediately(table08):
    rng = np.random.default_rng(0)
    for btype in ("low", "high"):
        rec = simulate_path(table08, 0.3, btype, rng)
        assert rec.trade_period == 0
        assert rec.discounted_revenue == 1.0
        assert rec.steps[0].price == 1.0


def test_one_delay_high_type(table08):
    # the delay posterior is 0, so the high type accepts at once
    rec = simulate_path(table08, 0.6, "high", np.random.default_rng(1))
    assert rec.trade_period == 0
    assert rec.discounted_revenue == 1.2
    assert rec.discounted_buyer_payoff == 0.8


def test_high_type_rent_path_invariant(table08, p08):
    m0 = 0.85  # class 2
    want = p08.delta**2 * p08.delta_v
    rng = np.random.default_rng(2)
    seen_periods = set()
    for _ in range(2000):
        rec = simulate_path(table08, m0, "high", rng)
        assert abs(rec.discounted_buyer_payoff - want) < 1e-12
        seen_periods.add(rec.trade_period)
    assert seen_periods <= {0, 1, 2}
    assert len(seen_periods) > 1  # the acceptance time really is random


def test_low_type_trades_at_class_period(table08, p08):
    rng = np.random.default_rng(3)
    for m0 in (0.3, 0.6, 0.85):
        n = table08.delay_class(m0)
        rec = simulate_path(table08, m0, "low", rng)
        assert rec.trade_period == n
        assert rec.discounted_buyer_payoff == 0.0
        assert rec.discounted_revenue == pytest.approx(p08.delta**n * p08.v_low, abs=1e-15)
        assert rec.steps[-1].price == p08.v_low


def test_beliefs_walk_down_the_cutoff_chain(table08):
    rec = simulate_path(table08, 0.85, "low", np.random.default_rng(4))
    beliefs = [step.belief for step in rec.steps]
    assert beliefs == [0.85, table08.cutoffs[1], 0.0]
    prices = [step.price for step in rec.steps]
    assert prices == [class_price(table08.params, 2), class_price(table08.params, 1), 1.0]


def test_low_type_never_accepts_above_v_low(table08):
    rng = np.random.default_rng(5)
    rec = simulate_path(table08, 0.95, "low", rng)
    for step in rec.steps:
        if step.action == "accept":
            assert step.price <= table08.params.v_low


def test_degenerate_low_type_never_trades(tabledeg):
    rec = simulate_path(tabledeg, 0.5, "low", np.random.default_rng(6))
    assert rec.trade_period is None
    assert rec.discounted_revenue == 0.0
    assert rec.discounted_buyer_payoff == 0.0


def test_degenerate_high_type_pays_full_value(tabledeg):
    rec = simulate_path(tabledeg, 0.5, "high", np.random.default_rng(7))
    assert rec.trade_period == 0
    assert rec.discounted_revenue == 1.0
    assert rec.discounted_buyer_payoff == 0.0


def test_simulate_path_input_validation(table08):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_path(table08, 0.5, "medium", rng)
    with pytest.raises(ValueError):
        simulate_path(table08, 1.0, "high", rng)


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


def _class_priors(table):
    """Prior 0 and the middle of classes 0, 1, 2 and the top class (the
    degenerate table has classes 0 = {0} and 1 only), plus the cutoff
    mu_bar_2 itself, a tie that belongs to class 2."""
    c = table.cutoffs + (1.0,)
    top = len(table.cutoffs) - 1
    priors = [0.0]
    for k in sorted({0, 1, 2, top} & set(range(top + 1))):
        m = 0.5 * (c[k] + c[k + 1])
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
    for m0 in priors:
        for type_draw in ("prior", "fixed_high", "fixed_low"):
            got = monte_carlo(table, m0, type_draw, n_paths, seed=11).paths
            recs = list(iter_paths(table, m0, type_draw, n_paths, seed=11))
            case = (m0, type_draw)
            assert got.is_high.tolist() == [r.buyer_type == "high" for r in recs], case
            assert got.trade_period.tolist() == [
                -1 if r.trade_period is None else r.trade_period for r in recs
            ], case
            assert got.revenue.tolist() == [r.discounted_revenue for r in recs], case
            assert got.payoff.tolist() == [r.discounted_buyer_payoff for r in recs], case


def test_monte_carlo_draw_blocks_do_not_change_results(monkeypatch):
    table = compute_cutoffs(MarketParams(1.0, 2.0, 0.99))
    whole = monte_carlo(table, 0.999, "prior", 1000, seed=9)
    monkeypatch.setattr(sim, "DRAW_BLOCK_SIZE", 1)  # one row per block
    blocked = monte_carlo(table, 0.999, "prior", 1000, seed=9)
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
        c = np.append(table.cutoff_array, 1.0)
        # each class's bottom cutoff, middle and last float, for classes 0-4 and the top one
        groups = [[c[k], 0.5 * (c[k] + c[k + 1]), np.nextafter(c[k + 1], 0.0)]
                  for k in [0, 1, 2, 3, 4, len(c) - 2]]
    for group in groups:
        priors = np.array(group)
        assert len(set(table.delay_class(priors).tolist())) == 1
        for type_draw in ("prior", "fixed_high", "fixed_low"):
            for block in (sim.DRAW_BLOCK_SIZE, 5):
                monkeypatch.setattr(sim, "DRAW_BLOCK_SIZE", block)
                rows = sim._play_paths(table, priors, type_draw, 300, seed=3)
                monkeypatch.undo()
                for i, m0 in enumerate(priors.tolist()):
                    one = monte_carlo(table, m0, type_draw, 300, seed=3).paths
                    for name, got in zip(("is_high", "trade_period", "revenue", "payoff"), rows):
                        assert got[i].tolist() == getattr(one, name).tolist(), (m0, type_draw, name)


def test_subnormal_prior_with_v_low_0_trades_at_once():
    # (1 - m0) / m0 overflows below about 5.6e-309 while the next belief's
    # odds are 0; with v_low = 0 the high type still buys in period 0 for sure
    table = compute_cutoffs(MarketParams(0.0, 1.0, 0.9))
    priors = np.array([5e-324, 1e-310, 0.3])
    for type_draw in ("prior", "fixed_high"):
        rows = sim._play_paths(table, priors, type_draw, 50, seed=2)
        for i, m0 in enumerate(priors.tolist()):
            recs = list(iter_paths(table, m0, type_draw, 50, seed=2))
            assert rows[1][i].tolist() == [
                -1 if r.trade_period is None else r.trade_period for r in recs
            ], (m0, type_draw)
            assert rows[2][i].tolist() == [r.discounted_revenue for r in recs], (m0, type_draw)
    assert monte_carlo(table, 5e-324, "fixed_high", 50, seed=2).mean_revenue == 1.0


def test_subnormal_class_2_prior_accepts_in_period_0():
    # at v_low / v_high = 1e-310 the low cutoffs are subnormal and
    # (1 - m0) / m0 overflows at m0 = 3e-310, a class-2 prior; the high type
    # still buys in period 0 with probability 1 - odds(mu_bar_1) / odds(m0),
    # about 2/3, and else in period 1, where the next belief is 0, for sure
    table = compute_cutoffs(MarketParams(1e-310, 1.0, 0.9))
    assert table.delay_class(3e-310) == 2
    hist = monte_carlo(table, 3e-310, "fixed_high", 1000, seed=0).trade_time_histogram
    assert set(hist) == {0, 1} and abs(hist[0] / 1000 - 2 / 3) < 0.05
