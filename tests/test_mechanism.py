import json

import numpy as np
import pytest

from duropoly import (
    MarketParams,
    MechanismConsistencyError,
    build_mechanism,
    buyer_rent,
    check_binding_constraints,
    compute_cutoffs,
    equilibrium_split,
    posted_price_view,
    simulate_path,
)
from duropoly.cutoffs import CutoffTable
from duropoly.mechanism import Mechanism

from helpers import SOLVE_CASES, solve_into, uncut_table


def test_split_no_delay(table08):
    split = equilibrium_split(table08, 0.3)
    assert split.posterior_sale == 0.3
    assert split.weight_sale == 1.0
    assert split.q_sale == 1.0 and split.q_delay == 1.0


def test_split_one_delay(table08):
    split = equilibrium_split(table08, 0.6)
    assert (split.posterior_delay, split.posterior_sale) == (0.0, 1.0)
    assert split.weight_sale == 0.6 and split.weight_delay == pytest.approx(0.4)
    assert split.q_delay == 0.0 and split.q_sale == 1.0


def test_split_at_second_cutoff(table08):
    c2 = table08.cutoffs[2]
    split = equilibrium_split(table08, c2)
    assert split.posterior_delay == 0.5
    assert split.weight_sale == pytest.approx((c2 - 0.5) / 0.5, abs=1e-15)


def test_split_bayes_plausible(table08):
    for m0 in np.linspace(0.0, 0.999, 501):
        split = equilibrium_split(table08, float(m0))
        mean = split.weight_sale * split.posterior_sale + split.weight_delay * split.posterior_delay
        assert abs(mean - m0) < 1e-14
        assert abs(split.weight_sale + split.weight_delay - 1.0) < 1e-14
        assert 0.0 <= split.weight_sale <= 1.0


def test_split_degenerate(tabledeg):
    split = equilibrium_split(tabledeg, 0.4)
    assert (split.posterior_delay, split.posterior_sale) == (0.0, 1.0)
    assert split.weight_sale == 0.4
    zero = equilibrium_split(tabledeg, 0.0)
    assert zero.q_sale == 0.0 and zero.q_delay == 0.0


@pytest.fixture(scope="module")
def table0999():
    table = compute_cutoffs(MarketParams(1.0, 2.0, 0.999))
    assert len(table.prices) == 52  # classes 0 to 51
    return table


@pytest.mark.parametrize("n", range(51))
def test_price_identity_to_machine_epsilon(table0999, n):
    # the high type's rent at the posted price is delta^n dv
    p, price = table0999.params, table0999.prices[n]
    if n == 0:
        assert price == p.v_low
    else:
        resid = p.v_high - price - p.delta**n * p.delta_v
        assert abs(resid) <= 2.3e-16 * p.v_high


def test_price_staircase(table0999):
    p, prices = table0999.params, table0999.prices.tolist()
    assert prices[0] == p.v_low
    assert all(a < b for a, b in zip(prices, prices[1:]))
    assert all(x < p.v_high for x in prices)
    # geometric approach to v_high (the subtraction costs a few ulps of 2.0)
    gaps = [p.v_high - x for x in prices[1:]]
    for a, b in zip(gaps, gaps[1:]):
        assert b / a == pytest.approx(p.delta, rel=1e-9)


def test_mechanism_no_delay(table08):
    m = build_mechanism(table08, 0.3)
    assert m.n == 0
    assert m.trade_prob == {0.3: 1.0}
    assert m.transfer == {0.3: 1.0}
    assert m.device == {"low": {0.3: 1.0}, "high": {0.3: 1.0}}


def test_mechanism_one_delay(table08):
    m = build_mechanism(table08, 0.6)
    # the delay posterior is 0, which carries no weight for the high type
    assert m.device["high"] == {0.0: 0.0, 1.0: 1.0}
    assert m.device["low"] == {0.0: 1.0}
    assert m.transfer[1.0] == 1.2
    assert m.trade_prob == {1.0: 1.0, 0.0: 0.0}


def test_mechanism_two_delay(table08):
    m = build_mechanism(table08, 0.85)
    assert m.n == 2
    assert m.transfer[1.0] == pytest.approx(1.36, abs=1e-12)
    assert m.transfer[0.5] == 0.0
    assert all(type(c) is float for c in m.transfer)  # Python floats, read off the cutoff array


def test_mechanism_degenerate(tabledeg):
    m = build_mechanism(tabledeg, 0.5)
    assert m.transfer[1.0] == tabledeg.params.v_high
    # the class-1 mechanism with cutoff 0 and zero delay weight
    assert m.device == {"low": {0.0: 1.0}, "high": {0.0: 0.0, 1.0: 1.0}}
    null = build_mechanism(tabledeg, 0.0)
    assert null.trade_prob == {0.0: 0.0}


def test_device_distributions_sum_to_one(table08):
    for m0 in np.linspace(0.01, 0.99, 301):
        m = build_mechanism(table08, float(m0))
        for dist in m.device.values():
            assert abs(sum(dist.values()) - 1.0) < 1e-14
        for prob in m.device["high"].values():
            assert -1e-15 <= prob <= 1.0 + 1e-15


def test_device_bayes_consistent(table08):
    # each posterior label equals the Bayes update it induces
    for m0 in np.linspace(0.001, 0.999, 1001):
        m0 = float(m0)
        mech = build_mechanism(table08, m0)
        for post in mech.device["low"].keys() | mech.device["high"].keys():
            tau = (1.0 - m0) * mech.device["low"].get(post, 0.0) + m0 * mech.device["high"].get(post, 0.0)
            if tau > 0.0:
                assert abs(post * tau - m0 * mech.device["high"].get(post, 0.0)) < 1e-12


def test_device_marginal_matches_split(table08):
    for m0 in np.linspace(0.01, 0.99, 301):
        m0 = float(m0)
        mech = build_mechanism(table08, m0)
        split = equilibrium_split(table08, m0)
        tau_delay = (1.0 - m0) * mech.device["low"].get(split.posterior_delay, 0.0)
        tau_delay += m0 * mech.device["high"].get(split.posterior_delay, 0.0)
        if split.weight_delay > 0.0:
            assert abs(tau_delay - split.weight_delay) < 1e-14


def test_transfers_nonnegative_zero_at_no_trade(table08):
    for m0 in np.linspace(0.01, 0.99, 301):
        mech = build_mechanism(table08, float(m0))
        for post, t in mech.transfer.items():
            assert t >= 0.0
            if mech.trade_prob[post] == 0.0:
                assert t == 0.0


def test_low_type_excluded(p08, table08):
    for m0 in (0.55, 0.85, 0.95):
        mech = build_mechanism(table08, m0)
        assert p08.v_low - mech.transfer[1.0] < 0.0


def test_posted_price_view_one_delay(p08, table08):
    view = posted_price_view(build_mechanism(table08, 0.6), table08)
    assert p08.v_high - view.price == p08.delta * p08.delta_v
    assert view.accept_prob_high == 1.0
    assert view.reject_posterior == 0.0


def test_posted_price_view_two_delay(p08, table08):
    view = posted_price_view(build_mechanism(table08, 0.85), table08)
    assert p08.v_high - view.price == pytest.approx(0.64, abs=1e-15)
    assert view.reject_posterior == 0.5


def test_posted_price_view_no_delay(table08):
    view = posted_price_view(build_mechanism(table08, 0.3), table08)
    assert view.price == 1.0
    assert view.accept_prob_high == 1.0


def test_posted_price_view_degenerate(tabledeg):
    view = posted_price_view(build_mechanism(tabledeg, 0.5), tabledeg)
    assert view.price == tabledeg.params.v_high
    assert view.reject_posterior == 0.0


def test_posted_price_view_detects_tampering(table08):
    good = build_mechanism(table08, 0.85)
    bad = Mechanism(
        prior=good.prior,
        n=good.n,
        device=good.device,
        trade_prob=good.trade_prob,
        transfer={**good.transfer, 1.0: good.transfer[1.0] + 1e-6},
    )
    with pytest.raises(MechanismConsistencyError):
        posted_price_view(bad, table08)


def test_posted_price_view_rejects_a_price_at_v_low(table08):
    # table08's chain at delta = 1 - 2^-53: the class-1 price
    # 2 - delta (2 - 1) rounds to v_low = 1, which the low type would accept
    bad = CutoffTable(MarketParams(1.0, 2.0, 1.0 - 2.0**-53), table08.odds, table08.intercepts)
    assert bad.prices[1] == 1.0
    with pytest.raises(MechanismConsistencyError, match="does not exclude the low type"):
        posted_price_view(build_mechanism(bad, 0.6), bad)


def test_build_mechanism_rejects_prior_1(table08, tabledeg):
    for table in (table08, tabledeg):
        with pytest.raises(ValueError, match="prior 1"):
            build_mechanism(table, 1.0)


@pytest.mark.parametrize("market, extra", [
    ((1.0, 2.0, 0.8), []),
    ((1.0, 2.0, 0.99), [1.0 - 1e-14]),
    ((1e-3, 1.0, 0.999), []),
    ((1e-310, 1.0, 0.9), [3e-310]),
])
def test_accept_prob_high_is_the_simulators_period_0_threshold(market, extra):
    # at the first, middle and last float prior of every class n >= 1, a
    # period-0 draw one ulp below the mechanism's accept_prob_high trades
    # in simulate_path, and a draw equal to it does not: the same float
    table = compute_cutoffs(MarketParams(*market))
    lo = table.cutoffs[1:]
    hi = np.append(table.cutoffs[2:], 1.0)
    mid = (lo + hi) / 2.0  # rounds to hi where lo and hi are adjacent floats
    priors = [*lo.tolist(), *mid[mid < hi].tolist(), *np.nextafter(hi, 0.0).tolist(), *extra]
    misses = []
    for m0 in priors:
        assert table.delay_class(m0) >= 1, m0
        p = posted_price_view(build_mechanism(table, m0), table).accept_prob_high
        for u, trades in ((float(np.nextafter(p, 0.0)), True), (p, False)):
            if (simulate_path(table, m0, "high", lambda: u).trade_period == 0) != trades:
                misses.append((m0, u, trades))
    assert misses == []


def test_binding_constraints(p08, table08):
    for m0 in (0.3, 0.6, 0.85, 0.97):
        res = check_binding_constraints(build_mechanism(table08, m0), table08)
        assert abs(res.participation_low) < 1e-12 * p08.v_high
        assert abs(res.truthtelling_high) < 1e-12 * p08.v_high


def test_binding_constraints_degenerate(tabledeg):
    res = check_binding_constraints(build_mechanism(tabledeg, 0.5), tabledeg)
    assert res.participation_low == 0.0
    assert abs(res.truthtelling_high) < 1e-12


def test_knife_edge_tie_break(table08):
    # a prior on a cutoff takes the longer delay
    c2 = table08.cutoffs[2]
    assert build_mechanism(table08, c2).n == 2


def test_mechanism_json(tmp_path):
    # mechanism.json, as solve writes it, reads back to the built mechanism
    for i, (v_low, v_high, delta, mu0, n) in enumerate(SOLVE_CASES):
        out = tmp_path / str(i)
        solve_into(out, v_low, v_high, delta, mu0)
        table = compute_cutoffs(MarketParams(v_low, v_high, delta))
        mech = build_mechanism(table, mu0)
        view = posted_price_view(mech, table)
        data = json.loads((out / "mechanism.json").read_text())
        assert data["prior"] == mech.prior == mu0
        assert data["n"] == mech.n == n
        assert data["device"].keys() == {"low", "high"}
        for report, dist in mech.device.items():
            assert dict(map(tuple, data["device"][report])) == dist
        assert dict(map(tuple, data["trade_prob"])) == mech.trade_prob
        assert dict(map(tuple, data["transfer"])) == mech.transfer
        assert data["posted_price"] == {
            "price": view.price,
            "accept_prob_high": view.accept_prob_high,
            "reject_posterior": view.reject_posterior,
        }
        assert data["posted_price"]["price"] == mech.transfer[1.0 if n else mu0]


def test_high_rent_consistent_with_price(p08, table08):
    # accepting now and rejecting once both leave the high type delta^n dv
    for m0 in (0.6, 0.85, 0.93):
        view = posted_price_view(build_mechanism(table08, m0), table08)
        n = table08.delay_class(m0)
        assert p08.v_high - view.price == pytest.approx(buyer_rent(table08, m0), abs=1e-14)
        assert buyer_rent(table08, m0) == pytest.approx(
            p08.delta * buyer_rent(table08, view.reject_posterior), abs=1e-14
        )
        assert n == table08.delay_class(view.reject_posterior) + 1


@pytest.mark.parametrize("v_low, v_high, delta, top", [
    (1e-3, 1.0, 0.999, 290),
    (0.0195, 1.0, 0.998, 189),
])
def test_mechanism_on_tied_beliefs(v_low, v_high, delta, top):
    # on the uncut chain, cutoffs near belief 1 repeat a float belief, so a
    # reject posterior searched by its belief lands one class too high; read
    # by its class, it prices the mechanism at every cutoff and at 1 - 2^-53
    table = uncut_table(MarketParams(v_low, v_high, delta))
    corner = 1.0 - 2.0**-53
    assert table.delay_class(corner) == top == len(table.odds) - 1
    for m0 in [*np.unique(table.cutoffs).tolist(), corner]:
        mech = build_mechanism(table, m0)
        posted_price_view(mech, table)
        res = check_binding_constraints(mech, table)
        assert abs(res.participation_low) <= 1e-12 * v_high, m0
        assert abs(res.truthtelling_high) <= 1e-12 * v_high, m0
