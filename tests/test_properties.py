"""Properties over the market domain: (v_low / v_high, delta, prior) drawn
at random, with v_low = 0 among the ratios."""
import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duropoly import (
    MarketParams,
    build_mechanism,
    buyer_rent,
    compute_cutoffs,
    deviation_scan,
    equilibrium_split,
    eval_R,
    mu_bar_1,
    posted_price_view,
)

from helpers import RESOLVED_IN_BELIEF, exact_chain, exact_R, oracle_R

V_HIGH = 2.0  # a power of two: v_low / v_high is the drawn ratio exactly


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ratio=st.one_of(st.just(0.0), st.floats(1e-6, 0.99)),
    delta=st.floats(0.05, 0.995),
    mu0=st.floats(0.0, float(np.nextafter(1.0, 0.0))),
    mu_prime=st.floats(0.0, 1.0),
)
# the largest float prior below 1, which a chain stopped at a rounded belief
# put one class too high
@example(ratio=0.5, delta=0.8, mu0=1 - 2**-53, mu_prime=0.5)
@example(ratio=0.0, delta=0.9, mu0=0.0, mu_prime=0.0)
@example(ratio=0.0, delta=0.9, mu0=0.3, mu_prime=0.5)
@example(ratio=0.0, delta=0.9, mu0=5e-324, mu_prime=1.0)
def test_equilibrium_holds_over_the_domain(ratio, delta, mu0, mu_prime):
    p = MarketParams(ratio * V_HIGH, V_HIGH, delta)
    table = compute_cutoffs(p)
    n = table.delay_class(mu0)

    # the high type's rent delta^n * dv; the low type is never served at v_low = 0
    assert buyer_rent(table, mu0) == (0.0 if ratio == 0.0 else delta**n * p.delta_v)
    posted_price_view(build_mechanism(table, mu0), table)  # raises on a broken identity

    r = eval_R(table, mu_prime, mu0)
    k = table.delay_class(mu_prime)
    # R carries the term (1 - mu') z0 (v_high - v_low), z0 the prior's odds;
    # only its rounding grows with z0
    tol = 1e-12 * V_HIGH * (1.0 + (1.0 - mu_prime) * mu0 / (1.0 - mu0))
    if ratio == 0.0:
        assert r == mu_prime * V_HIGH
    elif 1.0 - table.cutoffs[k] >= RESOLVED_IN_BELIEF * (1.0 - delta):
        assert abs(r - oracle_R(p, table.cutoffs, mu_prime, mu0)) <= tol
    else:  # a tail class, where the oracle's recursion loses accuracy
        want = exact_R(exact_chain(ratio, delta, k + 1), k, mu_prime, mu0) * V_HIGH
        assert abs(r - want) <= tol

    assert deviation_scan(table, mu0).passed


def over_the_table_domain(test):
    """100 derandomized (ratio, delta) markets and five corners, delta down
    to the least subnormal, where delta (1 - r) underflows to 0."""
    for ratio, delta in [(0.5, 5e-324), (0.0, 0.5), (0.99, 0.01), (0.99, 0.99999),
                         (5e-324, 0.99999)]:
        test = example(ratio=ratio, delta=delta)(test)
    return settings(max_examples=100, deadline=None, derandomize=True)(given(
        ratio=st.one_of(st.just(0.0), st.floats(5e-324, 0.99)),
        delta=st.one_of(st.floats(0.01, 0.99999), st.floats(5e-324, 0.01)),
    )(test))


@over_the_table_domain
def test_table_invariants_over_the_domain(ratio, delta):
    table = compute_cutoffs(MarketParams(ratio * V_HIGH, V_HIGH, delta))
    z, c = table.odds, table.cutoffs
    assert z[0] == 0.0 and c[1] == ratio
    assert np.all(z[2:] > z[1:-1]) and np.all(c[2:] > c[1:-1]) and c[-1] < 1.0
    assert len(table.intercepts) == len(z)
    # each cutoff from the second on is the first float prior of its class:
    # its odds reach z_n, the odds of the float below it do not
    prev = np.nextafter(c[2:], 0.0)
    assert np.all(c[2:] / (1.0 - c[2:]) >= z[2:]) and np.all(z[2:] > prev / (1.0 - prev))
    # the posted prices: v_low in class 0, then a staircase up to v_high whose
    # gap to v_high is the high type's rent delta^n dv
    p, prices = table.params, table.prices
    assert prices[0] == p.v_low and not prices.flags.writeable
    assert np.all(prices[1:] >= prices[:-1]) and np.all(prices <= p.v_high)
    if ratio == 0.0:
        assert np.all(prices[1:] == p.v_high)
    else:
        assert prices[1] > p.v_low  # the guard in compute_cutoffs
        rent = np.asarray([delta**n * p.delta_v for n in range(1, len(prices))])
        assert np.all(np.abs(p.v_high - prices[1:] - rent) <= 2.3e-16 * p.v_high)


@over_the_table_domain
def test_split_shape_over_the_domain(ratio, delta):
    # the two-point split the binding constraints force (Bester & Strausz
    # 2001), at every cutoff, its float neighbours and a grid, in order
    p = MarketParams(ratio * V_HIGH, V_HIGH, delta)
    table = compute_cutoffs(p)
    cuts = table.cutoffs
    priors = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101)[:-1], cuts,
                                       np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)]))
    s = equilibrium_split(table, priors)
    # the prior's class by bisection: its own cutoff is the largest at or below it
    k = np.asarray([bisect.bisect_right(table.cutoffs, m) - 1 for m in priors.tolist()])
    delays = priors >= mu_bar_1(p)
    assert np.array_equal(s.q_delay == 0.0, delays)
    # a delaying prior falls to the cutoff below its own, and sells at 1
    assert np.array_equal(s.posterior_delay[delays], cuts[k[delays] - 1])
    assert np.all(np.diff(s.posterior_delay[delays]) >= 0.0)
    sells = delays & (priors > 0.0)
    assert np.all(s.posterior_sale[sells] == 1.0) and np.all(s.q_sale[sells] == 1.0)
    if ratio == 0.0:  # but belief 0 never trades
        assert priors[0] == 0.0 and s.weight_sale[0] == 0.0 and s.q_delay[0] == 0.0
    # class 0 sells at the prior, without information
    pool = ~delays
    assert np.all(s.posterior_sale[pool] == priors[pool]) and np.all(s.weight_sale[pool] == 1.0)
    assert np.all(s.q_sale[pool] == 1.0)
    ws, wd = s.weight_sale, s.weight_delay
    assert np.all((ws >= 0.0) & (wd >= 0.0)) and np.all(np.abs(ws + wd - 1.0) <= 1e-14)
    assert np.all(np.abs(ws * s.posterior_sale + wd * s.posterior_delay - priors) <= 1e-14)


@pytest.mark.parametrize("v_low, v_high, delta", [
    (1.0, 2.0, 0.8), (1.0, 2.0, 0.99), (1.0, 2.0, 0.999), (0.1, 1.0, 0.5)])
def test_every_prior_near_one_is_an_equilibrium(v_low, v_high, delta):
    # every cutoff, its two float neighbours and 1 - 2^-k: where a cutoff
    # rounded an ulp off its odds, or the chain ended on a rounded belief,
    # 1 to 8 of these priors lay in a class whose line is not their best
    table = compute_cutoffs(MarketParams(v_low, v_high, delta))
    c = table.cutoffs[1:]
    priors = np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0),
                             1.0 - 2.0 ** -np.arange(1, 54)])
    priors = priors[priors < 1.0]
    report = deviation_scan(table, priors)
    assert np.all(report.worst_gap <= report.tolerance), priors[report.worst_gap > report.tolerance]


def test_prior_above_last_placed_cutoff_is_an_equilibrium(table08):
    # 1 - 1e-9 lies above the last cutoff root finding placed (0.99999884),
    # which gave it class 9 and a witness split gaining 0.0265 over that
    # class's value; the odds chain places seven more cutoffs
    assert table08.delay_class(1.0 - 1e-9) == 11
    assert deviation_scan(table08, 1.0 - 1e-9).passed
