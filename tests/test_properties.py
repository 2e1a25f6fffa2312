"""Properties over the market domain: (v_low / v_high, delta, prior) drawn
at random, with v_low = 0 among the ratios."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duropoly import (
    MarketParams,
    build_mechanism,
    buyer_rent,
    compute_cutoffs,
    deviation_scan,
    eval_R,
    posted_price_view,
)

from helpers import oracle_R

V_HIGH = 2.0  # a power of two: v_low / v_high is the drawn ratio exactly


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ratio=st.one_of(st.just(0.0), st.floats(1e-6, 0.99)),
    delta=st.floats(0.05, 0.995),
    # the range verify scans; priors above the last placed cutoff fail (ROADMAP N)
    mu0=st.floats(0.0, 0.99),
    mu_prime=st.floats(0.0, 1.0),
)
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
    if ratio == 0.0:
        assert r == mu_prime * V_HIGH
    else:
        assert abs(r - oracle_R(p, table.cutoffs, mu_prime, mu0)) <= 1e-12 * V_HIGH

    assert deviation_scan(table, mu0).passed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP N")
def test_prior_above_last_placed_cutoff_is_an_equilibrium(table08):
    # 1 - 1e-9 lies above the last cutoff the float chain places (0.99999884)
    # and gets class 9; the exact chain places six more, and the witness split
    # gains 0.0265 over the class-9 equilibrium
    assert deviation_scan(table08, 1.0 - 1e-9).passed
